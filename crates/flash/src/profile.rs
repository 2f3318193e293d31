//! Device profiles: the parameter sets that stand in for the paper's three
//! test devices (plus extras for the Fig 1 parallelism sweep).
//!
//! | Paper device | Preset | Notes |
//! |---|---|---|
//! | Galaxy S6 UFS 2.0, QD 16, single channel | [`DeviceProfile::ufs`] | native barrier (LFS in-order recovery) |
//! | 850 PRO, SATA 3.0, QD 32, 8 channels | [`DeviceProfile::plain_ssd`] | barrier emulated with 5% penalty |
//! | 843TN, SATA 3.0, QD 32, 8 channels, supercap | [`DeviceProfile::supercap_ssd`] | PLP: flush is ~free, barrier is free |
//! | HDD (Fig 1 reference points) | [`DeviceProfile::hdd`] | rotational flush penalty |
//! | 32-channel flash array (Fig 1 device G) | [`DeviceProfile::flash_array`] | parametric channel count |
//!
//! The latency constants are not calibrated to the paper yet. Table 1 of
//! the paper puts the *baseline* (EXT4, full flush) mean fsync latency at
//! UFS ≈ 1.3 ms, plain-SSD ≈ 6 ms and supercap ≈ 0.15 ms; `figures
//! --table 1` prints 0.91, 0.93 and 0.10 ms from these constants. ROADMAP
//! item 1 is the calibration that closes the gap.

use bio_sim::SimDuration;

/// How the device honours the cache-barrier command (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BarrierMode {
    /// Device does not support barrier writes; the writeback cache destages
    /// in whatever order it likes. Orderless baseline.
    #[default]
    Unsupported,
    /// Destage strictly epoch by epoch: all pages of epoch *n* programmed
    /// before any page of epoch *n+1* starts (in-order writeback).
    InOrderWriteback,
    /// Destage the whole cache as one atomic unit (transactional writeback);
    /// a crash discards incomplete units entirely.
    Transactional,
    /// Program freely but recover in order: the FTL appends in transfer
    /// order and crash recovery truncates the log at the first
    /// incompletely-programmed page (the paper's UFS implementation).
    LfsInOrderRecovery,
}

impl BarrierMode {
    /// True if this mode can honour `REQ_BARRIER` semantics.
    pub fn supports_barrier(self) -> bool {
        !matches!(self, BarrierMode::Unsupported)
    }
}

/// Extra cost applied to barrier-flagged writes, mirroring the paper's
/// "5% performance penalty to simulate the barrier overhead" on plain SSD.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BarrierOverhead {
    /// No overhead (supercap device, or native firmware support).
    #[default]
    Free,
    /// Service time of barrier writes inflated by this fraction.
    Fraction(f64),
}

impl BarrierOverhead {
    /// Multiplier applied to the service time of a barrier write.
    pub fn factor(self) -> f64 {
        match self {
            BarrierOverhead::Free => 1.0,
            BarrierOverhead::Fraction(f) => 1.0 + f.max(0.0),
        }
    }
}

/// Full parameter set for a simulated device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable name used in reports.
    pub name: String,
    /// Command queue depth (paper: UFS 16, SATA 32).
    pub queue_depth: usize,
    /// Independent flash channels.
    pub channels: usize,
    /// Ways (chips) per channel; `channels * ways` programs can proceed
    /// concurrently.
    pub ways: usize,
    /// Time to program one 4 KiB page into a flash cell.
    pub page_program: SimDuration,
    /// Relative jitter (stddev / mean) applied to each program.
    pub program_jitter: f64,
    /// Time to read one 4 KiB page from a flash cell.
    pub page_read: SimDuration,
    /// Time to erase a flash segment (GC cost).
    pub segment_erase: SimDuration,
    /// Host-link transfer time per 4 KiB block (DMA).
    pub dma_per_block: SimDuration,
    /// Fixed per-command link/protocol overhead.
    pub cmd_overhead: SimDuration,
    /// Writeback cache capacity, in 4 KiB blocks.
    pub cache_blocks: usize,
    /// Dirty-block fraction above which background destaging kicks in.
    pub destage_watermark: f64,
    /// Fixed controller-side latency for a flush command (drives the
    /// supercap `t_eps` of §4.4); cache-drain time comes on top unless the
    /// device has PLP.
    pub flush_overhead: SimDuration,
    /// Power-loss protection (supercapacitor): cache contents are always
    /// durable, flush is `flush_overhead` only, barrier is free.
    pub plp: bool,
    /// How the device enforces barrier semantics.
    pub barrier_mode: BarrierMode,
    /// Performance cost of a barrier write.
    pub barrier_overhead: BarrierOverhead,
    /// Number of flash segments (GC granularity).
    pub segments: usize,
    /// Pages per segment.
    pub pages_per_segment: usize,
    /// Free-segment fraction that triggers garbage collection.
    pub gc_low_watermark: f64,
}

impl DeviceProfile {
    /// Mobile UFS 2.0 device (paper's smartphone storage): QD 16, single
    /// channel, slow TLC programming, native barrier support via LFS-style
    /// in-order recovery.
    pub fn ufs() -> DeviceProfile {
        DeviceProfile {
            name: "UFS".to_string(),
            queue_depth: 16,
            channels: 1,
            ways: 16, // effective: dies x planes (16 KiB pages program 4 blocks)
            page_program: SimDuration::from_micros(450), // per 4 KiB effective
            program_jitter: 0.25,
            page_read: SimDuration::from_micros(70),
            segment_erase: SimDuration::from_millis(4),
            dma_per_block: SimDuration::from_micros(25),
            cmd_overhead: SimDuration::from_micros(60),
            cache_blocks: 512,
            destage_watermark: 0.5,
            flush_overhead: SimDuration::from_micros(150),
            plp: false,
            barrier_mode: BarrierMode::LfsInOrderRecovery,
            barrier_overhead: BarrierOverhead::Free,
            segments: 256,
            pages_per_segment: 256,
            gc_low_watermark: 0.08,
        }
    }

    /// Server SATA SSD without power-loss protection (paper's 850 PRO):
    /// QD 32, 8 channels, barrier emulated at a 5% penalty.
    pub fn plain_ssd() -> DeviceProfile {
        DeviceProfile {
            name: "plain-SSD".to_string(),
            queue_depth: 32,
            channels: 8,
            ways: 4,
            page_program: SimDuration::from_micros(325), // per 4 KiB effective (16 KiB MLC pages)
            program_jitter: 0.2,
            page_read: SimDuration::from_micros(60),
            segment_erase: SimDuration::from_millis(5),
            dma_per_block: SimDuration::from_micros(8),
            cmd_overhead: SimDuration::from_micros(40),
            cache_blocks: 4096,
            destage_watermark: 0.5,
            flush_overhead: SimDuration::from_micros(400),
            plp: false,
            // The paper emulates the barrier on this device as a flat 5%
            // penalty (§6.1); LFS-style recovery matches that: ordering is
            // honoured by recovery, not by serialising the writeback.
            barrier_mode: BarrierMode::LfsInOrderRecovery,
            barrier_overhead: BarrierOverhead::Fraction(0.05),
            segments: 512,
            pages_per_segment: 512,
            gc_low_watermark: 0.08,
        }
    }

    /// Server SATA SSD with a supercapacitor (paper's 843TN): the writeback
    /// cache is durable, so flush costs only the command round-trip and
    /// barrier ordering is free (§3.2: "supporting a barrier command is
    /// trivial" under PLP).
    pub fn supercap_ssd() -> DeviceProfile {
        DeviceProfile {
            name: "supercap-SSD".to_string(),
            queue_depth: 32,
            channels: 8,
            ways: 4,
            page_program: SimDuration::from_micros(300), // per 4 KiB effective
            program_jitter: 0.2,
            page_read: SimDuration::from_micros(60),
            segment_erase: SimDuration::from_millis(5),
            dma_per_block: SimDuration::from_micros(8),
            cmd_overhead: SimDuration::from_micros(40),
            cache_blocks: 4096,
            destage_watermark: 0.5,
            flush_overhead: SimDuration::from_micros(25),
            plp: true,
            barrier_mode: BarrierMode::Transactional,
            barrier_overhead: BarrierOverhead::Free,
            segments: 512,
            pages_per_segment: 512,
            gc_low_watermark: 0.08,
        }
    }

    /// A rotating hard drive, for the Fig 1 reference points: tiny
    /// parallelism and a large rotational flush penalty.
    pub fn hdd() -> DeviceProfile {
        DeviceProfile {
            name: "HDD".to_string(),
            queue_depth: 32,
            channels: 1,
            ways: 1,
            page_program: SimDuration::from_millis(3), // seek + settle per random 4K
            program_jitter: 0.4,
            page_read: SimDuration::from_millis(3),
            segment_erase: SimDuration::ZERO,
            dma_per_block: SimDuration::from_micros(30),
            cmd_overhead: SimDuration::from_micros(20),
            cache_blocks: 2048,
            destage_watermark: 0.5,
            flush_overhead: SimDuration::from_millis(8), // rotational drain
            plp: false,
            barrier_mode: BarrierMode::Unsupported,
            barrier_overhead: BarrierOverhead::Free,
            segments: 64,
            pages_per_segment: 4096,
            gc_low_watermark: 0.0,
        }
    }

    /// A parametric multi-channel flash array for the Fig 1 sweep
    /// (device G is a 32-channel array). Program/DMA constants follow the
    /// plain-SSD profile; only parallelism varies.
    pub fn flash_array(channels: usize) -> DeviceProfile {
        let mut p = DeviceProfile::plain_ssd();
        p.name = format!("flash-array-{channels}ch");
        p.channels = channels.max(1);
        p.ways = 4;
        p.queue_depth = 32.max(channels * 2);
        p.cache_blocks = 1024 * channels.max(1);
        p
    }

    /// An eMMC 5.0-class mobile device (Fig 1 device A): slower single
    /// channel part with a shallow queue.
    pub fn emmc() -> DeviceProfile {
        DeviceProfile {
            name: "eMMC5.0".to_string(),
            queue_depth: 8,
            channels: 1,
            ways: 4,
            page_program: SimDuration::from_micros(800), // per 4 KiB effective
            program_jitter: 0.3,
            page_read: SimDuration::from_micros(120),
            segment_erase: SimDuration::from_millis(6),
            dma_per_block: SimDuration::from_micros(70),
            cmd_overhead: SimDuration::from_micros(80),
            cache_blocks: 128,
            destage_watermark: 0.5,
            flush_overhead: SimDuration::from_micros(250),
            plp: false,
            barrier_mode: BarrierMode::InOrderWriteback,
            barrier_overhead: BarrierOverhead::Free,
            segments: 128,
            pages_per_segment: 128,
            gc_low_watermark: 0.08,
        }
    }

    /// Total number of concurrent flash programs the device sustains.
    pub fn parallelism(&self) -> usize {
        self.channels * self.ways
    }

    /// Logical capacity in 4 KiB blocks, leaving the configured
    /// over-provisioning headroom for GC.
    pub fn logical_blocks(&self) -> u64 {
        let physical = (self.segments * self.pages_per_segment) as u64;
        // 12.5% over-provisioning, floor of one segment.
        physical - (physical / 8).max(self.pages_per_segment as u64)
    }

    /// Builder-style override of the barrier mode.
    pub fn with_barrier_mode(mut self, mode: BarrierMode) -> DeviceProfile {
        self.barrier_mode = mode;
        self
    }

    /// Builder-style override of the queue depth.
    pub fn with_queue_depth(mut self, qd: usize) -> DeviceProfile {
        self.queue_depth = qd.max(1);
        self
    }

    /// Validates internal consistency; called by `Device::new`.
    ///
    /// # Panics
    ///
    /// Panics if any structural parameter, or the program time, is zero.
    pub fn validate(&self) {
        assert!(self.queue_depth > 0, "queue_depth must be positive");
        assert!(self.channels > 0 && self.ways > 0, "need at least one chip");
        assert!(self.cache_blocks > 0, "cache must hold at least one block");
        assert!(
            self.segments > 1 && self.pages_per_segment > 0,
            "need at least two segments for GC"
        );
        assert!(
            (0.0..=1.0).contains(&self.destage_watermark),
            "watermark must be a fraction"
        );
        // The destage pump pulls one candidate more than there are idle
        // chips: a started program has to keep its chip busy.
        assert!(
            self.page_program > SimDuration::ZERO,
            "a flash program must take time"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for p in [
            DeviceProfile::ufs(),
            DeviceProfile::plain_ssd(),
            DeviceProfile::supercap_ssd(),
            DeviceProfile::hdd(),
            DeviceProfile::emmc(),
            DeviceProfile::flash_array(32),
        ] {
            p.validate();
            assert!(p.logical_blocks() > 0);
        }
    }

    #[test]
    fn paper_queue_depths() {
        assert_eq!(DeviceProfile::ufs().queue_depth, 16);
        assert_eq!(DeviceProfile::plain_ssd().queue_depth, 32);
        assert_eq!(DeviceProfile::supercap_ssd().queue_depth, 32);
    }

    #[test]
    fn supercap_is_plp_and_free_barrier() {
        let p = DeviceProfile::supercap_ssd();
        assert!(p.plp);
        assert_eq!(p.barrier_overhead.factor(), 1.0);
        assert!(p.barrier_mode.supports_barrier());
    }

    #[test]
    fn plain_ssd_has_5pct_barrier_penalty() {
        let p = DeviceProfile::plain_ssd();
        assert!((p.barrier_overhead.factor() - 1.05).abs() < 1e-12);
    }

    #[test]
    fn parallelism_scales_with_channels() {
        assert_eq!(DeviceProfile::flash_array(32).parallelism(), 128);
        assert_eq!(DeviceProfile::ufs().parallelism(), 16);
    }

    #[test]
    fn logical_blocks_leave_overprovisioning() {
        let p = DeviceProfile::plain_ssd();
        let physical = (p.segments * p.pages_per_segment) as u64;
        assert!(p.logical_blocks() < physical);
    }

    #[test]
    fn builders_override() {
        let p = DeviceProfile::ufs()
            .with_barrier_mode(BarrierMode::Unsupported)
            .with_queue_depth(4);
        assert_eq!(p.barrier_mode, BarrierMode::Unsupported);
        assert_eq!(p.queue_depth, 4);
        assert!(!p.barrier_mode.supports_barrier());
    }

    #[test]
    #[should_panic(expected = "queue_depth")]
    fn validate_rejects_zero_qd() {
        let mut p = DeviceProfile::ufs();
        p.queue_depth = 0;
        p.validate();
    }
}
