//! Filesystem configuration: journaling mode and host-side timing.

use bio_sim::SimDuration;

/// Which journaling implementation the filesystem runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsMode {
    /// Stock EXT4, ordered journaling, journal commit sealed with
    /// `FLUSH|FUA` (the paper's EXT4-DR baseline; on a supercap device the
    /// flush is cheap, giving the "quick flush" variant of §4.4).
    #[default]
    Ext4,
    /// EXT4 mounted `nobarrier`: the commit block is a plain write, no
    /// flush anywhere (EXT4-OD). Fast and crash-unsafe.
    Ext4NoBarrier,
    /// BarrierFS with Dual-Mode Journaling (§4): order-preserving dispatch,
    /// separate commit and flush threads, `fbarrier`/`fdatabarrier`.
    BarrierFs,
    /// OptFS-style optimistic crash consistency: `osync` semantics with
    /// Wait-on-Transfer ordering, delayed durability, and selective data
    /// journaling.
    OptFs,
}

/// Host-side timing and journaling parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FsConfig {
    /// Journaling implementation.
    pub mode: FsMode,
    /// Journal area size in 4 KiB blocks.
    pub journal_blocks: u64,
    /// Kernel timer-tick granularity for inode timestamps. Writes landing
    /// in the same tick do not re-dirty the inode, which makes `fsync`
    /// degenerate to `fdatasync` (the effect behind Fig 11).
    pub timer_tick: SimDuration,
    /// Latency of blocking and being rescheduled (one sleep/wake pair).
    pub ctx_switch: SimDuration,
    /// Wake-to-run latency of the JBD/commit thread after an application
    /// thread triggers a commit (the paper instruments ~160 µs between the
    /// application thread and the commit thread on their server).
    pub commit_thread_wake: SimDuration,
    /// Interval of the background writeback daemon (pdflush); dirty data
    /// pages older than one interval get written back as orderless
    /// requests.
    pub writeback_interval: SimDuration,
    /// OptFS: background durability flush interval (delayed flushes).
    pub optfs_flush_interval: SimDuration,
    /// OptFS: CPU cost to scan one journaled page during `osync` (the
    /// selective-data-journaling overhead the paper discusses in §6.5).
    pub optfs_scan_per_page: SimDuration,
    /// Maximum dirty data pages written back per pdflush round.
    pub writeback_batch: usize,
}

impl Default for FsConfig {
    fn default() -> Self {
        FsConfig::new(FsMode::Ext4)
    }
}

impl FsConfig {
    /// Sensible defaults for a mode (values motivated in DESIGN.md).
    pub fn new(mode: FsMode) -> FsConfig {
        FsConfig {
            mode,
            journal_blocks: 8192,
            timer_tick: SimDuration::from_millis(4), // one jiffy at HZ=250 (Linux 3.10)
            ctx_switch: SimDuration::from_micros(15),
            commit_thread_wake: SimDuration::from_micros(30),
            writeback_interval: SimDuration::from_millis(500),
            optfs_flush_interval: SimDuration::from_millis(100),
            optfs_scan_per_page: SimDuration::from_micros(2),
            writeback_batch: 64,
        }
    }

    /// Builder-style journal size override.
    pub fn with_journal_blocks(mut self, blocks: u64) -> FsConfig {
        self.journal_blocks = blocks.max(16);
        self
    }

    /// Builder-style timer-tick override.
    pub fn with_timer_tick(mut self, tick: SimDuration) -> FsConfig {
        self.timer_tick = tick;
        self
    }

    /// Validates parameters.
    ///
    /// # Panics
    ///
    /// Panics if the journal is too small to hold one transaction.
    pub fn validate(&self) {
        assert!(self.journal_blocks >= 16, "journal too small");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        for mode in [
            FsMode::Ext4,
            FsMode::Ext4NoBarrier,
            FsMode::BarrierFs,
            FsMode::OptFs,
        ] {
            FsConfig::new(mode).validate();
        }
    }

    #[test]
    fn builders() {
        let c = FsConfig::new(FsMode::BarrierFs)
            .with_journal_blocks(256)
            .with_timer_tick(SimDuration::from_millis(1));
        assert_eq!(c.journal_blocks, 256);
        assert_eq!(c.timer_tick, SimDuration::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "journal too small")]
    fn tiny_journal_rejected() {
        let c = FsConfig {
            journal_blocks: 4,
            ..FsConfig::default()
        };
        c.validate();
    }
}
