//! Stack configuration: which filesystem, topology and device make up one
//! experiment cell. The block layer has no discipline to configure: every
//! lane runs the one elevator, and a request's flags alone decide the
//! command it becomes, so barriers reach a device exactly when the
//! filesystem issues them.
//!
//! The paper's experiment matrix is spanned by presets:
//!
//! | Label | Preset | Meaning |
//! |---|---|---|
//! | EXT4-DR | [`StackConfig::ext4_dr`] | stock EXT4, durability guarantee |
//! | EXT4-OD | [`StackConfig::ext4_od`] | EXT4 `nobarrier`, ordering only |
//! | BFS-DR | [`StackConfig::bfs`] + `fsync` | BarrierFS, durability guarantee |
//! | BFS-OD | [`StackConfig::bfs().ordering_only()`] + `fbarrier` | BarrierFS, ordering only |
//! | OptFS | [`StackConfig::optfs`] | osync-based ordering |

use bio_block::Topology;
use bio_flash::DeviceProfile;
use bio_fs::{FsConfig, FsMode};

/// What a "sync" means in the workload driving this stack: full
/// durability (`fsync`-style, the DR rows of the paper's tables) or
/// ordering only (`fbarrier`/`osync`/`nobarrier`, the OD rows).
///
/// The discipline is a labelling concern — the workload decides which
/// syscall it issues — but recording it on the config lets
/// [`StackConfig::label`] distinguish BFS-DR from BFS-OD instead of
/// rendering both as `BarrierFS@…`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncDiscipline {
    /// Syncs make data durable before returning (DR).
    #[default]
    Durability,
    /// Syncs only order updates; durability is not waited on (OD).
    OrderingOnly,
}

/// Complete configuration of one simulated IO stack.
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// Device parameters (every device in a multi-device topology uses
    /// this profile).
    pub device: DeviceProfile,
    /// Filesystem parameters.
    pub fs: FsConfig,
    /// Lane topology: hardware queues × devices (default 1×1).
    pub topology: Topology,
    /// Sync discipline the driving workload uses (labels only).
    pub discipline: SyncDiscipline,
    /// Master seed; every run with the same config and seed is identical.
    pub seed: u64,
    /// Record device transfer history for crash audits (memory-heavy).
    pub record_history: bool,
}

impl StackConfig {
    /// Stock EXT4 with full flush/FUA commits (EXT4-DR rows; on a
    /// supercap device this is the "quick flush" variant).
    pub fn ext4_dr(device: DeviceProfile) -> StackConfig {
        StackConfig::base(device, FsMode::Ext4)
    }

    /// EXT4 mounted `nobarrier` (EXT4-OD rows): ordering by transfer
    /// waits only, no flush anywhere.
    pub fn ext4_od(device: DeviceProfile) -> StackConfig {
        StackConfig::base(device, FsMode::Ext4NoBarrier).ordering_only()
    }

    /// BarrierFS over the order-preserving block layer. Use `fsync` for
    /// BFS-DR and `fbarrier`/`fdatabarrier` plus
    /// [`StackConfig::ordering_only`] for BFS-OD.
    pub fn bfs(device: DeviceProfile) -> StackConfig {
        StackConfig::base(device, FsMode::BarrierFs)
    }

    /// OptFS-style optimistic crash consistency (osync).
    pub fn optfs(device: DeviceProfile) -> StackConfig {
        StackConfig::base(device, FsMode::OptFs).ordering_only()
    }

    fn base(device: DeviceProfile, mode: FsMode) -> StackConfig {
        StackConfig {
            device,
            fs: FsConfig::new(mode),
            topology: Topology::single(),
            discipline: SyncDiscipline::Durability,
            seed: 42,
            record_history: false,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> StackConfig {
        self.seed = seed;
        self
    }

    /// Builder-style history recording (needed before calling
    /// crash-audit helpers).
    pub fn with_history(mut self) -> StackConfig {
        self.record_history = true;
        self
    }

    /// Builder-style lane topology override.
    pub fn with_topology(mut self, topology: Topology) -> StackConfig {
        self.topology = topology;
        self
    }

    /// Marks the workload as ordering-only (OD labels: the workload syncs
    /// with `fbarrier`/`osync`-class calls instead of `fsync`).
    pub fn ordering_only(mut self) -> StackConfig {
        self.discipline = SyncDiscipline::OrderingOnly;
        self
    }

    /// Short stack name encoding filesystem and sync discipline, matching
    /// the paper's row labels: `EXT4-DR`, `EXT4-OD`, `BFS-DR`, `BFS-OD`,
    /// `OptFS`.
    pub fn stack_label(&self) -> &'static str {
        match (self.fs.mode, self.discipline) {
            (FsMode::Ext4, SyncDiscipline::Durability) => "EXT4-DR",
            (FsMode::Ext4, SyncDiscipline::OrderingOnly) => "EXT4-nb-OD",
            (FsMode::Ext4NoBarrier, _) => "EXT4-OD",
            (FsMode::BarrierFs, SyncDiscipline::Durability) => "BFS-DR",
            (FsMode::BarrierFs, SyncDiscipline::OrderingOnly) => "BFS-OD",
            (FsMode::OptFs, _) => "OptFS",
        }
    }

    /// Full label for reports: stack, device and — when not the classical
    /// 1×1 — the lane topology (`BFS-OD@plain-SSD 8q×4dev`).
    pub fn label(&self) -> String {
        if self.topology.nr_lanes() == 1 {
            format!("{}@{}", self.stack_label(), self.device.name)
        } else {
            format!(
                "{}@{} {}q×{}dev",
                self.stack_label(),
                self.device.name,
                self.topology.nr_hw_queues,
                self.topology.nr_devices
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_pick_matching_modes() {
        let d = DeviceProfile::ufs();
        assert_eq!(StackConfig::ext4_dr(d.clone()).fs.mode, FsMode::Ext4);
        assert_eq!(
            StackConfig::ext4_od(d.clone()).fs.mode,
            FsMode::Ext4NoBarrier
        );
        assert_eq!(StackConfig::bfs(d.clone()).fs.mode, FsMode::BarrierFs);
        assert_eq!(StackConfig::optfs(d).fs.mode, FsMode::OptFs);
    }

    #[test]
    fn labels_are_informative() {
        let c = StackConfig::bfs(DeviceProfile::plain_ssd());
        assert_eq!(c.label(), "BFS-DR@plain-SSD");
        assert_eq!(c.ordering_only().label(), "BFS-OD@plain-SSD");
        let c = StackConfig::ext4_dr(DeviceProfile::ufs());
        assert_eq!(c.label(), "EXT4-DR@UFS");
        assert_eq!(
            StackConfig::ext4_od(DeviceProfile::ufs()).stack_label(),
            "EXT4-OD"
        );
    }

    #[test]
    fn labels_encode_topology() {
        let c = StackConfig::bfs(DeviceProfile::plain_ssd())
            .ordering_only()
            .with_topology(Topology::new(8, 4, 8));
        assert_eq!(c.label(), "BFS-OD@plain-SSD 8q×4dev");
    }

    #[test]
    fn builders() {
        let c = StackConfig::bfs(DeviceProfile::ufs())
            .with_seed(7)
            .with_history()
            .with_topology(Topology::new(2, 2, 16));
        assert_eq!(c.seed, 7);
        assert!(c.record_history);
        assert_eq!(c.topology.nr_lanes(), 4);
    }
}
