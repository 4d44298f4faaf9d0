//! Engine configuration, including the paper's §5.4 ablation switches.

use crate::checkpoint::RecoveryConfig;
use crate::pipeline::PipelineConfig;
use gsd_io::DiskModel;
use gsd_runtime::IoAccessModel;

/// GraphSD engine options.
///
/// The defaults are the full system as published. The §5.4 baselines are
/// single-switch ablations, and two of the systems Table 1 compares
/// against are GraphSD with capability bits switched off:
///
/// | Paper id  | Meaning                              | Constructor |
/// |-----------|--------------------------------------|-------------|
/// | b1        | no cross-iteration update            | [`GraphSdConfig::b1_no_cross_iteration`] |
/// | b2        | no selective update                  | [`GraphSdConfig::b2_no_selective`] |
/// | b3        | full I/O model always                | [`GraphSdConfig::b3_always_full`] |
/// | b4        | on-demand I/O model always           | [`GraphSdConfig::b4_always_on_demand`] |
/// | Lumos     | b2 without the sub-block buffer      | [`GraphSdConfig::lumos`] |
/// | GridGraph | Lumos without cross-iteration update | [`GraphSdConfig::gridgraph`] |
#[derive(Debug, Clone)]
pub struct GraphSdConfig {
    /// Memory budget in bytes for buffering; `None` uses the paper's
    /// setting of 5 % of the graph's edge bytes.
    pub memory_budget: Option<u64>,
    /// Allow the on-demand I/O model / SCIU (`false` reproduces `b2`).
    pub enable_selective: bool,
    /// Allow cross-iteration value propagation (`false` reproduces `b1`).
    pub enable_cross_iter: bool,
    /// Pin the I/O access model instead of consulting the scheduler
    /// (`Some(Full)` = `b3`, `Some(OnDemand)` = `b4`).
    pub force_model: Option<IoAccessModel>,
    /// Buffer secondary sub-blocks between the two FCIU passes (§4.3).
    pub enable_buffering: bool,
    /// Disk model for the cost estimates; `None` asks the storage backend
    /// (a simulator knows its own model) and falls back to
    /// [`DiskModel::hdd`].
    pub disk_model: Option<DiskModel>,
    /// Prefetch pipeline sizing, or `None` (the default) for fully
    /// synchronous reads. Results are bit-identical either way; only
    /// wall time changes.
    pub prefetch: Option<PipelineConfig>,
    /// Iteration-granular checkpointing and crash recovery, or `None`
    /// (the default) to run unprotected. Like prefetching, checkpointing
    /// is contractually result-neutral: a run that resumes
    /// from a checkpoint commits bit-identical values, iteration counts
    /// and I/O accounting to an uninterrupted run (checkpoint traffic is
    /// excluded from the run's `stats.io`).
    pub checkpoint: Option<RecoveryConfig>,
}

impl Default for GraphSdConfig {
    fn default() -> Self {
        GraphSdConfig {
            memory_budget: None,
            enable_selective: true,
            enable_cross_iter: true,
            force_model: None,
            enable_buffering: true,
            disk_model: None,
            prefetch: None,
            checkpoint: None,
        }
    }
}

impl GraphSdConfig {
    /// The full system (paper defaults).
    pub fn full() -> Self {
        Self::default()
    }

    /// §5.4 `GraphSD-b1`: cross-iteration vertex update disabled — only
    /// current-iteration values are computed.
    pub fn b1_no_cross_iteration() -> Self {
        GraphSdConfig {
            enable_cross_iter: false,
            ..Self::default()
        }
    }

    /// §5.4 `GraphSD-b2`: selective vertex update disabled — all
    /// sub-blocks are loaded regardless of the number of active vertices.
    pub fn b2_no_selective() -> Self {
        GraphSdConfig {
            enable_selective: false,
            ..Self::default()
        }
    }

    /// §5.4 `GraphSD-b3`: the full I/O model for all iterations.
    pub fn b3_always_full() -> Self {
        GraphSdConfig {
            force_model: Some(IoAccessModel::Full),
            ..Self::default()
        }
    }

    /// §5.4 `GraphSD-b4`: the on-demand I/O model for all iterations.
    pub fn b4_always_on_demand() -> Self {
        GraphSdConfig {
            force_model: Some(IoAccessModel::OnDemand),
            ..Self::default()
        }
    }

    /// §5.4 Figure 12 baseline: buffering disabled.
    pub fn without_buffering() -> Self {
        GraphSdConfig {
            enable_buffering: false,
            ..Self::default()
        }
    }

    /// Lumos (Vora, ATC'19): future-value computation without active-vertex
    /// awareness — every round streams the whole grid, then the secondary
    /// sub-blocks, with no sub-block buffer between the two passes.
    pub fn lumos() -> Self {
        GraphSdConfig {
            enable_selective: false,
            enable_buffering: false,
            ..Self::default()
        }
    }

    /// GridGraph: plain streaming of every sub-block, every iteration —
    /// Lumos without cross-iteration propagation.
    pub fn gridgraph() -> Self {
        GraphSdConfig {
            enable_cross_iter: false,
            ..Self::lumos()
        }
    }

    /// Sets the memory budget in bytes.
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Sets the disk model used for cost estimates.
    pub fn with_disk_model(mut self, model: DiskModel) -> Self {
        self.disk_model = Some(model);
        self
    }

    /// Enables the background prefetch pipeline with the given sizing.
    pub fn with_prefetch(mut self, pipeline: PipelineConfig) -> Self {
        self.prefetch = Some(pipeline);
        self
    }

    /// Forces fully synchronous reads regardless of the environment.
    pub fn without_prefetch(mut self) -> Self {
        self.prefetch = None;
        self
    }

    /// Enables iteration-granular checkpointing with the given recovery
    /// options.
    pub fn with_checkpoint(mut self, recovery: RecoveryConfig) -> Self {
        self.checkpoint = Some(recovery);
        self
    }

    /// Disables checkpointing regardless of the environment.
    pub fn without_checkpoint(mut self) -> Self {
        self.checkpoint = None;
        self
    }

    /// Resolves the memory budget for a graph with `edge_bytes` of edges:
    /// explicit setting, or the paper's 5 %.
    pub fn budget_for(&self, edge_bytes: u64) -> u64 {
        self.memory_budget.unwrap_or(edge_bytes / 20)
    }

    /// Fingerprint of the fields that determine a run's committed results
    /// and I/O schedule, used to pin checkpoints to a configuration
    /// (see [`crate::checkpoint::ManifestTag::config_hash`]). Knobs that are
    /// contractually result-neutral — prefetch sizing and the checkpoint
    /// options themselves — are deliberately excluded: resuming with a
    /// different cadence or with prefetching toggled is sound.
    pub fn semantic_hash(&self) -> u64 {
        let semantic = format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            self.memory_budget,
            self.enable_selective,
            self.enable_cross_iter,
            self.force_model,
            self.enable_buffering,
            self.disk_model,
        );
        gsd_integrity::fnv64(semantic.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_full_system() {
        let c = GraphSdConfig::default();
        assert!(c.enable_selective && c.enable_cross_iter && c.enable_buffering);
        assert!(c.force_model.is_none());
    }

    #[test]
    fn ablations_flip_one_switch_each() {
        assert!(!GraphSdConfig::b1_no_cross_iteration().enable_cross_iter);
        assert!(GraphSdConfig::b1_no_cross_iteration().enable_selective);
        assert!(!GraphSdConfig::b2_no_selective().enable_selective);
        assert!(GraphSdConfig::b2_no_selective().enable_cross_iter);
        assert_eq!(
            GraphSdConfig::b3_always_full().force_model,
            Some(IoAccessModel::Full)
        );
        assert_eq!(
            GraphSdConfig::b4_always_on_demand().force_model,
            Some(IoAccessModel::OnDemand)
        );
        assert!(!GraphSdConfig::without_buffering().enable_buffering);
    }

    #[test]
    fn baselines_switch_capability_bits_off() {
        let lumos = GraphSdConfig::lumos();
        assert!(!lumos.enable_selective && !lumos.enable_buffering && lumos.enable_cross_iter);
        let grid = GraphSdConfig::gridgraph();
        assert!(!grid.enable_selective && !grid.enable_buffering && !grid.enable_cross_iter);
        assert!(lumos.force_model.is_none() && grid.force_model.is_none());
    }

    #[test]
    fn prefetch_helpers_toggle_the_pipeline() {
        let c = GraphSdConfig::default().with_prefetch(PipelineConfig::with_depth(4));
        assert_eq!(c.prefetch.map(|p| p.depth), Some(4));
        assert!(c.without_prefetch().prefetch.is_none());
    }

    #[test]
    fn checkpoint_helpers_toggle_recovery() {
        let c = GraphSdConfig::default().with_checkpoint(RecoveryConfig::every(2));
        assert_eq!(c.checkpoint.as_ref().map(|r| r.every), Some(2));
        assert!(c.without_checkpoint().checkpoint.is_none());
    }

    #[test]
    fn semantic_hash_ignores_result_neutral_knobs() {
        let base = GraphSdConfig::full()
            .without_prefetch()
            .without_checkpoint();
        let with_neutral = GraphSdConfig::full()
            .with_prefetch(PipelineConfig::with_depth(4))
            .with_checkpoint(RecoveryConfig::every(1));
        assert_eq!(base.semantic_hash(), with_neutral.semantic_hash());
        assert_ne!(
            base.semantic_hash(),
            GraphSdConfig::b1_no_cross_iteration().semantic_hash()
        );
        assert_ne!(
            base.semantic_hash(),
            GraphSdConfig::full()
                .with_memory_budget(123)
                .semantic_hash()
        );
    }

    #[test]
    fn budget_defaults_to_five_percent() {
        let c = GraphSdConfig::default();
        assert_eq!(c.budget_for(2_000_000), 100_000);
        let c = c.with_memory_budget(12345);
        assert_eq!(c.budget_for(2_000_000), 12345);
    }
}
