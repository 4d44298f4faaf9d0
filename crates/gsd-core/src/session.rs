//! A reusable, open-once handle over a preprocessed grid.
//!
//! Every front end used to repeat the same dance: open storage, read and
//! parse the grid metadata, resolve the verification policy, wire the
//! integrity manifest, then build an engine. [`GridSession`] does that
//! dance exactly once and hands out cheap engine instances on demand —
//! `gsd run` builds one engine and exits, `gsd bench` rebuilds an engine
//! per repeat over the same session, and the `gsd serve` daemon keeps one
//! session resident for its whole lifetime and builds engines only for
//! full analytic queries.
//!
//! Because [`GridGraph`] is a cheap cloneable handle whose verifier memo
//! is shared across clones, every engine built from one session pools one
//! set of verification counters and one already-verified-object memo: the
//! manifest is read and checked once per session, not once per engine.

use crate::{GraphSdConfig, GraphSdEngine};
use gsd_graph::{CorruptionResponse, GridGraph, GridMeta, VerifyPolicy};
use gsd_io::SharedStorage;

/// An opened (and optionally verified) grid, ready to build engines.
pub struct GridSession {
    grid: GridGraph,
}

impl GridSession {
    /// Opens the grid at the root of `storage` with an explicit
    /// verification policy. [`VerifyPolicy::Off`] skips manifest wiring
    /// entirely. `response` has one value, `FailFast`: a corrupt object
    /// fails its read.
    pub fn open(
        storage: SharedStorage,
        policy: VerifyPolicy,
        response: CorruptionResponse,
    ) -> std::io::Result<Self> {
        Self::open_with_prefix(storage, "", policy, response)
    }

    /// Opens the grid under `prefix` in `storage` with an explicit
    /// verification policy.
    pub fn open_with_prefix(
        storage: SharedStorage,
        prefix: &str,
        policy: VerifyPolicy,
        _response: CorruptionResponse,
    ) -> std::io::Result<Self> {
        let mut grid = GridGraph::open_with_prefix(storage, prefix)?;
        grid.set_verification(policy);
        Ok(GridSession { grid })
    }

    /// The session's grid handle.
    pub fn grid(&self) -> &GridGraph {
        &self.grid
    }

    /// Re-opens the grid from its backing storage, preserving the current
    /// verification policy. The serve daemon calls this after committing
    /// a mutation epoch so every subsequent query (and engine) sees the
    /// new delta overlay; previously built engines keep the old handle,
    /// which is exactly the epoch-consistency contract.
    pub fn reopen(&mut self) -> std::io::Result<()> {
        let policy = if self.grid.verifier().is_some() {
            VerifyPolicy::Full
        } else {
            VerifyPolicy::Off
        };
        let storage = self.grid.storage().clone();
        let prefix = self.grid.prefix().to_owned();
        let mut grid = GridGraph::open_with_prefix(storage, &prefix)?;
        grid.set_verification(policy);
        self.grid = grid;
        Ok(())
    }

    /// The grid metadata.
    pub fn meta(&self) -> &GridMeta {
        self.grid.meta()
    }

    /// Builds a GraphSD engine over this session's grid. The clone shares
    /// the session's storage, metadata and verifier memo, so the grid is
    /// *not* re-opened or re-verified.
    pub fn engine(&self, config: GraphSdConfig) -> std::io::Result<GraphSdEngine> {
        GraphSdEngine::new(self.grid.clone(), config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsd_graph::{preprocess, GeneratorConfig, GraphKind, PreprocessConfig};
    use gsd_io::MemStorage;
    use std::sync::Arc;

    fn tiny_session() -> GridSession {
        let graph = GeneratorConfig::new(GraphKind::ErdosRenyi, 40, 160, 7).generate();
        let storage: SharedStorage = Arc::new(MemStorage::new());
        preprocess(&graph, storage.as_ref(), &PreprocessConfig::graphsd("")).unwrap();
        GridSession::open(storage, VerifyPolicy::Off, CorruptionResponse::default()).unwrap()
    }

    #[test]
    fn session_opens_once_and_builds_many_engines() {
        let session = tiny_session();
        assert_eq!(session.meta().num_vertices, 40);
        let e1 = session.engine(GraphSdConfig::full()).unwrap();
        let e2 = session.engine(GraphSdConfig::b3_always_full()).unwrap();
        drop((e1, e2));
        // The session's handle is still usable after engines are built.
        assert_eq!(session.grid().p(), session.meta().p);
    }

    #[test]
    fn engines_from_one_session_commit_identical_results() {
        use gsd_algos::PageRank;
        use gsd_runtime::{Engine, RunOptions};
        let session = tiny_session();
        let mut a = session.engine(GraphSdConfig::full()).unwrap();
        let mut b = session.engine(GraphSdConfig::full()).unwrap();
        let ra = a.run(&PageRank::paper(), &RunOptions::default()).unwrap();
        let rb = b.run(&PageRank::paper(), &RunOptions::default()).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&ra.values), bits(&rb.values));
    }
}
