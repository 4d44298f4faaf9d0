//! Personalized PageRank from a seed set, in the cumulative-delta
//! formulation of [`crate::PageRankDelta`]: after `k` rounds the rank is
//! the truncated power series
//! `rank_k(v) = (1 − α)/|S| · Σ_{t ≤ k} α^t · (walk-probability terms)`,
//! so a bounded iteration count is a principled bounded traversal — mass
//! reaches exactly the vertices within `k` hops of the seeds. This is the
//! program the `gsd serve` daemon runs for a `ppr` query.

use gsd_runtime::{InitialFrontier, ProgramContext, VertexProgram};

/// Personalized PageRank: teleport mass `(1 − α)/|S|` at each seed,
/// propagated along out-edges with continuation probability `α`.
///
/// Value packs `(rank, delta)`; only fresh deltas propagate, so the
/// frontier is exactly the set of vertices that received new mass — the
/// traversal never touches vertices farther than one hop beyond the mass
/// front.
#[derive(Debug, Clone)]
pub struct Ppr {
    /// Continuation (damping) probability, conventionally 0.85.
    pub alpha: f32,
    /// Seed vertices (deduplicated; order does not matter).
    pub seeds: Vec<u32>,
    /// Rounds to run — the traversal bound `k`.
    pub iterations: u32,
}

impl Ppr {
    /// PPR with the conventional α = 0.85.
    pub fn new(seeds: Vec<u32>, iterations: u32) -> Self {
        Ppr::with_alpha(seeds, 0.85, iterations)
    }

    /// PPR with continuation probability `alpha` (the daemon's `ppr`
    /// query carries its own).
    pub fn with_alpha(mut seeds: Vec<u32>, alpha: f32, iterations: u32) -> Self {
        seeds.sort_unstable();
        seeds.dedup();
        Ppr {
            alpha,
            seeds,
            iterations,
        }
    }

    /// Per-seed teleport mass `(1 − α)/|S|`.
    fn base(&self) -> f32 {
        (1.0 - self.alpha) / self.seeds.len().max(1) as f32
    }

    fn is_seed(&self, v: u32) -> bool {
        self.seeds.binary_search(&v).is_ok()
    }
}

impl VertexProgram for Ppr {
    /// `(rank, delta)` packed into one cell.
    type Value = (f32, f32);
    type Accum = f32;

    fn name(&self) -> &'static str {
        "ppr"
    }

    fn init_value(&self, v: u32, _ctx: &ProgramContext) -> (f32, f32) {
        if self.is_seed(v) {
            let base = self.base();
            (base, base)
        } else {
            (0.0, 0.0)
        }
    }

    fn zero_accum(&self) -> f32 {
        0.0
    }

    #[inline]
    fn scatter(&self, u: u32, value: (f32, f32), _w: f32, ctx: &ProgramContext) -> Option<f32> {
        Some(value.1 / ctx.degree(u) as f32)
    }

    #[inline]
    fn combine(&self, a: f32, b: f32) -> f32 {
        a + b
    }

    #[inline]
    fn apply(
        &self,
        _v: u32,
        old: (f32, f32),
        accum: f32,
        _ctx: &ProgramContext,
    ) -> Option<(f32, f32)> {
        let delta = self.alpha * accum;
        if delta > 0.0 {
            Some((old.0 + delta, delta))
        } else {
            None
        }
    }

    fn initial_frontier(&self, _ctx: &ProgramContext) -> InitialFrontier {
        InitialFrontier::Seeds(self.seeds.clone())
    }

    fn max_iterations(&self) -> Option<u32> {
        Some(self.iterations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsd_graph::{GeneratorConfig, GraphBuilder, GraphKind};
    use gsd_runtime::{Engine, ReferenceEngine, RunOptions};

    #[test]
    fn mass_stays_within_k_hops() {
        // 0 -> 1 -> 2 -> 3: one round from seed 0 reaches vertex 1 only.
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        let g = b.build();
        let mut engine = ReferenceEngine::new(&g);
        let got = engine.run_default(&Ppr::new(vec![0], 1)).unwrap().values;
        assert!(got[1].0 > 0.0, "one hop reached");
        assert_eq!(got[2].0, 0.0, "two hops not reached in one round");
        assert_eq!(got[3].0, 0.0);
    }

    #[test]
    fn seed_mass_splits_evenly() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        let g = b.build();
        let mut engine = ReferenceEngine::new(&g);
        let ppr = Ppr::new(vec![0, 1], 1);
        let got = engine.run_default(&ppr).unwrap().values;
        let base = 0.15 / 2.0;
        assert!((got[0].0 - base).abs() < 1e-7);
        assert!((got[1].0 - base).abs() < 1e-7);
        // Vertex 2 receives alpha * (base/1 + base/1).
        assert!((got[2].0 - 0.85 * 2.0 * base).abs() < 1e-7);
    }

    #[test]
    fn more_rounds_only_add_mass() {
        let g = GeneratorConfig::new(GraphKind::RMat, 200, 1500, 11).generate();
        let mut e1 = ReferenceEngine::new(&g);
        let mut e2 = ReferenceEngine::new(&g);
        let r1 = e1.run_default(&Ppr::new(vec![3], 2)).unwrap().values;
        let r2 = e2.run_default(&Ppr::new(vec![3], 6)).unwrap().values;
        for (v, (a, b)) in r1.iter().zip(r2.iter()).enumerate() {
            assert!(b.0 >= a.0 - 1e-9, "vertex {v}: rank must be monotone");
        }
    }

    #[test]
    fn runs_at_most_the_configured_rounds() {
        let g = GeneratorConfig::new(GraphKind::ErdosRenyi, 80, 400, 3).generate();
        let engine = ReferenceEngine::new(&g);
        let (result, _) = engine.run_traced(&Ppr::new(vec![0], 3), &RunOptions::default());
        assert!(result.stats.iterations <= 3);
    }
}
