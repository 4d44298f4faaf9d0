//! Breadth-first search depth labeling — the canonical shrinking-frontier
//! traversal the paper's introduction motivates active-vertex-aware
//! processing with.

use gsd_runtime::{InitialFrontier, ProgramContext, VertexProgram};

/// BFS from [`Bfs::source`]; the value is the hop distance
/// (`u32::MAX` = unreached).
#[derive(Debug, Clone, Copy)]
pub struct Bfs {
    /// Root vertex.
    pub source: u32,
}

impl Bfs {
    /// BFS rooted at `source`.
    pub fn new(source: u32) -> Self {
        Bfs { source }
    }
}

impl VertexProgram for Bfs {
    type Value = u32;
    type Accum = u32;

    fn name(&self) -> &'static str {
        "bfs"
    }

    fn init_value(&self, v: u32, _ctx: &ProgramContext) -> u32 {
        if v == self.source {
            0
        } else {
            u32::MAX
        }
    }

    fn zero_accum(&self) -> u32 {
        u32::MAX
    }

    #[inline]
    fn scatter(&self, _u: u32, value: u32, _w: f32, _ctx: &ProgramContext) -> Option<u32> {
        Some(value.saturating_add(1))
    }

    #[inline]
    fn combine(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    #[inline]
    fn apply(&self, _v: u32, old: u32, accum: u32, _ctx: &ProgramContext) -> Option<u32> {
        (accum < old).then_some(accum)
    }

    /// A message no larger than the target may have derived it, unless
    /// the target is the vertex's initial value, which depends on nothing.
    fn supports(&self, v: u32, message: u32, target: u32, ctx: &ProgramContext) -> bool {
        message <= target && target != self.init_value(v, ctx)
    }

    fn initial_frontier(&self, _ctx: &ProgramContext) -> InitialFrontier {
        InitialFrontier::Seeds(vec![self.source])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_bfs;
    use gsd_graph::{generators, GeneratorConfig, GraphKind};
    use gsd_runtime::{Engine, ReferenceEngine};

    #[test]
    fn matches_naive_bfs() {
        let g = GeneratorConfig::new(GraphKind::WebLocality, 500, 4000, 17).generate();
        let mut engine = ReferenceEngine::new(&g);
        let got = engine.run_default(&Bfs::new(0)).unwrap().values;
        assert_eq!(got, naive_bfs(&g, 0));
    }

    #[test]
    fn depths_on_grid() {
        let g = generators::grid2d(4);
        let mut engine = ReferenceEngine::new(&g);
        let got = engine.run_default(&Bfs::new(0)).unwrap().values;
        assert_eq!(got[0], 0);
        assert_eq!(got[1], 1);
        assert_eq!(got[4], 1);
        assert_eq!(got[5], 2);
        assert_eq!(got[15], 6);
    }

    #[test]
    fn iteration_count_equals_eccentricity_plus_quiescence() {
        let g = generators::grid2d(4);
        let mut engine = ReferenceEngine::new(&g);
        let result = engine.run_default(&Bfs::new(0)).unwrap();
        // Farthest vertex is 6 hops away; one extra iteration finds nothing.
        assert_eq!(result.stats.iterations, 7);
    }

    #[test]
    fn supports_tight_and_lower_messages_but_no_initial_value() {
        let bfs = Bfs::new(0);
        let ctx = ProgramContext::new(3, std::sync::Arc::new(vec![1; 3]));
        assert!(bfs.supports(1, 2, 2, &ctx), "tight");
        assert!(bfs.supports(1, 1, 2, &ctx), "undercutting");
        assert!(!bfs.supports(1, 3, 2, &ctx), "slack");
        assert!(!bfs.supports(1, u32::MAX, u32::MAX, &ctx), "unreached");
        assert!(!bfs.supports(0, 0, 0, &ctx), "the source");
    }
}
