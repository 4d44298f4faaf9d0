//! Single-Source Shortest Paths (the paper's SSSP workload): BSP
//! Bellman-Ford-style relaxation over weighted edges; frontiers are the
//! vertices whose tentative distance improved.

use gsd_runtime::{InitialFrontier, ProgramContext, VertexProgram};

/// SSSP from [`Sssp::source`]. Distances are `f32`; unreachable vertices
/// stay at `f32::INFINITY`. Edge weights must be non-negative for the
/// result to equal Dijkstra's (negative weights still converge on DAG-free
/// improvement but are not validated).
#[derive(Debug, Clone, Copy)]
pub struct Sssp {
    /// Root vertex.
    pub source: u32,
}

impl Sssp {
    /// SSSP rooted at `source`.
    pub fn new(source: u32) -> Self {
        Sssp { source }
    }
}

impl VertexProgram for Sssp {
    type Value = f32;
    type Accum = f32;

    fn name(&self) -> &'static str {
        "sssp"
    }

    fn init_value(&self, v: u32, _ctx: &ProgramContext) -> f32 {
        if v == self.source {
            0.0
        } else {
            f32::INFINITY
        }
    }

    fn zero_accum(&self) -> f32 {
        f32::INFINITY
    }

    #[inline]
    fn scatter(&self, _u: u32, value: f32, weight: f32, _ctx: &ProgramContext) -> Option<f32> {
        Some(value + weight)
    }

    #[inline]
    fn combine(&self, a: f32, b: f32) -> f32 {
        a.min(b)
    }

    #[inline]
    fn apply(&self, _v: u32, old: f32, accum: f32, _ctx: &ProgramContext) -> Option<f32> {
        (accum < old).then_some(accum)
    }

    /// A message no larger than the target may have derived it, unless
    /// the target is the vertex's initial value, which depends on nothing.
    fn supports(&self, v: u32, message: f32, target: f32, ctx: &ProgramContext) -> bool {
        message <= target && target != self.init_value(v, ctx)
    }

    fn initial_frontier(&self, _ctx: &ProgramContext) -> InitialFrontier {
        InitialFrontier::Seeds(vec![self.source])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_dijkstra;
    use gsd_graph::{generators, GeneratorConfig, GraphBuilder, GraphKind};
    use gsd_runtime::{Engine, ReferenceEngine};

    #[test]
    fn matches_dijkstra_on_random_weighted_graph() {
        let g = GeneratorConfig::new(GraphKind::ErdosRenyi, 200, 2000, 21)
            .weighted()
            .generate();
        let mut engine = ReferenceEngine::new(&g);
        let got = engine.run_default(&Sssp::new(0)).unwrap().values;
        let want = naive_dijkstra(&g, 0);
        for v in 0..g.num_vertices() as usize {
            if want[v].is_infinite() {
                assert!(got[v].is_infinite(), "vertex {v} should be unreachable");
            } else {
                assert!(
                    (got[v] - want[v]).abs() < 1e-4,
                    "vertex {v}: {} vs {}",
                    got[v],
                    want[v]
                );
            }
        }
    }

    #[test]
    fn grid_distances_are_manhattan_with_unit_weights() {
        let g = generators::grid2d(5);
        let mut engine = ReferenceEngine::new(&g);
        let got = engine.run_default(&Sssp::new(0)).unwrap().values;
        // vertex (r, c) = r * 5 + c has distance r + c from corner 0.
        for r in 0..5u32 {
            for c in 0..5u32 {
                assert_eq!(got[(r * 5 + c) as usize], (r + c) as f32);
            }
        }
    }

    #[test]
    fn unreachable_stays_infinite() {
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(0, 1, 1.0).ensure_vertices(3);
        let g = b.build();
        let mut engine = ReferenceEngine::new(&g);
        let got = engine.run_default(&Sssp::new(0)).unwrap().values;
        assert_eq!(got[0], 0.0);
        assert_eq!(got[1], 1.0);
        assert!(got[2].is_infinite());
    }

    #[test]
    fn shorter_path_wins_over_fewer_hops() {
        // 0 -> 2 direct costs 10; 0 -> 1 -> 2 costs 3.
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(0, 2, 10.0)
            .add_weighted_edge(0, 1, 1.0)
            .add_weighted_edge(1, 2, 2.0);
        let g = b.build();
        let mut engine = ReferenceEngine::new(&g);
        let got = engine.run_default(&Sssp::new(0)).unwrap().values;
        assert_eq!(got[2], 3.0);
    }

    #[test]
    fn weighted_random_graph_respects_triangle_inequality() {
        let mut rng = gsd_graph::rng::Xoshiro256::seed_from_u64(5);
        let g = generators::randomize_weights(
            GeneratorConfig::new(GraphKind::RMat, 100, 800, 5).generate(),
            &mut rng,
        );
        let mut engine = ReferenceEngine::new(&g);
        let dist = engine.run_default(&Sssp::new(0)).unwrap().values;
        for e in g.edges() {
            if dist[e.src as usize].is_finite() {
                assert!(
                    dist[e.dst as usize] <= dist[e.src as usize] + e.weight + 1e-4,
                    "edge ({}, {}) violates relaxation",
                    e.src,
                    e.dst
                );
            }
        }
    }

    #[test]
    fn supports_tight_and_lower_messages_but_no_initial_value() {
        let sssp = Sssp::new(0);
        let ctx = ProgramContext::new(3, std::sync::Arc::new(vec![1; 3]));
        assert!(sssp.supports(1, 1.5, 1.5, &ctx), "tight");
        assert!(sssp.supports(1, 1.0, 1.5, &ctx), "undercutting");
        assert!(!sssp.supports(1, 2.0, 1.5, &ctx), "slack");
        assert!(
            !sssp.supports(1, f32::INFINITY, f32::INFINITY, &ctx),
            "unreached"
        );
        assert!(!sssp.supports(0, 0.0, 0.0, &ctx), "the source");
    }
}
