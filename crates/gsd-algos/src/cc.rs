//! Connected Components via min-label propagation (the paper's CC
//! workload, implemented — as the paper notes — on Label Propagation).
//! Run on a symmetrized graph to get undirected components; on a directed
//! graph it computes forward-reachability label minima.

use gsd_runtime::{InitialFrontier, ProgramContext, VertexProgram};

/// Min-label propagation: every vertex starts with its own id and adopts
/// the smallest label reachable to it; converges when no label changes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnectedComponents;

impl VertexProgram for ConnectedComponents {
    type Value = u32;
    type Accum = u32;

    fn name(&self) -> &'static str {
        "connected-components"
    }

    fn init_value(&self, v: u32, _ctx: &ProgramContext) -> u32 {
        v
    }

    fn zero_accum(&self) -> u32 {
        u32::MAX
    }

    #[inline]
    fn scatter(&self, _u: u32, value: u32, _w: f32, _ctx: &ProgramContext) -> Option<u32> {
        Some(value)
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
        InitialFrontier::All
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_components;
    use gsd_graph::{GeneratorConfig, GraphBuilder, GraphKind};
    use gsd_runtime::{Engine, ReferenceEngine};

    #[test]
    fn labels_match_union_find_on_symmetrized_graph() {
        let g = GeneratorConfig::new(GraphKind::ErdosRenyi, 400, 500, 13)
            .generate()
            .symmetrized();
        let mut engine = ReferenceEngine::new(&g);
        let got = engine.run_default(&ConnectedComponents).unwrap().values;
        let want = naive_components(&g);
        assert_eq!(got, want);
    }

    #[test]
    fn isolated_vertices_keep_their_own_label() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).add_edge(1, 0).ensure_vertices(5);
        let g = b.build();
        let mut engine = ReferenceEngine::new(&g);
        let got = engine.run_default(&ConnectedComponents).unwrap().values;
        assert_eq!(got, vec![0, 0, 2, 3, 4]);
    }

    #[test]
    fn chain_converges_in_diameter_iterations() {
        // 0 <-> 1 <-> 2 <-> ... <-> 9
        let mut b = GraphBuilder::new();
        for v in 0..9u32 {
            b.add_edge(v, v + 1).add_edge(v + 1, v);
        }
        let g = b.build();
        let mut engine = ReferenceEngine::new(&g);
        let result = engine.run_default(&ConnectedComponents).unwrap();
        assert!(result.values.iter().all(|&l| l == 0));
        // Label 0 travels one hop per iteration: 9 hops + 1 quiescent check.
        assert_eq!(result.stats.iterations, 10);
    }

    #[test]
    fn directed_cycle_collapses_to_min() {
        let mut b = GraphBuilder::new();
        b.add_edge(3, 7).add_edge(7, 5).add_edge(5, 3);
        let g = b.build();
        let mut engine = ReferenceEngine::new(&g);
        let got = engine.run_default(&ConnectedComponents).unwrap().values;
        assert_eq!(got[3], 3);
        assert_eq!(got[5], 3);
        assert_eq!(got[7], 3);
    }

    #[test]
    fn supports_a_label_it_carries_but_not_a_vertex_own() {
        let ctx = ProgramContext::new(6, std::sync::Arc::new(vec![1; 6]));
        let cc = ConnectedComponents;
        assert!(cc.supports(5, 2, 2, &ctx), "tight");
        assert!(cc.supports(5, 1, 2, &ctx), "undercutting");
        assert!(!cc.supports(5, 3, 2, &ctx), "slack");
        assert!(!cc.supports(5, 5, 5, &ctx), "its own label");
    }
}
