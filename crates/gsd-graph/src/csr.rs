//! Compressed sparse row adjacency, used by the in-memory BSP reference
//! executor (`ReferenceEngine`, the oracle every out-of-core engine is
//! validated against), its only user.

use crate::graph::Graph;
use crate::types::VertexId;

/// CSR adjacency over the out-edges of a [`Graph`].
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    weights: Vec<f32>,
}

impl Csr {
    /// Builds CSR from a graph's edge list (stable within a source: edges
    /// keep their relative input order after a counting-sort by source).
    pub fn from_graph(graph: &Graph) -> Self {
        let n = graph.num_vertices() as usize;
        let mut counts = vec![0usize; n + 1];
        for e in graph.edges() {
            counts[e.src as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let m = graph.edges().len();
        let mut targets = vec![0 as VertexId; m];
        let mut weights = vec![0f32; m];
        let mut cursor = counts;
        for e in graph.edges() {
            let at = cursor[e.src as usize];
            targets[at] = e.dst;
            weights[at] = e.weight;
            cursor[e.src as usize] += 1;
        }
        Csr {
            offsets,
            targets,
            weights,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        crate::narrow::from_usize(self.offsets.len() - 1, "csr vertex count")
    }

    /// Number of edges.
    pub fn num_edges(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: VertexId) -> u32 {
        crate::narrow::from_usize(
            self.offsets[v as usize + 1] - self.offsets[v as usize],
            "out-degree",
        )
    }

    /// Out-neighbors of `v`.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let (a, b) = self.range(v);
        &self.targets[a..b]
    }

    /// Out-neighbors of `v` zipped with edge weights.
    pub fn neighbors_weighted(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f32)> + '_ {
        let (a, b) = self.range(v);
        self.targets[a..b]
            .iter()
            .copied()
            .zip(self.weights[a..b].iter().copied())
    }

    fn range(&self, v: VertexId) -> (usize, usize) {
        (self.offsets[v as usize], self.offsets[v as usize + 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn sample() -> Csr {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1)
            .add_edge(0, 2)
            .add_edge(2, 0)
            .add_edge(2, 3)
            .add_edge(3, 3);
        Csr::from_graph(&b.build())
    }

    #[test]
    fn shape() {
        let csr = sample();
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_edges(), 5);
    }

    #[test]
    fn neighbors_and_degrees() {
        let csr = sample();
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.neighbors(1), &[] as &[u32]);
        assert_eq!(csr.neighbors(2), &[0, 3]);
        assert_eq!(csr.neighbors(3), &[3]);
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.degree(1), 0);
    }

    #[test]
    fn weights_follow_edges() {
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(0, 1, 0.5).add_weighted_edge(0, 2, 1.5);
        let csr = Csr::from_graph(&b.build());
        let pairs: Vec<_> = csr.neighbors_weighted(0).collect();
        assert_eq!(pairs, vec![(1, 0.5), (2, 1.5)]);
    }

    #[test]
    fn edge_order_is_stable_within_source() {
        let mut b = GraphBuilder::new();
        b.add_edge(1, 5)
            .add_edge(0, 9)
            .add_edge(1, 2)
            .add_edge(1, 7);
        let csr = Csr::from_graph(&b.build());
        assert_eq!(csr.neighbors(1), &[5, 2, 7]);
    }

    #[test]
    fn empty_graph() {
        let csr = Csr::from_graph(&GraphBuilder::new().build());
        assert_eq!(csr.num_vertices(), 0);
        assert_eq!(csr.num_edges(), 0);
    }
}
