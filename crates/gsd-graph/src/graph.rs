//! In-memory edge-list graph used by generators, the preprocessor and the
//! BSP reference executor that the engines are tested against.

use crate::types::{Edge, VertexId};

/// An in-memory directed graph stored as an edge list.
///
/// This is the *input* representation: the preprocessor turns it into the
/// on-disk 2-D grid format, and the test oracle executes programs on it
/// directly.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    num_vertices: u32,
    edges: Vec<Edge>,
    weighted: bool,
}

impl Graph {
    /// Builds a graph from parts. `num_vertices` must exceed every endpoint.
    pub fn from_edges(num_vertices: u32, edges: Vec<Edge>, weighted: bool) -> Self {
        debug_assert!(edges
            .iter()
            .all(|e| e.src < num_vertices && e.dst < num_vertices));
        Graph {
            num_vertices,
            edges,
            weighted,
        }
    }

    /// Number of vertices `|V|`.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of edges `|E|`.
    pub fn num_edges(&self) -> u64 {
        self.edges.len() as u64
    }

    /// Whether the graph carries meaningful edge weights.
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// The edge list.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Out-degree of every vertex.
    pub fn out_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices as usize];
        for e in &self.edges {
            deg[e.src as usize] += 1;
        }
        deg
    }

    /// In-degree of every vertex.
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices as usize];
        for e in &self.edges {
            deg[e.dst as usize] += 1;
        }
        deg
    }

    /// Returns a copy with every edge also present in the reverse
    /// direction (used to make generated graphs effectively undirected for
    /// CC-style algorithms).
    pub fn symmetrized(&self) -> Graph {
        let mut edges = Vec::with_capacity(self.edges.len() * 2);
        for e in &self.edges {
            edges.push(*e);
            edges.push(Edge {
                src: e.dst,
                dst: e.src,
                weight: e.weight,
            });
        }
        edges.sort_unstable_by_key(|e| (e.src, e.dst));
        edges.dedup_by_key(|e| (e.src, e.dst));
        Graph {
            num_vertices: self.num_vertices,
            edges,
            weighted: self.weighted,
        }
    }
}

/// Incremental builder that tracks the vertex-id high-water mark.
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    edges: Vec<Edge>,
    max_vertex: Option<u32>,
    weighted: bool,
}

impl GraphBuilder {
    /// New empty builder for an unweighted graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an unweighted edge.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) -> &mut Self {
        self.push(Edge::new(src, dst))
    }

    /// Adds a weighted edge (marks the graph weighted).
    pub fn add_weighted_edge(&mut self, src: VertexId, dst: VertexId, weight: f32) -> &mut Self {
        self.weighted = true;
        self.push(Edge::weighted(src, dst, weight))
    }

    fn push(&mut self, e: Edge) -> &mut Self {
        self.max_vertex = Some(self.max_vertex.unwrap_or(0).max(e.src).max(e.dst));
        self.edges.push(e);
        self
    }

    /// Ensures the graph has at least `n` vertices even if some are
    /// isolated.
    pub fn ensure_vertices(&mut self, n: u32) -> &mut Self {
        if n > 0 {
            self.max_vertex = Some(self.max_vertex.unwrap_or(0).max(n - 1));
        }
        self
    }

    /// Number of edges added so far.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edge has been added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Finalizes the graph.
    pub fn build(self) -> Graph {
        let num_vertices = self.max_vertex.map(|m| m + 1).unwrap_or(0);
        Graph::from_edges(num_vertices, self.edges, self.weighted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1)
            .add_edge(0, 2)
            .add_edge(1, 3)
            .add_edge(2, 3);
        b.build()
    }

    #[test]
    fn builder_tracks_vertex_count() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert!(!g.is_weighted());
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.out_degrees(), vec![2, 1, 1, 0]);
        assert_eq!(g.in_degrees(), vec![0, 1, 1, 2]);
    }

    #[test]
    fn ensure_vertices_creates_isolated() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).ensure_vertices(10);
        let g = b.build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.out_degrees()[9], 0);
    }

    #[test]
    fn weighted_edge_marks_graph() {
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(0, 1, 2.5);
        let g = b.build();
        assert!(g.is_weighted());
        assert_eq!(g.edges()[0].weight, 2.5);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn symmetrized_adds_reverse_edges_and_dedups() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).add_edge(1, 0).add_edge(1, 2);
        let g = b.build().symmetrized();
        let mut pairs: Vec<_> = g.edges().iter().map(|e| (e.src, e.dst)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (1, 0), (1, 2), (2, 1)]);
    }
}
