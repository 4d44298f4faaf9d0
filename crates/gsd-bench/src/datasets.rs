//! Stand-in datasets for the paper's Table 3.
//!
//! The real datasets are multi-billion-edge crawls (Twitter2010, SK2005,
//! UK2007, UKUnion, Kron30). The stand-ins reproduce the properties the
//! paper's mechanisms respond to — degree skew (frontier sizes), ID
//! locality (`S_seq`/`S_ran` and the `i < j` cross-iteration fraction) and
//! relative dataset sizes — at a scale that runs on one machine. See
//! DESIGN.md §3 for the substitution argument.

use gsd_graph::{GeneratorConfig, Graph, GraphKind};
use std::sync::OnceLock;

/// Workload scale (`--scale`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Unit-test scale (~1k vertices).
    Tiny,
    /// Default bench scale (~10-60k vertices).
    Small,
    /// Full reproduction scale (~100-600k vertices).
    Medium,
}

impl Scale {
    /// Parses `tiny`, `small` or `medium`.
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            _ => None,
        }
    }

    /// Base vertex count (the Twitter2010 stand-in's `|V|`).
    fn base_vertices(self) -> u32 {
        match self {
            Scale::Tiny => 1_000,
            Scale::Small => 10_000,
            Scale::Medium => 100_000,
        }
    }
}

/// One stand-in dataset with lazily generated variants.
pub struct Dataset {
    /// Stand-in name (e.g. `twitter_sim`).
    pub name: &'static str,
    /// The paper dataset it substitutes.
    pub paper_name: &'static str,
    /// Dataset type as in Table 3.
    pub kind_desc: &'static str,
    /// Generator family.
    pub kind: GraphKind,
    /// Vertex count at the chosen scale.
    pub vertices: u32,
    /// Edge count at the chosen scale.
    pub edges: u64,
    seed: u64,
    directed: OnceLock<Graph>,
    weighted: OnceLock<Graph>,
    symmetric: OnceLock<Graph>,
}

impl Dataset {
    fn new(
        name: &'static str,
        paper_name: &'static str,
        kind_desc: &'static str,
        kind: GraphKind,
        vertices: u32,
        edges: u64,
        seed: u64,
    ) -> Self {
        Dataset {
            name,
            paper_name,
            kind_desc,
            kind,
            vertices,
            edges,
            seed,
            directed: OnceLock::new(),
            weighted: OnceLock::new(),
            symmetric: OnceLock::new(),
        }
    }

    /// The directed, unweighted graph (PR / PR-D / BFS workloads).
    pub fn directed(&self) -> &Graph {
        self.directed.get_or_init(|| {
            GeneratorConfig::new(self.kind, self.vertices, self.edges, self.seed).generate()
        })
    }

    /// The directed graph with random positive weights (SSSP workload).
    pub fn weighted(&self) -> &Graph {
        self.weighted.get_or_init(|| {
            let mut rng = gsd_graph::rng::Xoshiro256::seed_from_u64(self.seed ^ 0x5EED);
            gsd_graph::generators::randomize_weights(self.directed().clone(), &mut rng)
        })
    }

    /// The symmetrized graph (CC workload — label propagation computes
    /// undirected components).
    pub fn symmetric(&self) -> &Graph {
        self.symmetric.get_or_init(|| self.directed().symmetrized())
    }

    /// A deterministic well-connected SSSP/BFS root: the vertex with the
    /// highest out-degree.
    pub fn root(&self) -> u32 {
        let deg = self.directed().out_degrees();
        deg.iter()
            .enumerate()
            .max_by_key(|(_, &d)| d)
            .map(|(v, _)| v as u32)
            .unwrap_or(0)
    }
}

/// The five stand-ins of Table 3, at one scale.
pub struct Datasets {
    /// The chosen scale.
    pub scale: Scale,
    datasets: Vec<Dataset>,
}

impl Datasets {
    /// Builds the registry at `scale`. Graph generation is lazy.
    pub fn load(scale: Scale) -> Self {
        let v = scale.base_vertices() as u64;
        // Relative sizes follow Table 3 (Twitter2010 = 1.0×: 42M vertices,
        // 1.5B edges ≈ 36 edges/vertex). Kron30's 21× footprint is capped
        // at 6× to stay laptop-sized (documented in DESIGN.md).
        let datasets = vec![
            Dataset::new(
                "twitter_sim",
                "Twitter2010",
                "Social network",
                GraphKind::RMat,
                v as u32,
                v * 36,
                101,
            ),
            Dataset::new(
                "sk_sim",
                "SK2005",
                "Social network",
                GraphKind::RMat,
                (v + v / 5) as u32,
                v * 45,
                202,
            ),
            Dataset::new(
                "uk_sim",
                "UK2007",
                "Web graph",
                GraphKind::WebLocality,
                (v * 5 / 2) as u32,
                v * 88,
                303,
            ),
            Dataset::new(
                "ukunion_sim",
                "UKUnion",
                "Web graph",
                GraphKind::WebLocality,
                (v * 3) as u32,
                v * 130,
                404,
            ),
            Dataset::new(
                "kron_sim",
                "Kron30",
                "Synthetic graph",
                GraphKind::Kronecker,
                (v * 6) as u32,
                v * 190,
                505,
            ),
        ];
        Datasets { scale, datasets }
    }

    /// All datasets.
    pub fn all(&self) -> &[Dataset] {
        &self.datasets
    }

    /// Looks a dataset up by stand-in name.
    pub fn get(&self, name: &str) -> Option<&Dataset> {
        self.datasets.iter().find(|d| d.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_the_five_standins() {
        let ds = Datasets::load(Scale::Tiny);
        let names: Vec<_> = ds.all().iter().map(|d| d.name).collect();
        assert_eq!(
            names,
            vec!["twitter_sim", "sk_sim", "uk_sim", "ukunion_sim", "kron_sim"]
        );
        assert!(ds.get("uk_sim").is_some());
        assert!(ds.get("nope").is_none());
    }

    #[test]
    fn sizes_scale_and_preserve_relative_order() {
        let tiny = Datasets::load(Scale::Tiny);
        let small = Datasets::load(Scale::Small);
        for (a, b) in tiny.all().iter().zip(small.all()) {
            assert_eq!(b.edges / a.edges, 10, "{}", a.name);
        }
        // Table 3 ordering by edge count: twitter < sk < uk < ukunion < kron.
        let e: Vec<u64> = tiny.all().iter().map(|d| d.edges).collect();
        assert!(e.windows(2).all(|w| w[0] < w[1]), "{e:?}");
    }

    #[test]
    fn variants_are_consistent() {
        let ds = Datasets::load(Scale::Tiny);
        let d = ds.get("twitter_sim").unwrap();
        assert_eq!(d.directed().num_edges(), d.edges);
        assert!(d.weighted().is_weighted());
        assert_eq!(d.weighted().num_edges(), d.edges);
        assert!(
            d.symmetric().num_edges() >= d.edges,
            "symmetrization adds reverses"
        );
        assert!(d.root() < d.vertices);
        // Root really is a hub.
        let deg = d.directed().out_degrees();
        assert_eq!(deg[d.root() as usize], *deg.iter().max().unwrap());
    }

    #[test]
    fn generation_is_lazy_and_cached() {
        let ds = Datasets::load(Scale::Tiny);
        let d = ds.get("kron_sim").unwrap();
        let a = d.directed() as *const Graph;
        let b = d.directed() as *const Graph;
        assert_eq!(a, b, "same cached instance");
    }
}
