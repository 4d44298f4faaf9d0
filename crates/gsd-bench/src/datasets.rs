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
    /// The scale's name: `tiny`, `small` or `medium`.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Medium => "medium",
        }
    }

    /// The scale [`Scale::name`] names.
    pub fn parse(name: &str) -> Option<Scale> {
        [Scale::Tiny, Scale::Small, Scale::Medium]
            .into_iter()
            .find(|scale| scale.name() == name)
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

/// Table 3's stand-ins: name, paper dataset, type, generator, `|V|` as a
/// fraction of the base vertex count, edges per base vertex, seed. Sizes
/// follow Table 3 (Twitter2010 = 1.0×: 42M vertices, 1.5B edges ≈ 36 per
/// vertex); Kron30's 21× is capped at 6× to stay laptop-sized (DESIGN.md).
#[rustfmt::skip]
type StandIn = (&'static str, &'static str, &'static str, GraphKind, (u64, u64), u64, u64);
#[rustfmt::skip]
const STANDINS: [StandIn; 5] = [
    ("twitter_sim", "Twitter2010", "Social network", GraphKind::RMat, (1, 1), 36, 101),
    ("sk_sim", "SK2005", "Social network", GraphKind::RMat, (6, 5), 45, 202),
    ("uk_sim", "UK2007", "Web graph", GraphKind::WebLocality, (5, 2), 88, 303),
    ("ukunion_sim", "UKUnion", "Web graph", GraphKind::WebLocality, (3, 1), 130, 404),
    ("kron_sim", "Kron30", "Synthetic graph", GraphKind::Kronecker, (6, 1), 190, 505),
];

/// The five stand-ins of Table 3, at one scale.
pub struct Datasets {
    /// The chosen scale.
    pub scale: Scale,
    datasets: Vec<Dataset>,
}

impl Datasets {
    /// Builds the registry at `scale`. Graph generation is lazy.
    pub fn load(scale: Scale) -> Self {
        let v = u64::from(scale.base_vertices());
        let datasets = STANDINS
            .iter()
            .map(
                |&(name, paper_name, kind_desc, kind, (num, den), per_vertex, seed)| Dataset {
                    name,
                    paper_name,
                    kind_desc,
                    kind,
                    vertices: (v * num / den) as u32,
                    edges: v * per_vertex,
                    seed,
                    directed: OnceLock::new(),
                    weighted: OnceLock::new(),
                    symmetric: OnceLock::new(),
                },
            )
            .collect();
        Datasets { scale, datasets }
    }

    /// All datasets.
    pub fn all(&self) -> &[Dataset] {
        &self.datasets
    }

    /// Looks a dataset up by stand-in name; an unknown name is an
    /// `InvalidInput` error that lists the five.
    pub fn get(&self, name: &str) -> std::io::Result<&Dataset> {
        self.datasets
            .iter()
            .find(|d| d.name == name)
            .ok_or_else(|| {
                let known: Vec<&str> = self.datasets.iter().map(|d| d.name).collect();
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("unknown dataset {name:?} ({})", known.join("|")),
                )
            })
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
        assert!(ds.get("uk_sim").is_ok());
        let err = ds.get("nope").err().map(|e| e.to_string());
        assert_eq!(
            err.as_deref(),
            Some("unknown dataset \"nope\" (twitter_sim|sk_sim|uk_sim|ukunion_sim|kron_sim)")
        );
    }

    #[test]
    fn scales_round_trip_through_their_names() {
        for scale in [Scale::Tiny, Scale::Small, Scale::Medium] {
            assert_eq!(Scale::parse(scale.name()), Some(scale));
        }
        assert_eq!(Scale::parse("large"), None);
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
