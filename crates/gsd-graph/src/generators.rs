//! Seeded synthetic graph generators.
//!
//! These stand in for the paper's datasets (Table 3), which are
//! multi-billion-edge crawls we cannot ship: R-MAT/Kronecker graphs
//! reproduce the degree skew of the social networks (Twitter2010, SK2005,
//! Kron30) and the *web-locality* generator reproduces the host-clustered,
//! ID-contiguous structure of the web crawls (UK2007, UKUnion) that drives
//! both the `S_seq`/`S_ran` split and the fraction of `i < j` edges that
//! cross-iteration propagation exploits. All generators are deterministic
//! given a seed ([`crate::rng`]).

use crate::graph::Graph;
use crate::rng::Xoshiro256;
use crate::types::Edge;

/// Which synthetic family to generate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphKind {
    /// R-MAT with the classic social-network parameters
    /// `(a,b,c,d) = (0.57, 0.19, 0.19, 0.05)`.
    RMat,
    /// Kronecker per the Graph500 reference (same recursive scheme as
    /// R-MAT, Graph500 parameters) — the `Kron30` stand-in.
    Kronecker,
    /// Uniformly random (Erdős–Rényi G(n, m)).
    ErdosRenyi,
    /// Host-clustered web graph: contiguous intra-host runs plus a few
    /// long-range links; high ID locality, moderate diameter.
    WebLocality,
    /// 2-D grid with 4-neighborhood and random positive weights: the
    /// road-network-like workload used by the SSSP example.
    Grid2d,
}

/// Generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct GeneratorConfig {
    /// Family to generate.
    pub kind: GraphKind,
    /// Number of vertices (rounded up to a power of two for the recursive
    /// families; exact for the others).
    pub vertices: u32,
    /// Target number of edges (exact; duplicates and self-loops allowed,
    /// as in the real crawls).
    pub edges: u64,
    /// RNG seed.
    pub seed: u64,
    /// Generate random edge weights in `(0, 1]` (needed by SSSP).
    pub weighted: bool,
}

impl GeneratorConfig {
    /// Convenience constructor.
    pub fn new(kind: GraphKind, vertices: u32, edges: u64, seed: u64) -> Self {
        GeneratorConfig {
            kind,
            vertices,
            edges,
            seed,
            weighted: false,
        }
    }

    /// Enables random weights.
    pub fn weighted(mut self) -> Self {
        self.weighted = true;
        self
    }

    /// Runs the generator.
    pub fn generate(&self) -> Graph {
        let mut rng = Xoshiro256::seed_from_u64(self.seed);
        let mut graph = match self.kind {
            GraphKind::RMat => rmat(
                self.vertices,
                self.edges,
                [0.57, 0.19, 0.19, 0.05],
                &mut rng,
            ),
            GraphKind::Kronecker => rmat(
                self.vertices,
                self.edges,
                [0.57, 0.19, 0.19, 0.05],
                &mut rng,
            ),
            GraphKind::ErdosRenyi => erdos_renyi(self.vertices, self.edges, &mut rng),
            GraphKind::WebLocality => web_locality(self.vertices, self.edges, &mut rng),
            GraphKind::Grid2d => grid2d(crate::narrow::from_f64(
                (self.vertices as f64).sqrt().ceil(),
                "2d grid side",
            )),
        };
        if self.weighted {
            graph = randomize_weights(graph, &mut rng);
        }
        graph
    }
}

/// R-MAT / stochastic-Kronecker generator: each edge picks one of the four
/// quadrants recursively `log2(n)` times with probabilities `(a,b,c,d)`
/// (noise-perturbed per level, as in the Graph500 reference, to avoid
/// pathological staircases).
pub fn rmat(vertices: u32, edges: u64, probs: [f64; 4], rng: &mut Xoshiro256) -> Graph {
    assert!(vertices >= 2, "R-MAT needs at least two vertices");
    let scale = 32 - (vertices - 1).leading_zeros(); // ceil(log2(vertices))
    let n = 1u64 << scale;
    let [a, b, c, _] = probs;
    let mut list = Vec::with_capacity(crate::narrow::to_usize(edges, "edge count"));
    for _ in 0..edges {
        let (mut x0, mut x1) = (0u64, n);
        let (mut y0, mut y1) = (0u64, n);
        for _ in 0..scale {
            // ±10% multiplicative noise per level keeps the distribution
            // skewed but not self-similar-degenerate.
            let na = a * (0.9 + 0.2 * rng.gen::<f64>());
            let nb = b * (0.9 + 0.2 * rng.gen::<f64>());
            let nc = c * (0.9 + 0.2 * rng.gen::<f64>());
            let sum = na + nb + nc + probs[3] * (0.9 + 0.2 * rng.gen::<f64>());
            let r: f64 = rng.gen::<f64>() * sum;
            let (right, down) = if r < na {
                (false, false)
            } else if r < na + nb {
                (true, false)
            } else if r < na + nb + nc {
                (false, true)
            } else {
                (true, true)
            };
            let xm = (x0 + x1) / 2;
            let ym = (y0 + y1) / 2;
            if right {
                x0 = xm;
            } else {
                x1 = xm;
            }
            if down {
                y0 = ym;
            } else {
                y1 = ym;
            }
        }
        // Clamp into the requested vertex range (scale rounds up).
        let src = crate::narrow::to_u32(x0 % vertices as u64, "rmat source id");
        let dst = crate::narrow::to_u32(y0 % vertices as u64, "rmat destination id");
        list.push(Edge::new(src, dst));
    }
    Graph::from_edges(vertices, list, false)
}

/// G(n, m): `m` uniformly random directed edges.
pub fn erdos_renyi(vertices: u32, edges: u64, rng: &mut Xoshiro256) -> Graph {
    assert!(vertices >= 1);
    let list = (0..edges)
        .map(|_| Edge::new(rng.gen_range(0..vertices), rng.gen_range(0..vertices)))
        .collect();
    Graph::from_edges(vertices, list, false)
}

/// Web-crawl-like generator modeled on host structure of real crawls
/// (UK2007 / UKUnion): vertices are grouped into "hosts" of contiguous IDs
/// whose pages form forward chains with occasional skip links, plus "home"
/// links back to the host's front page, cross-links between *nearby* hosts'
/// front pages, and a sprinkle of uniform long-range links.
///
/// The resulting graph has the two properties the paper's mechanisms key
/// on for web graphs: **heavy ID locality** (chains give contiguous active
/// runs, i.e. large `S_seq`) and a **large effective diameter** (labels /
/// distances crawl along chains), which produces the long tail of
/// small-frontier iterations where selective loading wins.
pub fn web_locality(vertices: u32, edges: u64, rng: &mut Xoshiro256) -> Graph {
    assert!(vertices >= 2);
    let host_size = (vertices / 256).clamp(16, 512).min(vertices);
    let num_hosts = vertices.div_ceil(host_size);
    let mut list = Vec::with_capacity(crate::narrow::to_usize(edges, "edge count"));
    for _ in 0..edges {
        let host = rng.gen_range(0..num_hosts);
        let base = host * host_size;
        let len = host_size.min(vertices - base);
        let page = base + rng.gen_range(0..len);
        let roll: f64 = rng.gen();
        let (src, dst) = if roll < 0.9965 {
            // local window link: forward-biased short hop within the host
            // (real pages link overwhelmingly to nearby pages of the same
            // site, which is what gives crawls their ID locality and large
            // effective diameter)
            let pos = page - base;
            let hop = if rng.gen::<f64>() < 0.75 {
                1 + short_hop(rng, 7.0) // forward 1..=8
            } else {
                -(1 + short_hop(rng, 3.0)) // back 1..=4
            };
            let to = crate::narrow::from_i64((pos as i64 + hop).rem_euclid(len as i64), "page hop");
            (page, base + to)
        } else if roll < 0.99995 {
            // cross-link from a page to a nearby host's front page (tight
            // host ring; only ~0.1 cross links per page so they do not
            // collapse the diameter)
            let delta = 1 + short_hop(rng, 3.0);
            let sign = if rng.gen::<bool>() { 1 } else { -1 };
            let other = crate::narrow::from_i64(
                (host as i64 + sign * delta).rem_euclid(num_hosts as i64),
                "host ring neighbor",
            );
            (page, (other * host_size).min(vertices - 1))
        } else {
            // vanishingly rare uniform long-range link
            (page, rng.gen_range(0..vertices))
        };
        list.push(Edge::new(src, dst));
    }
    Graph::from_edges(vertices, list, false)
}

/// A hop length in `0..span` skewed toward short: `⌊u² · span⌋` for a
/// uniform `u`.
fn short_hop(rng: &mut Xoshiro256, span: f64) -> i64 {
    i64::from(crate::narrow::from_f64(
        rng.gen::<f64>().powi(2) * span,
        "hop length",
    ))
}

/// `side × side` 2-D grid, edges in both directions between 4-neighbors,
/// unit weights (call [`randomize_weights`] for SSSP workloads).
pub fn grid2d(side: u32) -> Graph {
    assert!(side >= 1);
    let n = side * side;
    let mut list = Vec::with_capacity(4 * n as usize);
    let at = |r: u32, c: u32| r * side + c;
    for r in 0..side {
        for c in 0..side {
            if c + 1 < side {
                list.push(Edge::new(at(r, c), at(r, c + 1)));
                list.push(Edge::new(at(r, c + 1), at(r, c)));
            }
            if r + 1 < side {
                list.push(Edge::new(at(r, c), at(r + 1, c)));
                list.push(Edge::new(at(r + 1, c), at(r, c)));
            }
        }
    }
    Graph::from_edges(n, list, false)
}

/// Replaces every weight with a uniform draw from the 32 discrete levels
/// `1/32, 2/32, …, 1.0` and marks the graph weighted. Discrete levels are
/// the usual SSSP-benchmark choice (Graph500 SSSP, GAP): they keep the
/// number of relaxation rounds proportional to the hop diameter instead of
/// exploding into a near-continuous priority schedule.
pub fn randomize_weights(graph: Graph, rng: &mut Xoshiro256) -> Graph {
    let n = graph.num_vertices();
    let edges = graph
        .edges()
        .iter()
        .map(|e| Edge::weighted(e.src, e.dst, rng.gen_range(1..=32) as f32 / 32.0))
        .collect();
    Graph::from_edges(n, edges, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(kind: GraphKind) -> GeneratorConfig {
        GeneratorConfig::new(kind, 1000, 8000, 42)
    }

    #[test]
    fn generators_hit_requested_sizes() {
        for kind in [
            GraphKind::RMat,
            GraphKind::Kronecker,
            GraphKind::ErdosRenyi,
            GraphKind::WebLocality,
        ] {
            let g = cfg(kind).generate();
            assert_eq!(g.num_edges(), 8000, "{kind:?}");
            assert_eq!(g.num_vertices(), 1000, "{kind:?}");
            assert!(g.edges().iter().all(|e| e.src < 1000 && e.dst < 1000));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = cfg(GraphKind::RMat).generate();
        let b = cfg(GraphKind::RMat).generate();
        assert_eq!(a, b);
        let c = GeneratorConfig {
            seed: 43,
            ..cfg(GraphKind::RMat)
        }
        .generate();
        assert_ne!(a, c);
    }

    #[test]
    fn rmat_is_skewed_erdos_renyi_is_not() {
        let skewed = cfg(GraphKind::RMat).generate();
        let flat = cfg(GraphKind::ErdosRenyi).generate();
        let max_deg = |g: &Graph| *g.out_degrees().iter().max().unwrap();
        // R-MAT's hub should dwarf ER's max degree (mean degree 8).
        assert!(
            max_deg(&skewed) > 3 * max_deg(&flat),
            "{} vs {}",
            max_deg(&skewed),
            max_deg(&flat)
        );
    }

    #[test]
    fn web_locality_favors_short_forward_hops() {
        let g = cfg(GraphKind::WebLocality).generate();
        let near = g
            .edges()
            .iter()
            .filter(|e| (e.dst as i64 - e.src as i64).unsigned_abs() <= 64)
            .count();
        assert!(near as f64 > 0.5 * g.num_edges() as f64);
    }

    #[test]
    fn grid2d_shape() {
        let g = grid2d(4);
        assert_eq!(g.num_vertices(), 16);
        // 2 directions x (2 * side * (side-1)) = 48
        assert_eq!(g.num_edges(), 48);
        // Interior vertex has degree 4.
        assert_eq!(g.out_degrees()[5], 4);
        // Corner has degree 2.
        assert_eq!(g.out_degrees()[0], 2);
    }

    #[test]
    fn weighted_config_produces_positive_weights() {
        let g = cfg(GraphKind::ErdosRenyi).weighted().generate();
        assert!(g.is_weighted());
        assert!(g.edges().iter().all(|e| e.weight > 0.0 && e.weight <= 1.0));
    }
}
