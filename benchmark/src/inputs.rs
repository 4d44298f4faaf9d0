//! Inputs made from `--seed`: graphs, mutation batches, query scripts.
//! The same seed gives the same inputs; the program sees only the inputs.

use graphsd::delta::MutationBatch;
use graphsd::graph::{Edge, GeneratorConfig, Graph, GraphKind};
use graphsd::serve::Request;
use std::collections::BTreeSet;

/// SplitMix64: small, seedable, and owned by the benchmark so the
/// scripts do not change when the program's generators do.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// One generated graph.
#[derive(Clone, Copy)]
pub struct GraphSpec {
    pub kind: GraphKind,
    pub vertices: u32,
    pub edges: u64,
    pub weighted: bool,
}

impl GraphSpec {
    /// `stream` separates the workloads' generator seeds.
    pub fn generate(&self, seed: u64, stream: u64) -> Graph {
        let mut config = GeneratorConfig::new(
            self.kind,
            self.vertices,
            self.edges,
            seed.wrapping_mul(1_000_003) ^ stream,
        );
        if self.weighted {
            config = config.weighted();
        }
        config.generate()
    }
}

/// Graph sizes and repeat counts. `quick` runs the same code on tiny
/// graphs with one repeat.
pub struct Sizes {
    pub pr: GraphSpec,
    pub sssp: GraphSpec,
    pub mutate: GraphSpec,
    pub serve: GraphSpec,
    /// Set-ups per invocation; `setup_s` is their median.
    pub setups: usize,
    /// Fewest timed units per invocation, whatever `--seconds` says.
    pub min_units: usize,
    /// Mutation batches per cycle and ops per batch.
    pub batches: usize,
    pub batch_ops: usize,
    /// Lookups per connection and round (the traversals are the pool).
    pub round_lookups: usize,
    /// Shared sub-block cache of the daemon, bytes.
    pub cache_bytes: u64,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            pr: GraphSpec {
                kind: GraphKind::Kronecker,
                vertices: 200_000,
                edges: 6_400_000,
                weighted: false,
            },
            sssp: GraphSpec {
                kind: GraphKind::Grid2d,
                vertices: 90_000,
                edges: 0,
                weighted: true,
            },
            mutate: GraphSpec {
                kind: GraphKind::RMat,
                vertices: 20_000,
                edges: 600_000,
                weighted: false,
            },
            serve: GraphSpec {
                kind: GraphKind::RMat,
                vertices: 100_000,
                edges: 3_600_000,
                weighted: false,
            },
            setups: 5,
            min_units: 3,
            batches: 2,
            batch_ops: 2_000,
            round_lookups: 500,
            cache_bytes: 8 << 20,
        }
    }

    pub fn quick() -> Self {
        Sizes {
            pr: GraphSpec {
                kind: GraphKind::Kronecker,
                vertices: 4_000,
                edges: 60_000,
                weighted: false,
            },
            sssp: GraphSpec {
                kind: GraphKind::Grid2d,
                vertices: 1_600,
                edges: 0,
                weighted: true,
            },
            mutate: GraphSpec {
                kind: GraphKind::RMat,
                vertices: 2_000,
                edges: 30_000,
                weighted: false,
            },
            serve: GraphSpec {
                kind: GraphKind::RMat,
                vertices: 4_000,
                edges: 60_000,
                weighted: false,
            },
            setups: 1,
            min_units: 1,
            batches: 2,
            batch_ops: 100,
            round_lookups: 100,
            cache_bytes: 64 << 10,
        }
    }
}

/// The vertex with the most out-edges: a well-connected, deterministic
/// root for SSSP, BFS and hub queries.
pub fn hub(graph: &Graph) -> u32 {
    hub_of(&graph.out_degrees())
}

/// The vertex in the middle of the `Grid2d` generator's `side × side`
/// grid of `n` vertices (row-major ids).
pub fn grid_centre(n: u32) -> u32 {
    let side = (f64::from(n)).sqrt().ceil() as u32;
    ((side / 2) * side + side / 2).min(n.saturating_sub(1))
}

/// [`hub`] from an out-degree table.
pub fn hub_of(degrees: &[u32]) -> u32 {
    let mut best = 0u32;
    for (v, &d) in degrees.iter().enumerate() {
        if d > degrees[best as usize] {
            best = v as u32;
        }
    }
    best
}

/// `count` batches of `ops` ops each over `graph`: three inserts of
/// random pairs for every delete of an existing edge. No pair is both
/// inserted and deleted anywhere in the sequence, so the merged edge
/// list after batch `k` is `(edges − deleted pairs) + inserted edges`
/// whatever the order inside a batch.
pub fn mutation_batches(graph: &Graph, seed: u64, count: usize, ops: usize) -> Vec<MutationBatch> {
    let mut rng = Rng::new(seed, 0xBA7C);
    let n = u64::from(graph.num_vertices());
    let edges = graph.edges();
    let mut deleted: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut plans: Vec<Vec<Option<(u32, u32)>>> = Vec::new();
    for _ in 0..count {
        let mut plan = Vec::with_capacity(ops);
        for k in 0..ops {
            if k % 4 == 3 {
                let e = edges[rng.below(edges.len() as u64) as usize];
                if deleted.insert((e.src, e.dst)) {
                    plan.push(Some((e.src, e.dst)));
                    continue;
                }
            }
            plan.push(None);
        }
        plans.push(plan);
    }
    plans
        .into_iter()
        .map(|plan| {
            let mut batch = MutationBatch::new();
            for op in plan {
                match op {
                    Some((src, dst)) => {
                        batch.delete(src, dst);
                    }
                    None => loop {
                        let (src, dst) = (rng.below(n) as u32, rng.below(n) as u32);
                        if src != dst && !deleted.contains(&(src, dst)) {
                            batch.insert(src, dst, 1.0);
                            break;
                        }
                    },
                }
            }
            batch
        })
        .collect()
}

/// `edges` after `batch` (see [`mutation_batches`] for why order inside
/// the batch does not matter).
pub fn apply_batch(edges: &mut Vec<Edge>, batch: &MutationBatch) {
    use graphsd::graph::DeltaOp;
    let gone: BTreeSet<(u32, u32)> = batch
        .ops
        .iter()
        .filter_map(|op| match op {
            DeltaOp::Delete { src, dst } => Some((*src, *dst)),
            DeltaOp::Insert(_) => None,
        })
        .collect();
    edges.retain(|e| !gone.contains(&(e.src, e.dst)));
    for op in &batch.ops {
        if let DeltaOp::Insert(e) = op {
            edges.push(Edge::new(e.src, e.dst));
        }
    }
}

/// The scripts of one round, one per connection: `lookups`
/// `Degree`/`Neighbors` requests on random vertices, then this
/// connection's share of the whole traversal pool, dealt out in an order
/// that depends on the seed and the round. Every round therefore asks
/// every pool traversal exactly once; only who asks what, and when,
/// changes.
pub fn serve_round(
    n: u32,
    pool: &[Request],
    seed: u64,
    connections: usize,
    round: u64,
    lookups: usize,
) -> Vec<Vec<Request>> {
    let mut rng = Rng::new(seed, 0x5E12 + round * 7919);
    let mut order: Vec<usize> = (0..pool.len()).collect();
    for k in (1..order.len()).rev() {
        order.swap(k, rng.below(k as u64 + 1) as usize);
    }
    (0..connections)
        .map(|c| {
            let mut script = Vec::with_capacity(lookups + pool.len() / connections + 1);
            for k in 0..lookups {
                let v = rng.below(u64::from(n)) as u32;
                script.push(if k % 2 == 0 {
                    Request::Degree { v }
                } else {
                    Request::Neighbors { v }
                });
            }
            script.extend(
                order
                    .iter()
                    .skip(c)
                    .step_by(connections)
                    .map(|&t| pool[t].clone()),
            );
            script
        })
        .collect()
}

/// The fixed pool of 48 traversals: k-hop (k = 2–3) and 3-iteration
/// personalized PageRank, from sources picked by out-degree rank — the
/// hub first, then ever less connected vertices down to the median one,
/// hubs over-represented. Ranks rather than random ids, so that graphs
/// from different seeds get pools of the same shape; the out-degrees are
/// the grid's own table. Each round asks the
/// whole pool, so later rounds find earlier answers' blocks in the cache.
pub fn traversal_pool(degrees: &[u32]) -> Vec<Request> {
    const POOL: usize = 48;
    let mut by_degree: Vec<u32> = (0..degrees.len() as u32).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(degrees[v as usize]), v));
    let half = by_degree.len() / 2;
    let alpha_bits = 0.85f32.to_bits();
    (0..POOL)
        .map(|k| {
            let rank = ((k as f64 / (POOL - 1) as f64).powi(3) * half as f64) as usize;
            let source = by_degree[rank];
            if k % 3 == 2 {
                let mut seeds = vec![source, by_degree[(rank + 1).min(by_degree.len() - 1)]];
                seeds.sort_unstable();
                seeds.dedup();
                Request::Ppr {
                    seeds,
                    alpha_bits,
                    iterations: 3,
                }
            } else {
                Request::KHop {
                    source,
                    k: 2 + (k % 2) as u32,
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphsd::graph::DeltaOp;

    fn small() -> Graph {
        GraphSpec {
            kind: GraphKind::RMat,
            vertices: 500,
            edges: 4_000,
            weighted: false,
        }
        .generate(3, 1)
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let g = small();
        assert_eq!(
            mutation_batches(&g, 5, 2, 40),
            mutation_batches(&g, 5, 2, 40)
        );
        assert_ne!(
            mutation_batches(&g, 5, 2, 40),
            mutation_batches(&g, 6, 2, 40)
        );
        let pool = traversal_pool(&g.out_degrees());
        assert_eq!(pool.len(), 48);
        let scripts = serve_round(500, &pool, 5, 2, 1, 10);
        assert_eq!(scripts, serve_round(500, &pool, 5, 2, 1, 10));
        assert_ne!(scripts, serve_round(500, &pool, 5, 2, 2, 10));
        assert_eq!(
            scripts.iter().map(Vec::len).sum::<usize>(),
            2 * 10 + pool.len()
        );
        for request in &pool {
            let asked = scripts.iter().flatten().filter(|r| *r == request).count();
            assert_eq!(
                asked,
                pool.iter().filter(|r| *r == request).count(),
                "every pool entry is asked once"
            );
        }
    }

    #[test]
    fn batches_never_insert_a_deleted_pair_and_delete_real_edges() {
        let g = small();
        let batches = mutation_batches(&g, 9, 3, 200);
        let existing: BTreeSet<(u32, u32)> = g.edges().iter().map(|e| (e.src, e.dst)).collect();
        let mut deleted = BTreeSet::new();
        let mut inserted = BTreeSet::new();
        for batch in &batches {
            assert_eq!(batch.ops.len(), 200);
            assert!(batch.deletes() > 0 && batch.inserts() >= 3 * batch.deletes());
            for op in &batch.ops {
                match op {
                    DeltaOp::Delete { src, dst } => {
                        assert!(existing.contains(&(*src, *dst)));
                        assert!(deleted.insert((*src, *dst)), "a pair is deleted once");
                    }
                    DeltaOp::Insert(e) => {
                        inserted.insert((e.src, e.dst));
                    }
                }
            }
        }
        assert!(inserted.is_disjoint(&deleted));
    }

    #[test]
    fn grid_centre_is_the_middle_row_and_column() {
        assert_eq!(grid_centre(9), 4);
        assert_eq!(grid_centre(90_000), 150 * 300 + 150);
        assert_eq!(grid_centre(1), 0);
    }

    #[test]
    fn apply_batch_removes_every_copy_and_appends_inserts() {
        let mut edges = vec![Edge::new(1, 2), Edge::new(1, 2), Edge::new(2, 3)];
        let mut batch = MutationBatch::new();
        batch.delete(1, 2).insert(4, 5, 1.0);
        apply_batch(&mut edges, &batch);
        assert_eq!(edges, vec![Edge::new(2, 3), Edge::new(4, 5)]);
    }
}
