//! `scatter_edges` + `apply_range` against a naive `Vec`-based model:
//! arbitrary edge list × optional source filter × `apply_all` on/off ×
//! sub-range. Delivered/changed counts and every resulting array must be
//! equal — floats bit for bit, since the kernels promise slice-order
//! combines — and vertices outside `range` must be untouched.
//!
//! `scatter_sorted` against `scatter_edges` on source-sorted edge lists:
//! repeated records, empty and single-source lists, sources at 64-bit
//! word edges, and filters from empty to full, so both the galloping walk
//! and its per-edge fallback run. Everything the two deliver must be
//! bit-identical, and so must the same walk over the block's encoded
//! payload (`EncodedBySource`, in all four record layouts). Beyond
//! this file, `SortedBySource::new` asserts sortedness in debug builds on every block a stream pass hands the
//! kernel, so the debug property suites check it on real blocks:
//! `property_delta` on overlay-merged blocks, `prefetch_equivalence` on
//! prefetched ones and `crash_resume` on blocks re-read into the priority
//! buffer at restore.

use gsd_graph::{Edge, EdgeCodec};
use gsd_runtime::kernels::{
    apply_range, scatter_edges, scatter_sorted, EncodedBySource, SortedBySource,
};
use gsd_runtime::{Frontier, InitialFrontier, ProgramContext, ValueArray, VertexProgram};
use proptest::prelude::*;
use std::sync::Arc;

const N: u32 = 150;

/// Order-sensitive float recurrence; every third source sends nothing so
/// the `None` arm of `scatter` is exercised.
struct DampedSum;

impl VertexProgram for DampedSum {
    type Value = f32;
    type Accum = f32;
    fn name(&self) -> &'static str {
        "damped-sum"
    }
    fn init_value(&self, v: u32, _: &ProgramContext) -> f32 {
        1.0 + v as f32 * 0.37
    }
    fn zero_accum(&self) -> f32 {
        0.0
    }
    fn scatter(&self, u: u32, value: f32, weight: f32, _: &ProgramContext) -> Option<f32> {
        (!u.is_multiple_of(3)).then_some(value * weight)
    }
    fn combine(&self, a: f32, b: f32) -> f32 {
        a + b
    }
    fn apply(&self, _: u32, old: f32, accum: f32, _: &ProgramContext) -> Option<f32> {
        let new = 0.5 * old + accum;
        (new != old).then_some(new)
    }
    fn initial_frontier(&self, _: &ProgramContext) -> InitialFrontier {
        InitialFrontier::All
    }
}

fn members(f: &Frontier) -> Vec<bool> {
    (0..N).map(|v| f.contains(v)).collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn kernels_match_naive_model(
        raw_edges in proptest::collection::vec((0..N, 0..N, 1u32..16), 0..400),
        filter in proptest::collection::btree_set(0..N, 0..100),
        use_filter in any::<bool>(),
        apply_all in any::<bool>(),
        already_touched in proptest::collection::btree_set(0..N, 0..10),
        lo in 0..N,
        len in 0..N,
    ) {
        let p = DampedSum;
        let ctx = ProgramContext::new(N, Arc::new(vec![0; N as usize]));
        let edges: Vec<Edge> = raw_edges
            .iter()
            .map(|&(s, d, w)| Edge::weighted(s, d, w as f32 * 0.25))
            .collect();
        let range = lo..(lo + len).min(N);
        let filter: Vec<u32> = filter.into_iter().collect();
        let already_touched: Vec<u32> = already_touched.into_iter().collect();

        // --- kernels ---
        let values = ValueArray::from_fn(N as usize, |v| p.init_value(v, &ctx));
        let accum = ValueArray::new(N as usize, p.zero_accum());
        let touched = Frontier::from_seeds(N, &already_touched);
        let out = Frontier::empty(N);
        let filter_set = Frontier::from_seeds(N, &filter);
        let delivered = scatter_edges(
            &p,
            &ctx,
            &edges,
            use_filter.then_some(&filter_set),
            &values,
            &accum,
            &touched,
        );
        let accum_after_scatter = accum.snapshot();
        let changed =
            apply_range(&p, &ctx, range.clone(), apply_all, &touched, &accum, &values, &out);

        // --- model ---
        let mut m_values: Vec<f32> = (0..N).map(|v| p.init_value(v, &ctx)).collect();
        let mut m_accum = vec![p.zero_accum(); N as usize];
        let mut m_touched = vec![false; N as usize];
        for &v in &already_touched {
            m_touched[v as usize] = true;
        }
        let mut m_out = vec![false; N as usize];
        let mut m_delivered = 0u64;
        for e in &edges {
            if use_filter && !filter.contains(&e.src) {
                continue;
            }
            if let Some(msg) = p.scatter(e.src, m_values[e.src as usize], e.weight, &ctx) {
                m_accum[e.dst as usize] = p.combine(m_accum[e.dst as usize], msg);
                m_touched[e.dst as usize] = true;
                m_delivered += 1;
            }
        }
        prop_assert_eq!(delivered, m_delivered);
        prop_assert_eq!(bits(&accum_after_scatter), bits(&m_accum));
        prop_assert_eq!(members(&touched), m_touched.clone());

        let mut m_changed = 0u64;
        for v in range.clone() {
            if !apply_all && !m_touched[v as usize] {
                continue;
            }
            let a = std::mem::replace(&mut m_accum[v as usize], p.zero_accum());
            if let Some(new) = p.apply(v, m_values[v as usize], a, &ctx) {
                m_values[v as usize] = new;
                m_out[v as usize] = true;
                m_changed += 1;
            }
        }
        prop_assert_eq!(changed, m_changed);
        prop_assert_eq!(bits(&values.snapshot()), bits(&m_values));
        prop_assert_eq!(bits(&accum.snapshot()), bits(&m_accum));
        prop_assert_eq!(members(&out), m_out);
        prop_assert_eq!(members(&touched), m_touched, "apply never edits `touched`");

        // Outside `range`: committed values still initial, accumulators
        // exactly as scatter left them, nothing activated.
        for v in (0..N).filter(|v| !range.contains(v)) {
            prop_assert_eq!(values.get(v).to_bits(), p.init_value(v, &ctx).to_bits());
            prop_assert_eq!(accum.get(v).to_bits(), accum_after_scatter[v as usize].to_bits());
            prop_assert!(!out.contains(v));
        }
    }
}

/// Sources on and beside the 64-bit word edges of a frontier (`N` is not
/// a multiple of 64, so `N - 1` sits in a ragged last word).
const WORD_EDGES: [u32; 8] = [0, 1, 63, 64, 65, 127, 128, N - 1];

/// Whether `v` is in a filter of `density` 64ths (0 = empty, 64 = full).
fn in_filter(v: u32, density: u64, seed: u64) -> bool {
    let mut x = (u64::from(v) ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x % 64 < density
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The per-edge loop, the sorted walk over decoded edges and the same
    /// walk over the block's encoded payload (2- and 4-byte ids,
    /// unweighted and weighted) deliver the same count, accumulators bit for bit and the
    /// same `touched`.
    #[test]
    fn sorted_scatter_matches_per_edge_scatter(
        raw_edges in proptest::collection::vec((0..N, 0usize..16, 0..N, 1u32..4), 0..300),
        repeats in proptest::collection::vec(0usize..300, 0..40),
        single_source in any::<bool>(),
        weighted in any::<bool>(),
        narrow in any::<bool>(),
        density_log in 0u32..8,
        seed in any::<u64>(),
        already_touched in proptest::collection::btree_set(0..N, 0..10),
    ) {
        let p = DampedSum;
        let ctx = ProgramContext::new(N, Arc::new(vec![0; N as usize]));
        // Half the sources snap to a word edge; with `single_source`
        // every edge leaves the first one.
        let mut edges: Vec<Edge> = raw_edges
            .iter()
            .map(|&(s, snap, d, w)| {
                let s = WORD_EDGES.get(snap).copied().unwrap_or(s);
                Edge::weighted(s, d, w as f32 * 0.25)
            })
            .collect();
        for &k in &repeats {
            if let Some(&e) = edges.get(k) {
                edges.push(e); // an exact repeat of a record
            }
        }
        if let (true, Some(first)) = (single_source, edges.first().map(|e| e.src)) {
            edges.iter_mut().for_each(|e| e.src = first);
        }
        // Stable: records of one source keep their generated order, which
        // decides the float combine order.
        edges.sort_by_key(|e| e.src);
        // The block as stored, and as a reader decodes it (unit weights
        // when the codec stores none).
        let codec = EdgeCodec::new(weighted).with_id_bytes(if narrow { 2 } else { 4 });
        let payload = codec.encode_all(&edges);
        let edges = codec.decode_all(&payload);
        // 0, 1, 2, 4, …, 64 in 64ths: empty, sparse enough to gallop, full.
        let density = (1u64 << density_log) >> 1;
        let filter: Vec<u32> = (0..N).filter(|&v| in_filter(v, density, seed)).collect();
        let filter = Frontier::from_seeds(N, &filter);
        let already_touched: Vec<u32> = already_touched.into_iter().collect();

        let values = ValueArray::from_fn(N as usize, |v| p.init_value(v, &ctx));
        let run = |walk: Walk| {
            let accum = ValueArray::new(N as usize, p.zero_accum());
            let touched = Frontier::from_seeds(N, &already_touched);
            let (f, v, a, t) = (&filter, &values, &accum, &touched);
            let delivered = match walk {
                Walk::PerEdge => scatter_edges(&p, &ctx, &edges, Some(f), v, a, t),
                Walk::Decoded => scatter_sorted(&p, &ctx, SortedBySource::new(&edges), f, v, a, t),
                Walk::Encoded => gsd_graph::with_layout!(codec, <ID, W> => {
                    let encoded = EncodedBySource::<ID, W>::new(&payload, codec);
                    scatter_sorted(&p, &ctx, encoded, f, v, a, t)
                }),
            };
            (delivered, bits(&accum.snapshot()), members(&touched))
        };
        let per_edge = run(Walk::PerEdge);
        prop_assert_eq!(run(Walk::Decoded), per_edge.clone());
        prop_assert_eq!(run(Walk::Encoded), per_edge);
    }
}

/// Which scatter `sorted_scatter_matches_per_edge_scatter` runs.
#[derive(Clone, Copy)]
enum Walk {
    PerEdge,
    Decoded,
    Encoded,
}
