//! Model-based property tests for the substrate data structures: the
//! frontier bitset against a `BTreeSet` model, the value array against a
//! plain vector, the storage backends' sequential/random
//! classification, and the I/O cost model's monotonicity.

use gsd_io::{DiskModel, IoCostModel, MemStorage, OnDemandCostInputs, SimDisk, Storage};
use gsd_runtime::{Frontier, ValueArray};
use proptest::prelude::*;
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
enum FrontierOp {
    Insert(u32),
    Remove(u32),
    Contains(u32),
}

fn arb_ops(universe: u32) -> impl Strategy<Value = Vec<FrontierOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0..universe).prop_map(FrontierOp::Insert),
            (0..universe).prop_map(FrontierOp::Remove),
            (0..universe).prop_map(FrontierOp::Contains),
        ],
        0..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frontier_behaves_like_a_set(ops in arb_ops(300)) {
        let frontier = Frontier::empty(300);
        let mut model: BTreeSet<u32> = BTreeSet::new();
        for op in ops {
            match op {
                FrontierOp::Insert(v) => {
                    prop_assert_eq!(frontier.insert(v), model.insert(v));
                }
                FrontierOp::Remove(v) => {
                    prop_assert_eq!(frontier.remove(v), model.remove(&v));
                }
                FrontierOp::Contains(v) => {
                    prop_assert_eq!(frontier.contains(v), model.contains(&v));
                }
            }
        }
        prop_assert_eq!(frontier.count(), model.len() as u64);
        let got: Vec<u32> = frontier.iter().collect();
        let want: Vec<u32> = model.into_iter().collect();
        prop_assert_eq!(got, want, "iteration order is ascending and complete");
    }

    #[test]
    fn frontier_iter_range_matches_filter(seeds in proptest::collection::btree_set(0u32..500, 0..80),
                                          lo in 0u32..500, len in 0u32..500) {
        let hi = (lo + len).min(500);
        let seeds: Vec<u32> = seeds.into_iter().collect();
        let f = Frontier::from_seeds(500, &seeds);
        let got: Vec<u32> = f.iter_range(lo..hi).collect();
        let want: Vec<u32> = seeds.iter().copied().filter(|&v| v >= lo && v < hi).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn value_array_min_combine_matches_sequential_model(
        updates in proptest::collection::vec((0u32..64, 0u32..1000), 0..300)
    ) {
        let arr = ValueArray::<u32>::new(64, u32::MAX);
        let mut model = vec![u32::MAX; 64];
        for (i, v) in updates {
            let changed = arr.combine(i, v, u32::min);
            let new = model[i as usize].min(v);
            prop_assert_eq!(changed, new != model[i as usize]);
            model[i as usize] = new;
        }
        prop_assert_eq!(arr.snapshot(), model);
    }

    #[test]
    fn value_array_sum_combine_matches_sequential_model(
        updates in proptest::collection::vec((0u32..16, 0u64..1000), 0..300)
    ) {
        let arr = ValueArray::<u64>::new(16, 0);
        let mut model = vec![0u64; 16];
        for (i, v) in updates {
            let changed = arr.combine(i, v, |a, b| a + b);
            prop_assert_eq!(changed, v != 0);
            model[i as usize] += v;
        }
        prop_assert_eq!(arr.snapshot(), model);
    }

    #[test]
    fn frontier_remove_then_union_matches_set_model(
        a in proptest::collection::btree_set(0u32..300, 0..80),
        gone in proptest::collection::btree_set(0u32..300, 0..40),
        b in proptest::collection::btree_set(0u32..300, 0..80),
    ) {
        let fa = Frontier::from_seeds(300, &a.iter().copied().collect::<Vec<_>>());
        let fb = Frontier::from_seeds(300, &b.iter().copied().collect::<Vec<_>>());
        let mut model = a;
        for v in gone {
            prop_assert_eq!(fa.remove(v), model.remove(&v));
        }
        fa.union_with(&fb);
        model.extend(b.iter().copied());
        prop_assert_eq!(fa.count(), model.len() as u64);
        prop_assert_eq!(fa.to_vec(), model.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(fb.to_vec(), b.into_iter().collect::<Vec<_>>(), "source unchanged");
    }

    #[test]
    fn storage_reads_return_written_bytes(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 1..8),
        reads in proptest::collection::vec((0usize..8, 0usize..64, 1usize..32), 0..20)
    ) {
        let store = MemStorage::new();
        for (k, data) in chunks.iter().enumerate() {
            store.create(&format!("obj{k}"), data).unwrap();
        }
        for (k, offset, len) in reads {
            let k = k % chunks.len();
            let data = &chunks[k];
            let offset = offset % data.len();
            let len = len.min(data.len() - offset);
            if len == 0 { continue; }
            let mut buf = vec![0u8; len];
            store.read_at(&format!("obj{k}"), offset as u64, &mut buf).unwrap();
            prop_assert_eq!(&buf[..], &data[offset..offset + len]);
        }
    }

    #[test]
    fn classification_totals_are_conserved(
        reads in proptest::collection::vec((0u64..96, 1usize..32), 1..40)
    ) {
        // However reads are classified, seq + rand bytes must equal the
        // total requested, and ops must equal the request count.
        let store = SimDisk::new(DiskModel::ssd());
        store.create("k", &[7u8; 128]).unwrap();
        store.stats().reset();
        let mut total = 0u64;
        let mut buf = [0u8; 32];
        for (offset, len) in &reads {
            let len = (*len).min((128 - offset) as usize);
            if len == 0 { continue; }
            store.read_at("k", *offset, &mut buf[..len]).unwrap();
            total += len as u64;
        }
        let s = store.stats().snapshot();
        prop_assert_eq!(s.seq_read_bytes + s.rand_read_bytes, total);
        prop_assert!(s.sim_nanos > 0 || total == 0);
    }

    #[test]
    fn back_to_back_reads_are_sequential_after_the_first(
        lens in proptest::collection::vec(1usize..32, 1..20)
    ) {
        let store = MemStorage::new();
        store.create("k", &vec![0u8; 4096]).unwrap();
        store.stats().reset();
        let mut offset = 0u64;
        let mut buf = [0u8; 32];
        for len in &lens {
            if offset + *len as u64 > 4096 { break; }
            store.read_at("k", offset, &mut buf[..*len]).unwrap();
            offset += *len as u64;
        }
        let s = store.stats().snapshot();
        prop_assert!(s.rand_read_ops <= 1, "only the first read may seek: {s:?}");
    }

    #[test]
    fn cost_model_prefers_on_demand_monotonically(
        v_bytes in 1_000u64..1_000_000,
        e_bytes in 1_000_000u64..100_000_000,
        s1 in 0u64..10_000_000,
        s2 in 0u64..10_000_000,
    ) {
        // If on-demand is rejected for a smaller active volume, it must be
        // rejected for any larger volume with the same split ratio.
        let m = IoCostModel::new(DiskModel::hdd(), v_bytes, e_bytes);
        let (small, big) = (s1.min(s2), s1.max(s2));
        let inputs = |bytes: u64| OnDemandCostInputs {
            rand_edge_bytes: bytes / 2,
            seq_edge_bytes: bytes - bytes / 2,
        };
        if !m.prefer_on_demand(inputs(small)) {
            prop_assert!(!m.prefer_on_demand(inputs(big)));
        }
    }

    #[test]
    fn sim_time_scales_with_bytes(extra in 1u64..64) {
        let d = DiskModel::hdd();
        let small = d.read_cost(4096, false);
        let large = d.read_cost(4096 * extra, false);
        prop_assert!(large >= small);
        let ratio = large.as_nanos() as f64 / small.as_nanos().max(1) as f64;
        prop_assert!((ratio - extra as f64).abs() < 0.05 * extra as f64 + 1.0);
    }
}

/// Bounds that are not multiples of 64, a start past word 0, members in
/// the masked-off parts of both edge words, and a range that stays inside
/// one word.
#[test]
fn frontier_iter_range_masks_edge_words() {
    let f = Frontier::from_seeds(
        300,
        &[0, 63, 64, 69, 70, 71, 127, 128, 191, 192, 200, 201, 299],
    );
    let got: Vec<u32> = f.iter_range(70..201).collect();
    assert_eq!(got, vec![70, 71, 127, 128, 191, 192, 200]);
    assert_eq!(f.iter_range(65..70).collect::<Vec<_>>(), vec![69]);
    assert_eq!(f.iter_range(128..128).count(), 0);
    assert_eq!(f.iter_range(250..1000).collect::<Vec<_>>(), vec![299]);
    assert_eq!(f.iter_range(300..400).count(), 0);
}
