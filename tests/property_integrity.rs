//! Property: **any** single bit flip anywhere in a grid is
//! caught. For data objects, the offline scrub always reports the
//! damage, and a fully verified run either surfaces a structured
//! corruption error or — when the flipped object is never read — commits
//! values bit-identical to the clean run. For the metadata itself, the
//! flip is caught at open (parse or self-check failure) unless it landed
//! in insignificant JSON whitespace, in which case the parsed metadata
//! must be exactly the original. Nothing ever panics and nothing is ever
//! silently wrong.
//!
//! All of that rests on `crc32` computing the IEEE CRC, so the
//! table-driven implementation is held to the bit-at-a-time definition,
//! which lives on here as the reference.

use graphsd::algos::PageRank;
use graphsd::core::{GraphSdConfig, GraphSdEngine};
use graphsd::graph::rng::Xoshiro256;
use graphsd::graph::{
    preprocess, scrub_grid, GeneratorConfig, Graph, GraphKind, GridGraph, PreprocessConfig,
    VerifyPolicy, META_KEY,
};
use graphsd::integrity::{crc32, CorruptionError};
use graphsd::io::{MemStorage, SharedStorage, Storage};
use graphsd::runtime::Engine;
use proptest::prelude::*;
use std::sync::Arc;

fn test_graph() -> Graph {
    GeneratorConfig::new(GraphKind::RMat, 200, 1400, 13).generate()
}

fn fresh_grid(graph: &Graph) -> SharedStorage {
    let storage: SharedStorage = Arc::new(MemStorage::new());
    preprocess(
        graph,
        storage.as_ref(),
        &PreprocessConfig::graphsd("").with_intervals(3),
    )
    .unwrap();
    storage
}

fn flip_bit(storage: &dyn Storage, key: &str, bit: u64) {
    let mut bytes = storage.read_all(key).unwrap();
    let bit = bit % (bytes.len() as u64 * 8);
    bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
    storage.create(key, &bytes).unwrap();
}

/// CRC32 by definition: one polynomial division step per bit.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Every length around the eight-byte step, a spread of large ones, every
/// start offset within a step (so both an unaligned head and each 1–7-byte
/// tail occur), and the two constant fills.
#[test]
fn table_driven_crc32_equals_the_bitwise_definition() {
    let mut rng = Xoshiro256::seed_from_u64(23);
    let mut lens: Vec<usize> = (0..=70).collect();
    lens.extend([255, 256, 257, 4095, 4096, 4097, 65_535, 65_543, 1 << 20]);
    let max = *lens.last().unwrap();
    let random: Vec<u8> = (0..max + 8).map(|_| rng.next_u64() as u8).collect();
    for fill in [random, vec![0x00; max + 8], vec![0xFF; max + 8]] {
        for &len in &lens {
            for start in 0..8 {
                let slice = &fill[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "len {len} at offset {start}, first byte {:?}",
                    slice.first()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_single_bit_flip_in_a_data_object_is_caught(
        obj_seed in 0u64..1_000_000,
        bit_seed in 0u64..1_000_000_000,
    ) {
        let g = test_graph();
        let storage = fresh_grid(&g);
        let baseline = {
            let grid = GridGraph::open(storage.clone()).unwrap();
            GraphSdEngine::new(grid, GraphSdConfig::full())
                .unwrap()
                .run(&PageRank::with_iterations(3), &Default::default())
                .unwrap()
                .values
        };

        let grid = GridGraph::open(storage.clone()).unwrap();
        let section = grid.meta().integrity.clone();
        let targets: Vec<(String, u64)> = section
            .objects
            .iter()
            .filter(|o| o.len > 0)
            .map(|o| (o.key.clone(), o.len))
            .collect();
        prop_assert!(!targets.is_empty());
        let (key, len) = &targets[(obj_seed % targets.len() as u64) as usize];
        flip_bit(storage.as_ref(), key, bit_seed % (len * 8));
        drop(grid);

        // The offline pass always notices, and names the right object.
        let (_, report) = scrub_grid(storage.as_ref(), "").unwrap();
        let corrupt: Vec<&str> = report.corrupt().map(|o| o.key.as_str()).collect();
        prop_assert_eq!(corrupt, vec![key.as_str()], "scrub must catch the flip");

        // A fully verified run never commits wrong values: it fails with
        // a structured error, or the flipped object was never read and
        // the values are bit-identical to the clean run.
        let mut grid = GridGraph::open(storage.clone()).unwrap();
        grid.set_verification(VerifyPolicy::Full);
        let outcome = GraphSdEngine::new(grid, GraphSdConfig::full())
            .and_then(|mut e| e.run(&PageRank::with_iterations(3), &Default::default()));
        match outcome {
            Err(e) => {
                let c = CorruptionError::from_io(&e);
                prop_assert!(c.is_some(), "unstructured failure: {}", e);
                prop_assert_eq!(c.unwrap().key, key.clone());
            }
            Ok(r) => prop_assert_eq!(r.values, baseline, "silently wrong values"),
        }
    }

    #[test]
    fn any_single_bit_flip_in_the_metadata_is_caught_at_open(
        bit_seed in 0u64..1_000_000_000,
    ) {
        let g = test_graph();
        let storage = fresh_grid(&g);
        let original = GridGraph::open(storage.clone()).unwrap().meta().clone();
        flip_bit(storage.as_ref(), META_KEY, bit_seed);
        match GridGraph::open(storage.clone()) {
            Err(_) => {} // parse failure, shape check, or meta self-check
            Ok(grid) => prop_assert_eq!(
                grid.meta(),
                &original,
                "an open that survives a flipped bit must see unchanged metadata \
                 (the flip landed in insignificant whitespace)"
            ),
        }
    }
}
