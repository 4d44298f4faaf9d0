//! Offline grid maintenance: whole-grid scrub and repair-from-source
//! (the format-aware half of `gsd scrub`).
//!
//! [`scrub_grid`] parses and self-checks the meta, then verifies every
//! manifest-covered object. [`repair_grid`] goes one step further: given
//! the original source graph it re-derives the payload of every corrupt
//! or missing object — preprocessing is deterministic, so a rebuilt
//! object is byte-identical to what the manifest recorded — and rewrites
//! only those. A corrupt `meta.json` itself is not repairable (it is the
//! root of trust); re-preprocess instead.

use crate::format::{
    block_edges_key, block_index_key, encode_u32s, row_index_key, GridMeta, DEGREES_KEY, META_KEY,
};
use crate::graph::Graph;
use crate::types::Edge;
use gsd_integrity::{scrub_objects, ObjectEntry, ScrubReport};
use gsd_io::Storage;
use std::collections::BTreeMap;

fn invalid(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Verifies every object of the grid at `prefix` against its manifest.
/// On a mutated grid (format v4 with a live delta epoch) the pass also
/// verifies every delta segment against the epoch manifest's own
/// integrity section, so the report speaks for the whole logical grid.
/// Read-only; reads are unaccounted (maintenance, not workload I/O).
pub fn scrub_grid(storage: &dyn Storage, prefix: &str) -> std::io::Result<(GridMeta, ScrubReport)> {
    let bytes = storage.read_all(&format!("{prefix}{META_KEY}"))?;
    let meta = GridMeta::from_bytes(&bytes)?;
    let mut report = scrub_objects(storage, prefix, &meta.integrity);
    if meta.delta.is_some() {
        let manifest = crate::delta::read_manifest(storage, prefix, &meta)?;
        report
            .objects
            .extend(scrub_objects(storage, prefix, &manifest.segments).objects);
    }
    Ok((meta, report))
}

/// What a repair pass did.
#[derive(Debug, Clone, Default)]
pub struct RepairOutcome {
    /// Scrub findings before the repair.
    pub before: ScrubReport,
    /// Prefix-relative keys rewritten from the source graph.
    pub rewritten: Vec<String>,
    /// Scrub findings after the repair (clean on success).
    pub after: ScrubReport,
}

/// Repairs the grid at `prefix` by re-deriving corrupt or missing
/// objects from `graph` (the same source the grid was preprocessed
/// from). Fails without touching storage if a rebuilt payload disagrees
/// with the manifest — that means `graph` is *not* the original source,
/// and overwriting would corrupt the grid further.
pub fn repair_grid(
    storage: &dyn Storage,
    prefix: &str,
    graph: &Graph,
) -> std::io::Result<RepairOutcome> {
    let (meta, before) = scrub_grid(storage, prefix)?;
    let section = &meta.integrity;
    if before.is_clean() {
        return Ok(RepairOutcome {
            after: before.clone(),
            before,
            ..RepairOutcome::default()
        });
    }

    let payloads = rebuild_payloads(graph, &meta)?;
    // The rebuilt object set must be exactly the manifest's object set,
    // and every payload we are about to write must hash to what the
    // manifest recorded: anything else means the wrong source graph.
    if payloads.len() != section.len() {
        return Err(invalid(format!(
            "source graph rebuilds {} objects but the manifest covers {}",
            payloads.len(),
            section.len()
        )));
    }
    let mut rewritten = Vec::new();
    for report in before.corrupt() {
        let entry = section.lookup(&report.key).ok_or_else(|| {
            invalid(format!(
                "corrupt object {:?} is a delta segment, which is not derivable \
                 from the base source graph; re-ingest the batch or re-preprocess \
                 the merged edge list instead",
                report.key
            ))
        })?;
        let payload = payloads.get(&report.key).ok_or_else(|| {
            invalid(format!(
                "manifest object {:?} is not derivable from the source graph",
                report.key
            ))
        })?;
        let rebuilt = ObjectEntry::of(report.key.clone(), payload);
        if rebuilt != *entry {
            return Err(invalid(format!(
                "rebuilt object {:?} does not match the manifest \
                 (len {} crc {:#010x} vs recorded len {} crc {:#010x}): \
                 the provided source is not this grid's source",
                report.key, rebuilt.len, rebuilt.crc, entry.len, entry.crc
            )));
        }
        storage.create(&format!("{prefix}{}", report.key), payload)?;
        rewritten.push(report.key.clone());
    }
    storage.sync()?;

    let after = scrub_objects(storage, prefix, section);
    if !after.is_clean() {
        return Err(invalid(format!(
            "grid {prefix:?} still corrupt after repair ({} bad objects)",
            after.counts().1
        )));
    }
    Ok(RepairOutcome {
        before,
        rewritten,
        after,
    })
}

/// Re-derives every data object payload (prefix-relative key → bytes)
/// the preprocessor would write for `graph` under `meta`'s parameters.
/// Mirrors `preprocess` exactly — same bucketing order, same sorts — so
/// output is byte-identical. Repair uses it to rewrite corrupt objects;
/// compaction (`gsd-delta`) uses it to fold merged edges back into base
/// sub-blocks.
pub fn rebuild_payloads(
    graph: &Graph,
    meta: &GridMeta,
) -> std::io::Result<BTreeMap<String, Vec<u8>>> {
    if graph.num_vertices() != meta.num_vertices
        || graph.num_edges() != meta.num_edges
        || graph.is_weighted() != meta.weighted
    {
        return Err(invalid(format!(
            "source graph shape ({} vertices, {} edges, weighted={}) does not match \
             the grid meta ({}, {}, weighted={})",
            graph.num_vertices(),
            graph.num_edges(),
            graph.is_weighted(),
            meta.num_vertices,
            meta.num_edges,
            meta.weighted
        )));
    }
    let p = meta.p;
    let intervals = meta.intervals();
    let codec = meta.codec();
    let mut blocks: Vec<Vec<Edge>> = vec![Vec::new(); (p * p) as usize];
    for e in graph.edges() {
        let i = intervals.interval_of(e.src);
        let j = intervals.interval_of(e.dst);
        blocks[(i * p + j) as usize].push(*e);
    }
    if meta.sorted {
        for block in &mut blocks {
            if meta.dst_sorted {
                block.sort_unstable_by_key(|e| (e.dst, e.src, e.weight.to_bits()));
            } else {
                block.sort_unstable_by_key(|e| (e.src, e.dst, e.weight.to_bits()));
            }
        }
    }
    let mut payloads = BTreeMap::new();
    for i in 0..p {
        let row_len = intervals.len(i) as usize;
        let mut row_index = if meta.indexed && !meta.dst_sorted {
            vec![0u32; (row_len + 1) * p as usize]
        } else {
            Vec::new()
        };
        for j in 0..p {
            let block = &blocks[(i * p + j) as usize];
            payloads.insert(block_edges_key("", i, j), codec.encode_all(block));
            if meta.indexed {
                let index_interval = if meta.dst_sorted { j } else { i };
                let offsets = crate::preprocess::build_index(
                    block,
                    intervals.range(index_interval),
                    meta.dst_sorted,
                );
                if !meta.dst_sorted {
                    for (k, &off) in offsets.iter().enumerate() {
                        row_index[k * p as usize + j as usize] = off;
                    }
                }
                payloads.insert(block_index_key("", i, j), encode_u32s(&offsets));
            }
        }
        if !row_index.is_empty() {
            payloads.insert(row_index_key("", i), encode_u32s(&row_index));
        }
    }
    payloads.insert(DEGREES_KEY.to_string(), encode_u32s(&graph.out_degrees()));
    Ok(payloads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{GeneratorConfig, GraphKind};
    use crate::preprocess::{preprocess, PreprocessConfig};
    use gsd_integrity::ObjectStatus;
    use gsd_io::MemStorage;

    fn source() -> Graph {
        GeneratorConfig::new(GraphKind::RMat, 150, 900, 5).generate()
    }

    #[test]
    fn clean_grid_scrubs_clean() {
        let g = source();
        let store = MemStorage::new();
        preprocess(
            &g,
            &store,
            &PreprocessConfig::graphsd("g/").with_intervals(3),
        )
        .unwrap();
        let (meta, report) = scrub_grid(&store, "g/").unwrap();
        assert!(report.is_clean());
        assert_eq!(report.objects.len(), meta.integrity.len());
    }

    #[test]
    fn scrub_finds_a_flipped_bit() {
        let g = source();
        let store = MemStorage::new();
        preprocess(&g, &store, &PreprocessConfig::graphsd("").with_intervals(2)).unwrap();
        store.write_at("blocks/b_1_0.edges", 5, &[0xFF]).unwrap();
        let (_, report) = scrub_grid(&store, "").unwrap();
        let bad: Vec<&str> = report.corrupt().map(|o| o.key.as_str()).collect();
        assert_eq!(bad, vec!["blocks/b_1_0.edges"]);
    }

    #[test]
    fn repair_restores_exact_bytes() {
        let g = source();
        let store = MemStorage::new();
        preprocess(
            &g,
            &store,
            &PreprocessConfig::graphsd("g/").with_intervals(3),
        )
        .unwrap();
        let pristine = store.read_all("g/blocks/b_0_1.edges").unwrap();
        store
            .write_at("g/blocks/b_0_1.edges", 2, &[0xAA, 0xBB])
            .unwrap();
        store.delete("g/degrees.bin").unwrap();
        let outcome = repair_grid(&store, "g/", &g).unwrap();
        assert_eq!(outcome.before.counts().1, 2);
        assert_eq!(
            outcome.rewritten,
            vec!["blocks/b_0_1.edges".to_string(), "degrees.bin".to_string()]
        );
        assert!(outcome.after.is_clean());
        assert_eq!(store.read_all("g/blocks/b_0_1.edges").unwrap(), pristine);
    }

    #[test]
    fn repair_refuses_a_mismatched_source() {
        let g = source();
        let store = MemStorage::new();
        preprocess(&g, &store, &PreprocessConfig::graphsd("").with_intervals(2)).unwrap();
        store.write_at("degrees.bin", 0, &[9]).unwrap();
        let wrong = GeneratorConfig::new(GraphKind::RMat, 150, 900, 6).generate();
        let err = repair_grid(&store, "", &wrong).unwrap_err();
        assert!(err.to_string().contains("not this grid's source"), "{err}");
        // And the corrupt object was left untouched.
        let (_, report) = scrub_grid(&store, "").unwrap();
        assert_eq!(report.counts().1, 1);
    }

    #[test]
    fn repair_covers_all_layouts() {
        for config in [
            PreprocessConfig::graphsd("x/").with_intervals(2),
            PreprocessConfig::lumos("x/").with_intervals(2),
            PreprocessConfig {
                sort_by_dst: true,
                ..PreprocessConfig::graphsd("x/")
            }
            .with_intervals(2),
        ] {
            let g = source();
            let store = MemStorage::new();
            preprocess(&g, &store, &config).unwrap();
            // Corrupt every object except the meta.
            let (meta, _) = scrub_grid(&store, "x/").unwrap();
            for entry in &meta.integrity.objects {
                if entry.len > 0 {
                    store
                        .write_at(&format!("x/{}", entry.key), entry.len / 2, &[0x5A])
                        .unwrap();
                }
            }
            let outcome = repair_grid(&store, "x/", &g).unwrap();
            assert!(outcome.after.is_clean());
            assert!(matches!(
                outcome.before.objects[0].status,
                ObjectStatus::Ok | ObjectStatus::ChecksumMismatch { .. }
            ));
        }
    }

    #[test]
    fn v1_grid_cannot_be_scrubbed() {
        let g = source();
        let store = MemStorage::new();
        preprocess(&g, &store, &PreprocessConfig::graphsd("").with_intervals(2)).unwrap();
        // Rewrite the meta as a v1 writer produced it: no section.
        let v2 = String::from_utf8(store.read_all(META_KEY).unwrap()).unwrap();
        let body = &v2[..v2.find(",\n  \"integrity\"").unwrap()];
        let v1 = format!("{body}\n}}").replacen("\"version\": 2", "\"version\": 1", 1);
        store.create(META_KEY, v1.as_bytes()).unwrap();
        let err = scrub_grid(&store, "").unwrap_err();
        assert!(
            err.to_string()
                .contains("unsupported grid format version 1"),
            "{err}"
        );
    }
}
