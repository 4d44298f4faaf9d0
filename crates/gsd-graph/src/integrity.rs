//! Offline grid maintenance: whole-grid scrub and repair-from-source
//! (the format-aware half of `gsd scrub`).
//!
//! [`scrub_grid`] parses and self-checks the meta, then verifies every
//! manifest-covered object. [`repair_grid`] goes one step further: given
//! the original source graph it lays out again (with the preprocessor's
//! own [`row_objects`]) every row that holds a corrupt or missing object —
//! the layout is deterministic, so a rebuilt object is byte-identical to
//! what the manifest recorded — and rewrites only the corrupt ones. A
//! corrupt `meta.json` itself is not repairable (it is the root of
//! trust); re-preprocess instead.

use crate::format::{GridMeta, META_KEY};
use crate::graph::Graph;
use crate::layout::{bucket_edges, degrees_object, row_keys, row_objects};
use gsd_integrity::{scrub_objects, ScrubReport};
use gsd_io::Storage;
use std::collections::BTreeSet;

fn invalid(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Verifies every object of the grid at `prefix` against its manifest.
/// On a mutated grid the pass also verifies every live delta segment
/// against its entry in the meta's delta section, so the report speaks
/// for the whole logical grid.
/// Read-only; reads are unaccounted (maintenance, not workload I/O).
pub fn scrub_grid(storage: &dyn Storage, prefix: &str) -> std::io::Result<(GridMeta, ScrubReport)> {
    let bytes = storage.read_all(&format!("{prefix}{META_KEY}"))?;
    let meta = GridMeta::from_bytes(&bytes)?;
    let mut report = scrub_objects(storage, prefix, &meta.integrity.objects);
    if let Some(delta) = &meta.delta {
        report
            .objects
            .extend(scrub_objects(storage, prefix, &delta.segments).objects);
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
    let corrupt: BTreeSet<&str> = before.corrupt().map(|o| o.key.as_str()).collect();
    if let Some(segment) = corrupt.iter().find(|key| section.lookup(key).is_none()) {
        return Err(invalid(format!(
            "corrupt object {segment:?} is a delta segment, which is not derivable \
             from the base source graph; re-ingest the batch or re-preprocess \
             the merged edge list instead"
        )));
    }

    // Every payload about to be written must hash to what the manifest
    // recorded: anything else means the wrong source graph.
    let mut rewritten = Vec::new();
    let mut restore = |(rel, payload): (String, Vec<u8>)| {
        if !corrupt.contains(rel.as_str()) {
            return Ok(());
        }
        let key = format!("{prefix}{rel}");
        // `corrupt` holds manifest keys only (segments were refused above).
        if let Some(Err(mismatch)) = section.lookup(&rel).map(|e| e.check(&key, &payload)) {
            return Err(invalid(format!(
                "rebuilt object {rel:?} does not match the manifest ({mismatch}): \
                 the provided source is not this grid's source"
            )));
        }
        storage.create(&key, &payload)?;
        rewritten.push(rel);
        Ok(())
    };
    let p = meta.p;
    let intervals = meta.intervals();
    let mut blocks = bucket_edges(graph.edges(), &intervals);
    for (i, row) in (0..p).zip(blocks.chunks_mut(p as usize)) {
        if row_keys(i, p, meta.order)
            .iter()
            .any(|key| corrupt.contains(key.as_str()))
        {
            row_objects(i, row, meta.order, &intervals, meta.codec())
                .objects
                .into_iter()
                .try_for_each(&mut restore)?;
        }
    }
    restore(degrees_object(&graph.out_degrees()))?;
    if let Some(key) = corrupt
        .iter()
        .find(|&&key| !rewritten.iter().any(|r| r == key))
    {
        return Err(invalid(format!(
            "manifest object {key:?} is not derivable from the source graph"
        )));
    }
    storage.sync()?;

    let after = scrub_objects(storage, prefix, &section.objects);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{GeneratorConfig, GraphKind};
    use crate::preprocess::{preprocess, PreprocessConfig};
    use gsd_integrity::{corrupt_object, CorruptionKind, CorruptionMode};
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
        corrupt_object(&store, "blocks/b_1_0.edges", CorruptionMode::BitFlip, 1).unwrap();
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
        corrupt_object(&store, "g/blocks/b_0_1.edges", CorruptionMode::BitFlip, 1).unwrap();
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
        corrupt_object(&store, "degrees.bin", CorruptionMode::BitFlip, 1).unwrap();
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
                order: crate::layout::BlockOrder::ByDest,
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
                    let key = format!("x/{}", entry.key);
                    corrupt_object(&store, &key, CorruptionMode::BitFlip, 1).unwrap();
                }
            }
            let outcome = repair_grid(&store, "x/", &g).unwrap();
            assert!(outcome.after.is_clean());
            assert!(matches!(
                outcome.before.objects[0].status,
                None | Some(CorruptionKind::ChecksumMismatch { .. })
            ));
        }
    }

    #[test]
    fn v1_grid_cannot_be_scrubbed() {
        let g = source();
        let store = MemStorage::new();
        preprocess(&g, &store, &PreprocessConfig::graphsd("").with_intervals(2)).unwrap();
        // Rewrite the meta as a v1 writer produced it: no section.
        let now = String::from_utf8(store.read_all(META_KEY).unwrap()).unwrap();
        let body = &now[..now.find(",\n  \"integrity\"").unwrap()];
        let current = format!("\"version\": {}", crate::format::FORMAT_VERSION);
        let v1 = format!("{body}\n}}").replacen(&current, "\"version\": 1", 1);
        store.create(META_KEY, v1.as_bytes()).unwrap();
        let err = scrub_grid(&store, "").unwrap_err();
        assert!(
            err.to_string()
                .contains("unsupported grid format version 1"),
            "{err}"
        );
    }
}
