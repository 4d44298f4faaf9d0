//! The shared sub-block cache of the serve daemon.
//!
//! Generalizes the §4.3 priority buffer ([`gsd_core::SubBlockBuffer`])
//! from "one run's secondary blocks" to "every sub-block any resident
//! query touched": admission and eviction are the same [`Residency`] map
//! with the same strictly-lower-priority displacement rule, but the
//! priority is **demand** — how many concurrent queries used the block in
//! the pass that offered it — so blocks shared by many tenants outlive
//! single-tenant ones.
//!
//! A resident is the payload as it was read — the grid codec's records,
//! never decoded — and its charge is that payload's length, so
//! [`SubBlockCache::used`] is the cache's footprint. Queries scatter the
//! bytes through [`gsd_runtime::kernels::EncodedBySource`], decoding
//! records on use.
//!
//! Unlike the run buffer, hit/miss accounting lives with the caller
//! ([`crate::core::ServeCore`]): a hit is charged per *using query*, not
//! per lookup, so the cache itself only stores payloads and emits the
//! [`TraceEvent::CacheAdmit`] / [`TraceEvent::CacheEvict`] lifecycle
//! events. The executor is single-threaded, so all counters here and in
//! the core are plain `u64`s — determinism by construction, not by
//! synchronization.

use gsd_core::buffer::Residency;
use gsd_trace::{TraceEvent, TraceSink};
use std::sync::Arc;

/// Demand-prioritized cache of encoded sub-block payloads, keyed by
/// `(i, j)`.
pub struct SubBlockCache {
    map: Residency<Arc<Vec<u8>>>,
    trace: Arc<dyn TraceSink>,
    /// Blocks admitted since start.
    pub admits: u64,
    /// Residents evicted to make room since start.
    pub evicts: u64,
}

impl SubBlockCache {
    /// A cache holding at most `capacity` bytes of payloads.
    pub fn new(capacity: u64) -> Self {
        SubBlockCache {
            map: Residency::new(capacity),
            trace: gsd_trace::null_sink(),
            admits: 0,
            evicts: 0,
        }
    }

    /// Routes [`TraceEvent::CacheAdmit`] / [`TraceEvent::CacheEvict`] to
    /// `trace`.
    pub fn set_trace(&mut self, trace: Arc<dyn TraceSink>) {
        self.trace = trace;
    }

    /// Bytes currently resident.
    pub fn used(&self) -> u64 {
        self.map.used()
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up block `(i, j)`. Hit/miss accounting is the caller's: the
    /// serve core charges one hit per query that *uses* the block, which
    /// a cache-internal counter could not know.
    pub fn get(&self, i: u32, j: u32) -> Option<Arc<Vec<u8>>> {
        self.map.get(i, j).map(|(payload, _)| payload.clone())
    }

    /// Whether block `(i, j)` is resident.
    pub fn contains(&self, i: u32, j: u32) -> bool {
        self.map.contains(i, j)
    }

    /// Drops every resident block. The serve core calls this when the
    /// served grid changes epoch (mutation or compaction): cached
    /// payloads describe the previous epoch's sub-blocks.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Offers block `(i, j)`'s `payload`, charged its length, with
    /// `priority` = the number of queries that used it in the offering
    /// pass, under [`Residency::offer`]'s displacement rule; an admitted
    /// payload is copied into the cache. Returns `true` if resident
    /// afterwards.
    pub fn offer(&mut self, i: u32, j: u32, payload: &[u8], priority: u64) -> bool {
        let bytes = payload.len() as u64;
        let copy = || Arc::new(payload.to_vec());
        let (resident, evicted) = self.map.offer(i, j, bytes, priority, copy);
        for ((i, j), bytes) in evicted {
            self.evicts += 1;
            if self.trace.enabled() {
                self.trace.emit(&TraceEvent::CacheEvict { i, j, bytes });
            }
        }
        if resident {
            self.admits += 1;
            if self.trace.enabled() {
                self.trace.emit(&TraceEvent::CacheAdmit { i, j, bytes });
            }
        }
        resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsd_trace::RingRecorder;

    fn block(bytes: usize) -> Vec<u8> {
        vec![0; bytes]
    }

    #[test]
    fn admit_get_and_demand_displacement() {
        let mut c = SubBlockCache::new(250);
        assert!(c.offer(1, 0, &block(100), 1));
        assert!(c.offer(2, 0, &block(100), 3));
        assert!(c.get(1, 0).is_some());
        // A two-tenant newcomer displaces the single-tenant resident but
        // not the three-tenant one.
        assert!(c.offer(3, 0, &block(150), 2));
        assert!(c.get(1, 0).is_none(), "demand 1 evicted");
        assert!(c.get(2, 0).is_some(), "demand 3 kept");
        assert_eq!(c.used(), 250);
        assert_eq!((c.admits, c.evicts), (3, 1));
    }

    #[test]
    fn equal_demand_cannot_displace() {
        let mut c = SubBlockCache::new(100);
        assert!(c.offer(1, 0, &block(100), 2));
        assert!(!c.offer(2, 0, &block(100), 2));
        assert!(c.contains(1, 0));
        assert_eq!(c.evicts, 0);
    }

    #[test]
    fn oversized_offer_is_declined() {
        let mut c = SubBlockCache::new(64);
        assert!(!c.offer(0, 0, &block(65), 99));
        assert!(c.is_empty());
    }

    /// The charge is the footprint: after every offer — admitted,
    /// declined, evicting or re-offering a resident at a new size —
    /// `used()` is the summed length of the payloads the cache holds.
    #[test]
    fn used_is_the_summed_length_of_the_payloads_held() {
        let mut c = SubBlockCache::new(1_000);
        let offers: [(u32, usize, u64); 10] = [
            (0, 300, 1),
            (1, 250, 2),
            (2, 400, 1),
            (3, 500, 1),   // declined: every resident ties or outranks it
            (1, 120, 2),   // a re-offer shrinks a resident
            (4, 0, 1),     // an empty payload costs nothing
            (2, 700, 3),   // a re-offer grows a resident, evicting (0, 0)
            (5, 1_001, 9), // larger than the cache
            (1, 250, 1),   // a re-offer grows a resident in place
            (6, 300, 4),   // evicts (1, 0): ties on priority go by coordinates
        ];
        for (i, bytes, priority) in offers {
            c.offer(i, 0, &block(bytes), priority);
            let held: u64 = (0..8)
                .filter_map(|i| c.get(i, 0))
                .map(|payload| payload.len() as u64)
                .sum();
            assert_eq!(c.used(), held, "after offering ({i}, 0) of {bytes} bytes");
            assert!(c.used() <= 1_000);
        }
        assert_eq!(c.used(), 1_000);
        assert_eq!(c.evicts, 2);
        assert!(c.contains(4, 0) && !c.contains(1, 0));
        c.clear();
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn lifecycle_events_are_emitted() {
        let rec = Arc::new(RingRecorder::new(16));
        let mut c = SubBlockCache::new(100);
        c.set_trace(rec.clone());
        assert!(c.offer(0, 1, &block(100), 1));
        assert!(c.offer(0, 2, &block(100), 5));
        assert_eq!(rec.count_kind("cache_admit"), 2);
        assert_eq!(rec.count_kind("cache_evict"), 1);
        let evict = rec
            .events()
            .into_iter()
            .find(|e| e.kind() == "cache_evict")
            .unwrap();
        let TraceEvent::CacheEvict { i, j, bytes } = evict else {
            panic!("unexpected event {evict:?}");
        };
        assert_eq!((i, j, bytes), (0, 1, 100));
    }
}
