//! The sub-block buffering scheme (§4.3).
//!
//! FCIU loads the lower-triangle "secondary" sub-blocks twice per round
//! (once per pass) and their structure never changes, so caching them
//! avoids the second load. Memory is scarce (the 5 % budget) and most
//! secondary blocks may hold few active edges after the first pass, so the
//! buffer keeps the blocks with the **most active edges**: an insert that
//! does not fit evicts the lowest-priority residents, but only while their
//! priority is strictly lower than the newcomer's.
//!
//! That displacement rule lives once, in [`Residency`], generic over the
//! payload it keeps. The run buffer here ([`SubBlockBuffer`], decoded
//! edges, priority = active edges) and the serve daemon's cache
//! (`gsd_serve::cache`, encoded payload bytes, priority = demand) each
//! wrap it with their own trace events and their own hit accounting.

use gsd_graph::Edge;
use gsd_trace::{TraceEvent, TraceSink};
use std::collections::BTreeMap;
use std::sync::Arc;

struct Entry<T> {
    payload: T,
    bytes: u64,
    priority: u64,
}

/// A resident displaced by [`Residency::offer`]: coordinates and payload
/// bytes.
pub type Evicted = ((u32, u32), u64);

/// Byte-bounded residency map of sub-block payloads `T`, keyed by
/// `(i, j)`, with the strictly-lower-priority displacement rule. Each
/// payload is charged the byte count its offer names.
pub struct Residency<T> {
    capacity: u64,
    used: u64,
    entries: BTreeMap<(u32, u32), Entry<T>>,
}

impl<T> Residency<T> {
    /// A map holding at most `capacity` bytes of block payloads.
    pub fn new(capacity: u64) -> Self {
        Residency {
            capacity,
            used: 0,
            entries: BTreeMap::new(),
        }
    }

    /// Bytes currently resident.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Block `(i, j)`'s payload and its byte charge, if resident.
    pub fn get(&self, i: u32, j: u32) -> Option<(&T, u64)> {
        self.entries.get(&(i, j)).map(|e| (&e.payload, e.bytes))
    }

    /// Whether block `(i, j)` is resident.
    pub fn contains(&self, i: u32, j: u32) -> bool {
        self.entries.contains_key(&(i, j))
    }

    /// Offers block `(i, j)` with the given payload size and priority;
    /// `payload` is called only if the block is admitted. Returns whether
    /// the block is resident afterwards, and the residents evicted on the
    /// way, in eviction order.
    ///
    /// A re-offer of a resident block replaces the payload and refreshes
    /// the priority — the caller's read is newer than what is resident,
    /// and `used` must track the new size. Otherwise lower-priority
    /// residents are evicted while the block does not fit; if the
    /// remaining residents all have priority ≥ the newcomer's, the offer
    /// is declined (a grown re-offer that no longer fits is dropped
    /// rather than kept stale).
    pub fn offer(
        &mut self,
        i: u32,
        j: u32,
        bytes: u64,
        priority: u64,
        payload: impl FnOnce() -> T,
    ) -> (bool, Vec<Evicted>) {
        let mut evicted = Vec::new();
        if let Some(old) = self.entries.remove(&(i, j)) {
            self.used -= old.bytes;
        }
        if bytes > self.capacity {
            return (false, evicted);
        }
        while self.used + bytes > self.capacity {
            // The residency map is a `BTreeMap`, so this scan visits
            // candidates in coordinate order and ties on priority break
            // toward the smallest coordinates — a timing-free victim
            // choice is what keeps accounted I/O bit-identical across
            // repeats (the counters gate depends on it).
            let victim = self
                .entries
                .iter()
                .min_by_key(|(&k, e)| (e.priority, k))
                .map(|(&k, e)| (k, e.priority, e.bytes));
            match victim {
                Some((k, vprio, vbytes)) if vprio < priority => {
                    self.entries.remove(&k);
                    self.used -= vbytes;
                    evicted.push((k, vbytes));
                }
                _ => return (false, evicted),
            }
        }
        self.used += bytes;
        self.entries.insert(
            (i, j),
            Entry {
                payload: payload(),
                bytes,
                priority,
            },
        );
        (true, evicted)
    }

    /// The resident set as `(i, j, bytes, priority)`, in coordinate order.
    pub fn residents(&self) -> impl Iterator<Item = (u32, u32, u64, u64)> + '_ {
        self.entries
            .iter()
            .map(|(&(i, j), e)| (i, j, e.bytes, e.priority))
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.used = 0;
    }
}

/// Priority cache of decoded secondary sub-blocks, keyed by `(i, j)`.
pub struct SubBlockBuffer {
    map: Residency<Arc<Vec<Edge>>>,
    trace: Arc<dyn TraceSink>,
    /// Number of reads served from the buffer.
    pub hits: u64,
    /// Bytes of storage reads avoided.
    pub hit_bytes: u64,
    /// Residents evicted to make room.
    pub evictions: u64,
}

impl SubBlockBuffer {
    /// A buffer holding at most `capacity` bytes of block payloads.
    pub fn new(capacity: u64) -> Self {
        SubBlockBuffer {
            map: Residency::new(capacity),
            trace: gsd_trace::null_sink(),
            hits: 0,
            hit_bytes: 0,
            evictions: 0,
        }
    }

    /// Routes [`TraceEvent::BufferHit`] / [`TraceEvent::BufferEviction`]
    /// events to `trace`.
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

    /// Looks up block `(i, j)`, counting a hit on success.
    pub fn get(&mut self, i: u32, j: u32) -> Option<Arc<Vec<Edge>>> {
        let (edges, bytes) = self.map.get(i, j)?;
        self.hits += 1;
        self.hit_bytes += bytes;
        if self.trace.enabled() {
            self.trace.emit(&TraceEvent::BufferHit { i, j, bytes });
        }
        Some(edges.clone())
    }

    /// Whether block `(i, j)` is resident, without counting a hit (used
    /// by the stream pass to plan its prefetch schedule).
    pub fn contains(&self, i: u32, j: u32) -> bool {
        self.map.contains(i, j)
    }

    /// Offers block `(i, j)` with the given payload size and priority
    /// (= number of active edges observed in the first FCIU pass) under
    /// [`Residency::offer`]'s displacement rule. Returns `true` if the
    /// block is resident afterwards.
    pub fn offer(
        &mut self,
        i: u32,
        j: u32,
        edges: Arc<Vec<Edge>>,
        bytes: u64,
        priority: u64,
    ) -> bool {
        let (resident, evicted) = self.map.offer(i, j, bytes, priority, || edges);
        for ((i, j), bytes) in evicted {
            self.evictions += 1;
            if self.trace.enabled() {
                self.trace.emit(&TraceEvent::BufferEviction { i, j, bytes });
            }
        }
        resident
    }

    /// Snapshot of the resident set as `(i, j, bytes, priority)`, sorted
    /// by coordinates. Used by checkpointing to record residency so a
    /// resumed run rebuilds the same buffer (payloads are re-read from the
    /// grid; only identity, size and priority need to be recorded).
    pub fn residents(&self) -> Vec<(u32, u32, u64, u64)> {
        self.map.residents().collect()
    }

    /// Drops everything (between runs).
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(n: usize) -> Arc<Vec<Edge>> {
        Arc::new(vec![Edge::new(0, 1); n])
    }

    #[test]
    fn insert_and_hit() {
        let mut b = SubBlockBuffer::new(1000);
        assert!(b.offer(0, 1, block(4), 100, 7));
        assert_eq!(b.used(), 100);
        assert!(b.get(0, 1).is_some());
        assert_eq!(b.hits, 1);
        assert_eq!(b.hit_bytes, 100);
        assert!(b.get(0, 2).is_none());
        assert_eq!(b.hits, 1);
    }

    #[test]
    fn oversized_block_is_declined() {
        let mut b = SubBlockBuffer::new(100);
        assert!(!b.offer(0, 1, block(4), 200, 99));
        assert!(b.is_empty());
    }

    #[test]
    fn evicts_lowest_priority_first() {
        let mut b = SubBlockBuffer::new(250);
        assert!(b.offer(1, 0, block(1), 100, 5));
        assert!(b.offer(2, 0, block(1), 100, 10));
        // 100 bytes free; newcomer needs 200: must evict the prio-5 block,
        // and the prio-10 block survives only if it doesn't need to go.
        assert!(b.offer(3, 0, block(1), 150, 8));
        assert!(b.map.get(1, 0).is_none(), "prio 5 evicted");
        assert!(b.map.get(2, 0).is_some(), "prio 10 kept");
        assert!(b.map.get(3, 0).is_some());
        assert_eq!(b.evictions, 1);
        assert_eq!(b.used(), 250);
    }

    #[test]
    fn declines_when_residents_have_higher_priority() {
        let mut b = SubBlockBuffer::new(200);
        assert!(b.offer(1, 0, block(1), 100, 50));
        assert!(b.offer(2, 0, block(1), 100, 60));
        assert!(
            !b.offer(3, 0, block(1), 100, 10),
            "lower priority cannot displace"
        );
        assert_eq!(b.len(), 2);
        assert_eq!(b.evictions, 0);
    }

    #[test]
    fn reoffer_refreshes_priority() {
        let mut b = SubBlockBuffer::new(200);
        assert!(b.offer(1, 0, block(1), 100, 1));
        assert!(b.offer(1, 0, block(1), 100, 99));
        assert_eq!(b.used(), 100, "no double charge");
        // Now a prio-50 newcomer cannot evict it.
        assert!(!b.offer(2, 0, block(1), 200, 50));
    }

    #[test]
    fn reoffer_replaces_payload_and_recounts_bytes() {
        let mut b = SubBlockBuffer::new(400);
        assert!(b.offer(1, 0, block(2), 100, 5));
        // Re-offer with a different decode: the resident payload and its
        // byte charge must both update, not just the priority.
        assert!(b.offer(1, 0, block(3), 150, 7));
        assert_eq!(b.used(), 150, "used tracks the new size");
        let (resident, _) = b.map.get(1, 0).expect("still resident");
        assert_eq!(resident.len(), 3, "payload is the latest decode");
        // A shrink hands capacity back.
        assert!(b.offer(1, 0, block(1), 50, 7));
        assert_eq!(b.used(), 50);
    }

    #[test]
    fn grown_reoffer_that_no_longer_fits_is_dropped() {
        let mut b = SubBlockBuffer::new(200);
        assert!(b.offer(1, 0, block(1), 100, 5));
        assert!(b.offer(2, 0, block(1), 100, 50));
        // (1, 0) grows past what eviction can free: the prio-50 resident
        // outranks the re-offer, so the block leaves the buffer entirely
        // instead of staying resident with a stale payload.
        assert!(!b.offer(1, 0, block(4), 150, 5));
        assert!(b.map.get(1, 0).is_none());
        assert!(b.map.get(2, 0).is_some());
        assert_eq!(b.used(), 100);
    }

    #[test]
    fn clear_resets_usage_but_keeps_counters() {
        let mut b = SubBlockBuffer::new(100);
        b.offer(0, 1, block(1), 50, 1);
        b.get(0, 1);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.used(), 0);
        assert_eq!(b.hits, 1, "hit counters are per-run stats, kept");
    }

    #[test]
    fn multi_eviction_for_large_newcomer() {
        let mut b = SubBlockBuffer::new(300);
        b.offer(1, 0, block(1), 100, 1);
        b.offer(2, 0, block(1), 100, 2);
        b.offer(3, 0, block(1), 100, 3);
        assert!(b.offer(4, 0, block(1), 250, 10));
        // 250 bytes only fit after all three 100-byte residents are gone
        // (100 + 250 > 300).
        assert_eq!(b.evictions, 3);
        assert!(b.map.get(3, 0).is_none());
        assert!(b.map.get(4, 0).is_some());
        assert_eq!(b.used(), 250);
    }
}
