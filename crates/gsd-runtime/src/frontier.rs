//! Bitset frontiers — the `V_active`, `Out` and `OutNI` sets of the
//! paper's Algorithm 1.
//!
//! Words are `Cell<u64>`: every method takes `&self` (an engine holds
//! several frontiers and passes them to the kernels side by side), and the
//! type is `!Sync`, so insertion is a plain read-modify-write with one
//! writer by construction:
//!
//! ```compile_fail
//! let f = gsd_runtime::Frontier::empty(64);
//! std::thread::scope(|s| {
//!     s.spawn(|| f.insert(3)); // `Cell<u64>` cannot be shared between threads
//! });
//! ```

use std::cell::Cell;
use std::ops::Range;

/// A fixed-universe set of vertex ids backed by a single-writer bitset
/// (`!Sync`).
#[derive(Clone)]
pub struct Frontier {
    words: Vec<Cell<u64>>,
    universe: u32,
}

/// Bits of word `wi` that fall inside `range`.
#[inline]
fn word_mask(wi: usize, range: &Range<u32>) -> u64 {
    let base = wi as u64 * 64;
    let lo = (range.start as u64).saturating_sub(base).min(64);
    let hi = (range.end as u64).saturating_sub(base).min(64);
    let below = |n: u64| ((1u128 << n) - 1) as u64;
    below(hi) & !below(lo)
}

/// Set bits of `bits`, ascending, as vertex ids of word `wi`.
#[inline]
fn word_members(wi: usize, mut bits: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        if bits == 0 {
            return None;
        }
        let tz = bits.trailing_zeros();
        bits &= bits - 1;
        Some(wi as u32 * 64 + tz)
    })
}

impl Frontier {
    /// Empty frontier over `0..universe`.
    pub fn empty(universe: u32) -> Self {
        Frontier {
            words: vec![Cell::new(0); (universe as usize).div_ceil(64)],
            universe,
        }
    }

    /// Full frontier over `0..universe`.
    pub fn full(universe: u32) -> Self {
        let f = Frontier::empty(universe);
        for (wi, word) in f.words.iter().enumerate() {
            word.set(word_mask(wi, &(0..universe)));
        }
        f
    }

    /// Frontier containing exactly `seeds`.
    pub fn from_seeds(universe: u32, seeds: &[u32]) -> Self {
        let f = Frontier::empty(universe);
        for &s in seeds {
            f.insert(s);
        }
        f
    }

    /// Size of the universe (max vertex id + 1).
    pub fn universe(&self) -> u32 {
        self.universe
    }

    /// Inserts `v`; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&self, v: u32) -> bool {
        debug_assert!(
            v < self.universe,
            "vertex {v} outside universe {}",
            self.universe
        );
        let bit = 1u64 << (v % 64);
        let word = &self.words[v as usize / 64];
        let prev = word.get();
        word.set(prev | bit);
        prev & bit == 0
    }

    /// Removes `v`; returns `true` if it was present.
    #[inline]
    pub fn remove(&self, v: u32) -> bool {
        debug_assert!(v < self.universe);
        let bit = 1u64 << (v % 64);
        let word = &self.words[v as usize / 64];
        let prev = word.get();
        word.set(prev & !bit);
        prev & bit != 0
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        debug_assert!(v < self.universe);
        self.words[v as usize / 64].get() & (1u64 << (v % 64)) != 0
    }

    /// Number of members (popcount scan, `O(universe/64)`).
    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| w.get().count_ones() as u64).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| w.get() == 0)
    }

    /// Clears all bits.
    pub fn clear(&self) {
        for w in &self.words {
            w.set(0);
        }
    }

    /// Copies all bits from `other` (same universe required).
    pub fn copy_from(&self, other: &Frontier) {
        assert_eq!(self.universe, other.universe);
        for (dst, src) in self.words.iter().zip(&other.words) {
            dst.set(src.get());
        }
    }

    /// Adds every member of `other` (same universe required).
    pub fn union_with(&self, other: &Frontier) {
        assert_eq!(self.universe, other.universe);
        for (dst, src) in self.words.iter().zip(&other.words) {
            dst.set(dst.get() | src.get());
        }
    }

    /// Iterates members in ascending order. Each word is read when the
    /// iterator reaches it, so members inserted behind the cursor are not
    /// seen.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.iter_range(0..self.universe)
    }

    /// Members restricted to `range`, ascending. Costs
    /// `O(range.len() / 64 + members)`: only the words overlapping `range`
    /// are read, the two edge words masked.
    pub fn iter_range(&self, range: Range<u32>) -> impl Iterator<Item = u32> + '_ {
        let range = range.start..range.end.min(self.universe);
        let first = range.start as usize / 64;
        let last = (range.end as usize).div_ceil(64).max(first);
        (first..last)
            .flat_map(move |wi| word_members(wi, self.words[wi].get() & word_mask(wi, &range)))
    }

    /// The smallest member `v` with `from <= v < limit` (`limit` clipped
    /// to the universe). Reads one word per 64 ids skipped; the words are
    /// read when called, so members inserted since are seen.
    #[inline]
    pub fn next_member(&self, from: u32, limit: u32) -> Option<u32> {
        let range = from..limit.min(self.universe);
        if range.is_empty() {
            return None;
        }
        let last = (range.end as usize - 1) / 64;
        (range.start as usize / 64..=last).find_map(|wi| {
            let bits = self.words[wi].get() & word_mask(wi, &range);
            (bits != 0).then(|| wi as u32 * 64 + bits.trailing_zeros())
        })
    }

    /// Number of members in `range` (clipped to the universe): a popcount
    /// of the words overlapping it, the two edge words masked.
    pub fn count_range(&self, range: Range<u32>) -> u64 {
        let range = range.start..range.end.min(self.universe);
        if range.is_empty() {
            return 0;
        }
        let words = range.start as usize / 64..(range.end as usize).div_ceil(64);
        words
            .map(|wi| (self.words[wi].get() & word_mask(wi, &range)).count_ones() as u64)
            .sum()
    }

    /// Collects members into a vector (ascending).
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }
}

impl std::fmt::Debug for Frontier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frontier")
            .field("universe", &self.universe)
            .field("count", &self.count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let f = Frontier::empty(100);
        assert!(f.insert(5));
        assert!(!f.insert(5), "second insert reports already-present");
        assert!(f.contains(5));
        assert!(!f.contains(6));
        assert!(f.remove(5));
        assert!(!f.remove(5));
        assert!(f.is_empty());
    }

    #[test]
    fn full_has_exact_count_on_ragged_universe() {
        for n in [1u32, 63, 64, 65, 100, 128, 129] {
            let f = Frontier::full(n);
            assert_eq!(f.count(), n as u64, "universe {n}");
            assert!(f.contains(n - 1));
        }
    }

    #[test]
    fn full_of_zero_universe() {
        let f = Frontier::full(0);
        assert_eq!(f.count(), 0);
        assert!(f.is_empty());
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let f = Frontier::from_seeds(200, &[199, 0, 64, 63, 65, 127, 128]);
        assert_eq!(f.to_vec(), vec![0, 63, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn iter_range_restricts() {
        let f = Frontier::from_seeds(200, &[1, 50, 100, 150, 199]);
        let got: Vec<u32> = f.iter_range(50..150).collect();
        assert_eq!(got, vec![50, 100]);
    }

    #[test]
    fn next_member_crosses_word_edges() {
        // Universe 150 is not a multiple of 64: the last word is ragged.
        let f = Frontier::from_seeds(150, &[0, 63, 64, 65, 149]);
        assert_eq!(f.next_member(0, 150), Some(0));
        assert_eq!(f.next_member(1, 150), Some(63));
        assert_eq!(f.next_member(63, 150), Some(63));
        assert_eq!(f.next_member(64, 150), Some(64));
        assert_eq!(f.next_member(65, 150), Some(65));
        assert_eq!(f.next_member(66, 150), Some(149));
        assert_eq!(f.next_member(150, 150), None);
        let every: Vec<u32> =
            std::iter::successors(f.next_member(0, 150), |&v| f.next_member(v + 1, 150)).collect();
        assert_eq!(every, f.to_vec());
    }

    #[test]
    fn next_member_clips_to_limit_and_universe() {
        let f = Frontier::from_seeds(150, &[10, 64, 149]);
        assert_eq!(f.next_member(11, 64), None, "limit is exclusive");
        assert_eq!(f.next_member(11, 65), Some(64));
        assert_eq!(f.next_member(0, 10), None);
        assert_eq!(
            f.next_member(65, u32::MAX),
            Some(149),
            "limit past the universe"
        );
        assert_eq!(f.next_member(200, 300), None, "start past the universe");
        assert_eq!(f.next_member(64, 64), None, "empty range");
        assert_eq!(f.next_member(65, 64), None, "inverted range");
        assert_eq!(Frontier::empty(0).next_member(0, 1), None);
    }

    #[test]
    fn count_range_matches_iter_range() {
        let seeds = [0, 1, 63, 64, 65, 127, 128, 149];
        let f = Frontier::from_seeds(150, &seeds);
        for (lo, hi) in [
            (0, 150),
            (0, 64),
            (63, 65),
            (64, 65),
            (65, 129),
            (1, 63),
            (149, 150),
        ] {
            assert_eq!(
                f.count_range(lo..hi),
                f.iter_range(lo..hi).count() as u64,
                "{lo}..{hi}"
            );
        }
        assert_eq!(f.count_range(0..u32::MAX), seeds.len() as u64);
        assert_eq!(f.count_range(64..64), 0, "empty range");
        let inverted = Range { start: 65, end: 64 };
        assert_eq!(f.count_range(inverted), 0, "inverted range");
        assert_eq!(f.count_range(150..400), 0, "past the universe");
        assert_eq!(Frontier::full(150).count_range(60..130), 70);
    }

    #[test]
    fn union_and_copy() {
        let a = Frontier::from_seeds(100, &[1, 2]);
        let b = Frontier::from_seeds(100, &[2, 3]);
        a.union_with(&b);
        assert_eq!(a.to_vec(), vec![1, 2, 3]);
        let c = Frontier::empty(100);
        c.copy_from(&a);
        assert_eq!(c.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn clone_is_independent() {
        let a = Frontier::from_seeds(10, &[1]);
        let b = a.clone();
        a.insert(2);
        assert!(!b.contains(2));
    }
}
