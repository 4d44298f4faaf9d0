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
