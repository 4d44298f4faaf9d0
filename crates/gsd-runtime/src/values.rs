//! Dense per-vertex state in plain memory cells.
//!
//! A [`ValueArray`] holds one [`Value`] per vertex, packed into a
//! `Cell<u64>`. Every method takes `&self` so engines can hold several
//! arrays (values, accumulators, next-iteration accumulators) side by side
//! without threading `&mut` through the kernels, but `Cell` makes the type
//! `!Sync`: a `&ValueArray` cannot cross a thread boundary, so there is
//! exactly one writer and `combine` is a plain load → `f` → store. The
//! compiler enforces the single-writer rule:
//!
//! ```compile_fail
//! let arr = gsd_runtime::ValueArray::<u32>::new(4, 0);
//! std::thread::scope(|s| {
//!     s.spawn(|| arr.set(0, 1)); // `Cell<u64>` cannot be shared between threads
//! });
//! ```
//!
//! A parallel kernel, if one is ever added, must own its destination range
//! as a `&mut` slice (one worker per sub-block column) rather than share
//! these cells.

use crate::value::Value;
use std::cell::Cell;
use std::marker::PhantomData;

/// A fixed-length array of single-writer value cells (`!Sync`).
pub struct ValueArray<V: Value> {
    cells: Vec<Cell<u64>>,
    _marker: PhantomData<V>,
}

impl<V: Value> ValueArray<V> {
    /// Creates an array of `len` cells, all `init`.
    pub fn new(len: usize, init: V) -> Self {
        ValueArray {
            cells: vec![Cell::new(init.to_bits()); len],
            _marker: PhantomData,
        }
    }

    /// Creates an array initialized per-vertex.
    pub fn from_fn(len: usize, mut f: impl FnMut(u32) -> V) -> Self {
        ValueArray {
            cells: (0..len).map(|v| Cell::new(f(v as u32).to_bits())).collect(),
            _marker: PhantomData,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Reads cell `v`.
    #[inline]
    pub fn get(&self, v: u32) -> V {
        V::from_bits(self.cells[v as usize].get())
    }

    /// Overwrites cell `v`.
    #[inline]
    pub fn set(&self, v: u32, value: V) {
        self.cells[v as usize].set(value.to_bits());
    }

    /// Merges `msg` into cell `v` with `f(current, msg)`. Returns `true`
    /// when the stored bits changed.
    #[inline]
    pub fn combine(&self, v: u32, msg: V, f: impl FnOnce(V, V) -> V) -> bool {
        let cell = &self.cells[v as usize];
        let cur = cell.get();
        let new = f(V::from_bits(cur), msg).to_bits();
        cell.set(new);
        new != cur
    }

    /// Copies all values out.
    pub fn snapshot(&self) -> Vec<V> {
        self.cells.iter().map(|c| V::from_bits(c.get())).collect()
    }

    /// Resets every cell to `value`.
    pub fn fill(&self, value: V) {
        let bits = value.to_bits();
        for c in &self.cells {
            c.set(bits);
        }
    }

    /// Copies every cell from `other`. Panics on length mismatch.
    pub fn copy_from(&self, other: &ValueArray<V>) {
        assert_eq!(self.len(), other.len());
        for (dst, src) in self.cells.iter().zip(&other.cells) {
            dst.set(src.get());
        }
    }
}

impl<V: Value> std::fmt::Debug for ValueArray<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ValueArray")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_get_set() {
        let arr = ValueArray::<f32>::new(4, 1.5);
        assert_eq!(arr.len(), 4);
        assert_eq!(arr.get(2), 1.5);
        arr.set(2, -3.0);
        assert_eq!(arr.get(2), -3.0);
        assert_eq!(arr.get(1), 1.5);
    }

    #[test]
    fn from_fn_initializes_per_index() {
        let arr = ValueArray::<u32>::from_fn(5, |v| v * 10);
        assert_eq!(arr.snapshot(), vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn combine_reports_change() {
        let arr = ValueArray::<u32>::new(1, 100);
        assert!(arr.combine(0, 50, u32::min));
        assert_eq!(arr.get(0), 50);
        assert!(!arr.combine(0, 70, u32::min), "no change when min loses");
        assert_eq!(arr.get(0), 50);
    }

    #[test]
    fn fill_and_copy_from() {
        let a = ValueArray::<f64>::new(100, 0.0);
        a.fill(2.5);
        assert!(a.snapshot().iter().all(|&x| x == 2.5));
        let b = ValueArray::<f64>::from_fn(100, |v| v as f64);
        a.copy_from(&b);
        assert_eq!(a.get(42), 42.0);
    }

    #[test]
    #[should_panic]
    fn copy_from_length_mismatch_panics() {
        let a = ValueArray::<u32>::new(3, 0);
        let b = ValueArray::<u32>::new(4, 0);
        a.copy_from(&b);
    }

    #[test]
    fn float_pair_cells() {
        let arr = ValueArray::<(f32, f32)>::new(2, (1.0, -1.0));
        arr.combine(0, (0.5, 0.5), |a, b| (a.0 + b.0, a.1 + b.1));
        assert_eq!(arr.get(0), (1.5, -0.5));
        assert_eq!(arr.get(1), (1.0, -1.0));
    }
}
