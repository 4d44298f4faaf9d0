//! The vertex-program abstraction (the paper's §4.2 programming model).
//!
//! One BSP iteration `t` is:
//!
//! 1. **scatter** — for every frontier vertex `u` (value changed at
//!    `t − 1`) and out-edge `(u, v, w)`: `msg = scatter(u, val_{t−1}(u), w)`;
//! 2. **combine** — merge `msg` into `v`'s accumulator (commutative,
//!    associative: schedule-independent);
//! 3. **apply** — at the barrier, for every touched vertex (or every
//!    vertex, for [`VertexProgram::apply_all`] programs):
//!    `apply(v, old, accum)`; `Some(new)` commits the value and puts `v`
//!    in the next frontier.
//!
//! The paper's `UserFunction` is steps 1–2 against the *current*
//! accumulator; `CrossIterUpdate` is the same two steps against the *next*
//! iteration's accumulator, using the source's freshly applied value —
//! legal exactly because BSP fixes `val_{t+1}(v)`'s dependence on
//! `val_t(u)`.
//!
//! **Contracts** (enforced by `gsd-algos` tests):
//! * `combine` is commutative and associative; `zero_accum` is its
//!   identity;
//! * `scatter` depends only on the source's committed value and the edge;
//! * for programs with partial frontiers (`apply_all() == false`),
//!   `apply(v, old, zero_accum) == None` — an untouched vertex never
//!   changes.

use crate::context::ProgramContext;
use crate::value::Value;

/// How the first frontier is seeded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InitialFrontier {
    /// Every vertex starts active (PageRank, CC).
    All,
    /// Only the given vertices start active (SSSP/BFS roots).
    Seeds(Vec<u32>),
}

impl InitialFrontier {
    /// Materializes the frontier over `0..universe`, rejecting
    /// out-of-range seeds with a clear error (e.g. an SSSP root beyond
    /// the graph's vertex count).
    pub fn build(&self, universe: u32) -> std::io::Result<crate::frontier::Frontier> {
        match self {
            InitialFrontier::All => Ok(crate::frontier::Frontier::full(universe)),
            InitialFrontier::Seeds(seeds) => {
                if let Some(&bad) = seeds.iter().find(|&&v| v >= universe) {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        format!("seed vertex {bad} out of range (graph has {universe} vertices)"),
                    ));
                }
                Ok(crate::frontier::Frontier::from_seeds(universe, seeds))
            }
        }
    }
}

/// A user algorithm in scatter/combine/apply form.
pub trait VertexProgram: Send + Sync {
    /// Committed per-vertex value.
    type Value: Value;
    /// Per-vertex accumulator merged by [`Self::combine`].
    type Accum: Value;

    /// Human-readable algorithm name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Initial committed value of `v`.
    fn init_value(&self, v: u32, ctx: &ProgramContext) -> Self::Value;

    /// Identity element of [`Self::combine`].
    fn zero_accum(&self) -> Self::Accum;

    /// Message generated along an edge out of `u`, or `None` to send
    /// nothing. `value` is `u`'s committed value of the *previous*
    /// iteration (or the current one, during cross-iteration propagation).
    fn scatter(
        &self,
        u: u32,
        value: Self::Value,
        weight: f32,
        ctx: &ProgramContext,
    ) -> Option<Self::Accum>;

    /// Commutative, associative merge of two accumulator values.
    fn combine(&self, a: Self::Accum, b: Self::Accum) -> Self::Accum;

    /// Folds the accumulator into the old value at the BSP barrier.
    /// `Some(new)` commits `new` and activates `v` for the next iteration.
    fn apply(
        &self,
        v: u32,
        old: Self::Value,
        accum: Self::Accum,
        ctx: &ProgramContext,
    ) -> Option<Self::Value>;

    /// The first frontier.
    fn initial_frontier(&self, ctx: &ProgramContext) -> InitialFrontier;

    /// Whether `apply` must run for **every** vertex each iteration even if
    /// untouched (PageRank-style dense recurrences). Defaults to `false`.
    fn apply_all(&self) -> bool {
        false
    }

    /// Iteration cap; `None` runs to frontier exhaustion.
    fn max_iterations(&self) -> Option<u32> {
        None
    }

    /// Whether `message`, the scatter of a source's committed value along
    /// an edge into `v`, *supports* `target`, `v`'s committed value: could
    /// `target` have been derived from it? Incremental recompute
    /// (`gsd-delta`) resets only what a deleted edge supported, so a
    /// program answers `false` only where `target` is sure not to depend
    /// on the message. The default, `true`, resets everything a deleted
    /// edge reaches.
    fn supports(
        &self,
        _v: u32,
        _message: Self::Accum,
        _target: Self::Value,
        _ctx: &ProgramContext,
    ) -> bool {
        true
    }

    /// Size in bytes of one on-disk vertex value (`N` in the paper's cost
    /// model). Defaults to the packed size of [`Self::Value`] capped at 8.
    fn value_bytes(&self) -> u64 {
        std::mem::size_of::<Self::Value>().min(8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Minimal degree-counting program used to exercise defaults.
    struct DegreeCount;

    impl VertexProgram for DegreeCount {
        type Value = u32;
        type Accum = u32;

        fn name(&self) -> &'static str {
            "degree-count"
        }
        fn init_value(&self, _v: u32, _ctx: &ProgramContext) -> u32 {
            0
        }
        fn zero_accum(&self) -> u32 {
            0
        }
        fn scatter(&self, _u: u32, _value: u32, _w: f32, _ctx: &ProgramContext) -> Option<u32> {
            Some(1)
        }
        fn combine(&self, a: u32, b: u32) -> u32 {
            a + b
        }
        fn apply(&self, _v: u32, old: u32, accum: u32, _ctx: &ProgramContext) -> Option<u32> {
            if accum == 0 {
                None
            } else {
                Some(old + accum)
            }
        }
        fn initial_frontier(&self, _ctx: &ProgramContext) -> InitialFrontier {
            InitialFrontier::All
        }
        fn max_iterations(&self) -> Option<u32> {
            Some(1)
        }
    }

    #[test]
    fn defaults() {
        let p = DegreeCount;
        assert!(!p.apply_all());
        assert_eq!(p.value_bytes(), 4);
        assert_eq!(p.max_iterations(), Some(1));
        let ctx = ProgramContext::new(1, Arc::new(vec![0]));
        assert!(p.supports(0, 9, 0, &ctx));
    }

    #[test]
    fn zero_accum_apply_is_noop() {
        let p = DegreeCount;
        let ctx = ProgramContext::new(1, Arc::new(vec![0]));
        assert_eq!(p.apply(0, 7, p.zero_accum(), &ctx), None);
    }

    #[test]
    fn combine_identity_holds() {
        let p = DegreeCount;
        for x in [0u32, 1, 42] {
            assert_eq!(p.combine(x, p.zero_accum()), x);
            assert_eq!(p.combine(p.zero_accum(), x), x);
        }
    }
}
