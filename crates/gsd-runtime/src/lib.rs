//! # gsd-runtime — shared vertex-program runtime
//!
//! The scaffolding every engine in this reproduction builds on:
//!
//! * [`VertexProgram`] — the programming model of §4.2. The paper's
//!   `UserFunction(u, v, Out)` decomposes into `scatter` (produce a message
//!   from the source's committed value) + `combine` (commutative,
//!   associative merge into the destination's accumulator) + `apply` (fold
//!   the accumulator into the vertex value at the BSP barrier, reporting
//!   whether the vertex activates). `CrossIterUpdate(u, v, OutNI)` is the
//!   same `scatter`/`combine` pair executed against the *next* iteration's
//!   accumulator with the source's *freshly applied* value.
//! * [`ValueArray`] — dense per-vertex state in `Cell<u64>` cells:
//!   `&self` everywhere, `!Sync`, so the compiler proves the compute
//!   thread is the only writer and `combine` is load → `f` → store.
//! * [`Frontier`] — bitset frontiers (`V_active`, `Out`, `OutNI` of
//!   Algorithm 1), `Cell`-backed under the same single-writer rule.
//! * [`kernels`] — the sequential scatter/apply loops every engine calls.
//! * [`ReferenceEngine`] — an in-memory, strictly-BSP executor used as the
//!   oracle: every out-of-core engine must produce the same per-iteration
//!   committed values on every program (the repo's central property test).
//! * [`RunStats`] — timing/I/O accounting every experiment reads.

// Hot-path crate: errors propagate as typed `Result`s; a panic mid-run can
// leave partially-flushed vertex state behind (retired GSD001 — DESIGN.md §11).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

pub mod context;
pub mod engine;
pub mod frontier;
pub mod kernels;
pub mod program;
pub mod reference;
pub mod stats;
pub mod value;
pub mod values;

pub use context::ProgramContext;
pub use engine::{Capabilities, Engine, RunOptions, RunResult};
pub use frontier::Frontier;
pub use program::{InitialFrontier, VertexProgram};
pub use reference::ReferenceEngine;
pub use stats::{IoAccessModel, IterationStats, RunStats};
pub use value::{value_fingerprint, Value};
pub use values::ValueArray;
