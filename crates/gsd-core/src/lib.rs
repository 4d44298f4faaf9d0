//! # gsd-core — the GraphSD engine (the paper's contribution)
//!
//! An out-of-core graph processing engine that reduces disk I/O by
//! simultaneously exploiting the **state** (active / inactive) and the
//! **dependency** (BSP `val_{t+1}(v) ← val_t(u)` along each edge `u→v`) of
//! graph data:
//!
//! * [`scheduler`] — the state-aware I/O scheduling strategy of §4.1:
//!   per iteration it computes the sequential/random split of the active
//!   edge lists in `O(|A|)` and compares the paper's cost estimates `C_r`
//!   vs `C_s` to choose the on-demand or the full I/O model.
//! * [`driver`] — the one out-of-core iteration driver both engines of
//!   the evaluation run (GraphSD here, whose configurations include Lumos
//!   and GridGraph, and HUS-Graph in `gsd-baselines`): resident state
//!   arrays, prefetch,
//!   checkpoint/resume, accounting and the trace frame, plus the two pass
//!   primitives of §4.2 — the destination-major **stream pass** whose
//!   cross-iteration pair covers two BSP iterations per full sweep,
//!   re-reading only the lower-triangle "secondary" sub-blocks (FCIU,
//!   Algorithm 3), and the **selective pass** that reads only active edge
//!   lists and pre-scatters the next iteration's messages for re-activated
//!   vertices (SCIU, Algorithm 2).
//! * [`engine`] — GraphSD as a policy over that driver: per round, the
//!   scheduler's choice picks SCIU or FCIU.
//! * [`buffer`] — the priority buffer of §4.3 that caches secondary
//!   sub-blocks between the two FCIU passes (priority = active edges).
//! * [`config`] — engine options, including the ablation switches used by
//!   the paper's §5.4 experiments (`b1` no cross-iteration, `b2`/`b3`
//!   always-full, `b4` always-on-demand, buffering on/off).
//! * [`pipeline`] and [`checkpoint`] — the driver's two optional
//!   attachments, each with the driver as its one caller: the prefetch
//!   executor that overlaps sub-block reads with compute, and
//!   iteration-granular checkpoint/resume.
//!
//! The engine commits, per BSP iteration, exactly the values the
//! [`gsd_runtime::ReferenceEngine`] commits — cross-iteration propagation
//! is an I/O optimization, never a semantic relaxation.

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
// Ids, offsets and sizes never wrap silently: narrow through `try_from`
// or `gsd_graph::narrow` instead of `as` (retired GSD006 — DESIGN.md §11).
#![deny(clippy::cast_possible_truncation)]
#![warn(missing_docs)]

pub mod buffer;
pub mod checkpoint;
pub mod config;
pub mod driver;
pub mod engine;
pub mod pipeline;
pub mod scheduler;
pub mod session;

/// Maps the runtime's access-model enum onto the trace schema's (the
/// trace crate sits below `gsd-runtime` and cannot name it).
pub(crate) fn trace_model(model: gsd_runtime::IoAccessModel) -> gsd_trace::AccessModel {
    match model {
        gsd_runtime::IoAccessModel::OnDemand => gsd_trace::AccessModel::OnDemand,
        gsd_runtime::IoAccessModel::Full => gsd_trace::AccessModel::Full,
    }
}

pub use buffer::SubBlockBuffer;
pub use checkpoint::RecoveryConfig;
pub use config::GraphSdConfig;
pub use engine::GraphSdEngine;
pub use pipeline::PipelineConfig;
pub use scheduler::{Scheduler, SchedulerDecision};
pub use session::GridSession;
