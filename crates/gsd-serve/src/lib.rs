//! # gsd-serve — the long-lived multi-tenant graph query daemon
//!
//! `gsd run` opens the grid, answers one question and exits; this crate
//! keeps the grid open and answers many. One [`GridSession`] is opened
//! (and integrity-verified) once at start, then a single-threaded
//! executor serves point lookups (degree, out-neighbors), bounded
//! traversals (k-hop BFS, personalized PageRank), full analytic runs
//! and admin ops to any number of concurrent clients — in-process
//! ([`Client`]) or over a length-prefixed binary TCP protocol
//! ([`wire`], [`TcpClient`]).
//!
//! The two systems pieces, both multi-tenant generalizations of the
//! paper's machinery:
//!
//! * [`SubBlockCache`] — the §4.3 priority buffer with *demand* (number
//!   of concurrent using queries) as the priority, shared by every
//!   query the daemon ever serves;
//! * frontier batching ([`ServeCore::execute_batch`]) — concurrent
//!   bounded traversals coalesce into one sequence of BSP passes whose
//!   block reads are driven by the *union* of their frontiers and
//!   shared, with per-query I/O charging making the saving visible in
//!   [`gsd_trace::TraceEvent::QueryCompleted`].
//!
//! Responses are deterministic per query regardless of interleaving:
//! sorted neighbor/result lists, fixed `(i, j)` block order, per-query
//! frontier filtering — batched answers are byte-identical to solo ones
//! and bit-identical to [`gsd_runtime::ReferenceEngine`] oracles
//! (pinned by `tests/serve_e2e.rs`).
//!
//! [`GridSession`]: gsd_core::GridSession

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

pub mod cache;
pub mod core;
pub mod server;
pub mod wire;

pub use cache::SubBlockCache;
pub use core::{ServeCore, ServeCounters};
pub use server::{serve_tcp, Client, Server, TcpClient};
pub use wire::{Request, Response, StatsBody};
