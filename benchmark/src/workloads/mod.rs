//! The four workloads. Each has a preparing half (graph in memory:
//! generate, set up, oracles) and a measuring half (files only), run in
//! separate processes; see `main.rs`.

pub mod analytic;
pub mod mutate;
pub mod serve;
