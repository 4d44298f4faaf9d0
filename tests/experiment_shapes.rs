//! Shape assertions for the paper's evaluation claims: not the absolute
//! numbers (our substrate is a simulator and the datasets are stand-ins)
//! but the *orderings and crossovers* the paper reports. Runs at tiny
//! scale so `cargo test` stays fast; `gsd experiments` regenerates the full
//! tables at small/medium scale.

use gsd_bench::experiments;
use gsd_bench::runner::{run_system, Algo, SystemKind};
use gsd_bench::{Datasets, RunSettings, Scale};

fn datasets() -> Datasets {
    Datasets::load(Scale::Tiny)
}

/// The shapes are asserted on the plain configuration: synchronous reads,
/// no checkpoints, no verification, no faults, no trace.
fn plain() -> RunSettings {
    RunSettings::default()
}

#[test]
fn table1_only_graphsd_has_all_three_optimizations() {
    let t = experiments::table1(&datasets()).unwrap();
    let full: Vec<_> = t
        .rows
        .iter()
        .filter(|(_, a, b, c)| *a && *b && *c)
        .collect();
    assert_eq!(full.len(), 1);
    assert_eq!(full[0].0, "GraphSD");
    // HUS: active-aware but no future values; Lumos: the opposite.
    let hus = t.rows.iter().find(|(n, ..)| n.starts_with("HUS")).unwrap();
    assert!(hus.2 && !hus.3);
    let lumos = t
        .rows
        .iter()
        .find(|(n, ..)| n.starts_with("Lumos"))
        .unwrap();
    assert!(!lumos.2 && lumos.3);
}

#[test]
fn fig5_graphsd_wins_on_frontier_algorithms() {
    // The paper's headline: GraphSD faster than both baselines. At tiny
    // scale we assert it for the frontier-driven algorithms where its two
    // mechanisms act (PR's margin comes from buffering, which the 5 %
    // budget makes marginal at this scale). Compared on the modeled I/O
    // time — deterministic on the simulated disk — because wall compute
    // time is build-profile noise in a debug test run.
    let ds = datasets();
    for name in ["uk_sim", "ukunion_sim"] {
        let d = ds.get(name).unwrap();
        for algo in [Algo::PrD, Algo::Cc, Algo::Sssp] {
            let gsd = run_system(SystemKind::GraphSd, d, algo, &plain())
                .unwrap()
                .stats
                .io_time;
            let hus = run_system(SystemKind::HusGraph, d, algo, &plain())
                .unwrap()
                .stats
                .io_time;
            let lumos = run_system(SystemKind::Lumos, d, algo, &plain())
                .unwrap()
                .stats
                .io_time;
            assert!(
                gsd <= hus,
                "{name}/{}: GraphSD {gsd:?} vs HUS-Graph {hus:?}",
                algo.label()
            );
            assert!(
                gsd <= lumos,
                "{name}/{}: GraphSD {gsd:?} vs Lumos {lumos:?}",
                algo.label()
            );
        }
    }
}

#[test]
fn fig6_io_dominates_execution_time() {
    // Paper: disk I/O is 56-91 % of execution time across systems.
    let ds = datasets();
    let f = experiments::fig6(ds.get("twitter_sim").unwrap(), &plain()).unwrap();
    for row in &f.rows {
        assert!(
            row.io_fraction > 0.5,
            "{} on {} only {:.0}% I/O",
            row.system,
            row.algo,
            row.io_fraction * 100.0
        );
    }
}

#[test]
fn fig7_traffic_orderings() {
    let ds = datasets();
    let targets = [ds.get("twitter_sim").unwrap(), ds.get("uk_sim").unwrap()];
    let f = experiments::fig7(&targets, &plain()).unwrap();
    // GraphSD moves the least data overall.
    let gsd = f.total("GraphSD");
    assert!(gsd < f.total("HUS-Graph"));
    assert!(gsd < f.total("Lumos"));
    // On PR (all vertices active) HUS-Graph is the worst: it cannot merge
    // iterations, while GraphSD and Lumos both halve edge reads via
    // cross-iteration computation.
    for dataset in ["twitter_sim", "uk_sim"] {
        let hus = f.traffic_of(dataset, "PR", "HUS-Graph").unwrap();
        let gsd = f.traffic_of(dataset, "PR", "GraphSD").unwrap();
        let lumos = f.traffic_of(dataset, "PR", "Lumos").unwrap();
        assert!(hus > gsd, "{dataset} PR: HUS {hus} vs GraphSD {gsd}");
        assert!(hus > lumos, "{dataset} PR: HUS {hus} vs Lumos {lumos}");
    }
    // On the long-tailed frontier algorithm (SSSP), Lumos reads inactive
    // edges and loses to GraphSD.
    for dataset in ["twitter_sim", "uk_sim"] {
        let lumos = f.traffic_of(dataset, "SSSP", "Lumos").unwrap();
        let gsd = f.traffic_of(dataset, "SSSP", "GraphSD").unwrap();
        assert!(
            lumos > gsd,
            "{dataset} SSSP: Lumos {lumos} vs GraphSD {gsd}"
        );
    }
}

#[test]
fn fig8_preprocessing_ordering() {
    // Paper: HUS-Graph slowest (two sorted copies), Lumos fastest (one
    // unsorted copy), GraphSD in between.
    let ds = datasets();
    let f = experiments::fig8(&ds, &plain()).unwrap();
    for d in ds.all() {
        let gsd = f.time_of(d.name, "GraphSD").unwrap();
        let hus = f.time_of(d.name, "HUS-Graph").unwrap();
        let lumos = f.time_of(d.name, "Lumos").unwrap();
        assert!(hus > gsd, "{}: HUS {hus:?} vs GraphSD {gsd:?}", d.name);
        assert!(
            gsd > lumos,
            "{}: GraphSD {gsd:?} vs Lumos {lumos:?}",
            d.name
        );
    }
}

#[test]
fn fig9_ablations_never_beat_the_full_system_on_traffic() {
    let ds = datasets();
    let f = experiments::fig9(ds.get("uk_sim").unwrap(), &plain()).unwrap();
    let (_, full_traffic) = f.totals("GraphSD");
    let (_, b1_traffic) = f.totals("GraphSD-b1");
    let (_, b2_traffic) = f.totals("GraphSD-b2");
    assert!(
        b1_traffic > full_traffic,
        "b1 {b1_traffic} vs full {full_traffic}"
    );
    assert!(
        b2_traffic > full_traffic,
        "b2 {b2_traffic} vs full {full_traffic}"
    );
}

#[test]
fn fig10_adaptive_tracks_the_better_fixed_model() {
    // Paper: the scheduler selects the better I/O model in every
    // iteration. Totals: adaptive must not lose to either fixed policy by
    // more than a small tolerance, and must strictly beat the worse one.
    // The totals are the priced I/O times — `SimDisk`'s virtual clock,
    // which repeats exactly — since the choice is about I/O and measured
    // compute time moves with the host's load.
    let ds = datasets();
    let f = experiments::fig10(ds.get("ukunion_sim").unwrap(), &plain()).unwrap();
    let (adaptive, full, on_demand) = f.io_totals;
    let best = full.min(on_demand);
    let worst = full.max(on_demand);
    assert!(
        adaptive.as_secs_f64() <= best.as_secs_f64() * 1.15,
        "adaptive {adaptive:?} vs best fixed {best:?}"
    );
    assert!(
        adaptive < worst,
        "adaptive {adaptive:?} vs worst fixed {worst:?}"
    );
    // Both models must actually be exercised somewhere in the suite: CC
    // starts Full and ends OnDemand.
    assert!(!f.chosen.is_empty());
}

#[test]
fn fig11_overhead_is_negligible() {
    let ds = datasets();
    let f = experiments::fig11(ds.get("uk_sim").unwrap(), &plain()).unwrap();
    for row in &f.rows {
        // Sub-millisecond evaluation time at this scale.
        assert!(
            row.overhead.as_secs_f64() < 0.05,
            "{}: overhead {:?}",
            row.algo,
            row.overhead
        );
    }
    // The scheduler must save something vs the worse fixed policy on at
    // least one algorithm.
    assert!(f
        .rows
        .iter()
        .any(|r| r.saved_vs_full + r.saved_vs_on_demand > std::time::Duration::ZERO));
}

#[test]
fn fig12_buffering_never_hurts_much_and_hits_on_rmat() {
    let ds = datasets();
    let targets = [ds.get("kron_sim").unwrap()];
    let f = experiments::fig12(&targets, &plain()).unwrap();
    // Compared on the priced I/O time, as fig5 and fig10 are: the
    // execution time adds wall-clock compute, which host load moves.
    for row in &f.rows {
        assert!(
            row.io_improvement() > -0.05,
            "{}: buffering should not cost >5% of I/O time ({:.1}%)",
            row.algo,
            row.io_improvement() * 100.0
        );
    }
    // On the R-MAT dataset the buffer actually serves blocks.
    assert!(f.rows.iter().any(|r| r.buffer_hit_bytes > 0));
}

#[test]
fn cross_iteration_edges_reported_by_graphsd_and_lumos_only() {
    let ds = datasets();
    let d = ds.get("twitter_sim").unwrap();
    let gsd = run_system(SystemKind::GraphSd, d, Algo::Pr, &plain()).unwrap();
    let lumos = run_system(SystemKind::Lumos, d, Algo::Pr, &plain()).unwrap();
    let hus = run_system(SystemKind::HusGraph, d, Algo::Pr, &plain()).unwrap();
    assert!(gsd.stats.cross_iter_edges > 0);
    assert!(lumos.stats.cross_iter_edges > 0);
    assert_eq!(hus.stats.cross_iter_edges, 0);
}

#[test]
fn all_systems_agree_on_results() {
    // The cross-system sanity: engines must compute the same answers (the
    // per-engine equivalence against the in-memory oracle lives in each
    // crate; this checks the assembled harness end to end).
    let ds = datasets();
    let d = ds.get("sk_sim").unwrap();
    let reference = {
        use gsd_runtime::Engine;
        let mut engine = gsd_runtime::ReferenceEngine::new(d.symmetric());
        engine
            .run(&gsd_algos::ConnectedComponents, &Default::default())
            .unwrap()
            .stats
            .iterations
    };
    for kind in SystemKind::main_three() {
        let outcome = run_system(kind, d, Algo::Cc, &plain()).unwrap();
        assert!(
            outcome.stats.iterations >= reference.saturating_sub(1)
                && outcome.stats.iterations <= reference + 1,
            "{}: {} vs reference {}",
            kind.label(),
            outcome.stats.iterations,
            reference
        );
    }
}
