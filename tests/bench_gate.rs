//! The counters gate under tier-1: the timing-free counters of every
//! `twitter_sim` cell — iterations, bytes read, read requests, bytes
//! written, prefetch events — must equal `ci/bench_baseline.json`
//! exactly. This is the `gsd bench --baseline` check CI runs over all
//! five datasets, cut to one so it fits `cargo test -q`; a block read
//! added to any engine moves `bytes_read` and `read_ops` and fails it.

use graphsd::bench::wall::{run_wall, WallOptions};
use graphsd::bench::{BenchReport, RunSettings, Scale};
use graphsd::core::PipelineConfig;

#[test]
fn twitter_sim_counters_match_the_committed_baseline() {
    let mut baseline = BenchReport::from_json(include_str!("../ci/bench_baseline.json")).unwrap();
    baseline.entries.retain(|e| e.dataset == "twitter_sim");
    assert_eq!(baseline.scale, "tiny");
    assert!(baseline.prefetch, "the baseline was recorded prefetch-on");

    // Default systems and algorithms: all four of each; prefetch as
    // `gsd bench` runs it without flags.
    let opts = WallOptions {
        scale: Scale::Tiny,
        datasets: vec!["twitter_sim".to_string()],
        ..WallOptions::default()
    };
    let settings = RunSettings {
        prefetch: Some(PipelineConfig::default()),
        ..RunSettings::default()
    };
    let report = run_wall(&opts, &settings).unwrap();
    assert_eq!(report.entries.len(), 16);
    match report.compare_deterministic(&baseline) {
        Ok(cells) => assert_eq!(cells, 16),
        Err(drifts) => panic!(
            "counters drifted from ci/bench_baseline.json:\n{drifts}\n\
             if the change means to move them, regenerate the file with\n  \
             cargo run --release --bin gsd -- bench --scale tiny \
             --out ci/bench_baseline.json"
        ),
    }
}
