//! `cargo bench` target that regenerates every table and figure of the
//! paper (scaled stand-ins, simulated HDD). A plain `main`, not a timing
//! harness — the experiments are end-to-end runs whose output *is* the
//! result.

use gsd_bench::experiments::{run_by_id, ALL_IDS};
use gsd_bench::{Datasets, Scale};

fn main() {
    // `cargo bench` passes --bench; ignore filter-style args.
    let scale = Scale::from_env();
    eprintln!("# paper_experiments — scale {scale:?} (set GSD_SCALE=tiny|small|medium)");
    let ds = Datasets::load(scale);
    for id in ALL_IDS {
        let started = gsd_trace::Stopwatch::start();
        match run_by_id(id, &ds) {
            Ok(output) => {
                println!("{output}");
                eprintln!("# [{id}] done in {:.1}s\n", started.elapsed().as_secs_f64());
            }
            Err(e) => {
                eprintln!("# [{id}] FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
}
