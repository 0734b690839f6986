//! Quickstart: build a small synthetic Internet, run the paper's
//! delegation-inference pipeline on it, and score the result against
//! the simulator's ground truth.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use delegation::config::InferenceConfig;
use delegation::eval::evaluate_against_truth;
use delegation::metrics::{daily_metrics, summarize};
use delegation::pipeline::{run_pipeline, PipelineInput};
use drywells::experiments::build_bgp_study;
use drywells::StudyConfig;

fn main() {
    // A seconds-scale study: ~170 ASes, 3 simulated months.
    let config = StudyConfig::quick();
    println!(
        "generating world: {} allocations, span {} → {} …",
        config.world.num_allocations, config.world.span.start, config.world.span.end
    );
    let study = build_bgp_study(&config);
    println!(
        "world ready: {} ASes, {} leases ({} BGP-visible), {} observation days",
        study.world.topology.nodes().len(),
        study.world.leases.len(),
        study.world.leases.iter().filter(|l| l.announced).count(),
        study.days.len()
    );

    // Run both algorithm variants.
    for (label, cfg, as2org) in [
        (
            "baseline (Krenc-Feldmann)",
            InferenceConfig::baseline(),
            None,
        ),
        (
            "extended (this paper)",
            InferenceConfig::extended(),
            Some(&study.as2org),
        ),
    ] {
        let result = run_pipeline(
            PipelineInput::Days(&study.days),
            study.world.span,
            &cfg,
            as2org,
        );
        let metrics = daily_metrics(&result);
        let summary = summarize(&metrics, 14);
        let eval = evaluate_against_truth(&study.world, &result);
        println!("\n--- {label} ---");
        println!("mean delegations/day: {:.1}", summary.mean_delegations);
        println!("daily-count CV:       {:.3}", summary.count_cv);
        println!("precision:            {:.1}%", eval.precision() * 100.0);
        println!("recall:               {:.1}%", eval.recall() * 100.0);
    }

    println!("\nsee `cargo run --release -p bench --bin repro -- all` for every figure/table");
}
