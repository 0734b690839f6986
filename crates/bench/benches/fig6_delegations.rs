//! Bench: Figure 6 — the full daily delegation-inference pipeline,
//! baseline vs extended, over the quick-study window.

use bench::bench_config;
use criterion::{criterion_group, criterion_main, Criterion};
use delegation::config::InferenceConfig;
use delegation::metrics::daily_metrics;
use delegation::pipeline::{run_pipeline, PipelineInput};
use drywells::experiments::build_bgp_study;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let study = build_bgp_study(&bench_config());
    let span = study.world.span;
    let mut g = c.benchmark_group("fig6");
    g.sample_size(10);
    g.bench_function("pipeline_baseline", |b| {
        b.iter(|| {
            black_box(run_pipeline(
                PipelineInput::Days(&study.days),
                span,
                &InferenceConfig::baseline(),
                None,
            ))
        })
    });
    g.bench_function("pipeline_extended", |b| {
        b.iter(|| {
            black_box(run_pipeline(
                PipelineInput::Days(&study.days),
                span,
                &InferenceConfig::extended(),
                Some(&study.as2org),
            ))
        })
    });
    let result = run_pipeline(
        PipelineInput::Days(&study.days),
        span,
        &InferenceConfig::extended(),
        Some(&study.as2org),
    );
    g.bench_function("daily_metrics", |b| {
        b.iter(|| black_box(daily_metrics(&result)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
