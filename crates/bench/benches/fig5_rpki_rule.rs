//! Bench: Figure 5 — RPKI snapshot-series generation, per-day
//! delegation inference, and the (M, N) fail-rate grid.

use bench::bench_config;
use bgpsim::scenario::LeaseWorld;
use criterion::{criterion_group, criterion_main, Criterion};
use delegation::base::infer_rpki_series;
use rpki::consistency::ConsistencySeries;
use rpki::snapshot::SnapshotSeries;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let cfg = bench_config();
    let world = LeaseWorld::generate(&cfg.world);
    let mut g = c.benchmark_group("fig5");
    g.sample_size(20);
    g.bench_function("snapshot_series", |b| {
        b.iter(|| black_box(SnapshotSeries::generate(&world, &cfg.rpki)))
    });
    let series = SnapshotSeries::generate(&world, &cfg.rpki);
    g.bench_function("infer_rpki_series", |b| {
        b.iter(|| black_box(infer_rpki_series(&series.days)))
    });
    let daily = infer_rpki_series(&series.days);
    g.bench_function("consistency_series", |b| {
        b.iter(|| black_box(ConsistencySeries::new(&daily)))
    });
    let consistency = ConsistencySeries::new(&daily);
    g.bench_function("chosen_rule_m10_n0", |b| {
        b.iter(|| black_box(consistency.evaluate(10, 0)))
    });
    g.bench_function("fail_rate_grid", |b| {
        b.iter(|| black_box(consistency.curves(&[2, 5, 10, 20, 30, 50, 70], &[0, 1, 2, 3])))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
