//! Bench: Figure 1 — transaction generation, box-plot grid, and the
//! regional Mann-Whitney test over the ~2.9k-record data set.

use criterion::{criterion_group, criterion_main, Criterion};
use market::analysis::boxplot::boxplot_grid;
use market::analysis::consolidation::detect_consolidation_default;
use market::analysis::significance::regional_difference_test;
use market::transactions::{generate_transactions, TransactionConfig};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let cfg = TransactionConfig::default();
    c.bench_function("fig1/generate_transactions", |b| {
        b.iter(|| black_box(generate_transactions(&cfg)))
    });
    let txs = generate_transactions(&cfg);
    c.bench_function("fig1/boxplot_grid", |b| {
        b.iter(|| black_box(boxplot_grid(&txs)))
    });
    c.bench_function("fig1/regional_mwu_test", |b| {
        b.iter(|| black_box(regional_difference_test(&txs)))
    });
    c.bench_function("fig1/consolidation_detect", |b| {
        b.iter(|| black_box(detect_consolidation_default(&txs)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
