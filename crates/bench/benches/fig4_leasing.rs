//! Bench: Figure 4 — catalog construction and per-date price lookups.

use criterion::{criterion_group, criterion_main, Criterion};
use market::leasing::{leasing_catalog, prices_on};
use nettypes::date::date;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    c.bench_function("fig4/catalog", |b| b.iter(|| black_box(leasing_catalog())));
    let catalog = leasing_catalog();
    let days = [date("2019-10-26"), date("2020-01-15"), date("2020-06-01")];
    c.bench_function("fig4/prices_on", |b| {
        b.iter(|| {
            for d in days {
                black_box(prices_on(&catalog, d));
            }
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
