//! Micro-benchmarks of the render-engine primitives: the four pieces
//! of day-invariant work the [`bgpsim::engine::RenderEngine`] hoists
//! out of the per-day loop, each next to the legacy-shaped work it
//! replaces.
//!
//! 1. interval index: `engine_build` (paid once) and `render_day_warm`
//!    (the residual per-day cost) vs `world_event_scan` (the full
//!    per-day scan the legacy path repeated);
//! 2. stable-visibility bitsets: `render_day_warm` performs only one
//!    flicker hash per surviving monitor bit;
//! 3. path interning: `render_span_sequential` re-uses one arena
//!    across all days vs `render_day_oneshot`, which pays a cold
//!    engine + arena per day (the legacy per-call shape);
//! 4. dense-state BFS: `valley_free_path` over monitor→origin pairs.
//!
//! Plus the incremental cross-day delta primitives, each next to the
//! full-recompute work it replaces:
//!
//! 5. touched-prefix extraction: `delta_advance_span` (seed once, then
//!    one `advance_state` per transition) vs `full_render_span` (one
//!    `seed_state` per day);
//! 6. winner-table materialization: `state_routes_warm` (read the
//!    incrementally maintained table) vs `seed_state_warm` (full
//!    selection from scratch);
//! 7. update encoding: `archive_delta` (update files encoded straight
//!    from `SelChange` lists), single-threaded.

use bgpsim::engine::RenderEngine;
use bgpsim::observe::{monitor_ases, render_days_with_threads, VisibilityModel};
use bgpsim::scenario::LeaseWorld;
use bgpsim::updates::{ArchiveV2Config, CollectorArchiveV2};
use criterion::{criterion_group, criterion_main, Criterion};
use nettypes::date::date;
use std::hint::black_box;

fn setup() -> (LeaseWorld, VisibilityModel) {
    let world = LeaseWorld::generate(&bench::bench_config().world);
    (world, VisibilityModel::default())
}

fn bench_event_indexing(c: &mut Criterion) {
    let (world, model) = setup();
    let day = date("2018-02-01");
    // The per-day scan the interval index replaces.
    c.bench_function("engine/world_event_scan", |b| {
        b.iter(|| black_box(world.announced_routes_on(day)))
    });
    // The one-time precompute the index costs.
    c.bench_function("engine/engine_build", |b| {
        b.iter(|| black_box(RenderEngine::new(&world, &model)))
    });
}

fn bench_render_day(c: &mut Criterion) {
    let (world, model) = setup();
    let day = date("2018-02-01");
    // Residual per-day work with a shared engine and warm scratch:
    // interval deltas + one flicker hash per set mask bit + interned
    // path lookups.
    let engine = RenderEngine::new(&world, &model);
    c.bench_function("engine/render_day_warm", |b| {
        let mut scratch = engine.scratch();
        b.iter(|| black_box(engine.render_day(&mut scratch, day)))
    });
    // The legacy per-call shape: everything recomputed per day.
    c.bench_function("engine/render_day_oneshot", |b| {
        b.iter(|| {
            let engine = RenderEngine::new(&world, &model);
            black_box(engine.render_day(&mut engine.scratch(), day))
        })
    });
}

fn bench_render_span(c: &mut Criterion) {
    let (world, model) = setup();
    // One engine amortized across a whole span, sequentially — the
    // sweep + arena reuse path the daily pipeline takes.
    c.bench_function("engine/render_span_sequential", |b| {
        b.iter(|| black_box(render_days_with_threads(&world, &model, world.span, 1)))
    });
}

fn bench_per_monitor_state(c: &mut Criterion) {
    let (world, model) = setup();
    let day = date("2018-02-01");
    let engine = RenderEngine::new(&world, &model);
    // Best-route selection via precomputed ranks into the winner
    // table, from scratch.
    c.bench_function("engine/seed_state_warm", |b| {
        b.iter(|| black_box(engine.seed_state(day)))
    });
}

fn bench_valley_free_path(c: &mut Criterion) {
    let (world, model) = setup();
    let monitors = monitor_ases(&world, &model);
    let origins: Vec<_> = world.allocations.iter().map(|a| a.asn).collect();
    // The dense-state BFS primitive: flat seen/parent arrays indexed
    // by (node, phase) instead of hash sets of (Asn, phase).
    c.bench_function("engine/valley_free_path", |b| {
        b.iter(|| {
            let mut found = 0usize;
            for &m in &monitors {
                for &o in &origins {
                    if world.topology.path(m, o).is_some() {
                        found += 1;
                    }
                }
            }
            black_box(found)
        })
    });
}

fn bench_delta_advance(c: &mut Criterion) {
    let (world, model) = setup();
    let engine = RenderEngine::new(&world, &model);
    let days: Vec<_> = world.span.iter().collect();
    // Touched-prefix extraction: one seed plus one `advance_state`
    // (CSR interval deltas + flicker-bit XOR + re-selection at the
    // touched prefixes) per day transition across the span.
    c.bench_function("engine/delta_advance_span", |b| {
        b.iter(|| {
            let mut state = engine.seed_state(days[0]).expect("day 0 in span");
            let mut changes = Vec::new();
            let mut touched = 0usize;
            while engine.advance_state(&mut state, &mut changes).is_some() {
                touched += changes.iter().map(Vec::len).sum::<usize>();
            }
            black_box(touched)
        })
    });
    // The full recompute the delta sweep replaces: every day's
    // per-monitor state seeded from scratch (shared engine).
    c.bench_function("engine/full_render_span", |b| {
        b.iter(|| {
            for &d in &days {
                black_box(engine.seed_state(d));
            }
        })
    });
}

fn bench_patch_apply_vs_full(c: &mut Criterion) {
    let (world, model) = setup();
    let engine = RenderEngine::new(&world, &model);
    let days: Vec<_> = world.span.iter().collect();
    // A mid-span state that has absorbed many advances — reading its
    // routes is the per-day cost of the incremental path once seeded.
    let mut state = engine.seed_state(days[0]).expect("day 0 in span");
    let mut changes = Vec::new();
    for _ in 0..days.len() / 2 {
        engine.advance_state(&mut state, &mut changes);
    }
    c.bench_function("engine/state_routes_warm", |b| {
        b.iter(|| black_box(engine.state_routes(&state)))
    });
    // `seed_state_warm` in `bench_per_monitor_state` is the
    // from-scratch selection this replaces.
}

fn bench_archive_delta(c: &mut Criterion) {
    let (world, model) = setup();
    let cfg = ArchiveV2Config::default();
    // Delta-fed update encoding straight from `SelChange` lists.
    c.bench_function("engine/archive_delta", |b| {
        b.iter(|| {
            black_box(
                CollectorArchiveV2::generate_with_threads(&world, &model, world.span, &cfg, 1)
                    .expect("archive encodes"),
            )
        })
    });
}

criterion_group!(
    benches,
    bench_event_indexing,
    bench_render_day,
    bench_render_span,
    bench_per_monitor_state,
    bench_valley_free_path,
    bench_delta_advance,
    bench_patch_apply_vs_full,
    bench_archive_delta,
);
criterion_main!(benches);
