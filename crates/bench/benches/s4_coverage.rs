//! Bench: §4 — WHOIS database construction, the RDAP extraction
//! pipeline, and the two-way coverage computation.

use bench::bench_config;
use criterion::{criterion_group, criterion_main, Criterion};
use delegation::compare::coverage_report;
use delegation::config::InferenceConfig;
use delegation::pipeline::{run_pipeline, PipelineInput};
use drywells::experiments::build_bgp_study;
use rdap::database::{DbBuildConfig, WhoisDb};
use rdap::pipeline::extract_delegations;
use rdap::server::RdapServer;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let study = build_bgp_study(&bench_config());
    let as_of = study.world.span.end;
    let mut g = c.benchmark_group("s4");
    g.sample_size(10);
    g.bench_function("whois_db_build", |b| {
        b.iter(|| {
            black_box(WhoisDb::build_from_world(
                &study.world,
                as_of,
                &DbBuildConfig::default(),
            ))
        })
    });
    let db = WhoisDb::build_from_world(&study.world, as_of, &DbBuildConfig::default());
    g.bench_function("rdap_extraction", |b| {
        b.iter(|| {
            let server = RdapServer::new(db.clone());
            black_box(extract_delegations(&db, &server))
        })
    });
    let server = RdapServer::new(db.clone());
    let (rdap_delegs, _) = extract_delegations(&db, &server);
    let bgp = run_pipeline(
        PipelineInput::Days(&study.days),
        study.world.span,
        &InferenceConfig::extended(),
        Some(&study.as2org),
    );
    let bgp_today = bgp.on(as_of).unwrap_or(&[]).to_vec();
    g.bench_function("coverage_report", |b| {
        b.iter(|| black_box(coverage_report(&bgp_today, &rdap_delegs)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
