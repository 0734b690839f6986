//! Micro-benchmarks of the data-plane primitives everything else is
//! built on: the step (iv) ancestor sweep, prefix sets, the BGP and
//! RFC 6396 codecs, and valley-free path computation.

use bgpsim::engine::RenderEngine;
use bgpsim::observe::VisibilityModel;
use bgpsim::scenario::LeaseWorld;
use bgpsim::topology::{Tier, Topology, TopologyConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use delegation::base::infer_from_pairs;
use nettypes::asn::Asn;
use nettypes::date::date;
use nettypes::prefix::Prefix;
use nettypes::set::PrefixSet;
use std::hint::black_box;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn bench_infer_from_pairs(c: &mut Criterion) {
    // 100k routing-table-shaped prefix-origin pairs, unsorted.
    let mut s = 0x9E3779B97F4A7C15u64;
    let pairs: Vec<(Prefix, Asn)> = (0..100_000u32)
        .map(|i| {
            let r = xorshift(&mut s);
            let len = 8 + (r % 25) as u8; // /8../32
            (Prefix::new_unchecked_masked((r >> 16) as u32, len), Asn(i))
        })
        .collect();

    c.bench_function("primitives/infer_from_pairs_100k", |b| {
        b.iter(|| black_box(infer_from_pairs(&pairs)))
    });
}

fn bench_prefix_set(c: &mut Criterion) {
    let mut s = 0xABCDEF12345u64;
    let prefixes: Vec<Prefix> = (0..10_000)
        .map(|_| {
            let r = xorshift(&mut s);
            Prefix::new_unchecked_masked((r >> 16) as u32, 16 + (r % 17) as u8)
        })
        .collect();
    c.bench_function("primitives/prefix_set_build_10k", |b| {
        b.iter(|| {
            let set: PrefixSet = prefixes.iter().copied().collect();
            black_box(set.num_addresses())
        })
    });
    let a: PrefixSet = prefixes[..5000].iter().copied().collect();
    let b2: PrefixSet = prefixes[5000..].iter().copied().collect();
    c.bench_function("primitives/prefix_set_intersection", |b| {
        b.iter(|| black_box(a.intersection_size(&b2)))
    });
}

fn bench_paths(c: &mut Criterion) {
    let topo = Topology::generate(&TopologyConfig::default());
    let stubs: Vec<_> = topo.ases_of_tier(Tier::Stub).collect();
    c.bench_function("primitives/valley_free_path", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let from = stubs[i % stubs.len()];
            let to = stubs[(i * 7 + 13) % stubs.len()];
            i += 1;
            black_box(topo.path(from, to))
        })
    });
}

fn bench_bgp_wire(c: &mut Criterion) {
    use bgpsim::bgp::{encode_path_attributes, parse_message, Segment};
    use bgpsim::mrt2::{Bgp4mpSession, MrtWriter};
    use nettypes::asn::Asn;
    let nlri: Vec<Prefix> = (0..20)
        .map(|i| Prefix::new_unchecked_masked(0x4000_0000 + (i << 8), 24))
        .collect();
    let path = [Asn(64500), Asn(3333), Asn(1299)];
    let attrs = encode_path_attributes(&[Segment::Sequence(&path)], 0x0A000001).unwrap();
    let session = Bgp4mpSession {
        peer_as: Asn(64500),
        local_as: Asn(12654),
        interface: 0,
        peer_ip: 0x0A000001,
        local_ip: 0x0A0000FE,
    };
    let write = || {
        let mut w = MrtWriter::new();
        w.update(0, &session, &[], &attrs, &nlri).unwrap();
        w.finish()
    };
    // The BGP message behind the MRT (12) and BGP4MP (20) headers.
    let bytes = write()[32..].to_vec();
    c.bench_function("primitives/bgp_encode_update", |b| {
        b.iter(|| black_box(write()))
    });
    c.bench_function("primitives/bgp_decode_update", |b| {
        b.iter(|| black_box(parse_message(&bytes).unwrap()))
    });
}

fn bench_mrt_archive(c: &mut Criterion) {
    use bgpsim::updates::{ArchiveV2Config, CollectorArchiveV2};
    let world = LeaseWorld::generate(&bench::bench_config().world);
    let model = bench::bench_config().visibility;
    let mut g = c.benchmark_group("primitives/mrt_archive");
    g.sample_size(10);
    g.bench_function("generate_quick_window", |b| {
        b.iter(|| {
            black_box(CollectorArchiveV2::generate(
                &world,
                &model,
                world.span,
                &ArchiveV2Config::default(),
            ))
            .expect("archive encodes")
        })
    });
    let archive =
        CollectorArchiveV2::generate(&world, &model, world.span, &ArchiveV2Config::default())
            .expect("archive encodes");
    let mid = date("2018-02-15");
    g.bench_function("reconstruct_day", |b| {
        b.iter(|| black_box(archive.sweep().advance(mid).unwrap()))
    });
    g.finish();
}

fn bench_render(c: &mut Criterion) {
    let world = LeaseWorld::generate(&bench::bench_config().world);
    let model = VisibilityModel::default();
    c.bench_function("primitives/render_observation_day", |b| {
        b.iter(|| {
            let engine = RenderEngine::new(&world, &model);
            black_box(engine.render_day(&mut engine.scratch(), date("2018-02-01")))
        })
    });
}

criterion_group!(
    benches,
    bench_infer_from_pairs,
    bench_prefix_set,
    bench_bgp_wire,
    bench_mrt_archive,
    bench_paths,
    bench_render
);
criterion_main!(benches);
