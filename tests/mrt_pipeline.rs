//! Integration: run the delegation pipeline from a genuine MRT
//! archive (TABLE_DUMP_V2 RIBs + BGP4MP update files) and compare
//! with the direct-rendering input path.

mod mrt_oracle;
mod replay_oracle;

use bgpsim::engine::RenderEngine;
use bgpsim::observe::VisibilityModel;
use bgpsim::scenario::{LeaseWorld, WorldConfig};
use bgpsim::topology::TopologyConfig;
use bgpsim::updates::{ArchiveV2Config, CollectorArchiveV2};
use bytes::Bytes;
use delegation::config::InferenceConfig;
use delegation::eval::evaluate_against_truth;
use delegation::pipeline::{run_pipeline, PipelineInput};
use drywells::experiments::build_bgp_study;
use drywells::StudyConfig;
use nettypes::date::{date, DateRange};

#[test]
fn mrt_pipeline_close_to_direct_rendering() {
    let study = build_bgp_study(&StudyConfig::quick_seeded(14));
    let span = study.world.span;
    let archive = CollectorArchiveV2::generate(
        &study.world,
        study.visibility_model(),
        span,
        &ArchiveV2Config::default(),
    )
    .expect("archive encodes");

    let cfg = InferenceConfig::extended();
    let direct = run_pipeline(
        PipelineInput::Days(&study.days),
        span,
        &cfg,
        Some(&study.as2org),
    );
    let via_mrt = run_pipeline(
        PipelineInput::MrtArchive(&archive),
        span,
        &cfg,
        Some(&study.as2org),
    );

    // Same days, no gaps.
    assert_eq!(via_mrt.days.len(), direct.days.len());
    assert!(via_mrt.missing_days.is_empty());
    assert!(via_mrt.fallback_days.is_empty());

    // Quality must match or beat the direct path. Exact equality is
    // not expected: the MRT layer enforces one best path per (peer,
    // prefix) — as real collectors do — so a transient MOAS conflict
    // splits the monitor count between the two origins and the
    // minority origin falls below the visibility threshold, leaving
    // the prefix usable; the rendering layer instead reports both
    // origins at full strength and step (iii) drops the prefix. The
    // best-path model is the more faithful of the two, so the MRT
    // path may only *gain* recall.
    let e_direct = evaluate_against_truth(&study.world, &direct);
    let e_mrt = evaluate_against_truth(&study.world, &via_mrt);
    assert!(
        e_mrt.recall() >= e_direct.recall() - 0.02,
        "recall: direct {:.3} vs MRT {:.3}",
        e_direct.recall(),
        e_mrt.recall()
    );
    assert!(
        e_mrt.precision() > 0.9,
        "MRT-path precision {:.3}",
        e_mrt.precision()
    );
}

#[test]
fn mrt_pipeline_survives_archive_damage() {
    let study = build_bgp_study(&StudyConfig::quick_seeded(15));
    let span = study.world.span;
    let mut archive = CollectorArchiveV2::generate(
        &study.world,
        study.visibility_model(),
        span,
        &ArchiveV2Config {
            rib_every_days: 7,
            ..Default::default()
        },
    )
    .expect("archive encodes");
    // Remove two update files and corrupt a third.
    assert!(archive.drop_update_file(date("2018-01-20")));
    assert!(archive.drop_update_file(date("2018-02-14")));
    let damaged = archive.update_bytes(date("2018-03-02")).unwrap().clone();
    let mut v = damaged.to_vec();
    v.truncate(v.len() / 2);
    archive.corrupt_update_file(date("2018-03-02"), Bytes::from(v));

    let result = run_pipeline(
        PipelineInput::MrtArchive(&archive),
        span,
        &InferenceConfig::extended(),
        Some(&study.as2org),
    );
    // Fallback days were used but every day produced data.
    assert!(result.missing_days.is_empty());
    let eval = evaluate_against_truth(&study.world, &result);
    assert!(
        eval.recall() > 0.65,
        "damaged-archive recall {:.3}",
        eval.recall()
    );
    assert!(
        eval.precision() > 0.9,
        "damaged-archive precision {:.3}",
        eval.precision()
    );
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of the archive-fed baseline pipeline's whole output.
fn replay_digest(archive: &CollectorArchiveV2, span: nettypes::date::DateRange) -> u64 {
    let r = run_pipeline(
        PipelineInput::MrtArchive(archive),
        span,
        &InferenceConfig::baseline(),
        None,
    );
    fnv1a(format!("{:?}", (r.days, r.fallback_days, r.missing_days)).as_bytes())
}

/// Half of a file's bytes.
fn halved(b: &Bytes) -> Bytes {
    Bytes::copy_from_slice(&b[..b.len() / 2])
}

#[test]
fn archive_replay_output_is_pinned() {
    // (seed, clean digest, damaged digest). The damaged copy drops the
    // update file at day n/3 and the RIB on day 35, and cuts the day-50
    // update file and the middle remaining RIB to half their length.
    let pins: [(u64, u64, u64); 3] = [
        (7, 0x6fbe_7845_4546_a688, 0x013a_6cdb_374c_42cf),
        (48, 0xf214_9ade_f4dd_7c6d, 0xb524_c468_595b_a30f),
        (49, 0xf905_3011_db3a_19dc, 0x3954_9f86_8af1_0197),
    ];
    let got: Vec<(u64, u64, u64)> = pins
        .iter()
        .map(|&(seed, ..)| {
            let config = StudyConfig::quick_seeded(seed);
            let world = bgpsim::scenario::LeaseWorld::generate(&config.world);
            let mut archive = CollectorArchiveV2::generate(
                &world,
                &config.visibility,
                world.span,
                &ArchiveV2Config::default(),
            )
            .expect("archive encodes");
            let days: Vec<_> = world.span.iter().collect();
            let clean = replay_digest(&archive, world.span);

            assert!(archive.drop_update_file(days[days.len() / 3]));
            assert!(archive.drop_rib(days[35]));
            let cut = archive
                .update_bytes(days[50])
                .expect("day-50 update")
                .clone();
            archive.corrupt_update_file(days[50], halved(&cut));
            let ribs: Vec<_> = archive.rib_dates().collect();
            let mid = ribs[ribs.len() / 2];
            let cut = archive.rib_bytes(mid).expect("middle RIB").clone();
            archive.corrupt_rib(mid, halved(&cut));
            (seed, clean, replay_digest(&archive, world.span))
        })
        .collect();
    assert_eq!(
        got, pins,
        "archive replay output changed (seed, clean, damaged)"
    );
}

#[test]
fn reconstruction_matches_direct_rendering() {
    // A small world with 12 monitors and a RIB every 7 days. The
    // from-scratch reconstruction holds exactly the rendered routes of
    // every peer, on RIB days and between them, and the sweep serves
    // the same surface.
    let world = LeaseWorld::generate(&WorldConfig {
        seed: 33,
        span: DateRange::new(date("2018-01-01"), date("2018-01-31")),
        topology: TopologyConfig {
            seed: 33,
            num_tier1: 4,
            num_tier2: 10,
            num_stubs: 80,
            multi_as_org_fraction: 0.15,
        },
        num_allocations: 30,
        initial_active_leases: 80,
        bgp_visible_fraction: 0.4,
        onoff_fraction: 0.5,
        num_hijacks: 3,
        num_moas: 3,
        num_as_sets: 2,
        num_scrubbing: 1,
        ..Default::default()
    });
    let model = VisibilityModel {
        num_monitors: 12,
        daily_flicker: 0.01,
        seed: 33,
    };
    let archive = CollectorArchiveV2::generate(
        &world,
        &model,
        world.span,
        &ArchiveV2Config {
            rib_every_days: 7,
            ..Default::default()
        },
    )
    .expect("archive encodes");
    let engine = RenderEngine::new(&world, &model);
    for probe in [
        date("2018-01-01"),
        date("2018-01-06"),
        date("2018-01-13"),
        date("2018-01-31"),
    ] {
        let view = replay_oracle::day(&archive, probe).expect("day reconstructs");
        let direct = engine.state_routes(&engine.seed_state(probe).expect("probe in span"));
        assert_eq!(view.routes.len(), direct.len());
        for (pi, routes) in direct.iter().enumerate() {
            let got = &view.routes[pi];
            assert_eq!(
                got.len(),
                routes.len(),
                "peer {pi} on {probe}: {} vs {} routes",
                got.len(),
                routes.len()
            );
            for (p, o) in routes {
                assert_eq!(got.get(p), Some(o), "peer {pi} {p} on {probe}");
            }
        }
        let mut sweep = archive.sweep();
        assert_eq!(
            sweep.advance(probe).expect("day serves").provenance,
            view.provenance
        );
        assert_eq!(
            sweep.observation_day(probe),
            view.observation_day(probe),
            "{probe}"
        );
    }
}
