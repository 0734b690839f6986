//! Fault-injection integration: archive gaps, corrupted files, and
//! rate-limited services must degrade gracefully, never panic, and —
//! where the paper defines a fallback — produce near-identical
//! results.

mod mrt_oracle;
mod query_oracle;

use bgpsim::mrt2::Mrt2Error;
use bgpsim::query::{run_query, FileKind, Filter, QueryFile, QueryOptions};
use bgpsim::updates::{ArchiveV2Config, CollectorArchiveV2};
use bytes::Bytes;
use delegation::config::InferenceConfig;
use delegation::eval::evaluate_against_truth;
use delegation::pipeline::{run_pipeline, PipelineInput};
use drywells::experiments::{build_bgp_study, BgpStudy};
use drywells::StudyConfig;
use mrt_oracle::{decode_file, decode_file_lossy};
use rdap::database::{DbBuildConfig, WhoisDb};
use rdap::pipeline::extract_delegations;
use rdap::server::RdapServer;

/// The study's RFC 6396 archive: a RIB every 7 days, an update file
/// every day after the first.
fn archive_of(study: &BgpStudy) -> CollectorArchiveV2 {
    CollectorArchiveV2::generate(
        &study.world,
        study.visibility_model(),
        study.world.span,
        &ArchiveV2Config::default(),
    )
    .expect("archive encodes")
}

#[test]
fn archive_gaps_barely_move_the_results() {
    let study = build_bgp_study(&StudyConfig::quick_seeded(5));
    let span = study.world.span;
    let clean = archive_of(&study);

    // Damage ~10 % of days: drop some update files and a RIB, cut
    // others to a third.
    let mut damaged = clean.clone();
    let days: Vec<_> = span.iter().collect();
    for i in (3..days.len()).step_by(17) {
        assert!(damaged.drop_update_file(days[i]));
    }
    assert!(damaged.drop_rib(days[35]));
    for i in (9..days.len()).step_by(23) {
        let mut bytes = clean.update_bytes(days[i]).expect("update file").to_vec();
        bytes.truncate(bytes.len() / 3);
        damaged.corrupt_update_file(days[i], Bytes::from(bytes));
    }

    let cfg = InferenceConfig::extended();
    let clean_run = run_pipeline(
        PipelineInput::MrtArchive(&clean),
        span,
        &cfg,
        Some(&study.as2org),
    );
    let damaged_run = run_pipeline(
        PipelineInput::MrtArchive(&damaged),
        span,
        &cfg,
        Some(&study.as2org),
    );
    assert!(clean_run.fallback_days.is_empty());
    assert!(!damaged_run.fallback_days.is_empty());

    let e_clean = evaluate_against_truth(&study.world, &clean_run);
    let e_damaged = evaluate_against_truth(&study.world, &damaged_run);
    assert!(
        (e_clean.recall() - e_damaged.recall()).abs() < 0.05,
        "recall moved too much: {:.3} vs {:.3}",
        e_clean.recall(),
        e_damaged.recall()
    );
    assert!(
        e_damaged.precision() > 0.85,
        "damaged-archive precision {:.3}",
        e_damaged.precision()
    );
}

#[test]
fn fully_corrupted_archive_yields_empty_but_sane_result() {
    let study = build_bgp_study(&StudyConfig::quick_seeded(6));
    let span = study.world.span;
    let mut archive = archive_of(&study);
    let garbage = Bytes::from_static(b"not an mrt file");
    for d in archive.rib_dates().collect::<Vec<_>>() {
        archive.corrupt_rib(d, garbage.clone());
    }
    for d in archive.update_dates().collect::<Vec<_>>() {
        archive.corrupt_update_file(d, garbage.clone());
    }
    let result = run_pipeline(
        PipelineInput::MrtArchive(&archive),
        span,
        &InferenceConfig::baseline(),
        None,
    );
    assert_eq!(result.missing_days.len() as i64, span.num_days());
    assert!(result.fallback_days.is_empty());
    assert!(result.days.iter().all(Vec::is_empty));
}

/// The query engine over one damaged file, against the owned oracle.
/// The filter matches no row of the file, so a scan that skipped the
/// records it filters out would pass strict mode where the oracle
/// fails. Strict mode must fail exactly when the oracle does (with the
/// same error); lossy mode must report the oracle's accounting, with
/// every byte scanned or reported unscanned.
fn check_queries(what: &str, file: QueryFile) {
    let strict = QueryOptions {
        filter: Filter::parse("prefix=255.255.255.255/32").expect("filter parses"),
        threads: 1,
        ..QueryOptions::default()
    };
    let files = [file];
    let got = run_query(&files, &strict);
    let want = query_oracle::run_query(&files, &strict);
    match (&got, &want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.stats, w.stats, "{what}: strict stats");
            assert_eq!(g.stats.rows_matched, 0, "{what}: the filter matched a row");
        }
        (g, w) => assert_eq!(g.as_ref().err(), w.as_ref().err(), "{what}: strict outcome"),
    }
    let lossy = QueryOptions {
        lossy: true,
        ..strict
    };
    let got = run_query(&files, &lossy).expect("lossy queries never fail");
    let want = query_oracle::run_query(&files, &lossy).expect("lossy oracle never fails");
    assert_eq!(got.stats, want.stats, "{what}: lossy stats");
    let l = got.stats.lossy;
    assert_eq!(
        l.bytes_scanned + l.bytes_unscanned,
        files[0].bytes.len(),
        "{what}"
    );
}

/// Every cut and a spread of bit flips over one file: strict decoding
/// never panics and fails only with typed errors, lossy decoding
/// accounts for every byte, and the query engine judges each damaged
/// variant as the owned oracle does ([`check_queries`]).
fn sweep_damage(name: &str, file: &QueryFile) {
    let bytes = &file.bytes[..];
    let variant = |b: &[u8]| QueryFile {
        bytes: Bytes::copy_from_slice(b),
        ..file.clone()
    };
    let full = decode_file(bytes).expect("undamaged file decodes");
    // Cuts: every one in the first 600 bytes, then ~600 spread over
    // the rest of the file.
    let stride = (bytes.len() / 600).max(1);
    let cuts = (0..bytes.len().min(600)).chain((600..=bytes.len()).step_by(stride));
    for cut in cuts {
        let part = &bytes[..cut];
        // A file cut at a record boundary is a shorter valid file;
        // anywhere else the strict decoder reports the truncation.
        let (lossy, stats) = decode_file_lossy(part);
        match decode_file(part) {
            Ok(records) => {
                assert_eq!(records[..], full[..records.len()], "{name}: cut at {cut}");
                assert!(!stats.aborted, "{name}: cut at {cut}");
            }
            Err(e) => {
                assert_eq!(e, Mrt2Error::Truncated, "{name}: cut at {cut}");
                assert!(stats.aborted, "{name}: cut at {cut}");
            }
        }
        assert_eq!(lossy[..], full[..lossy.len()], "{name}: cut at {cut}");
        assert_eq!(
            stats.bytes_scanned + stats.bytes_unscanned,
            cut,
            "{name}: cut at {cut}"
        );
        check_queries(&format!("{name}: cut at {cut}"), variant(part));
    }
    // Bit flips: strict decoding either yields records or fails with a
    // decode-side error; lossy accounting always balances.
    let stride = (bytes.len() / 400).max(1);
    for i in (0..bytes.len()).step_by(stride) {
        let mut b = bytes.to_vec();
        b[i] ^= 0x40;
        if let Err(e) = decode_file(&b) {
            assert!(
                !matches!(e, Mrt2Error::TooLong { .. }),
                "{name}: flip at {i}: {e:?}"
            );
        }
        let (_, stats) = decode_file_lossy(&b);
        assert_eq!(
            stats.bytes_scanned + stats.bytes_unscanned,
            b.len(),
            "{name}: flip at {i}"
        );
        check_queries(&format!("{name}: flip at {i}"), variant(&b));
    }
}

#[test]
fn mrt_bitflips_never_panic_and_roundtrip_detects() {
    let study = build_bgp_study(&StudyConfig::quick_seeded(7));
    let archive = archive_of(&study);
    let day = study.world.span.start + 10;
    let rib = archive.rib_dates().nth(1).expect("a second RIB");
    let file = |kind, day, bytes: Option<&Bytes>| QueryFile {
        day,
        kind,
        bytes: bytes.expect("archive file").clone(),
    };
    sweep_damage("rib", &file(FileKind::Rib, rib, archive.rib_bytes(rib)));
    sweep_damage(
        "updates",
        &file(FileKind::Updates, day, archive.update_bytes(day)),
    );
}

#[test]
fn rdap_outage_mid_extraction_is_recoverable() {
    let study = build_bgp_study(&StudyConfig::quick_seeded(8));
    let as_of = study.world.span.end;
    let db = WhoisDb::build_from_world(&study.world, as_of, &DbBuildConfig::default());

    // A brutally small rate budget forces many pauses.
    let strict = RdapServer::with_rate_limit(db.clone(), 3);
    let (with_pauses, stats) = extract_delegations(&db, &strict);
    assert!(stats.rate_limit_pauses > 5);

    let relaxed = RdapServer::new(db.clone());
    let (without, _) = extract_delegations(&db, &relaxed);
    assert_eq!(with_pauses, without, "pauses must not change the result");
}
