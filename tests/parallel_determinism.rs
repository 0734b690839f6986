//! Integration: parallel runs of the archive pipeline are
//! byte-identical to sequential runs.
//!
//! The worker pool ([`bgpsim::par`]) merges per-day results in index
//! order, so nothing downstream — MRT bytes, inferred delegations,
//! rendered figures, CSV exports — may depend on the thread count.
//! These tests pin that contract end to end.

mod mrt_oracle;
mod query_oracle;
mod replay_oracle;

use bgpsim::observe::{render_days_with_threads, ObservationDay};
use bgpsim::updates::{ArchiveV2Config, CollectorArchiveV2, Provenance};
use delegation::config::InferenceConfig;
use delegation::pipeline::{run_pipeline, PipelineInput};
use drywells::experiments::{build_bgp_study, fig6};
use drywells::{csv, StudyConfig};
use rdap::database::{DbBuildConfig, WhoisDb};
use rdap::pipeline::extract_delegations;
use rdap::server::RdapServer;

#[test]
fn rendered_days_and_mrt_bytes_are_thread_count_invariant() {
    let config = StudyConfig::quick_seeded(42);
    let world = bgpsim::scenario::LeaseWorld::generate(&config.world);
    let span = world.span;

    let seq = render_days_with_threads(&world, &config.visibility, span, 1);
    for threads in [2, 4] {
        let par = render_days_with_threads(&world, &config.visibility, span, threads);
        assert_eq!(par, seq, "observation days differ at {threads} threads");
    }
}

#[test]
fn v2_archive_and_inference_are_thread_count_invariant() {
    let config = StudyConfig::quick_seeded(43);
    let world = bgpsim::scenario::LeaseWorld::generate(&config.world);
    let span = world.span;
    let v2cfg = ArchiveV2Config::default();

    let seq_archive =
        CollectorArchiveV2::generate_with_threads(&world, &config.visibility, span, &v2cfg, 1)
            .expect("archive encodes");
    let par_archive =
        CollectorArchiveV2::generate_with_threads(&world, &config.visibility, span, &v2cfg, 4)
            .expect("archive encodes");
    for d in seq_archive.rib_dates() {
        assert_eq!(seq_archive.rib_bytes(d), par_archive.rib_bytes(d));
    }
    for d in seq_archive.update_dates() {
        assert_eq!(seq_archive.update_bytes(d), par_archive.update_bytes(d));
    }

    // Inference over sequentially- and parallel-rendered days agrees
    // delegation-for-delegation.
    let seq_days = render_days_with_threads(&world, &config.visibility, span, 1);
    let par_days = render_days_with_threads(&world, &config.visibility, span, 4);
    let cfg = InferenceConfig::baseline();
    let a = run_pipeline(PipelineInput::Days(&seq_days), span, &cfg, None);
    let b = run_pipeline(PipelineInput::Days(&par_days), span, &cfg, None);
    assert_eq!(a.days, b.days);
    assert_eq!(a.fallback_days, b.fallback_days);
    assert_eq!(a.missing_days, b.missing_days);
}

#[test]
fn figure_outputs_are_thread_count_invariant() {
    // `DRYWELLS_THREADS` pins the default pool size; figure text and
    // CSV exports must not change with it. (Thread count never affects
    // any test's *output* by design, so mutating the variable here is
    // safe even though tests share the process.)
    let config = StudyConfig::quick_seeded(44);
    std::env::set_var("DRYWELLS_THREADS", "1");
    let study_seq = build_bgp_study(&config);
    std::env::set_var("DRYWELLS_THREADS", "4");
    let study_par = build_bgp_study(&config);
    std::env::remove_var("DRYWELLS_THREADS");

    assert_eq!(study_seq.days, study_par.days);
    let fig_seq = fig6::run_with_study(&study_seq);
    let fig_par = fig6::run_with_study(&study_par);
    assert_eq!(fig_seq.rendered, fig_par.rendered);
    assert_eq!(csv::fig6_csv(&fig_seq), csv::fig6_csv(&fig_par));
}

/// Every inference config `run_all` asks a study for, in its order:
/// fig6 (both presets), §4 and §7 (extended), then the sensitivity
/// sweeps (five thresholds, five fill windows).
fn run_all_inference_configs() -> Vec<InferenceConfig> {
    let mut configs = vec![
        InferenceConfig::baseline(),
        InferenceConfig::extended(),
        InferenceConfig::extended(),
        InferenceConfig::extended(),
    ];
    for visibility_threshold in [0.1, 0.3, 0.5, 0.7, 0.9] {
        configs.push(InferenceConfig {
            visibility_threshold,
            ..InferenceConfig::baseline()
        });
    }
    for window in [0usize, 3, 10, 30, 60] {
        configs.push(InferenceConfig {
            consistency_fill_days: (window > 0).then_some(window),
            filter_intra_org: true,
            ..InferenceConfig::baseline()
        });
    }
    configs
}

#[test]
fn shared_study_inference_matches_the_pipeline_at_every_pool_size() {
    let config = StudyConfig::quick_seeded(54);
    let configs = run_all_inference_configs();
    for threads in ["1", "2", "4"] {
        std::env::set_var("DRYWELLS_THREADS", threads);
        let reference_study = build_bgp_study(&config);
        let span = reference_study.world.span;
        let expected: Vec<_> = configs
            .iter()
            .map(|cfg| {
                let input = PipelineInput::Days(&reference_study.days);
                run_pipeline(input, span, cfg, Some(&reference_study.as2org))
            })
            .collect();
        // Forward and reverse order: which request fills a memo slot
        // must not matter.
        for reverse in [false, true] {
            let study = build_bgp_study(&config);
            let mut order: Vec<usize> = (0..configs.len()).collect();
            if reverse {
                order.reverse();
            }
            for i in order {
                assert_eq!(
                    *study.delegations(&configs[i]),
                    expected[i],
                    "{:?} differs at {threads} threads (reverse: {reverse})",
                    configs[i]
                );
            }
            // Unfilled preset walks are shared, not recomputed.
            let walk_only = InferenceConfig {
                consistency_fill_days: None,
                ..InferenceConfig::extended()
            };
            for cfg in [InferenceConfig::baseline(), walk_only] {
                assert!(std::sync::Arc::ptr_eq(
                    &study.delegations(&cfg),
                    &study.delegations(&cfg)
                ));
            }
        }
    }
    std::env::remove_var("DRYWELLS_THREADS");

    // The shared RDAP extraction runs behind §4's rate-limited server;
    // §7 reads it as its RDAP lens. Both equal an unlimited extraction.
    let study = build_bgp_study(&config);
    let db = WhoisDb::build_from_world(
        &study.world,
        study.world.span.end,
        &DbBuildConfig::default(),
    );
    let unlimited = RdapServer::new(db.clone());
    let (direct, _) = extract_delegations(&db, &unlimited);
    assert_eq!(study.rdap_delegations().0, direct.as_slice());
    let s7 = drywells::experiments::s7_combined::run_with_study(&study, &config);
    let direct_rdap: nettypes::set::PrefixSet =
        direct.iter().flat_map(|d| d.child.to_cidrs()).collect();
    let rdap_row = &s7.rows[2];
    assert_eq!(rdap_row.0, "RDAP only");
    assert_eq!(
        rdap_row.1,
        delegation::combine::market_coverage(&study.world, study.world.span.end, &direct_rdap)
    );
}

#[test]
fn tracing_never_perturbs_outputs_at_any_pool_size() {
    // Telemetry is observation, not participation: figure text and CSV
    // bytes must be identical with tracing off, streaming to stderr,
    // or writing JSONL — at every pool size.
    let config = StudyConfig::quick_seeded(46);

    let run_fig6 = || {
        let study = build_bgp_study(&config);
        let fig = fig6::run_with_study(&study);
        (fig.rendered.clone(), csv::fig6_csv(&fig))
    };

    std::env::set_var("DRYWELLS_THREADS", "1");
    let baseline = run_fig6();

    let jsonl_buf = {
        let mut traced = Vec::new();
        for threads in ["1", "2", "4"] {
            std::env::set_var("DRYWELLS_THREADS", threads);

            // Tracing off.
            assert_eq!(
                run_fig6(),
                baseline,
                "untraced differs at {threads} threads"
            );

            // Human-readable subscriber (stderr is captured by the harness).
            {
                let _guard = obs::subscribe(std::sync::Arc::new(obs::StderrSubscriber));
                assert_eq!(
                    run_fig6(),
                    baseline,
                    "stderr-traced differs at {threads} threads"
                );
            }

            // JSONL subscriber into a shared buffer.
            let (sub, buf) = obs::subscriber::shared_buffer();
            {
                let _guard = obs::subscribe(std::sync::Arc::new(sub));
                assert_eq!(
                    run_fig6(),
                    baseline,
                    "jsonl-traced differs at {threads} threads"
                );
            }
            traced.push(buf);
        }
        std::env::remove_var("DRYWELLS_THREADS");
        traced
    };

    // Every captured JSONL line parses, and the expected stages appear.
    // (Strict nesting is validated by `repro trace-check` on a real
    // single-command run; here concurrent tests share the process-wide
    // subscriber list, so a buffer may see fragments of their spans.)
    for buf in jsonl_buf {
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let mut names = std::collections::HashSet::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let v = serde_json::parse(line)
                .unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e:?}"));
            assert!(v.get("type").and_then(|t| t.as_str()).is_some(), "{line}");
            if let Some(name) = v.get("name").and_then(|n| n.as_str()) {
                names.insert(name.to_string());
            }
        }
        for expected in ["build_bgp_study", "render_days", "delegation_inference"] {
            assert!(
                names.contains(expected),
                "missing span {expected:?} in trace"
            );
        }
    }
}

#[test]
fn flight_recorder_never_perturbs_outputs_at_any_pool_size() {
    // The flight recorder is compiled in and always on — so the
    // determinism contract extends to it: figure text and CSV bytes
    // must be identical whether the ring is recording or paused, at
    // every pool size. And the ring's JSONL snapshot must satisfy the
    // same structural rules `repro trace-check` enforces.
    let config = StudyConfig::quick_seeded(53);

    let run_fig6 = || {
        let study = build_bgp_study(&config);
        let fig = fig6::run_with_study(&study);
        (fig.rendered.clone(), csv::fig6_csv(&fig))
    };

    let recorder = obs::flight::global();
    std::env::set_var("DRYWELLS_THREADS", "1");
    let baseline = run_fig6();
    for threads in ["1", "2", "4"] {
        std::env::set_var("DRYWELLS_THREADS", threads);
        recorder.set_paused(false);
        assert_eq!(
            run_fig6(),
            baseline,
            "recording differs at {threads} threads"
        );
        recorder.set_paused(true);
        assert_eq!(run_fig6(), baseline, "paused differs at {threads} threads");
        recorder.set_paused(false);
    }
    std::env::remove_var("DRYWELLS_THREADS");

    // The always-on ring captured the pipeline's spans, and its
    // snapshot passes the exact trace-check validation rules.
    let snapshot = recorder.snapshot_jsonl();
    assert!(
        snapshot
            .lines()
            .any(|l| l.contains("\"name\":\"build_bgp_study\"")),
        "pipeline spans missing from the flight ring"
    );
    let stats = drywells::tracecheck::check_trace(&snapshot)
        .unwrap_or_else(|errs| panic!("flight snapshot fails trace-check: {errs:?}"));
    assert!(stats.spans > 0, "snapshot should reconstruct spans");
}

#[test]
fn flight_recorder_accepts_concurrent_writers_from_the_worker_pool() {
    // Hammer the ring from the real `bgpsim::par` pool while snapshots
    // race the writers: every snapshot must be valid JSONL with fully
    // formed records (the per-slot copy is never observed half-written).
    let recorder = obs::flight::global();
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let done_ref = &done;
        s.spawn(move || {
            for _ in 0..40 {
                if done_ref.load(std::sync::atomic::Ordering::Relaxed) {
                    break;
                }
                let snap = recorder.snapshot_jsonl();
                for line in snap.lines() {
                    serde_json::parse(line)
                        .unwrap_or_else(|e| panic!("bad snapshot line {line:?}: {e:?}"));
                }
                std::thread::yield_now();
            }
        });
        let written: Vec<u64> = bgpsim::par::map_indexed(200, 4, |i| {
            obs::flight_event!(obs::Level::Debug, "par_pool_flight_write", index = i as u64);
            i as u64
        });
        assert_eq!(written.len(), 200);
        done.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    // The pool's writes all landed (the ring may have wrapped, but the
    // total advanced by at least the 200 events just emitted).
    let snap = recorder.snapshot_jsonl();
    let stats = drywells::tracecheck::check_trace(&snap)
        .unwrap_or_else(|errs| panic!("post-hammer snapshot fails trace-check: {errs:?}"));
    assert!(stats.events > 0, "pool events missing from the snapshot");
}

#[test]
fn query_output_is_byte_identical_at_every_worker_count() {
    // The query engine fans file scans out over `bgpsim::par` and
    // merges per-file row blocks in index order, so CSV and JSONL
    // bodies must be byte-identical at any worker count — including
    // when a row limit truncates mid-merge.
    use bgpsim::query::{files_from_archive_v2, run_query, Filter, OutputFormat, QueryOptions};

    let config = StudyConfig::quick_seeded(51);
    let world = bgpsim::scenario::LeaseWorld::generate(&config.world);
    let archive = CollectorArchiveV2::generate(
        &world,
        &config.visibility,
        world.span,
        &ArchiveV2Config::default(),
    )
    .expect("archive encodes");
    let files = files_from_archive_v2(&archive);
    assert!(
        files.len() > 4,
        "need a multi-file archive to exercise the merge"
    );

    let cases = [
        ("", OutputFormat::Csv, None),
        ("kind=announce|withdraw", OutputFormat::Csv, Some(100)),
        ("kind=rib", OutputFormat::Jsonl, Some(1000)),
    ];
    for (filter, format, limit) in cases {
        let opts = |threads| QueryOptions {
            filter: Filter::parse(filter).unwrap(),
            format,
            lossy: false,
            limit,
            threads,
        };
        let seq = run_query(&files, &opts(1)).expect("sequential query");
        assert!(
            seq.stats.rows_emitted > 0,
            "filter {filter:?} matched nothing"
        );
        for threads in [2, 4] {
            let par = run_query(&files, &opts(threads)).expect("parallel query");
            assert_eq!(
                par.body, seq.body,
                "query body differs at {threads} threads (filter {filter:?})"
            );
            assert_eq!(par.stats.rows_emitted, seq.stats.rows_emitted);
        }
    }
}

/// A copy of an archive's query files with damage every lossy counter
/// sees: a RIB entry whose first attribute overruns the entry (its
/// framing fails, the entry's does not), an update record with a bad
/// AFI, and an update file cut mid-record.
fn damaged_query_files(files: &[bgpsim::query::QueryFile]) -> Vec<bgpsim::query::QueryFile> {
    use bgpsim::query::FileKind;
    let mut out = files.to_vec();
    let rib = out
        .iter_mut()
        .find(|f| f.kind == FileKind::Rib)
        .expect("a RIB file");
    let mut b = rib.bytes.to_vec();
    // The first RIB_IPV4_UNICAST record follows the PEER_INDEX_TABLE:
    // header 12, sequence 4, prefix length 1 + network bytes, entry
    // count 2; then its first entry's peer index 2, time 4, length 2.
    let rec = 12 + u32::from_be_bytes([b[8], b[9], b[10], b[11]]) as usize;
    let entry = rec + 12 + 4 + 1 + usize::from(b[rec + 16].div_ceil(8)) + 2;
    let attr = entry + 8;
    assert_eq!(
        b[attr] & 0x10,
        0,
        "the first attribute has a one-byte length"
    );
    b[attr + 2] = 0xFF;
    rib.bytes = bytes::Bytes::from(b);
    let upd = out
        .iter_mut()
        .find(|f| f.kind == FileKind::Updates)
        .expect("an update file");
    let mut b = upd.bytes.to_vec();
    b[12 + 10] = 0xFF; // the first record's AFI
    b.truncate(b.len() - 3);
    upd.bytes = bytes::Bytes::from(b);
    out
}

#[test]
fn query_output_matches_the_owned_oracle_at_every_worker_count() {
    // The borrowed scan must print exactly what the owned scan in
    // `query_oracle` prints, and count exactly what it counts, for every
    // clause kind, in both formats, strict over a clean archive and
    // lossy over a damaged one, at any worker count.
    use bgpsim::query::{files_from_archive_v2, run_query, Filter, OutputFormat, QueryOptions};
    use nettypes::prefix::Prefix;

    let config = StudyConfig::quick_seeded(53);
    let world = bgpsim::scenario::LeaseWorld::generate(&config.world);
    let archive = CollectorArchiveV2::generate(
        &world,
        &config.visibility,
        world.span,
        &ArchiveV2Config::default(),
    )
    .expect("archive encodes");
    let opts = |filter: &str, format, lossy, threads| QueryOptions {
        filter: Filter::parse(filter).unwrap_or_else(|e| panic!("{filter:?}: {e}")),
        format,
        lossy,
        limit: None,
        threads,
    };
    let csv_rows = |body: &str| -> Vec<Vec<String>> {
        body.lines()
            .skip(1)
            .map(|l| l.split(',').map(str::to_string).collect())
            .collect()
    };

    // Three weeks around the first AS_SET origin keep the debug-build
    // test quick: at least two RIB files and the update files around
    // them.
    let mut clean = files_from_archive_v2(&archive);
    let sets =
        run_query(&clean, &opts("kind=announce", OutputFormat::Csv, false, 1)).expect("query runs");
    let set_row = csv_rows(&sets.body)
        .into_iter()
        .find(|r| r[3].contains('|'))
        .expect("the archive announces an AS_SET origin");
    let set_day: nettypes::date::Date = set_row[0].parse().expect("row day parses");
    clean.retain(|f| f.day + 10 >= set_day && f.day <= set_day + 10);
    assert!(
        clean.len() > 8,
        "need a multi-file archive to exercise the merge"
    );
    let damaged = damaged_query_files(&clean);

    // Clause values drawn from the archive itself: an announcement
    // with at least three hops from the middle of the scan, and an
    // AS_SET origin.
    let all = query_oracle::run_query(&clean, &opts("", OutputFormat::Csv, false, 1))
        .expect("oracle scans the clean archive");
    let rows = csv_rows(&all.body);
    let long: Vec<&Vec<String>> = rows
        .iter()
        .filter(|r| r[1] == "announce" && r[5].split(' ').count() >= 3)
        .collect();
    let row = long[long.len() / 2];
    let (day, prefix, origin, peer) = (&row[0], &row[2], &row[3], &row[4]);
    let (set_member, _) = set_row[3].split_once('|').expect("an AS_SET origin");
    let p: Prefix = prefix.parse().expect("row prefix parses");
    let wide = Prefix::new_unchecked_masked(p.network(), p.len().min(8));
    let narrow = Prefix::new_unchecked_masked(p.network(), (p.len() + 2).min(32));
    let hops: Vec<&str> = row[5].split(' ').collect();
    let (first, last) = (hops[0], hops[hops.len() - 1]);
    let mut one_hop_wild = hops.clone();
    one_hop_wild[1] = "?";
    let day: nettypes::date::Date = day.parse().expect("row day parses");
    let filters = [
        String::new(),
        format!("prefix={prefix}"),
        format!("subnet-of={wide}"),
        format!("supernet-of={narrow} kind=rib|announce"),
        format!("origin={origin}"),
        format!("origin={set_member}"),
        format!("origin={origin}|{set_member} kind=rib"),
        format!("peer={peer}"),
        format!("peer={peer} kind=withdraw"),
        format!("days={}..{}", day + -3, day + 3),
        format!("days=..{day} kind=rib"),
        format!("path={first},*,{last}"),
        format!("path={}", one_hop_wild.join(",")),
        format!("path=*,{last} subnet-of={wide}"),
        "kind=rib".to_string(),
        "kind=announce|withdraw".to_string(),
    ];

    for filter in &filters {
        for format in [OutputFormat::Csv, OutputFormat::Jsonl] {
            for (files, lossy) in [(&clean, false), (&damaged, true)] {
                let want = query_oracle::run_query(files, &opts(filter, format, lossy, 1))
                    .expect("oracle query runs");
                assert!(want.stats.rows_matched > 0, "{filter:?} matched nothing");
                for threads in [1, 2, 4] {
                    let got = run_query(files, &opts(filter, format, lossy, threads))
                        .expect("query runs");
                    let what = format!("{filter:?} {format:?} lossy={lossy} threads={threads}");
                    assert_eq!(got.stats, want.stats, "{what}: stats differ");
                    assert!(got.body == want.body, "{what}: body differs");
                }
            }
        }
        // Strict mode fails on the damaged archive exactly as the
        // oracle does.
        let strict = opts(filter, OutputFormat::Csv, false, 2);
        assert_eq!(
            run_query(&damaged, &strict).err(),
            query_oracle::run_query(&damaged, &strict).err(),
            "{filter:?}: strict outcome on the damaged archive"
        );
    }
    let lossy = query_oracle::run_query(&damaged, &opts("", OutputFormat::Csv, true, 1))
        .expect("oracle scans the damaged archive")
        .stats
        .lossy;
    assert!(
        lossy.skipped_bgp > 0 && lossy.skipped_malformed > 0 && lossy.aborted,
        "{lossy:?}"
    );
}

#[test]
fn range_merge_matches_the_per_file_oracle_at_every_limit() {
    // The engine scans contiguous byte-balanced file ranges and merges
    // them; the oracle scans and merges file by file. Every file
    // boundary is a possible range boundary, so a limit at, just
    // before and just after each one, and one inside the first file,
    // covers a limit inside the first range and across every range
    // boundary, at every worker count.
    use bgpsim::query::{
        files_from_archive_v2, run_query, Filter, OutputFormat, QueryError, QueryOptions,
        CSV_HEADER,
    };

    let config = StudyConfig::quick_seeded(57);
    let world = bgpsim::scenario::LeaseWorld::generate(&config.world);
    let archive = CollectorArchiveV2::generate(
        &world,
        &config.visibility,
        world.span,
        &ArchiveV2Config::default(),
    )
    .expect("archive encodes");
    let mut files = files_from_archive_v2(&archive);
    let first = world.span.start;
    files.retain(|f| f.day <= first + 9);
    let n = files.len();
    assert!(n > 8, "need a multi-file archive to exercise the merge");
    let opts = |filter: &str, format, lossy, limit| QueryOptions {
        filter: Filter::parse(filter).unwrap_or_else(|e| panic!("{filter:?}: {e}")),
        format,
        lossy,
        limit,
        threads: 1,
    };
    let check = |files: &[bgpsim::query::QueryFile], o: &QueryOptions| {
        let want = query_oracle::run_query(files, o);
        for threads in [1, 2, 4] {
            let got = run_query(
                files,
                &QueryOptions {
                    threads,
                    ..o.clone()
                },
            );
            let what = format!(
                "{} {:?} lossy={} limit={:?} threads={threads}",
                o.filter, o.format, o.lossy, o.limit
            );
            match (&got, &want) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(got.stats, want.stats, "{what}: stats differ");
                    assert!(got.body == want.body, "{what}: body differs");
                }
                _ => assert_eq!(got.as_ref().err(), want.as_ref().err(), "{what}"),
            }
        }
        want
    };

    // Rows per file, and the limits around every file boundary.
    let per_file: Vec<usize> = files
        .iter()
        .map(|f| {
            let out = query_oracle::run_query(
                std::slice::from_ref(f),
                &opts("", OutputFormat::Csv, false, None),
            );
            out.expect("oracle scans a clean file").stats.rows_matched
        })
        .collect();
    assert!(per_file[0] > 2, "the first file has rows to cut inside");
    let mut limits = vec![0, 1, per_file[0] / 2];
    let mut rows = 0;
    for &r in &per_file {
        rows += r;
        limits.extend([rows.saturating_sub(1), rows, rows + 1]);
    }
    limits.sort_unstable();
    limits.dedup();
    for format in [OutputFormat::Csv, OutputFormat::Jsonl] {
        for &limit in &limits {
            let out = check(&files, &opts("", format, false, Some(limit)))
                .expect("oracle scans the clean archive");
            assert_eq!(out.stats.rows_emitted, limit.min(rows));
        }
        let all = check(&files, &opts("", format, false, None)).expect("oracle scans");
        assert_eq!(all.stats.rows_emitted, rows);
    }

    // Lossy over damaged RIB entries, an update record with a bad AFI
    // and a file cut mid-record, with and without a limit.
    let damaged = damaged_query_files(&files);
    for limit in [None, Some(0), Some(per_file[0] / 2), Some(rows / 2)] {
        for format in [OutputFormat::Csv, OutputFormat::Jsonl] {
            let out = check(&damaged, &opts("", format, true, limit)).expect("lossy scans");
            assert!(out.stats.lossy.skipped_bgp > 0, "{:?}", out.stats.lossy);
        }
    }

    // Every file pruned: the body is the header alone.
    let before = format!("days=..{}", first + -1);
    for (format, header) in [(OutputFormat::Csv, CSV_HEADER), (OutputFormat::Jsonl, "")] {
        let out = check(&files, &opts(&before, format, false, None)).expect("nothing to fail");
        assert_eq!(out.body, header);
        assert_eq!((out.stats.files_pruned, out.stats.files_scanned), (n, 0));
    }

    // Strict mode with two failing files at the two ends, so in
    // different ranges at 2 and 4 workers: the lower file's error wins.
    let mut two_bad = files.clone();
    two_bad[0] = damaged[0].clone(); // the first RIB's damaged entry
    let mut last = two_bad[n - 1].bytes.to_vec();
    last[12 + 10] = 0xFF; // the first record's AFI
    two_bad[n - 1].bytes = bytes::Bytes::from(last);
    assert_ne!(two_bad[0].day, two_bad[n - 1].day);
    for limit in [None, Some(1)] {
        let err = check(&two_bad, &opts("", OutputFormat::Csv, false, limit))
            .expect_err("strict mode fails");
        let QueryError::Decode { day, .. } = err;
        assert_eq!(day, files[0].day, "the lowest-index error wins");
    }
    // With the first file clean, the last file's error is the one.
    two_bad[0] = files[0].clone();
    let err =
        check(&two_bad, &opts("", OutputFormat::Csv, false, None)).expect_err("strict mode fails");
    let QueryError::Decode { day, .. } = err;
    assert_eq!(day, files[n - 1].day);
}

#[test]
fn served_query_rows_are_byte_identical_to_cli_engine_output() {
    // `GET /query` must stream exactly the bytes `repro query` prints:
    // the served route scans the in-memory archive while the CLI scans
    // the same archive written to disk, and both go through
    // `bgpsim::query::run_query` — so the dir round-trip plus the HTTP
    // transport may not perturb a single byte.
    use bgpsim::query::{files_from_dir, run_query, Filter, OutputFormat, QueryOptions};

    let config = StudyConfig::quick_seeded(52);
    let bgp = drywells::experiments::build_bgp_study_cached(&config);
    let archive = CollectorArchiveV2::generate(
        &bgp.world,
        bgp.visibility_model(),
        bgp.world.span,
        &ArchiveV2Config::default(),
    )
    .expect("archive encodes");

    // The CLI path: archive dir on disk, scanned back.
    let dir = std::env::temp_dir().join(format!("drywells-query-cli-{}", std::process::id()));
    archive.write_dir(&dir).expect("archive writes");
    let files = files_from_dir(&dir).expect("archive dir reads");
    let filter = "kind=announce|withdraw";
    let opts = QueryOptions {
        filter: Filter::parse(filter).unwrap(),
        format: OutputFormat::Csv,
        lossy: false,
        limit: Some(500),
        threads: 2,
    };
    let cli_body = run_query(&files, &opts).expect("cli-path query").body;
    std::fs::remove_dir_all(&dir).ok();
    assert!(cli_body.lines().count() > 1, "{cli_body}");

    // The served path: same study config, same filter, over HTTP.
    let app = serve::App::from_study(&config, None);
    let server = serve::Server::start(app, serve::ServerConfig::default()).unwrap();
    let path = format!(
        "/query?filter={}&limit=500",
        filter.replace('=', "%3D").replace('|', "%7C")
    );
    let resp = serve::client::get_once(
        server.http_addr(),
        &path,
        std::time::Duration::from_secs(60),
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("content-type"), Some("text/csv"));
    assert_eq!(
        resp.header("transfer-encoding"),
        Some("chunked"),
        "query bodies stream chunked to HTTP/1.1 clients"
    );
    assert_eq!(
        resp.text(),
        cli_body,
        "served /query differs from the CLI engine output"
    );
    server.shutdown();
}

#[test]
fn served_fig6_csv_is_byte_identical_to_direct_export_at_any_pool_size() {
    // The `/experiments/fig6.csv` route must serve exactly the bytes
    // `repro fig6 --csv` writes, no matter how many workers the HTTP
    // pool runs — the serving layer may memoize but never perturb.
    let config = StudyConfig::quick_seeded(45);
    let expected = csv::fig6_csv(&drywells::experiments::fig6::run(&config));
    assert!(expected.starts_with("date,"), "{expected}");

    for workers in [1, 2, 4] {
        let app = serve::App::from_study(&config, None);
        let server = serve::Server::start(
            app,
            serve::ServerConfig {
                workers,
                ..serve::ServerConfig::default()
            },
        )
        .unwrap();
        let resp = serve::client::get_once(
            server.http_addr(),
            "/experiments/fig6.csv",
            std::time::Duration::from_secs(60),
        )
        .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.text(),
            expected,
            "served fig6 CSV differs at {workers} workers"
        );
        // And the memoized second hit is the same bytes again.
        let again = serve::client::get_once(
            server.http_addr(),
            "/experiments/fig6.csv",
            std::time::Duration::from_secs(60),
        )
        .unwrap();
        assert_eq!(again.text(), expected);
        server.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Legacy oracle: an independent reimplementation of the pre-engine
// per-day rendering and MRT encoding (on the owned record model of
// `tests/mrt_oracle`), kept here (and only here) as the comparison
// harness for the hoisted `RenderEngine` and `MrtWriter`. It deliberately
// re-derives everything per day — full event scans, fresh hash maps,
// uncached BFS — so any divergence in the engine's precomputation
// (interval index, visibility bitsets, interned paths, cached
// attribute blobs) shows up as a byte difference.
// ---------------------------------------------------------------------------
mod legacy_oracle {
    use crate::mrt_oracle::{
        encode_attributes, encode_file, AsPathSegment, Bgp4mpMessage, BgpMessage, MrtRecord,
        OriginType, PathAttribute, PeerIndexTable, RibEntry, RibIpv4Unicast, TimestampedRecord,
        UpdateMessage,
    };
    use bgpsim::mrt2::{Mrt2Error, PeerEntry};
    use bgpsim::observe::{monitor_ases, ObservationDay, RouteObservation, VisibilityModel};
    use bgpsim::scenario::LeaseWorld;
    use bgpsim::updates::ArchiveV2Config;
    use bytes::Bytes;
    use nettypes::asn::{Asn, Origin};
    use nettypes::date::Date;
    use nettypes::prefix::Prefix;
    use std::collections::{BTreeMap, HashMap};

    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E3779B97F4A7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        x ^ (x >> 31)
    }

    fn unit_f64(h: u64) -> f64 {
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    fn origin_key(origin: &Origin) -> u32 {
        match origin {
            Origin::Single(a) => a.0,
            Origin::Set(v) => v.first().map(|a| a.0).unwrap_or(0) ^ 0x8000_0000,
        }
    }

    fn monitor_sees(
        model: &VisibilityModel,
        prefix: Prefix,
        origin: u32,
        monitor: u16,
        day: Date,
        vis: f64,
    ) -> bool {
        let key = splitmix64(
            model
                .seed
                .wrapping_mul(0x517C_C1B7_2722_0A95)
                .wrapping_add((prefix.network() as u64) << 16)
                .wrapping_add(prefix.len() as u64)
                .wrapping_add((origin as u64) << 32)
                .wrapping_add(monitor as u64),
        );
        if unit_f64(key) >= vis {
            return false;
        }
        let daily =
            splitmix64(key ^ (day.days_since_epoch() as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        unit_f64(daily) >= model.daily_flicker
    }

    /// The historical `render_day`: per-day event scan, per-day fleet
    /// pick, fresh BFS per first-seeing monitor.
    pub fn render_day(world: &LeaseWorld, model: &VisibilityModel, day: Date) -> ObservationDay {
        let monitors = monitor_ases(world, model);
        let mut routes = Vec::new();
        let mut emit = |prefix: Prefix, origin: Origin, vis: f64, class| {
            let okey = origin_key(&origin);
            let mut seen = 0u16;
            let mut first_monitor: Option<Asn> = None;
            for (i, &mon) in monitors.iter().enumerate() {
                if monitor_sees(model, prefix, okey, i as u16, day, vis) {
                    seen += 1;
                    if first_monitor.is_none() {
                        first_monitor = Some(mon);
                    }
                }
            }
            if seen == 0 {
                return;
            }
            let path = match (&origin, first_monitor) {
                (Origin::Single(o), Some(m)) => world.topology.path(m, *o).unwrap_or_default(),
                _ => Vec::new(),
            };
            routes.push(RouteObservation {
                prefix,
                origin,
                monitors_seen: seen,
                path: path.into(),
                class,
            });
        };
        for r in world.announced_routes_on(day) {
            emit(
                r.prefix,
                Origin::Single(r.origin),
                r.visibility,
                Some(r.class),
            );
        }
        for m in world.moas_events_on(day) {
            emit(m.prefix, Origin::Single(m.second_origin), 0.9, None);
        }
        for e in world.as_set_events_on(day) {
            emit(e.prefix, Origin::Set(e.set.clone()), 0.9, None);
        }
        ObservationDay {
            date: day,
            num_monitors: model.num_monitors,
            routes,
        }
    }

    /// The historical `per_monitor_routes`: per-monitor hash map with
    /// min-rank/first-wins tiebreaks, sorted at the end.
    pub fn per_monitor_routes(
        world: &LeaseWorld,
        model: &VisibilityModel,
        day: Date,
    ) -> Vec<Vec<(Prefix, Origin)>> {
        let monitors = monitor_ases(world, model);
        let mut candidates: Vec<(Prefix, Origin, f64)> = Vec::new();
        for r in world.announced_routes_on(day) {
            candidates.push((r.prefix, Origin::Single(r.origin), r.visibility));
        }
        for m in world.moas_events_on(day) {
            candidates.push((m.prefix, Origin::Single(m.second_origin), 0.9));
        }
        for e in world.as_set_events_on(day) {
            candidates.push((e.prefix, Origin::Set(e.set.clone()), 0.9));
        }
        let mut per_monitor: Vec<Vec<(Prefix, Origin)>> = vec![Vec::new(); monitors.len()];
        for (mi, routes) in per_monitor.iter_mut().enumerate() {
            let mut best: HashMap<Prefix, (u64, Origin)> = HashMap::new();
            for (prefix, origin, vis) in &candidates {
                let key = origin_key(origin);
                if !monitor_sees(model, *prefix, key, mi as u16, day, *vis) {
                    continue;
                }
                let rank = splitmix64(
                    model.seed
                        ^ ((prefix.network() as u64) << 8)
                        ^ ((key as u64) << 40)
                        ^ mi as u64,
                );
                match best.get(prefix) {
                    Some((r, _)) if *r <= rank => {}
                    _ => {
                        best.insert(*prefix, (rank, origin.clone()));
                    }
                }
            }
            let mut v: Vec<(Prefix, Origin)> = best.into_iter().map(|(p, (_, o))| (p, o)).collect();
            v.sort_by_key(|(p, _)| *p);
            *routes = v;
        }
        per_monitor
    }

    fn midnight(d: Date) -> u32 {
        let secs = d.days_since_epoch().max(0) as u64 * 86_400;
        u32::try_from(secs).unwrap_or(u32::MAX)
    }

    /// The historical uncached attribute builder: one BFS per call.
    fn path_attributes(world: &LeaseWorld, peer: Asn, origin: &Origin) -> Vec<PathAttribute> {
        let segs = match origin {
            Origin::Single(o) => {
                let path = world
                    .topology
                    .path(peer, *o)
                    .unwrap_or_else(|| vec![peer, *o]);
                vec![AsPathSegment::Sequence(path)]
            }
            Origin::Set(set) => vec![
                AsPathSegment::Sequence(vec![peer]),
                AsPathSegment::Set(set.clone()),
            ],
        };
        vec![
            PathAttribute::Origin(OriginType::Igp),
            PathAttribute::AsPath(segs),
            PathAttribute::NextHop(0x0A00_0001),
        ]
    }

    pub fn peer_table(world: &LeaseWorld, model: &VisibilityModel) -> Vec<PeerEntry> {
        monitor_ases(world, model)
            .iter()
            .enumerate()
            .map(|(i, &asn)| PeerEntry {
                bgp_id: 0x0A00_0100 + i as u32,
                ip: 0x0A00_0200 + i as u32,
                asn,
            })
            .collect()
    }

    /// The historical RIB encoder (uncached attributes).
    pub fn encode_rib(
        world: &LeaseWorld,
        config: &ArchiveV2Config,
        peers: &[PeerEntry],
        day: Date,
        state: &[Vec<(Prefix, Origin)>],
    ) -> Result<Bytes, Mrt2Error> {
        let ts = midnight(day);
        let mut records = vec![TimestampedRecord {
            timestamp: ts,
            record: MrtRecord::PeerIndexTable(PeerIndexTable {
                collector_bgp_id: config.collector_bgp_id,
                view_name: "drywells".into(),
                peers: peers.to_vec(),
            }),
        }];
        let mut by_prefix: BTreeMap<Prefix, Vec<(u16, Origin)>> = BTreeMap::new();
        for (pi, routes) in state.iter().enumerate() {
            for (prefix, origin) in routes {
                by_prefix
                    .entry(*prefix)
                    .or_default()
                    .push((pi as u16, origin.clone()));
            }
        }
        for (seq, (prefix, holders)) in by_prefix.into_iter().enumerate() {
            let entries: Vec<RibEntry> = holders
                .into_iter()
                .map(|(pi, origin)| RibEntry {
                    peer_index: pi,
                    originated_time: ts.saturating_sub(86_400),
                    attributes: encode_attributes(&path_attributes(
                        world,
                        peers[pi as usize].asn,
                        &origin,
                    )),
                })
                .collect();
            records.push(TimestampedRecord {
                timestamp: ts,
                record: MrtRecord::RibIpv4Unicast(RibIpv4Unicast {
                    sequence: seq as u32,
                    prefix,
                    entries,
                }),
            });
        }
        encode_file(&records)
    }

    /// The historical update encoder (hash-map diff, uncached
    /// attributes).
    pub fn encode_updates(
        world: &LeaseWorld,
        config: &ArchiveV2Config,
        peers: &[PeerEntry],
        day: Date,
        prev: &[Vec<(Prefix, Origin)>],
        cur: &[Vec<(Prefix, Origin)>],
    ) -> Result<Bytes, Mrt2Error> {
        let base_ts = midnight(day);
        let mut records = Vec::new();
        for (pi, peer) in peers.iter().enumerate() {
            let prev_map: HashMap<Prefix, &Origin> =
                prev[pi].iter().map(|(p, o)| (*p, o)).collect();
            let cur_map: HashMap<Prefix, &Origin> = cur[pi].iter().map(|(p, o)| (*p, o)).collect();
            let mut withdrawn: Vec<Prefix> = prev_map
                .keys()
                .filter(|p| !cur_map.contains_key(p))
                .copied()
                .collect();
            withdrawn.sort();
            let mut announced: BTreeMap<String, (Origin, Vec<Prefix>)> = BTreeMap::new();
            for (p, o) in &cur_map {
                if prev_map.get(p).map(|po| po == o).unwrap_or(false) {
                    continue;
                }
                let e = announced
                    .entry(format!("{o}"))
                    .or_insert_with(|| ((*o).clone(), Vec::new()));
                e.1.push(*p);
            }
            let mut seq = 0u32;
            let mut ts = || {
                let t = base_ts + 60 + seq * 13 + pi as u32;
                seq += 1;
                t
            };
            if !withdrawn.is_empty() {
                records.push(TimestampedRecord {
                    timestamp: ts(),
                    record: MrtRecord::Bgp4mpMessage(Bgp4mpMessage {
                        peer_as: peer.asn,
                        local_as: config.collector_asn,
                        interface: 0,
                        peer_ip: peer.ip,
                        local_ip: 0x0A00_00FE,
                        message: BgpMessage::Update(UpdateMessage::withdraw(withdrawn)),
                    }),
                });
            }
            for (_, (origin, mut prefixes)) in announced {
                prefixes.sort();
                records.push(TimestampedRecord {
                    timestamp: ts(),
                    record: MrtRecord::Bgp4mpMessage(Bgp4mpMessage {
                        peer_as: peer.asn,
                        local_as: config.collector_asn,
                        interface: 0,
                        peer_ip: peer.ip,
                        local_ip: 0x0A00_00FE,
                        message: BgpMessage::Update(UpdateMessage {
                            withdrawn: Vec::new(),
                            attributes: path_attributes(world, peer.asn, &origin),
                            nlri: prefixes,
                        }),
                    }),
                });
            }
        }
        records.sort_by_key(|r| r.timestamp);
        encode_file(&records)
    }
}

#[test]
fn engine_observation_days_match_legacy_oracle_at_every_pool_size() {
    let config = StudyConfig::quick_seeded(47);
    let world = bgpsim::scenario::LeaseWorld::generate(&config.world);
    let span = world.span;

    let oracle: Vec<_> = span
        .iter()
        .map(|d| legacy_oracle::render_day(&world, &config.visibility, d))
        .collect();
    for threads in [1, 2, 4] {
        let engine_days = render_days_with_threads(&world, &config.visibility, span, threads);
        assert_eq!(engine_days.len(), oracle.len());
        for (a, b) in engine_days.iter().zip(&oracle) {
            assert_eq!(
                a, b,
                "observation day {} differs at {threads} threads",
                b.date
            );
        }
    }
}

#[test]
fn engine_per_monitor_state_matches_legacy_oracle() {
    let config = StudyConfig::quick_seeded(48);
    let world = bgpsim::scenario::LeaseWorld::generate(&config.world);
    let engine = bgpsim::engine::RenderEngine::new(&world, &config.visibility);
    // The advanced state reaches each probe day through patches alone;
    // a fresh seed renders it in full. Both must match the oracle.
    let mut advanced = engine.seed_state(world.span.start).expect("in span");
    let mut changes = Vec::new();
    for d in world.span.iter().step_by(7) {
        while advanced.day() < d {
            engine.advance_state(&mut advanced, &mut changes);
        }
        let want = legacy_oracle::per_monitor_routes(&world, &config.visibility, d);
        let seeded = engine.seed_state(d).expect("in span");
        assert_eq!(
            engine.state_routes(&seeded),
            want,
            "seeded state differs on {d}"
        );
        assert_eq!(
            engine.state_routes(&advanced),
            want,
            "advanced state differs on {d}"
        );
    }
}

#[test]
fn engine_rfc6396_archive_bytes_match_legacy_oracle_at_every_pool_size() {
    let config = StudyConfig::quick_seeded(49);
    let world = bgpsim::scenario::LeaseWorld::generate(&config.world);
    let span = world.span;
    let v2cfg = ArchiveV2Config::default();

    // Oracle archive: legacy states, legacy (uncached) encoders.
    let days: Vec<_> = span.iter().collect();
    let states: Vec<_> = days
        .iter()
        .map(|&d| legacy_oracle::per_monitor_routes(&world, &config.visibility, d))
        .collect();
    let peers = legacy_oracle::peer_table(&world, &config.visibility);
    let rib_every = v2cfg.rib_every_days.max(1);

    for threads in [1, 2, 4] {
        let archive = CollectorArchiveV2::generate_with_threads(
            &world,
            &config.visibility,
            span,
            &v2cfg,
            threads,
        )
        .expect("archive encodes");
        assert_eq!(archive.peers(), &peers[..]);
        // Exactly the oracle's files: a RIB every `rib_every` days, an
        // update file every day after the first — nothing extra.
        let want_ribs: Vec<_> = days.iter().copied().step_by(rib_every).collect();
        assert_eq!(
            archive.rib_dates().collect::<Vec<_>>(),
            want_ribs,
            "RIB dates at {threads} threads"
        );
        assert_eq!(
            archive.update_dates().collect::<Vec<_>>(),
            days[1..],
            "update dates at {threads} threads"
        );
        for (i, &d) in days.iter().enumerate() {
            if i % rib_every == 0 {
                let want = legacy_oracle::encode_rib(&world, &v2cfg, &peers, d, &states[i])
                    .expect("oracle rib encodes");
                assert_eq!(
                    archive.rib_bytes(d),
                    Some(&want),
                    "RIB bytes differ on {d} at {threads} threads"
                );
            }
            if i > 0 {
                let want = legacy_oracle::encode_updates(
                    &world,
                    &v2cfg,
                    &peers,
                    d,
                    &states[i - 1],
                    &states[i],
                )
                .expect("oracle updates encode");
                assert_eq!(
                    archive.update_bytes(d),
                    Some(&want),
                    "update bytes differ on {d} at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn fig6_outputs_match_legacy_oracle_rendering_at_every_pool_size() {
    let config = StudyConfig::quick_seeded(50);
    let world = bgpsim::scenario::LeaseWorld::generate(&config.world);
    let oracle: Vec<_> = world
        .span
        .iter()
        .map(|d| legacy_oracle::render_day(&world, &config.visibility, d))
        .collect();

    let mut outputs = Vec::new();
    for threads in ["1", "2", "4"] {
        std::env::set_var("DRYWELLS_THREADS", threads);
        let study = build_bgp_study(&config);
        // The study's days are exactly the oracle's — so every figure
        // derived from them is a pure function of identical inputs.
        assert_eq!(study.days, oracle, "study days differ at {threads} threads");
        let fig = fig6::run_with_study(&study);
        outputs.push((fig.rendered.clone(), csv::fig6_csv(&fig)));
    }
    std::env::remove_var("DRYWELLS_THREADS");
    for o in &outputs[1..] {
        assert_eq!(o, &outputs[0], "fig6 text/CSV differ across pool sizes");
    }
}

// ---------------------------------------------------------------------------
// Incremental-vs-full parity: the chunked archive encoder, the
// persistent observation sweep, and the sweep-fed delegation pipeline
// must be invisible — every byte identical to a from-scratch
// reconstruction, at every worker count and for any chunking.
// ---------------------------------------------------------------------------

/// One kind of archive file, by date.
type DatedFiles = Vec<(nettypes::date::Date, bytes::Bytes)>;

/// Every RIB and update file of an archive, for whole-archive equality
/// checks (dates and bytes both directions).
fn archive_files(a: &CollectorArchiveV2) -> (DatedFiles, DatedFiles) {
    (
        a.rib_dates()
            .map(|d| (d, a.rib_bytes(d).expect("listed rib").clone()))
            .collect(),
        a.update_dates()
            .map(|d| (d, a.update_bytes(d).expect("listed update").clone()))
            .collect(),
    )
}

/// The quick seed-48 world's clean archive, shared across the fault
/// property's generated cases.
fn fault_fixture() -> &'static CollectorArchiveV2 {
    use std::sync::OnceLock;
    static FIXTURE: OnceLock<CollectorArchiveV2> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let config = StudyConfig::quick_seeded(48);
        let world = bgpsim::scenario::LeaseWorld::generate(&config.world);
        CollectorArchiveV2::generate(
            &world,
            &config.visibility,
            world.span,
            &ArchiveV2Config::default(),
        )
        .expect("archive encodes")
    })
}

/// The first `permille`/1000 of a file's bytes.
fn truncated(b: &bytes::Bytes, permille: usize) -> bytes::Bytes {
    bytes::Bytes::copy_from_slice(&b[..b.len() * permille / 1000])
}

proptest::proptest! {
    /// The persistent sweep serves what a from-scratch reconstruction
    /// serves — provenance, observation surface and errors — on a
    /// damaged archive (dropped and truncated update files and RIBs)
    /// and in any serve order: mostly successor days, with jumps back
    /// and forward. A surface kept only from each day's `changed`
    /// prefixes and `routes_for` stays equal to the full surface.
    #[test]
    fn sweep_observation_days_match_day_view_across_faults(
        drop_updates in proptest::collection::vec(0usize..1000, 0..4),
        drop_ribs in proptest::collection::vec(0usize..1000, 0..3),
        cut_updates in proptest::collection::vec((0usize..1000, 0usize..1000), 0..3),
        cut_ribs in proptest::collection::vec((0usize..1000, 0usize..1000), 0..3),
        moves in proptest::collection::vec((0u8..10, 0usize..1000), 25..50),
    ) {
        use bgpsim::updates::ArchiveError;
        use nettypes::asn::Origin;
        use nettypes::prefix::Prefix;
        use std::collections::{BTreeMap, HashMap};

        let mut archive = fault_fixture().clone();
        let updates: Vec<_> = archive.update_dates().collect();
        let ribs: Vec<_> = archive.rib_dates().collect();
        let pick = |dates: &[nettypes::date::Date], i: usize| dates[i * dates.len() / 1000];
        for i in drop_updates {
            archive.drop_update_file(pick(&updates, i));
        }
        for i in drop_ribs {
            archive.drop_rib(pick(&ribs, i));
        }
        for (i, permille) in cut_updates {
            let d = pick(&updates, i);
            if let Some(b) = archive.update_bytes(d).cloned() {
                archive.corrupt_update_file(d, truncated(&b, permille));
            }
        }
        for (i, permille) in cut_ribs {
            let d = pick(&ribs, i);
            if let Some(b) = archive.rib_bytes(d).cloned() {
                archive.corrupt_rib(d, truncated(&b, permille));
            }
        }

        // The span, one day either side of it.
        let days: Vec<_> = std::iter::successors(Some(updates[0] - 2), |d| Some(d.succ()))
            .take(updates.len() + 3)
            .collect();
        let mut oracle: HashMap<_, Result<(Provenance, ObservationDay), ArchiveError>> =
            HashMap::new();
        let mut sweep = archive.sweep();
        let mut surface: BTreeMap<Prefix, Vec<(Origin, u16)>> = BTreeMap::new();
        let mut at: Option<usize> = None;
        for (kind, target) in moves {
            let i = match at {
                Some(i) if kind < 8 && i + 1 < days.len() => i + 1,
                _ => target * days.len() / 1000,
            };
            at = Some(i);
            let d = days[i];
            let want = oracle
                .entry(d)
                .or_insert_with(|| {
                    replay_oracle::day(&archive, d).map(|v| (v.provenance, v.observation_day(d)))
                })
                .clone();
            match (sweep.advance(d), want) {
                (Ok(delta), Ok((provenance, day))) => {
                    proptest::prop_assert_eq!(delta.provenance, provenance, "provenance on {}", d);
                    let served = sweep.observation_day(d);
                    proptest::prop_assert!(served == day, "surface differs from the oracle on {}", d);
                    for p in delta.changed {
                        let rows: Vec<_> = sweep.routes_for(p).map(|(o, n)| (o.clone(), n)).collect();
                        if rows.is_empty() {
                            surface.remove(&p);
                        } else {
                            surface.insert(p, rows);
                        }
                    }
                    let kept: Vec<_> = surface
                        .iter()
                        .flat_map(|(p, rows)| rows.iter().map(move |(o, n)| (*p, o, *n)))
                        .collect();
                    let full: Vec<_> =
                        served.routes.iter().map(|r| (r.prefix, &r.origin, r.monitors_seen)).collect();
                    proptest::prop_assert!(kept == full, "changed-prefix surface drifts on {}", d);
                }
                (Err(got), Err(want)) => proptest::prop_assert_eq!(got, want, "error on {}", d),
                (got, want) => proptest::prop_assert!(
                    false,
                    "sweep and oracle disagree on {}: {:?} vs {:?}",
                    d,
                    got.map(|delta| delta.provenance),
                    want.map(|(provenance, _)| provenance)
                ),
            }
        }
    }
}

/// The pipeline oracle for an archive: every day reconstructed from
/// scratch, as pre-rendered days, plus the days the forward fallback
/// served.
fn replay_oracle_days(
    archive: &CollectorArchiveV2,
    span: nettypes::date::DateRange,
) -> (Vec<ObservationDay>, Vec<nettypes::date::Date>) {
    let mut days = Vec::new();
    let mut fallback = Vec::new();
    for d in span.iter() {
        let view = replay_oracle::day(archive, d).expect("every oracle day reconstructs");
        if let Provenance::FallbackRib { .. } = view.provenance {
            fallback.push(d);
        }
        days.push(view.observation_day(d));
    }
    (days, fallback)
}

#[test]
fn incremental_pipeline_matches_full_recompute_at_every_pool_size() {
    let config = StudyConfig::quick_seeded(49);
    let world = bgpsim::scenario::LeaseWorld::generate(&config.world);
    let mut archive = CollectorArchiveV2::generate(
        &world,
        &config.visibility,
        world.span,
        &ArchiveV2Config::default(),
    )
    .expect("archive encodes");
    // A dropped update file puts fallback days in play too.
    let days: Vec<_> = world.span.iter().collect();
    archive.drop_update_file(days[days.len() / 3]);

    let cfg = InferenceConfig::baseline();
    let (oracle_days, oracle_fallback) = replay_oracle_days(&archive, world.span);
    assert!(
        !oracle_fallback.is_empty(),
        "the dropped file must cause fallback days"
    );
    let oracle = run_pipeline(PipelineInput::Days(&oracle_days), world.span, &cfg, None);
    for threads in ["1", "2", "4"] {
        std::env::set_var("DRYWELLS_THREADS", threads);
        let inc = run_pipeline(PipelineInput::MrtArchive(&archive), world.span, &cfg, None);
        assert_eq!(
            inc.days, oracle.days,
            "delegations differ at {threads} threads"
        );
        assert_eq!(inc.fallback_days, oracle_fallback);
        assert_eq!(inc.missing_days, oracle.missing_days);
        assert_eq!(inc.intra_org_removed, oracle.intra_org_removed);
    }
    std::env::remove_var("DRYWELLS_THREADS");
}

#[test]
fn fig6_csv_identical_between_incremental_and_full_recompute() {
    // End to end over the decoded-archive surface: figure text and CSV
    // from the sweep-fed pipeline must match the per-day from-scratch
    // reconstruction byte for byte.
    let config = StudyConfig::quick_seeded(51);
    let study = build_bgp_study(&config);
    let archive = CollectorArchiveV2::generate(
        &study.world,
        &config.visibility,
        study.world.span,
        &ArchiveV2Config::default(),
    )
    .expect("archive encodes");

    let (oracle_days, _) = replay_oracle_days(&archive, study.world.span);
    let full = fig6::run_with_inputs(&study, || PipelineInput::Days(&oracle_days));
    let inc = fig6::run_with_inputs(&study, || PipelineInput::MrtArchive(&archive));
    assert_eq!(inc.rendered, full.rendered, "figure text differs");
    assert_eq!(
        csv::fig6_csv(&inc),
        csv::fig6_csv(&full),
        "fig6 CSV differs"
    );
}

/// World + single-chunk archive shared across the chunk-boundary
/// property's generated cases (the world build dominates; the property varies
/// only the chunking).
fn chunk_fixture() -> &'static (
    StudyConfig,
    bgpsim::scenario::LeaseWorld,
    CollectorArchiveV2,
) {
    use std::sync::OnceLock;
    static FIXTURE: OnceLock<(
        StudyConfig,
        bgpsim::scenario::LeaseWorld,
        CollectorArchiveV2,
    )> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let config = StudyConfig::quick_seeded(52);
        let world = bgpsim::scenario::LeaseWorld::generate(&config.world);
        let oracle = CollectorArchiveV2::generate_with_threads(
            &world,
            &config.visibility,
            world.span,
            &ArchiveV2Config::default(),
            1,
        )
        .expect("oracle encodes");
        (config, world, oracle)
    })
}

proptest::proptest! {
    #[test]
    fn prop_chunk_boundaries_never_change_archive_bytes(
        raw_cuts in proptest::collection::vec(proptest::prelude::any::<u16>(), 0..5),
    ) {
        let (config, world, oracle) = chunk_fixture();
        let n = world.span.iter().count();
        let mut cuts: Vec<usize> = raw_cuts.iter().map(|c| *c as usize % (n + 1)).collect();
        cuts.push(0);
        cuts.push(n);
        cuts.sort_unstable();
        cuts.dedup();
        let ranges: Vec<std::ops::Range<usize>> =
            cuts.windows(2).map(|w| w[0]..w[1]).collect();
        let chunked = CollectorArchiveV2::generate_with_chunks(
            world,
            &config.visibility,
            world.span,
            &ArchiveV2Config::default(),
            &ranges,
        )
        .expect("chunked path encodes");
        proptest::prop_assert_eq!(
            archive_files(&chunked),
            archive_files(oracle),
            "archive bytes changed under chunking {:?}",
            ranges
        );
    }
}
