//! The `archive` workload: the RFC 6396 codec in both directions.
//!
//! Set-up builds the full-scale world. One timed round then writes the
//! MRT archive (`CollectorArchiveV2::generate`), replays it through the
//! delegation pipeline, runs one full `kind=announce|withdraw` scan and
//! a fixed, seeded set of `prefix=` point queries, plus one 7-day
//! `days=` window query that prunes all but a few files. The first
//! round is a warm-up and is not timed. `op_ms` is the CPU time of the
//! fastest timed round (see `main.rs` for why CPU time).

use crate::expected;
use crate::proc;
use crate::stats::{self, fnv1a, Rng, FNV_OFFSET};
use crate::trace::{self, Tracer};
use crate::{Args, Outcome};
use bgpsim::query::{self, Filter, QueryFile, QueryOptions, QueryOutput};
use bgpsim::scenario::LeaseWorld;
use bgpsim::updates::{ArchiveV2Config, CollectorArchiveV2};
use delegation::config::InferenceConfig;
use delegation::pipeline::{run_pipeline, PipelineInput};
use drywells::StudyConfig;
use std::time::Instant;

/// Point queries per round.
const POINTS: usize = 2;
/// Days in the window query.
const WINDOW_DAYS: i64 = 7;
/// Fewest timed rounds per run, after the warm-up.
const MIN_ROUNDS: usize = 3;
const SCAN_FILTER: &str = "kind=announce|withdraw";

pub fn setup(seed: u64) -> (StudyConfig, LeaseWorld) {
    let cfg = StudyConfig::full_seeded(seed);
    let world = LeaseWorld::generate(&cfg.world);
    (cfg, world)
}

/// What a round's outputs must repeat exactly in every round.
#[derive(Clone, Debug, PartialEq)]
pub struct Counts {
    pub archive_digest: u64,
    pub archive_bytes: usize,
    pub archive_files: usize,
    pub replay_days: usize,
    pub scan_elems: usize,
    pub scan_rows: usize,
    pub point_rows: Vec<usize>,
    pub window_rows: usize,
}

impl Counts {
    /// What must repeat for a seed, in the form of `expected.txt`.
    pub fn record(&self) -> String {
        let points: Vec<String> = self.point_rows.iter().map(usize::to_string).collect();
        format!(
            "digest={:016x} bytes={} files={} replay_days={} scan_elems={} scan_rows={} point_rows={} window_rows={}",
            self.archive_digest,
            self.archive_bytes,
            self.archive_files,
            self.replay_days,
            self.scan_elems,
            self.scan_rows,
            points.join(","),
            self.window_rows
        )
    }
}

/// The inputs every round queries with, drawn once from the seed and
/// the first round's scan.
struct Plan {
    points: Vec<String>,
    window: String,
}

fn options(filter: &str) -> Result<QueryOptions, String> {
    Ok(QueryOptions {
        filter: Filter::parse(filter).map_err(|e| format!("filter {filter:?}: {e}"))?,
        threads: 1,
        ..QueryOptions::default()
    })
}

fn run_query(files: &[QueryFile], filter: &str) -> Result<QueryOutput, String> {
    query::run_query(files, &options(filter)?).map_err(|e| format!("query {filter:?}: {e}"))
}

/// `(day, prefix)` of each CSV row of a query body.
fn rows(body: &str) -> impl Iterator<Item = (&str, &str)> {
    body.lines().skip(1).filter_map(|l| {
        let mut f = l.split(',');
        let day = f.next()?;
        let _kind = f.next()?;
        Some((day, f.next()?))
    })
}

/// The digest of an archive's files, RIBs then updates, in date order.
pub fn digest(files: &[QueryFile]) -> u64 {
    files.iter().fold(FNV_OFFSET, |h, f| fnv1a(&f.bytes, h))
}

/// Cross-check a query's accounting against its own body.
fn check_body(what: &str, out: &QueryOutput) -> Result<(), String> {
    let lines = out.body.lines().count().saturating_sub(1);
    if lines != out.stats.rows_matched || lines != out.stats.rows_emitted {
        return Err(format!(
            "{what}: body has {lines} rows but {} matched, {} emitted",
            out.stats.rows_matched, out.stats.rows_emitted
        ));
    }
    Ok(())
}

/// One round. Returns the output counts and the CPU seconds its library
/// calls took (the checks are not timed).
fn round(
    cfg: &StudyConfig,
    world: &LeaseWorld,
    plan: &mut Option<Plan>,
    rng: &mut Rng,
    tr: &mut Tracer,
) -> Result<(Counts, f64), String> {
    let mut busy = 0.0;
    let mut time = |tr: &mut Tracer,
                    name: &'static str,
                    f: &mut dyn FnMut(&mut Tracer) -> Result<(), String>| {
        let cpu0 = stats::thread_cpu_s()?;
        let r = tr.span(name, |tr| f(tr));
        busy += stats::thread_cpu_s()? - cpu0;
        r
    };

    let mut archive = None;
    time(tr, "bgpsim.encode_ms", &mut |_| {
        let a = CollectorArchiveV2::generate(
            world,
            &cfg.visibility,
            world.span,
            &ArchiveV2Config::default(),
        )
        .map_err(|e| format!("archive generation: {e}"))?;
        archive = Some(a);
        Ok(())
    })?;
    let archive = archive.ok_or("archive generation returned nothing")?;

    let mut replay_days = 0;
    time(tr, "delegation.replay_ms", &mut |_| {
        let r = run_pipeline(
            PipelineInput::MrtArchive(&archive),
            world.span,
            &InferenceConfig::baseline(),
            None,
        );
        replay_days = r.days.len();
        Ok(())
    })?;

    let mut files = Vec::new();
    time(tr, "bgpsim.query.files_ms", &mut |_| {
        files = query::files_from_archive_v2(&archive);
        Ok(())
    })?;

    let mut scan = None;
    time(tr, "bgpsim.query.scan_ms", &mut |_| {
        scan = Some(run_query(&files, SCAN_FILTER)?);
        Ok(())
    })?;
    let scan = scan.ok_or("scan returned nothing")?;

    if plan.is_none() {
        *plan = Some(draw_plan(&scan.body, world, rng)?);
    }
    let plan = plan.as_ref().ok_or("no query plan")?;

    let mut points = Vec::with_capacity(plan.points.len());
    for p in &plan.points {
        let filter = format!("prefix={p} {SCAN_FILTER}");
        time(tr, "bgpsim.query.point_ms", &mut |_| {
            points.push(run_query(&files, &filter)?);
            Ok(())
        })?;
    }
    let mut window = None;
    let window_filter = format!("days={} {SCAN_FILTER}", plan.window);
    time(tr, "bgpsim.query.window_ms", &mut |_| {
        window = Some(run_query(&files, &window_filter)?);
        Ok(())
    })?;
    let window = window.ok_or("window query returned nothing")?;

    // Checks, untimed.
    let file_bytes: usize = files.iter().map(|f| f.bytes.len()).sum();
    if file_bytes != archive.total_bytes() {
        return Err(format!(
            "archive files hold {file_bytes} bytes, archive reports {}",
            archive.total_bytes()
        ));
    }
    if replay_days as i64 != world.span.num_days() {
        return Err(format!(
            "replay returned {replay_days} days for a {}-day span",
            world.span.num_days()
        ));
    }
    check_body("scan", &scan)?;
    for (p, out) in plan.points.iter().zip(&points) {
        check_body("point query", out)?;
        let want = rows(&scan.body).filter(|(_, q)| q == p).count();
        if out.stats.rows_matched != want || rows(&out.body).any(|(_, q)| q != p) {
            return Err(format!(
                "point query {p}: {} rows, the scan has {want}",
                out.stats.rows_matched
            ));
        }
    }
    check_body("window query", &window)?;
    let (lo, hi) = plan.window.split_once("..").ok_or("window without ..")?;
    let want = rows(&scan.body)
        .filter(|(d, _)| *d >= lo && *d <= hi)
        .count();
    if window.stats.rows_matched != want {
        return Err(format!(
            "window query: {} rows, the scan has {want}",
            window.stats.rows_matched
        ));
    }

    tr.value("bgpsim.archive_bytes", archive.total_bytes() as f64);
    tr.value("bgpsim.archive_files", files.len() as f64);
    tr.value("delegation.replay_days", replay_days as f64);
    for (class, s) in [
        ("scan", &scan.stats),
        ("point", &points[0].stats),
        ("window", &window.stats),
    ] {
        tr.value(
            &format!("bgpsim.query.{class}.elems_scanned"),
            s.elems_scanned as f64,
        );
        tr.value(
            &format!("bgpsim.query.{class}.rows_matched"),
            s.rows_matched as f64,
        );
        tr.value(
            &format!("bgpsim.query.{class}.files_pruned"),
            s.files_pruned as f64,
        );
    }
    let (m, e) = points.iter().fold((0, 0), |(m, e), o| {
        (m + o.stats.rows_matched, e + o.stats.elems_scanned)
    });
    tr.value("bgpsim.query.point_match_ratio", m as f64 / e.max(1) as f64);

    let counts = Counts {
        archive_digest: digest(&files),
        archive_bytes: archive.total_bytes(),
        archive_files: files.len(),
        replay_days,
        scan_elems: scan.stats.elems_scanned,
        scan_rows: scan.stats.rows_matched,
        point_rows: points.iter().map(|o| o.stats.rows_matched).collect(),
        window_rows: window.stats.rows_matched,
    };
    Ok((counts, busy))
}

/// Draw the point prefixes (distinct prefixes present in the scan) and
/// the window's first day from the seed.
fn draw_plan(scan_body: &str, world: &LeaseWorld, rng: &mut Rng) -> Result<Plan, String> {
    let mut prefixes: Vec<&str> = rows(scan_body).map(|(_, p)| p).collect();
    prefixes.sort_unstable();
    prefixes.dedup();
    if prefixes.is_empty() {
        return Err("the scan returned no rows to draw point prefixes from".into());
    }
    let points = (0..POINTS)
        .map(|_| prefixes[rng.below(prefixes.len() as u64) as usize].to_string())
        .collect();
    let span_days = world.span.num_days();
    let first = world.span.start + rng.below((span_days - WINDOW_DAYS).max(1) as u64) as i64;
    let window = format!("{first}..{}", first + (WINDOW_DAYS - 1));
    Ok(Plan { points, window })
}

/// A round's counts must repeat the first round's exactly. The first
/// round is checked against the seed's pinned record, if `expected.txt`
/// lists the seed.
fn check(seed: u64, reference: &mut Option<Counts>, counts: Counts) -> Result<(), String> {
    match reference {
        Some(r) if *r != counts => Err(format!("counts {counts:?} != {r:?}")),
        Some(_) => Ok(()),
        None => {
            expected::check("archive", seed, &counts.record())?;
            *reference = Some(counts);
            Ok(())
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setups = vec![proc::setup_sample(args)?];
    let mut out = Outcome::default();
    let mut tr = Tracer::new(args.trace);
    let (cfg, world) = tr.span("bgpsim.world_ms", |_| setup(args.seed));
    let mut rng = Rng::new(args.seed);
    let mut plan = None;
    let mut reference: Option<Counts> = None;
    // CPU seconds of each timed round, untraced [0] and traced [1].
    let mut rounds: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let start = Instant::now();
    let mut walls: Vec<f64> = Vec::new();
    let min_rounds = if args.trace { 2 } else { MIN_ROUNDS };
    for i in 0.. {
        let timed = i > 0;
        let next = start.elapsed().as_secs_f64() + stats::median(&walls);
        if i > min_rounds && next > args.seconds {
            break;
        }
        // A traced run alternates untraced and traced rounds; the
        // warm-up is untraced.
        let traced = args.trace && i % 2 == 0 && timed;
        tr.set_on(traced);
        tr.set_id(i as u64);
        let t0 = Instant::now();
        if timed {
            out.attempted += 1;
        }
        let result = tr.span("archive.round", |tr| {
            round(&cfg, &world, &mut plan, &mut rng, tr)
        });
        walls.push(t0.elapsed().as_secs_f64());
        setups.push(proc::setup_sample(args)?);
        match result.and_then(|(counts, secs)| {
            check(args.seed, &mut reference, counts)?;
            Ok(secs)
        }) {
            Ok(secs) if timed => rounds[usize::from(traced)].push(secs),
            Ok(_) => {}
            Err(e) => {
                out.fail(1, format!("round {i}: {e}"));
                if !timed {
                    out.attempted += 1;
                }
            }
        }
    }

    if args.trace {
        let (plain, traced) = (stats::min(&rounds[0]), stats::min(&rounds[1]));
        tr.set_on(true);
        tr.value("obs.trace_overhead_pct", 100.0 * (traced - plain) / plain);
        tr.write_jsonl(&trace::out_path(&args.workload, args.seed))?;
        for (name, value, unit) in tr.per_layer() {
            out.metric(name, value, unit);
        }
    } else {
        let best = stats::min(&rounds[0]);
        out.metric("setup_s", stats::median(&setups), "s");
        out.metric("peak_rss_mb", stats::peak_rss_mb()?, "MiB");
        out.metric("op_ms", best * 1e3, "ms");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_repeat_and_a_flipped_byte_changes_the_digest() {
        let cfg = StudyConfig::quick_seeded(7);
        let world = LeaseWorld::generate(&cfg.world);
        let (mut plan, mut rng, mut tr) = (None, Rng::new(7), Tracer::new(false));
        let (a, _) = round(&cfg, &world, &mut plan, &mut rng, &mut tr).expect("first round");
        let (b, _) = round(&cfg, &world, &mut plan, &mut rng, &mut tr).expect("second round");
        assert_eq!(a, b);
        assert!(a.scan_rows > 0 && a.point_rows.iter().all(|&n| n > 0));
        // A seed `expected.txt` does not list: only repetition is checked.
        let seed = u64::MAX;
        let mut reference = None;
        assert!(check(seed, &mut reference, a.clone()).is_ok());
        assert!(check(seed, &mut reference, b).is_ok());
        let wrong = Counts {
            scan_rows: a.scan_rows + 1,
            ..a.clone()
        };
        assert!(check(seed, &mut reference, wrong.clone()).is_err());
        // Seed 2020 is pinned, and its record is not this world's.
        assert!(check(2020, &mut None, wrong).is_err());

        let archive = CollectorArchiveV2::generate(
            &world,
            &cfg.visibility,
            world.span,
            &ArchiveV2Config::default(),
        )
        .expect("archive");
        let mut files = query::files_from_archive_v2(&archive);
        assert_eq!(digest(&files), a.archive_digest);
        let (file, at) = (files.len() / 2, files[files.len() / 2].bytes.len() / 2);
        let mut flipped = files[file].bytes.to_vec();
        flipped[at] ^= 0x01;
        files[file].bytes = bytes::Bytes::from(flipped);
        assert_ne!(digest(&files), a.archive_digest);
    }
}
