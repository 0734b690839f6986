//! The `repro bench` stage-timing harness.
//!
//! Times the named pipeline stages — world build, day rendering, MRT
//! archive encoding, the delegation pipeline over that archive, a
//! query-engine scan of the same archive, and the fig6 artifact
//! end-to-end — by wrapping each in a uniquely-named
//! `obs` span and reading the wall time back from a
//! [`obs::ProfileCollector`]. All wall-clock reads stay inside `obs`;
//! this module only orchestrates.
//!
//! The report serializes to a small JSON document (`BENCH_PR10.json`
//! and its predecessors are the perf trajectory) so CI and later
//! changes have a machine-readable record, and [`check_regression`]
//! compares a fresh run against a committed quick-scale baseline
//! (`BENCH_QUICK_BASELINE.json`) with a generous ratio bound (catches
//! asymptotic regressions, not timer jitter).

use crate::experiments;
use crate::study::StudyConfig;
use bgpsim::observe::render_days;
use bgpsim::scenario::LeaseWorld;
use bgpsim::updates::{ArchiveV2Config, CollectorArchiveV2};
use delegation::config::InferenceConfig;
use delegation::pipeline::{run_pipeline, PipelineInput};
use std::sync::Arc;
use std::time::Duration;

/// The timed stages: `(json_key, span_name)`. The JSON field is
/// `<json_key>_ms`.
pub const STAGES: &[(&str, &str)] = &[
    ("world_build", "bench_world_build"),
    ("render_days", "bench_render_days"),
    ("mrt_encode", "bench_mrt_encode"),
    ("delegation_pipeline", "bench_delegation_pipeline"),
    ("query_scan", "bench_query_scan"),
    ("fig6_end_to_end", "bench_fig6_end_to_end"),
    ("lint_scan", "bench_lint_scan"),
];

/// Stage timings for one scale (quick or full).
pub struct ScaleReport {
    /// `"quick"` or `"full"`.
    pub scale: &'static str,
    /// `(json_key, wall)` in [`STAGES`] order.
    pub stages: Vec<(&'static str, Duration)>,
}

/// The flight-recorder overhead measurement: quick-scale fig6 with
/// the always-on ring actively recording vs paused.
pub struct ObsOverhead {
    /// Best-of-N fig6 wall with the recorder recording.
    pub active_ms: f64,
    /// Best-of-N fig6 wall with the recorder paused.
    pub paused_ms: f64,
    /// `(active - paused) / paused`, clamped at 0, as a percentage.
    pub overhead_pct: f64,
}

/// The whole bench run: per-scale stage timings plus the run's
/// parameters.
pub struct BenchReport {
    /// World/visibility seed the stages ran with.
    pub seed: u64,
    /// Worker-pool width the stages ran with.
    pub threads: usize,
    /// One entry per benched scale, quick first.
    pub scales: Vec<ScaleReport>,
    /// Flight-recorder overhead on quick-scale fig6.
    pub obs_overhead: ObsOverhead,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run the timed stages once at `config`'s scale and collect
/// per-stage wall times.
fn run_scale(config: &StudyConfig, scale: &'static str) -> Result<ScaleReport, String> {
    let collector = Arc::new(obs::ProfileCollector::new());
    let guard = obs::subscribe(collector.clone());

    let world = {
        let _s = obs::span!("bench_world_build");
        LeaseWorld::generate(&config.world)
    };
    let days = {
        let _s = obs::span!("bench_render_days");
        render_days(&world, &config.visibility, world.span)
    };
    let archive = {
        let _s = obs::span!("bench_mrt_encode");
        CollectorArchiveV2::generate(
            &world,
            &config.visibility,
            world.span,
            &ArchiveV2Config::default(),
        )
        .map_err(|e| format!("bench: MRT archive encoding failed: {e}"))?
    };
    {
        let _s = obs::span!("bench_delegation_pipeline");
        let result = run_pipeline(
            PipelineInput::MrtArchive(&archive),
            world.span,
            &InferenceConfig::baseline(),
            None,
        );
        if result.days.len() != days.len() {
            return Err(format!(
                "bench: pipeline returned {} day(s) for a {}-day span",
                result.days.len(),
                days.len()
            ));
        }
    }
    {
        let _s = obs::span!("bench_query_scan");
        let files = bgpsim::query::files_from_archive_v2(&archive);
        let opts = bgpsim::query::QueryOptions {
            filter: bgpsim::query::Filter::parse("kind=announce|withdraw")
                .map_err(|e| format!("bench: query filter failed to parse: {e}"))?,
            ..bgpsim::query::QueryOptions::default()
        };
        let out = bgpsim::query::run_query(&files, &opts)
            .map_err(|e| format!("bench: query scan failed: {e}"))?;
        if out.stats.rows_emitted == 0 {
            return Err("bench: query scan matched no rows".into());
        }
    }
    {
        let _s = obs::span!("bench_fig6_end_to_end");
        let fig = experiments::fig6::run(config);
        if fig.rendered.is_empty() {
            return Err("bench: fig6 rendered nothing".into());
        }
    }
    {
        // The static-analysis gate is part of every CI run, so its
        // wall time is a perf budget like any pipeline stage.
        let _s = obs::span!("bench_lint_scan");
        let cwd = std::env::current_dir()
            .map_err(|e| format!("bench: cannot read cwd for the lint scan: {e}"))?;
        let root = lint::find_workspace_root(&cwd)
            .ok_or("bench: no [workspace] Cargo.toml above cwd for the lint scan")?;
        let findings =
            lint::collect_findings(&root).map_err(|e| format!("bench: lint scan failed: {e}"))?;
        // An empty workspace scan means the roots moved, not cleanliness.
        if findings.is_empty() && lint::collect_sources(&root).map_or(true, |s| s.is_empty()) {
            return Err("bench: lint scan saw no source files".into());
        }
    }

    drop(guard);
    let mut stages = Vec::with_capacity(STAGES.len());
    for &(key, span_name) in STAGES {
        let wall = collector
            .stage_wall(span_name)
            .ok_or_else(|| format!("bench: stage span {span_name:?} never closed"))?;
        stages.push((key, wall));
    }
    Ok(ScaleReport { scale, stages })
}

/// Measure the flight recorder's cost: quick-scale fig6 with the ring
/// actively recording vs paused, interleaved pairs, best-of-N per arm
/// (min is the right statistic for a noisy 1-CPU container — noise
/// only ever adds time). The recorder is re-enabled before returning,
/// whatever happens — pausing is strictly a measurement tool.
fn measure_obs_overhead(config: &StudyConfig) -> ObsOverhead {
    const ROUNDS: usize = 5;
    let recorder = obs::flight::global();
    // A study keeps the inference fig6 reads, so every timed run gets
    // a fresh one, built outside the timed region: both arms run the
    // walk and extension (iv), as fig6 does on a study's first use.
    let fig6_wall = || {
        let study = experiments::build_bgp_study(config);
        obs::time(|| experiments::fig6::run_with_study(&study)).1
    };
    // Warm-up run, so neither arm pays first-touch costs.
    fig6_wall();
    let mut active = Duration::MAX;
    let mut paused = Duration::MAX;
    for _ in 0..ROUNDS {
        recorder.set_paused(true);
        paused = paused.min(fig6_wall());
        recorder.set_paused(false);
        active = active.min(fig6_wall());
    }
    recorder.set_paused(false);
    let active_ms = ms(active);
    let paused_ms = ms(paused);
    let overhead_pct = if paused_ms > 0.0 {
        (100.0 * (active_ms - paused_ms) / paused_ms).max(0.0)
    } else {
        0.0
    };
    ObsOverhead {
        active_ms,
        paused_ms,
        overhead_pct,
    }
}

/// Run the bench at quick scale — and, when `full` is set, at the
/// paper-scale window too.
pub fn run(seed: u64, full: bool) -> Result<BenchReport, String> {
    let mut scales = vec![run_scale(&StudyConfig::quick_seeded(seed), "quick")?];
    if full {
        scales.push(run_scale(&StudyConfig::full_seeded(seed), "full")?);
    }
    let obs_overhead = measure_obs_overhead(&StudyConfig::quick_seeded(seed));
    Ok(BenchReport {
        seed,
        threads: bgpsim::par::num_threads(),
        scales,
        obs_overhead,
    })
}

impl BenchReport {
    /// Human-readable table: one block per scale, one line per stage.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "bench: seed {}, {} worker(s)\n",
            self.seed, self.threads
        ));
        for scale in &self.scales {
            out.push_str(&format!("\n[{}]\n", scale.scale));
            for (key, wall) in &scale.stages {
                out.push_str(&format!("  {key:<22} {:>12.3} ms\n", ms(*wall)));
            }
        }
        out.push_str(&format!(
            "\n[obs_overhead]\n  flight recorder on quick fig6: active {:.3} ms vs paused {:.3} ms ({:.2}%)\n",
            self.obs_overhead.active_ms,
            self.obs_overhead.paused_ms,
            self.obs_overhead.overhead_pct,
        ));
        out
    }

    /// The machine-readable `BENCH_PR10.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"drywells-bench-v1\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str("  \"scales\": {\n");
        for (i, scale) in self.scales.iter().enumerate() {
            out.push_str(&format!("    \"{}\": {{\n", scale.scale));
            for (j, (key, wall)) in scale.stages.iter().enumerate() {
                let comma = if j + 1 == scale.stages.len() { "" } else { "," };
                out.push_str(&format!("      \"{key}_ms\": {:.3}{comma}\n", ms(*wall)));
            }
            let comma = if i + 1 == self.scales.len() { "" } else { "," };
            out.push_str(&format!("    }}{comma}\n"));
        }
        out.push_str("  },\n");
        out.push_str("  \"obs_overhead\": {\n");
        out.push_str(&format!(
            "    \"active_ms\": {:.3},\n",
            self.obs_overhead.active_ms
        ));
        out.push_str(&format!(
            "    \"paused_ms\": {:.3},\n",
            self.obs_overhead.paused_ms
        ));
        out.push_str(&format!(
            "    \"overhead_pct\": {:.3}\n",
            self.obs_overhead.overhead_pct
        ));
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }
}

/// Guard the flight recorder's measured overhead: fails when the
/// active arm exceeds the paused arm by more than `max_pct` percent
/// **and** more than 1 ms absolute — on a 1-CPU CI container a
/// sub-millisecond delta on a quick run is timer jitter, not cost.
pub fn check_overhead(report: &BenchReport, max_pct: f64) -> Result<String, String> {
    let o = &report.obs_overhead;
    let abs_ms = (o.active_ms - o.paused_ms).max(0.0);
    if o.overhead_pct > max_pct && abs_ms > 1.0 {
        return Err(format!(
            "bench: flight recorder overhead {:.2}% ({abs_ms:.3} ms) exceeds {max_pct:.2}% on quick fig6",
            o.overhead_pct
        ));
    }
    Ok(format!(
        "bench: flight recorder overhead {:.2}% ({abs_ms:.3} ms) within {max_pct:.2}% on quick fig6",
        o.overhead_pct
    ))
}

/// The quick-scale stages the CI regression guard compares against
/// the committed baseline: the three pipeline stages the incremental
/// rendering work optimizes (a regression in any of them is exactly
/// what the delta paths could silently cause), and the query scan, the
/// archive's other reader.
pub const GUARDED_STAGES: &[&str] = &[
    "render_days",
    "mrt_encode",
    "delegation_pipeline",
    "query_scan",
];

/// Compare a fresh report's quick-scale wall times for every stage in
/// [`GUARDED_STAGES`] against a committed baseline JSON. Returns a
/// summary line per stage, or an error naming the first stage that
/// exceeds `max_ratio` × its baseline (or a parse/shape complaint).
pub fn check_regression(
    report: &BenchReport,
    baseline_json: &str,
    max_ratio: f64,
) -> Result<String, String> {
    let baseline = serde_json::parse(baseline_json)
        .map_err(|e| format!("bench: baseline JSON does not parse: {e:?}"))?;
    let quick = report
        .scales
        .iter()
        .find(|s| s.scale == "quick")
        .ok_or("bench: fresh report lacks a quick scale")?;
    let mut lines = Vec::with_capacity(GUARDED_STAGES.len());
    for &stage in GUARDED_STAGES {
        let base_ms = baseline
            .get("scales")
            .and_then(|s| s.get("quick"))
            .and_then(|q| q.get(&format!("{stage}_ms")))
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("bench: baseline JSON lacks scales.quick.{stage}_ms"))?;
        let fresh_ms = quick
            .stages
            .iter()
            .find(|(k, _)| *k == stage)
            .map(|(_, w)| ms(*w))
            .ok_or_else(|| format!("bench: fresh report lacks a quick-scale {stage} stage"))?;
        // A sub-millisecond baseline would make the ratio pure jitter;
        // clamp the bound to an absolute floor.
        let bound = (base_ms * max_ratio).max(1.0);
        if fresh_ms > bound {
            return Err(format!(
                "bench: quick {stage} regressed: {fresh_ms:.3} ms > {max_ratio:.1}× baseline {base_ms:.3} ms"
            ));
        }
        lines.push(format!(
            "bench: quick {stage} {fresh_ms:.3} ms within {max_ratio:.1}× baseline {base_ms:.3} ms"
        ));
    }
    Ok(lines.join("\n"))
}

/// Guard the lint gate's wall time: the whole-workspace `lint_scan`
/// stage must finish inside `max_ms` (CI uses 2000 ms). A lexer or
/// lock-graph change that turns the linter superlinear shows up here
/// before it shows up as a slow pre-merge gate.
pub fn check_lint_budget(report: &BenchReport, max_ms: f64) -> Result<String, String> {
    let wall_ms = report
        .scales
        .iter()
        .find(|s| s.scale == "quick")
        .and_then(|s| {
            s.stages
                .iter()
                .find(|(k, _)| *k == "lint_scan")
                .map(|(_, w)| ms(*w))
        })
        .ok_or("bench: report lacks a quick-scale lint_scan stage")?;
    if wall_ms > max_ms {
        return Err(format!(
            "bench: whole-workspace lint scan took {wall_ms:.3} ms, over the {max_ms:.0} ms budget"
        ));
    }
    Ok(format!(
        "bench: whole-workspace lint scan {wall_ms:.3} ms within the {max_ms:.0} ms budget"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_times_every_stage() {
        let report = run(2020, false).expect("quick bench runs");
        assert_eq!(report.scales.len(), 1);
        let quick = &report.scales[0];
        assert_eq!(quick.scale, "quick");
        assert_eq!(quick.stages.len(), STAGES.len());
        for (key, wall) in &quick.stages {
            assert!(*wall > Duration::ZERO, "stage {key} has zero wall time");
        }
        let rendered = report.render();
        for &(key, _) in STAGES {
            assert!(rendered.contains(key), "{rendered}");
        }
        // The overhead stage ran too, on sane values.
        assert!(report.obs_overhead.active_ms > 0.0);
        assert!(report.obs_overhead.paused_ms > 0.0);
        assert!(report.obs_overhead.overhead_pct >= 0.0);
        assert!(rendered.contains("obs_overhead"), "{rendered}");
        // The workspace lint gate stays inside its CI wall-time budget.
        check_lint_budget(&report, 2000.0).expect("lint scan within budget");
    }

    #[test]
    fn lint_budget_guard_fails_over_budget() {
        let mut report = fixed_report(10.0, 10.0);
        report.scales[0]
            .stages
            .push(("lint_scan", Duration::from_millis(150)));
        assert!(check_lint_budget(&report, 2000.0).is_ok());
        assert!(check_lint_budget(&report, 100.0).is_err());
        report.scales[0].stages.pop();
        assert!(check_lint_budget(&report, 2000.0).is_err());
    }

    fn fixed_report(active_ms: f64, paused_ms: f64) -> BenchReport {
        let overhead_pct = (100.0 * (active_ms - paused_ms) / paused_ms).max(0.0);
        BenchReport {
            seed: 7,
            threads: 1,
            scales: vec![ScaleReport {
                scale: "quick",
                stages: vec![
                    ("world_build", Duration::from_micros(1500)),
                    ("render_days", Duration::from_micros(2500)),
                ],
            }],
            obs_overhead: ObsOverhead {
                active_ms,
                paused_ms,
                overhead_pct,
            },
        }
    }

    #[test]
    fn json_round_trips_through_the_shim_parser() {
        let report = fixed_report(10.1, 10.0);
        let json = report.to_json();
        let v = serde_json::parse(&json).expect("bench JSON parses");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("drywells-bench-v1")
        );
        let quick = v
            .get("scales")
            .and_then(|s| s.get("quick"))
            .expect("quick block");
        assert_eq!(
            quick.get("render_days_ms").and_then(|x| x.as_f64()),
            Some(2.5)
        );
        let overhead = v.get("obs_overhead").expect("obs_overhead block");
        assert_eq!(
            overhead.get("active_ms").and_then(|x| x.as_f64()),
            Some(10.1)
        );
        assert_eq!(
            overhead.get("overhead_pct").and_then(|x| x.as_f64()),
            Some(1.0)
        );
    }

    #[test]
    fn regression_guard_passes_within_bound_and_fails_outside() {
        let mut report = fixed_report(10.0, 10.0);
        report.scales[0].stages = vec![
            ("render_days", Duration::from_millis(30)),
            ("mrt_encode", Duration::from_millis(40)),
            ("delegation_pipeline", Duration::from_millis(50)),
            ("query_scan", Duration::from_millis(60)),
        ];
        let baseline = r#"{"scales":{"quick":{
            "render_days_ms": 20.0, "mrt_encode_ms": 30.0, "delegation_pipeline_ms": 40.0,
            "query_scan_ms": 50.0}}}"#;
        let summary = check_regression(&report, baseline, 2.0).expect("within bound");
        for stage in GUARDED_STAGES {
            assert!(summary.contains(stage), "{summary}");
        }
        // Any single guarded stage over its bound fails the guard,
        // naming the offender.
        for (i, stage) in GUARDED_STAGES.iter().enumerate() {
            let mut walls = [20.0f64, 30.0, 40.0, 50.0];
            walls[i] = 200.0;
            let mut r = fixed_report(10.0, 10.0);
            r.scales[0].stages = GUARDED_STAGES
                .iter()
                .zip(walls)
                .map(|(&stage, wall)| (stage, Duration::from_secs_f64(wall / 1e3)))
                .collect();
            let err = check_regression(&r, baseline, 2.0).expect_err("over bound");
            assert!(err.contains(stage), "{err}");
        }
        // A baseline missing any guarded stage is a hard error, as is
        // non-JSON.
        let partial = r#"{"scales":{"quick":{"render_days_ms": 20.0}}}"#;
        assert!(check_regression(&report, partial, 2.0).is_err());
        assert!(check_regression(&report, "not json", 2.0).is_err());
    }

    #[test]
    fn overhead_guard_uses_both_relative_and_absolute_bounds() {
        // 10% over but only 0.5 ms absolute: jitter floor, passes.
        assert!(check_overhead(&fixed_report(5.5, 5.0), 1.0).is_ok());
        // 10% over AND 50 ms absolute: a real regression, fails.
        assert!(check_overhead(&fixed_report(550.0, 500.0), 1.0).is_err());
        // Under the percentage bound: passes regardless of scale.
        assert!(check_overhead(&fixed_report(505.0, 500.0), 1.0).is_ok());
    }
}
