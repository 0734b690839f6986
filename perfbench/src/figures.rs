//! The `figures` workload: `drywells::run_all` at full scale, what a
//! reproducer runs.
//!
//! Every timed iteration is a fresh child process, because the study
//! cache (`build_bgp_study_cached`) is process-wide with no reset and
//! `repro all` users pay the study build on every run. The child's
//! set-up is that build, what a reproducer waits for before the first
//! experiment runs; it then runs `run_all` over the built study and
//! reports its CPU time, a digest of the text, and its peak memory.
//!
//! Traced iterations call the runners one by one, in `run_all`'s
//! order, with a span around each; their text must be exactly
//! `run_all`'s, so both modes are checked against one digest.

use crate::expected;
use crate::proc;
use crate::stats::{self, fnv1a, FNV_OFFSET};
use crate::trace::{self, Tracer};
use crate::{Args, Outcome};
use drywells::experiments as exp;
use drywells::StudyConfig;
use std::time::Instant;

/// Fewest timed iterations per run, whatever `--seconds` says.
const MIN_ITERATIONS: usize = 3;

/// The set-up of one iteration: the cold study build.
pub fn setup(seed: u64, tr: &mut Tracer) -> StudyConfig {
    let cfg = StudyConfig::full_seeded(seed);
    tr.span("core.study_build_ms", |_| exp::build_bgp_study_cached(&cfg));
    cfg
}

/// Every runner of `run_all` with a span each; the text must equal
/// `run_all`'s byte for byte.
fn traced_run_all(cfg: &StudyConfig, tr: &mut Tracer) -> String {
    let mut out = String::new();
    let mut add = |title: &str, body: String| {
        out.push_str(&format!("\n=== {title} ===\n\n{body}\n"));
    };
    let t1 = tr.span("core.exp.table1_ms", |_| exp::table1::run());
    add("Table 1: IPv4 exhaustion timeline", t1.rendered);
    let s2 = tr.span("core.exp.s2_waitlists_ms", |_| exp::s2_waitlists::run(cfg));
    add("S2: waiting lists", s2.rendered);
    let f1 = tr.span("core.exp.fig1_ms", |_| exp::fig1::run(cfg));
    add("Figure 1: price per IP", f1.rendered);
    let f2 = tr.span("core.exp.fig2_ms", |_| exp::fig2::run(cfg));
    add("Figure 2: market transfers", f2.rendered);
    let f3 = tr.span("core.exp.fig3_ms", |_| exp::fig3::run(cfg));
    add("Figure 3: inter-RIR transfers", f3.rendered);
    let f4 = tr.span("core.exp.fig4_ms", |_| exp::fig4::run());
    add("Figure 4: advertised leasing prices", f4.rendered);
    let f5 = tr.span("core.exp.fig5_ms", |_| exp::fig5::run(cfg));
    add("Figure 5: RPKI consistency rules", f5.rendered);
    let f6 = tr.span("core.exp.fig6_ms", |_| exp::fig6::run(cfg));
    let (base, ext) = &f6.results;
    let delegations: usize = base.days.iter().chain(&ext.days).map(Vec::len).sum();
    tr.value("delegation.delegations", delegations as f64);
    add("Figure 6: BGP delegations", f6.rendered);
    let s4 = tr.span("core.exp.s4_coverage_ms", |_| exp::s4_coverage::run(cfg));
    add("S4: BGP vs RDAP coverage", s4.rendered);
    if let Some(s5) = tr.span("core.exp.s5_prediction_ms", |_| {
        exp::s5_prediction::run(cfg)
    }) {
        add("S5: related-work prediction models", s5.rendered);
    }
    let s6 = tr.span("core.exp.s6_amortization_ms", |_| {
        exp::s6_amortization::run()
    });
    add("S6: amortization", s6.rendered);
    let s6b = tr.span("core.exp.s6_behavior_ms", |_| exp::s6_behavior::run(cfg));
    add("S6: market behaviour by business model", s6b.rendered);
    let s7 = tr.span("core.exp.s7_combined_ms", |_| exp::s7_combined::run(cfg));
    add("S7: combined BGP+RPKI+RDAP estimator", s7.rendered);
    let sens = tr.span("core.exp.sensitivity_ms", |_| exp::sensitivity::run(cfg));
    add("Sensitivity: thresholds and fill windows", sens.rendered);
    out
}

/// One iteration, in a fresh child process.
pub fn child(args: &Args) -> Result<(), String> {
    let mut tr = Tracer::new(args.trace);
    let cfg = setup(args.seed, &mut tr);
    proc::ready();
    let cpu0 = stats::thread_cpu_s()?;
    let text = if args.trace {
        tr.span("figures.run_all_ms", |tr| traced_run_all(&cfg, tr))
    } else {
        drywells::run_all(&cfg)
    };
    let ms = (stats::thread_cpu_s()? - cpu0) * 1e3;
    let sections = text.matches("\n=== ").count();
    println!("result cpu_ms {ms}");
    println!("result digest {:016x}", fnv1a(text.as_bytes(), FNV_OFFSET));
    println!("result sections {sections}");
    println!("result rss_mb {}", stats::peak_rss_mb()?);
    print!("{}", tr.to_lines());
    Ok(())
}

/// What one child iteration reported.
struct Iteration {
    ms: f64,
    digest: String,
    sections: usize,
    rss_mb: f64,
}

fn parse_iteration(text: &str) -> Result<Iteration, String> {
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("result {key} ")))
            .ok_or(format!("child reported no {key}"))
    };
    let num = |key: &str| -> Result<f64, String> {
        field(key)?
            .parse()
            .map_err(|_| format!("child reported a bad {key}"))
    };
    Ok(Iteration {
        ms: num("cpu_ms")?,
        digest: field("digest")?.to_string(),
        sections: num("sections")? as usize,
        rss_mb: num("rss_mb")?,
    })
}

/// `run_all` renders at least these many sections (S5 is optional).
const MIN_SECTIONS: usize = 13;

impl Iteration {
    /// What must repeat for a seed, in the form of `expected.txt`.
    fn record(&self) -> String {
        format!("digest={} sections={}", self.digest, self.sections)
    }
}

/// An iteration's text must hold every section and repeat the first
/// iteration's exactly, traced or not. The first one is checked against
/// the seed's pinned record, if `expected.txt` lists the seed.
fn check(seed: u64, reference: &mut Option<String>, it: &Iteration) -> Result<(), String> {
    if it.sections < MIN_SECTIONS {
        return Err(format!(
            "{} sections, expected at least {MIN_SECTIONS}",
            it.sections
        ));
    }
    let record = it.record();
    match reference {
        Some(r) if *r != record => Err(format!("{record} != {r}")),
        Some(_) => Ok(()),
        None => {
            expected::check("figures", seed, &record)?;
            *reference = Some(record);
            Ok(())
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    // Every iteration's child is a cold set-up too: spawn to ready.
    let mut setups = vec![proc::setup_sample(args)?];
    let mut out = Outcome::default();
    let mut tr = Tracer::new(args.trace);
    let mut reference = None;
    let mut ms = [Vec::new(), Vec::new()];
    let mut rss = Vec::new();
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        let i = walls.len();
        let enough = i >= MIN_ITERATIONS + usize::from(args.trace);
        let next = start.elapsed().as_secs_f64() + stats::median(&walls);
        if enough && next > args.seconds {
            break;
        }
        // A traced run alternates untraced and traced iterations, so
        // the recorder's own cost can be read off the two fastest times.
        let traced = args.trace && i % 2 == 1;
        let t0 = Instant::now();
        out.attempted += 1;
        let child = proc::spawn("figures", args, traced)?;
        let offset_ns = tr.elapsed_ns();
        let result = proc::finish(child, t0).and_then(|f| {
            setups.push(f.ready_s);
            Ok((parse_iteration(&f.rest)?, f.rest))
        });
        walls.push(t0.elapsed().as_secs_f64());
        let (it, rest) = match result {
            Ok(r) => r,
            Err(e) => {
                out.fail(1, format!("figures iteration {i}: {e}"));
                continue;
            }
        };
        if let Err(e) = check(args.seed, &mut reference, &it) {
            out.fail(1, format!("figures iteration {i}: {e}"));
            continue;
        }
        if traced {
            let (spans, values) = trace::parse_lines(&rest);
            tr.adopt(&spans, &values, Some(i as u64), offset_ns);
        }
        ms[usize::from(traced)].push(it.ms);
        rss.push(it.rss_mb);
    }

    if args.trace {
        let (plain, traced) = (stats::min(&ms[0]), stats::min(&ms[1]));
        tr.set_on(true);
        tr.value("obs.trace_overhead_pct", 100.0 * (traced - plain) / plain);
        tr.write_jsonl(&trace::out_path(&args.workload, args.seed))?;
        for (name, value, unit) in tr.per_layer() {
            out.metric(name, value, unit);
        }
    } else {
        out.metric("setup_s", stats::median(&setups), "s");
        out.metric("peak_rss_mb", stats::median(&rss), "MiB");
        out.metric("op_ms", stats::min(&ms[0]), "ms");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iteration(text: &str) -> Iteration {
        let report = format!(
            "result cpu_ms 5.5\nresult digest {:016x}\nresult sections {}\nresult rss_mb 9\n",
            fnv1a(text.as_bytes(), FNV_OFFSET),
            text.matches("\n=== ").count()
        );
        parse_iteration(&report).expect("report parses")
    }

    #[test]
    fn a_changed_byte_of_the_text_fails_the_check() {
        let text = "\n=== A ===\n\nbody\n".repeat(MIN_SECTIONS);
        // A seed `expected.txt` does not list: checked within the run.
        let seed = u64::MAX;
        let mut reference = None;
        assert!(check(seed, &mut reference, &iteration(&text)).is_ok());
        assert!(check(seed, &mut reference, &iteration(&text)).is_ok());
        let corrupted = text.replacen("body", "bodz", 1);
        assert!(check(seed, &mut reference, &iteration(&corrupted)).is_err());
        let short = "\n=== A ===\n".repeat(MIN_SECTIONS - 1);
        assert!(check(seed, &mut None, &iteration(&short)).is_err());
        // A listed seed: the same text fails on its first iteration.
        assert!(check(2020, &mut None, &iteration(&text)).is_err());
    }
}
