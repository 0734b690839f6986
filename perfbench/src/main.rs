//! End-to-end benchmark of the drywells library crates.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload figures|archive|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload builds its inputs from `--seed`, times the public calls
//! of the library crates from outside, checks their outputs, and prints
//! one JSON object as the last line of stdout: `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones; with `--trace 1` the run records a span around each
//! library call and reports per-layer self times and counts instead,
//! and writes the spans to `perfbench/out/`.
//!
//! Every workload reports the same three end-to-end metrics:
//!
//! | metric | figures | archive | serve |
//! |---|---|---|---|
//! | `setup_s` | median of cold set-ups spread over the run, each a fresh process from spawn to ready: the study build | the world build | study, App, server bind |
//! | `peak_rss_mb` | peak resident memory of the workload process | same | same |
//! | `op_ms` | CPU time of the fastest `run_all` after the set-up | CPU time of the fastest round | CPU time per completed closed-loop request |
//!
//! Operation times are CPU time, not wall time: of the one thread that
//! runs the work for `figures` and `archive` (to the nanosecond), of the
//! whole process for `serve`. The benchmark's host is a shared 2-vCPU
//! VM: under load the hypervisor stole 30–40% of its CPU
//! time, and the same serve run's open-loop median latency read
//! 0.52–2.51 ms from run to run. Stolen time is not charged to the
//! process. `figures` and `archive` run on one worker thread, so their
//! CPU time is the wall time they take on an unshared machine. CPU
//! speed itself still drifts in phases of seconds; noise only ever adds
//! time, so the fastest iteration or round is what repeats.

mod archive;
mod expected;
mod figures;
mod proc;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Timed operations attempted (iterations, rounds or requests).
    pub attempted: u64,
    /// Attempted operations that failed or whose output check failed.
    pub failed: u64,
    /// Human-readable reasons for each failure kind seen.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Record `n` failed operations with a reason.
    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        self.problems.push(why);
    }
}

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set in a child process the benchmark spawned itself.
    pub child: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut child = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--child" => child = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        child,
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(out: &Outcome) -> String {
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One worker for the batch layers: single full-scale encodes spanned
    // 1226–1280 ms with one worker but 773–1381 ms with two. Children
    // inherit the setting.
    std::env::set_var("DRYWELLS_THREADS", "1");

    if let Some(kind) = &args.child {
        return match proc::run_child(kind, &args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench child {kind}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let run = match args.workload.as_str() {
        "figures" => figures::run(&args),
        "archive" => archive::run(&args),
        "serve" => serve::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    match run {
        Ok(mut out) => {
            let table = if args.trace {
                trace::PER_LAYER
            } else {
                trace::END_TO_END
            };
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
            if names != table.iter().map(|(n, _)| *n).collect::<Vec<_>>() {
                eprintln!("perfbench: workload reported metrics {names:?}");
                return ExitCode::FAILURE;
            }
            if out.metrics.iter().any(|m| !m.value.is_finite()) {
                out.fail(1, "a metric is not a finite number".into());
                for m in &mut out.metrics {
                    if !m.value.is_finite() {
                        m.value = 0.0;
                    }
                }
            }
            for p in &out.problems {
                eprintln!("perfbench: FAILED: {p}");
            }
            println!("{}", result_json(&out));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
