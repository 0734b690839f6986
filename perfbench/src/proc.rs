//! Child processes of the benchmark.
//!
//! Set-up is timed from outside: the parent spawns a fresh copy of
//! itself, which does one workload's set-up and prints `ready`. The
//! time from spawn to that line covers process start plus the set-up a
//! user pays before the first operation, from a cold process each
//! time (the study cache is process-wide and has no reset).

use crate::trace::Tracer;
use crate::{archive, figures, serve, Args};
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// Entry point of a child process.
pub fn run_child(kind: &str, args: &Args) -> Result<(), String> {
    match kind {
        "setup" => {
            match args.workload.as_str() {
                "figures" => drop(figures::setup(args.seed, &mut Tracer::new(false))),
                "archive" => drop(archive::setup(args.seed)),
                "serve" => {
                    let rig = serve::setup(&mut Tracer::new(false))?;
                    ready();
                    rig.shutdown();
                    return Ok(());
                }
                other => return Err(format!("no set-up for workload {other:?}")),
            }
            ready();
            Ok(())
        }
        "figures" => figures::child(args),
        other => Err(format!("unknown child kind {other:?}")),
    }
}

/// Tell the parent that set-up is done.
pub fn ready() {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "ready");
    let _ = out.flush();
}

/// Spawn this program as a child of `kind` for `args`' workload.
pub fn spawn(kind: &str, args: &Args, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    Command::new(exe)
        .args(["--child", kind, "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn a child process: {e}"))
}

/// A finished child: seconds from spawn to `ready`, and everything it
/// printed after that line.
pub struct Finished {
    pub ready_s: f64,
    pub rest: String,
}

/// Wait for `child` (spawned at `t0`) to print `ready` and exit.
pub fn finish(mut child: Child, t0: Instant) -> Result<Finished, String> {
    let stdout = child.stdout.take().ok_or("child stdout was not piped")?;
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    let got = reader.read_line(&mut line);
    let ready_s = t0.elapsed().as_secs_f64();
    let mut rest = String::new();
    let read_rest = reader.read_to_string(&mut rest);
    let status = child
        .wait()
        .map_err(|e| format!("cannot wait for a child: {e}"))?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    match got {
        Ok(_) if line.trim_end() == "ready" => {}
        _ => return Err(format!("child did not report ready (got {line:?})")),
    }
    read_rest.map_err(|e| format!("cannot read child output: {e}"))?;
    Ok(Finished { ready_s, rest })
}

/// Time one cold set-up of `args`' workload, in seconds. Workloads
/// take a sample between their operations, so the samples spread over
/// the run's slow and quiet stretches; `setup_s` is their median.
pub fn setup_sample(args: &Args) -> Result<f64, String> {
    let t0 = Instant::now();
    let child = spawn("setup", args, false)?;
    Ok(finish(child, t0)?.ready_s)
}
