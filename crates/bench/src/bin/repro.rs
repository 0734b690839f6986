//! `repro` — regenerate every table and figure of the paper, and run
//! the serving layer.
//!
//! ```sh
//! repro all                 # every artifact, quick scale
//! repro all --full          # every artifact, paper-scale windows
//! repro fig6 --seed 7       # one artifact, custom seed
//! repro fig6 --trace        # …with human-readable tracing on stderr
//! repro fig6 --trace=jsonl:trace.jsonl   # …with a machine trace
//! repro trace-check trace.jsonl          # validate a JSONL trace
//! repro profile fig6        # per-stage wall time / throughput tree
//! repro bench --json BENCH_PR10.json     # stage timings, machine-readable
//! repro lint                # workspace invariant gate (drywells-lint's flags)
//! repro lint --update-baseline   # rewrite lint-baseline.txt
//! repro list                # what can be regenerated
//! repro serve               # HTTP + WHOIS server on ephemeral ports
//! repro loadgen --addr A    # load-generate against a running server
//! ```
//!
//! The artifacts are the entries of [`drywells::catalogue`].

use drywells::{catalogue, experiments, StudyConfig};
use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

const USAGE: &str = "\
usage: repro <artifact> [--full] [--seed N] [--csv DIR] [--threads N]
                     [--trace[=stderr|=jsonl:PATH]]
       repro list
       repro profile <artifact> [--full] [--seed N] [--threads N]
       repro trace-check PATH
       repro flight-dump [artifact] [--full] [--seed N] [--threads N]
                   [--out PATH]
       repro bench [--json PATH] [--full] [--seed N] [--threads N]
                   [--baseline PATH] [--max-ratio X]
                   [--max-overhead-pct X] [--max-lint-ms X]
       repro lint [--root DIR] [--baseline PATH] [--update-baseline]
                  [--list] [--format json|text] [--explain Ln]
       repro archive --out DIR [--full] [--seed N] [--threads N]
       repro query DIR [--filter F] [--format csv|jsonl] [--lossy]
                   [--limit N] [--threads N]
       repro serve   [--full] [--seed N] [--port P] [--whois-port P]
                     [--workers N] [--cap N] [--rate-burst N]
                     [--rate-per-sec X] [--addr-file PATH]
                     [--debug] [--trace[=stderr|=jsonl:PATH]]
       repro loadgen (--addr HOST:PORT | --addr-file PATH)
                     [--clients N] [--requests N] [--seed N]

--threads N   pin the worker pool (1 = sequential); defaults to
DRYWELLS_THREADS or the machine's parallelism. Output is
identical for any thread count.
--trace       stream spans/events; `jsonl:PATH` writes a trace
file that `repro trace-check` validates. Tracing never changes
results — artifacts are byte-identical with it on or off.
flight-dump   run an artifact and dump the always-on flight
ring as JSONL that `repro trace-check` accepts.
--debug       (serve) expose the /debug/flight, /debug/requests
and /debug/pool introspection routes.";

/// The artifact ids and what each regenerates, one per line.
fn artifact_list() -> String {
    let mut out = String::new();
    for a in catalogue::ARTIFACTS {
        out.push_str(&format!("  {:<16} {}\n", a.id, a.about));
    }
    out.push_str(&format!("  {:<16} everything above, in order\n", "all"));
    out
}

/// Why a command failed. A usage error also prints the usage.
enum Fail {
    Usage(String),
    Run(String),
}

/// One command's arguments, read left to right.
struct Args<'a> {
    /// The command, as named in "unexpected … argument" messages.
    cmd: &'static str,
    it: std::slice::Iter<'a, String>,
}

impl<'a> Args<'a> {
    fn new(cmd: &'static str, args: &'a [String]) -> Args<'a> {
        Args {
            cmd,
            it: args.iter(),
        }
    }

    /// The value after `flag`, parsed; `what` names what it must be.
    fn value<T: FromStr>(&mut self, flag: &str, what: &str) -> Result<T, Fail> {
        self.it
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| Fail::Usage(format!("{flag} needs {what}")))
    }

    fn unexpected(&self, arg: &str) -> Fail {
        Fail::Usage(format!("unexpected {}argument {arg:?}", self.cmd))
    }
}

impl<'a> Iterator for Args<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.it.next().map(String::as_str)
    }
}

/// Pin the worker pool; the pool reads `DRYWELLS_THREADS` at each
/// fan-out.
fn set_threads(n: usize) -> usize {
    let n = n.max(1);
    env::set_var("DRYWELLS_THREADS", n.to_string());
    n
}

/// Where `--trace` sends spans and events: `--trace` / `--trace=stderr`
/// stream human-readable lines to stderr; `--trace=jsonl:PATH` writes
/// the machine-readable JSONL schema.
enum TraceMode {
    Stderr,
    Jsonl(PathBuf),
}

/// The flags of the commands that build a study — `--full`,
/// `--seed N`, `--threads N`, `--trace[=…]` — each command taking the
/// ones it lists in `accepts`.
struct Study {
    accepts: &'static [&'static str],
    full: bool,
    seed: u64,
    trace: Option<TraceMode>,
}

const STUDY_FLAGS: &[&str] = &["--full", "--seed", "--threads"];

impl Study {
    fn new(accepts: &'static [&'static str]) -> Study {
        Study {
            accepts,
            full: false,
            seed: 2020,
            trace: None,
        }
    }

    /// Take `arg` (and its value) if it is one of the accepted study
    /// flags; `Ok(false)` leaves it to the command.
    fn take(&mut self, arg: &str, args: &mut Args) -> Result<bool, Fail> {
        let trace = match arg {
            "--trace" => Some(""),
            _ => arg.strip_prefix("--trace="),
        };
        let flag = if trace.is_some() { "--trace" } else { arg };
        if !self.accepts.contains(&flag) {
            return Ok(false);
        }
        match (flag, trace) {
            ("--full", _) => self.full = true,
            ("--seed", _) => self.seed = args.value(flag, "an integer")?,
            ("--threads", _) => {
                set_threads(args.value(flag, "an integer")?);
            }
            (_, Some("" | "stderr")) => self.trace = Some(TraceMode::Stderr),
            (_, Some(rest)) => match rest.strip_prefix("jsonl:") {
                Some(path) if !path.is_empty() => {
                    self.trace = Some(TraceMode::Jsonl(PathBuf::from(path)))
                }
                _ => {
                    return Err(Fail::Usage(format!(
                        "bad --trace value {rest:?} (expected stderr or jsonl:PATH)"
                    )))
                }
            },
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn config(&self) -> StudyConfig {
        if self.full {
            StudyConfig::full_seeded(self.seed)
        } else {
            StudyConfig::quick_seeded(self.seed)
        }
    }

    /// Install the `--trace` subscriber, if any. The guard must stay
    /// alive for the traced region; dropping it uninstalls the
    /// subscriber and flushes JSONL output.
    fn trace_guard(&self) -> Result<Option<obs::SubscriberGuard>, Fail> {
        Ok(match &self.trace {
            None => None,
            Some(TraceMode::Stderr) => {
                Some(obs::subscribe(std::sync::Arc::new(obs::StderrSubscriber)))
            }
            Some(TraceMode::Jsonl(path)) => {
                let sub = obs::JsonlSubscriber::create(path)
                    .map_err(|e| Fail::Run(format!("cannot create {}: {e}", path.display())))?;
                Some(obs::subscribe(std::sync::Arc::new(sub)))
            }
        })
    }
}

/// `id` if it names a catalogue artifact or `all`.
fn known_artifact(id: &str) -> Result<&str, Fail> {
    if id == "all" || catalogue::find(id).is_some() {
        Ok(id)
    } else {
        Err(Fail::Usage(format!("unknown artifact {id:?}")))
    }
}

/// `repro <artifact> [--csv DIR]`: regenerate one artifact (or `all`)
/// and print it; `--csv DIR` also writes the CSV files of the
/// artifacts that have one, from the same run. A CSV file that cannot
/// be written fails the command, after the others are written and the
/// text is printed.
fn cmd_artifact(args: &[String]) -> Result<(), Fail> {
    let mut study = Study::new(&["--full", "--seed", "--threads", "--trace"]);
    let mut artifact: Option<&str> = None;
    let mut csv_dir: Option<PathBuf> = None;
    let mut args = Args::new("", args);
    while let Some(a) = args.next() {
        if study.take(a, &mut args)? {
            continue;
        }
        match a {
            "--csv" => csv_dir = Some(args.value(a, "a directory")?),
            "--help" | "-h" => return Err(Fail::Usage(String::new())),
            other if artifact.is_none() => artifact = Some(other),
            other => return Err(args.unexpected(other)),
        }
    }
    let artifact = known_artifact(artifact.ok_or(Fail::Usage(String::new()))?)?;
    if let Some(dir) = &csv_dir {
        fs::create_dir_all(dir)
            .map_err(|e| Fail::Run(format!("cannot create {}: {e}", dir.display())))?;
    }
    // Installed before the run; dropped (flushing JSONL) before exit.
    let _trace = study.trace_guard()?;
    let config = study.config();
    eprintln!(
        "# scale: {:?}, seed: {}, BGP window {} → {}, workers: {}",
        config.scale,
        study.seed,
        config.world.span.start,
        config.world.span.end,
        bgpsim::par::num_threads()
    );

    // lint:allow(L3): stderr wall-time note only, never reaches artifacts
    let t0 = Instant::now();
    let mut unwritten = Vec::new();
    let mut write_csv = csv_dir.as_ref().map(|dir| {
        |name: &'static str, contents: String| {
            let path = dir.join(name);
            match fs::write(&path, contents) {
                Ok(()) => eprintln!("# wrote {}", path.display()),
                Err(e) => {
                    eprintln!("# FAILED to write {}: {e}", path.display());
                    unwritten.push(name);
                }
            }
        }
    });
    let sink = write_csv
        .as_mut()
        .map(|w| w as &mut dyn FnMut(&'static str, String));
    let output = catalogue::run_id(artifact, &config, sink).unwrap_or_default();
    println!("{output}");
    eprintln!("# regenerated {artifact} in {:.2?}", t0.elapsed());
    if unwritten.is_empty() {
        Ok(())
    } else {
        Err(Fail::Run(format!(
            "could not write {}",
            unwritten.join(", ")
        )))
    }
}

/// `repro trace-check PATH`: validate a JSONL trace written by
/// `--trace=jsonl:PATH`. Exit non-zero (listing every violation) if a
/// line fails to parse, spans don't nest/close per thread, or any
/// error-level event occurred.
fn cmd_trace_check(args: &[String]) -> Result<(), Fail> {
    let [path] = args else {
        return Err(Fail::Usage("trace-check needs exactly one PATH".into()));
    };
    let text =
        fs::read_to_string(path).map_err(|e| Fail::Run(format!("cannot read {path}: {e}")))?;
    match drywells::tracecheck::check_trace(&text) {
        Ok(stats) => {
            println!(
                "trace ok: {} span(s), {} event(s), max depth {}",
                stats.spans, stats.events, stats.max_depth
            );
            Ok(())
        }
        Err(errors) => {
            for e in &errors {
                eprintln!("trace-check: {e}");
            }
            Err(Fail::Run(format!(
                "trace-check: {} violation(s) in {path}",
                errors.len()
            )))
        }
    }
}

/// `repro profile <artifact>`: run under a profile collector and print
/// the per-stage tree (wall time, items, throughput) plus the study
/// cache counters.
fn cmd_profile(args: &[String]) -> Result<(), Fail> {
    let mut study = Study::new(STUDY_FLAGS);
    let mut artifact: Option<&str> = None;
    let mut args = Args::new("profile ", args);
    while let Some(a) = args.next() {
        if study.take(a, &mut args)? {
            continue;
        }
        match a {
            other if artifact.is_none() => artifact = Some(other),
            other => return Err(args.unexpected(other)),
        }
    }
    let artifact = artifact.ok_or(Fail::Usage("profile needs an artifact name".into()))?;
    // lint:allow(L3): stderr wall-time note only, never reaches artifacts
    let t0 = Instant::now();
    let report = drywells::profile::run_profiled(artifact, &study.config()).map_err(Fail::Usage)?;
    print!("{report}");
    eprintln!("# profiled {artifact} in {:.2?}", t0.elapsed());
    Ok(())
}

/// `repro serve`: build the serving state and run the HTTP + WHOIS
/// listeners until the process is killed (CI backgrounds it).
fn cmd_serve(args: &[String]) -> Result<(), Fail> {
    let mut study = Study::new(&["--full", "--seed", "--trace"]);
    let mut port: u16 = 0;
    let mut whois_port: u16 = 0;
    let mut workers: usize = 4;
    let mut cap: usize = 64;
    let mut rate_burst: u64 = 256;
    let mut rate_per_sec: f64 = 64.0;
    let mut addr_file: Option<PathBuf> = None;
    let mut debug_routes = false;
    let mut args = Args::new("serve ", args);
    while let Some(a) = args.next() {
        if study.take(a, &mut args)? {
            continue;
        }
        match a {
            "--port" => port = args.value(a, "a port")?,
            "--whois-port" => whois_port = args.value(a, "a port")?,
            "--workers" => workers = args.value(a, "an integer")?,
            "--cap" => cap = args.value(a, "an integer")?,
            "--rate-burst" => rate_burst = args.value(a, "an integer")?,
            "--rate-per-sec" => rate_per_sec = args.value(a, "a number")?,
            "--addr-file" => addr_file = Some(args.value(a, "a PATH")?),
            "--debug" => debug_routes = true,
            other => return Err(args.unexpected(other)),
        }
    }

    // The server runs until killed, so the guard lives for the whole
    // process; buffered JSONL output may lose its tail on SIGKILL.
    let _trace = study.trace_guard()?;
    let config = study.config();
    eprintln!(
        "# building serving state (scale {:?}, seed {})…",
        config.scale, study.seed
    );
    let app = serve::App::from_study(
        &config,
        Some(serve::RateLimitConfig {
            burst: rate_burst,
            per_second: rate_per_sec,
        }),
    )
    .with_debug_routes(debug_routes);
    let server_config = serve::ServerConfig {
        http_addr: ([127, 0, 0, 1], port).into(),
        whois_addr: Some(([127, 0, 0, 1], whois_port).into()),
        workers,
        max_connections: cap,
        ..serve::ServerConfig::default()
    };
    let server = serve::Server::start(app, server_config)
        .map_err(|e| Fail::Run(format!("cannot bind: {e}")))?;
    let http = server.http_addr();
    let whois = server
        .whois_addr()
        .ok_or(Fail::Run("whois listener failed to come up".into()))?;
    println!("listening http={http} whois={whois}");
    if let Some(path) = &addr_file {
        // The file is the startup handshake for scripts: it appears
        // only once both listeners are live.
        fs::write(path, format!("{http}\n{whois}\n"))
            .map_err(|e| Fail::Run(format!("cannot write {}: {e}", path.display())))?;
        eprintln!("# wrote {}", path.display());
    }
    eprintln!("# serving until killed (workers {workers}, connection cap {cap})");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `repro loadgen`: drive a running server, print the throughput and
/// latency report, exit non-zero on any protocol error.
fn cmd_loadgen(args: &[String]) -> Result<(), Fail> {
    let mut config = serve::loadgen::LoadgenConfig::default();
    let mut addr: Option<String> = None;
    let mut args = Args::new("loadgen ", args);
    while let Some(a) = args.next() {
        match a {
            "--addr" => addr = Some(args.value(a, "HOST:PORT")?),
            "--addr-file" => {
                let path: String = args.value(a, "a PATH")?;
                let text = fs::read_to_string(&path)
                    .map_err(|e| Fail::Run(format!("cannot read {path}: {e}")))?;
                // First line of the handshake file is the HTTP address.
                addr = text.lines().next().map(str::to_string);
            }
            "--clients" => config.clients = args.value(a, "an integer")?,
            "--requests" => config.requests_per_client = args.value(a, "an integer")?,
            "--seed" => config.seed = args.value(a, "an integer")?,
            other => return Err(args.unexpected(other)),
        }
    }
    let addr = addr.ok_or(Fail::Usage(
        "loadgen needs --addr HOST:PORT or --addr-file PATH".into(),
    ))?;
    config.addr = addr
        .trim()
        .parse()
        .map_err(|e| Fail::Run(format!("bad address {addr:?}: {e}")))?;
    let report = serve::loadgen::run(&config).map_err(|e| Fail::Run(format!("loadgen: {e}")))?;
    print!("{}", report.render());
    if report.is_clean() {
        Ok(())
    } else {
        Err(Fail::Run("loadgen: protocol errors detected".into()))
    }
}

/// `repro bench [--json PATH] [--full] [--seed N] [--threads N]
/// [--baseline PATH] [--max-ratio X]`: time the named pipeline stages
/// (world build, render_days, MRT encode, delegation pipeline, fig6
/// end-to-end) and optionally write the machine-readable JSON report.
/// With `--baseline`, compare every guarded quick-scale stage
/// (`render_days`, `mrt_encode`, `delegation_pipeline`) against the
/// committed JSON and exit non-zero past `--max-ratio` (default 2.0).
fn cmd_bench(args: &[String]) -> Result<(), Fail> {
    let mut study = Study::new(STUDY_FLAGS);
    let mut json_path: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut max_ratio = 2.0f64;
    let mut max_overhead_pct: Option<f64> = None;
    let mut max_lint_ms = 2000.0f64;
    let mut args = Args::new("bench ", args);
    while let Some(a) = args.next() {
        if study.take(a, &mut args)? {
            continue;
        }
        match a {
            "--json" => json_path = Some(args.value(a, "a PATH")?),
            "--baseline" => baseline_path = Some(args.value(a, "a PATH")?),
            "--max-ratio" => max_ratio = args.value(a, "a number")?,
            "--max-overhead-pct" => max_overhead_pct = Some(args.value(a, "a number")?),
            "--max-lint-ms" => max_lint_ms = args.value(a, "a number")?,
            other => return Err(args.unexpected(other)),
        }
    }
    let report = drywells::bench::run(study.seed, study.full).map_err(Fail::Run)?;
    print!("{}", report.render());
    if let Some(path) = &json_path {
        fs::write(path, report.to_json())
            .map_err(|e| Fail::Run(format!("cannot write {}: {e}", path.display())))?;
        eprintln!("# wrote {}", path.display());
    }
    if let Some(path) = &baseline_path {
        let text = fs::read_to_string(path)
            .map_err(|e| Fail::Run(format!("cannot read {}: {e}", path.display())))?;
        let msg =
            drywells::bench::check_regression(&report, &text, max_ratio).map_err(Fail::Run)?;
        println!("{msg}");
    }
    if let Some(max_pct) = max_overhead_pct {
        let msg = drywells::bench::check_overhead(&report, max_pct).map_err(Fail::Run)?;
        println!("{msg}");
    }
    // The lint gate runs on every CI job, so its wall time is always
    // budgeted (override the 2 s default with --max-lint-ms).
    let msg = drywells::bench::check_lint_budget(&report, max_lint_ms).map_err(Fail::Run)?;
    println!("{msg}");
    Ok(())
}

/// `repro archive --out DIR [--full] [--seed N] [--threads N]`:
/// generate the RFC 6396 collector archive for the study window and
/// write it to a directory that `repro query` (and the serve layer)
/// can scan.
fn cmd_archive(args: &[String]) -> Result<(), Fail> {
    let mut study = Study::new(STUDY_FLAGS);
    let mut out: Option<PathBuf> = None;
    let mut args = Args::new("archive ", args);
    while let Some(a) = args.next() {
        if study.take(a, &mut args)? {
            continue;
        }
        match a {
            "--out" => out = Some(args.value(a, "a DIR")?),
            other => return Err(args.unexpected(other)),
        }
    }
    let out = out.ok_or(Fail::Usage("archive needs --out DIR".into()))?;
    let config = study.config();
    eprintln!(
        "# building world and rendering days (scale {:?}, seed {})…",
        config.scale, study.seed
    );
    let bgp = experiments::build_bgp_study(&config);
    let archive = bgpsim::updates::CollectorArchiveV2::generate(
        &bgp.world,
        bgp.visibility_model(),
        bgp.world.span,
        &bgpsim::updates::ArchiveV2Config::default(),
    )
    .map_err(|e| Fail::Run(format!("archive generation failed: {e}")))?;
    let n = archive
        .write_dir(&out)
        .map_err(|e| Fail::Run(format!("cannot write {}: {e}", out.display())))?;
    println!(
        "wrote {n} MRT files ({:.1} MiB) to {}",
        archive.total_bytes() as f64 / (1024.0 * 1024.0),
        out.display()
    );
    Ok(())
}

/// `repro query DIR [--filter F] [--format csv|jsonl] [--lossy]
/// [--limit N] [--threads N]`: scan an on-disk MRT archive directory,
/// print matching rows to stdout and scan accounting to stderr.
/// Strict mode exits non-zero on the first damaged record; `--lossy`
/// skips damage, reports it (per-reason counts plus bytes left
/// unscanned after an aborted file), and still exits zero.
fn cmd_query(args: &[String]) -> Result<(), Fail> {
    use bgpsim::query::{Filter, OutputFormat, QueryOptions};
    let mut dir: Option<PathBuf> = None;
    let mut opts = QueryOptions::default();
    let mut args = Args::new("query ", args);
    while let Some(a) = args.next() {
        match a {
            "--filter" => {
                let v: String = args.value(a, "a filter string")?;
                opts.filter = Filter::parse(&v).map_err(|e| Fail::Run(e.to_string()))?;
            }
            "--format" => {
                let v: String = args.value(a, "csv or jsonl")?;
                opts.format = v
                    .parse::<OutputFormat>()
                    .map_err(|e| Fail::Run(e.to_string()))?;
            }
            "--lossy" => opts.lossy = true,
            "--limit" => opts.limit = Some(args.value(a, "an integer")?),
            "--threads" => opts.threads = set_threads(args.value(a, "an integer")?),
            other if dir.is_none() && !other.starts_with('-') => dir = Some(PathBuf::from(other)),
            other => return Err(args.unexpected(other)),
        }
    }
    let dir = dir.ok_or(Fail::Usage(
        "query needs an archive DIR (see `repro archive --out DIR`)".into(),
    ))?;
    let files = bgpsim::query::files_from_dir(&dir)
        .map_err(|e| Fail::Run(format!("cannot read archive dir {}: {e}", dir.display())))?;
    if files.is_empty() {
        return Err(Fail::Run(format!(
            "no archive files (rib-*.mrt / updates-*.mrt) in {}",
            dir.display()
        )));
    }
    let out = bgpsim::query::run_query(&files, &opts).map_err(|e| {
        Fail::Run(format!(
            "query failed: {e} (use --lossy to skip damaged records)"
        ))
    })?;
    print!("{}", out.body);
    let s = &out.stats;
    eprintln!(
        "# query: {} file(s) scanned ({} pruned by day), {} element(s), \
         {} row(s) emitted ({} matched)",
        s.files_scanned, s.files_pruned, s.elems_scanned, s.rows_emitted, s.rows_matched
    );
    if opts.lossy && !s.lossy.is_clean() {
        eprintln!(
            "# lossy: {} record(s) skipped ({} truncated, {} malformed, {} bgp), \
             aborted={}, {} byte(s) unscanned",
            s.lossy.skipped(),
            s.lossy.skipped_truncated,
            s.lossy.skipped_malformed,
            s.lossy.skipped_bgp,
            s.lossy.aborted,
            s.lossy.bytes_unscanned
        );
    }
    Ok(())
}

/// `repro flight-dump [artifact] [--full] [--seed N] [--threads N]
/// [--out PATH]`: run an artifact (default fig6) with the always-on
/// flight recorder, then dump the ring as trace-check-compatible
/// JSONL — to stdout, or to `--out PATH`. `repro trace-check` accepts
/// the output directly.
fn cmd_flight_dump(args: &[String]) -> Result<(), Fail> {
    let mut study = Study::new(STUDY_FLAGS);
    let mut artifact: Option<&str> = None;
    let mut out: Option<PathBuf> = None;
    let mut args = Args::new("flight-dump ", args);
    while let Some(a) = args.next() {
        if study.take(a, &mut args)? {
            continue;
        }
        match a {
            "--out" => out = Some(args.value(a, "a PATH")?),
            other if artifact.is_none() && !other.starts_with('-') => artifact = Some(other),
            other => return Err(args.unexpected(other)),
        }
    }
    let artifact = known_artifact(artifact.unwrap_or("fig6"))?;
    let config = study.config();
    eprintln!(
        "# running {artifact} with the flight recorder (scale {:?}, seed {})…",
        config.scale, study.seed
    );
    catalogue::run_id(artifact, &config, None);
    let snapshot = obs::flight::global().snapshot_jsonl();
    let lines = snapshot.lines().count();
    match &out {
        Some(path) => {
            fs::write(path, &snapshot)
                .map_err(|e| Fail::Run(format!("cannot write {}: {e}", path.display())))?;
            eprintln!("# wrote {lines} JSONL line(s) to {}", path.display());
        }
        None => {
            print!("{snapshot}");
            eprintln!("# {lines} JSONL line(s) from the flight ring");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("list") if rest.is_empty() => {
            print!("{}", artifact_list());
            Ok(())
        }
        Some("serve") => cmd_serve(rest),
        Some("loadgen") => cmd_loadgen(rest),
        Some("profile") => cmd_profile(rest),
        Some("trace-check") => cmd_trace_check(rest),
        Some("flight-dump") => cmd_flight_dump(rest),
        Some("bench") => cmd_bench(rest),
        Some("lint") => return lint::cli::main("repro lint", rest),
        Some("archive") => cmd_archive(rest),
        Some("query") => cmd_query(rest),
        _ => cmd_artifact(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Fail::Usage(msg)) => {
            if !msg.is_empty() {
                eprintln!("{msg}");
            }
            eprint!("{USAGE}\n\nartifacts:\n{}", artifact_list());
            ExitCode::FAILURE
        }
        Err(Fail::Run(msg)) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
