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
//! repro lint                # workspace invariant gate (ratcheting baseline)
//! repro lint --update-baseline   # rewrite lint-baseline.txt
//! repro list                # what can be regenerated
//! repro serve               # HTTP + WHOIS server on ephemeral ports
//! repro loadgen --addr A    # load-generate against a running server
//! ```

use drywells::{csv, experiments, run_all, StudyConfig};
use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const ARTIFACTS: &[(&str, &str)] = &[
    ("table1", "Table 1: IPv4 exhaustion timeline per RIR"),
    ("s2-waitlists", "§2: post-exhaustion waiting-list status"),
    ("fig1", "Figure 1: evolution of price per IP by size and region"),
    ("fig2", "Figure 2: # of market transfers per region"),
    ("fig3", "Figure 3: inter-RIR transactions"),
    ("fig4", "Figure 4: advertised leasing prices"),
    ("fig5", "Figure 5: consistency-rule fail rates on RPKI delegations"),
    ("fig6", "Figure 6: BGP delegations w/wo the paper's extensions"),
    ("s4-coverage", "§4: BGP-delegations vs RDAP-delegations coverage"),
    ("s5-prediction", "§5: related-work prediction models vs the market"),
    ("s6-amortization", "§6: buy-vs-lease amortization times"),
    ("s6-behavior", "§6: market engagement by business model"),
    ("s7-combined", "§7: the combined BGP+RPKI+RDAP estimator (future work)"),
    ("sensitivity", "footnote 2 / Appendix A parameter sweeps"),
    ("all", "everything above, in order"),
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro <artifact> [--full] [--seed N] [--csv DIR] [--threads N]\n\
         \x20                    [--trace[=stderr|=jsonl:PATH]]\n\
         \x20      repro profile <artifact> [--full] [--seed N] [--threads N]\n\
         \x20      repro trace-check PATH\n\
         \x20      repro flight-dump [artifact] [--full] [--seed N] [--threads N]\n\
         \x20                  [--out PATH]\n\
         \x20      repro bench [--json PATH] [--full] [--seed N] [--threads N]\n\
         \x20                  [--baseline PATH] [--max-ratio X]\n\
         \x20                  [--max-overhead-pct X] [--max-lint-ms X]\n\
         \x20      repro lint [--update-baseline] [--list] [--format json|text]\n\
         \x20                  [--explain Ln]\n\
         \x20      repro archive --out DIR [--full] [--seed N] [--threads N]\n\
         \x20      repro query DIR [--filter F] [--format csv|jsonl] [--lossy]\n\
         \x20                  [--limit N] [--threads N]\n\
         \x20      repro serve   [--full] [--seed N] [--port P] [--whois-port P]\n\
         \x20                    [--workers N] [--cap N] [--rate-burst N]\n\
         \x20                    [--rate-per-sec X] [--addr-file PATH]\n\
         \x20                    [--debug] [--trace[=stderr|=jsonl:PATH]]\n\
         \x20      repro loadgen (--addr HOST:PORT | --addr-file PATH)\n\
         \x20                    [--clients N] [--requests N] [--seed N]\n\n\
         --threads N   pin the worker pool (1 = sequential); defaults to\n\
         DRYWELLS_THREADS or the machine's parallelism. Output is\n\
         identical for any thread count.\n\
         --trace       stream spans/events; `jsonl:PATH` writes a trace\n\
         file that `repro trace-check` validates. Tracing never changes\n\
         results — artifacts are byte-identical with it on or off.\n\
         flight-dump   run an artifact and dump the always-on flight\n\
         ring as JSONL that `repro trace-check` accepts.\n\
         --debug       (serve) expose the /debug/flight, /debug/requests\n\
         and /debug/pool introspection routes.\n\nartifacts:"
    );
    for (name, what) in ARTIFACTS {
        eprintln!("  {name:<16} {what}");
    }
    ExitCode::FAILURE
}

/// `--trace` flag parsing shared by the artifact and serve commands.
/// `--trace` / `--trace=stderr` stream human-readable lines to stderr;
/// `--trace=jsonl:PATH` writes the machine-readable JSONL schema.
fn parse_trace_flag(arg: &str) -> Option<Result<TraceMode, String>> {
    let rest = if arg == "--trace" {
        ""
    } else {
        arg.strip_prefix("--trace=")?
    };
    Some(match rest {
        "" | "stderr" => Ok(TraceMode::Stderr),
        other => match other.strip_prefix("jsonl:") {
            Some(path) if !path.is_empty() => Ok(TraceMode::Jsonl(PathBuf::from(path))),
            _ => Err(format!(
                "bad --trace value {other:?} (expected stderr or jsonl:PATH)"
            )),
        },
    })
}

enum TraceMode {
    Stderr,
    Jsonl(PathBuf),
}

/// Install the requested subscriber. The returned guard must stay
/// alive for the traced region; dropping it uninstalls the subscriber
/// and flushes JSONL output.
fn install_trace(mode: &TraceMode) -> Result<obs::SubscriberGuard, String> {
    match mode {
        TraceMode::Stderr => Ok(obs::subscribe(std::sync::Arc::new(
            obs::StderrSubscriber,
        ))),
        TraceMode::Jsonl(path) => {
            let sub = obs::JsonlSubscriber::create(path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
            Ok(obs::subscribe(std::sync::Arc::new(sub)))
        }
    }
}

/// `repro trace-check PATH`: validate a JSONL trace written by
/// `--trace=jsonl:PATH`. Exit non-zero (listing every violation) if a
/// line fails to parse, spans don't nest/close per thread, or any
/// error-level event occurred.
fn cmd_trace_check(args: &[String]) -> ExitCode {
    let [path] = args else {
        eprintln!("trace-check needs exactly one PATH");
        return usage();
    };
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match drywells::tracecheck::check_trace(&text) {
        Ok(stats) => {
            println!(
                "trace ok: {} span(s), {} event(s), max depth {}",
                stats.spans, stats.events, stats.max_depth
            );
            ExitCode::SUCCESS
        }
        Err(errors) => {
            for e in &errors {
                eprintln!("trace-check: {e}");
            }
            eprintln!("trace-check: {} violation(s) in {path}", errors.len());
            ExitCode::FAILURE
        }
    }
}

/// `repro profile <artifact>`: run under a profile collector and print
/// the per-stage tree (wall time, items, throughput) plus the study
/// cache counters.
fn cmd_profile(args: &[String]) -> ExitCode {
    let mut artifact: Option<String> = None;
    let mut full = false;
    let mut seed: u64 = 2020;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => full = true,
            "--seed" => {
                let Some(v) = it.next().and_then(|s| s.parse().ok()) else {
                    eprintln!("--seed needs an integer");
                    return usage();
                };
                seed = v;
            }
            "--threads" => {
                let Some(v) = it.next().and_then(|s| s.parse::<usize>().ok()) else {
                    eprintln!("--threads needs an integer");
                    return usage();
                };
                env::set_var("DRYWELLS_THREADS", v.max(1).to_string());
            }
            other if artifact.is_none() => artifact = Some(other.to_string()),
            other => {
                eprintln!("unexpected profile argument {other:?}");
                return usage();
            }
        }
    }
    let Some(artifact) = artifact else {
        eprintln!("profile needs an artifact name");
        return usage();
    };
    let config = if full {
        StudyConfig::full_seeded(seed)
    } else {
        StudyConfig::quick_seeded(seed)
    };
    // lint:allow(L3): stderr wall-time note only, never reaches artifacts
    let t0 = Instant::now();
    match drywells::profile::run_profiled(&artifact, &config) {
        Ok(report) => {
            print!("{report}");
            eprintln!("# profiled {artifact} in {:.2?}", t0.elapsed());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            usage()
        }
    }
}

/// `repro serve`: build the serving state and run the HTTP + WHOIS
/// listeners until the process is killed (CI backgrounds it).
fn cmd_serve(args: &[String]) -> ExitCode {
    let mut full = false;
    let mut seed: u64 = 2020;
    let mut port: u16 = 0;
    let mut whois_port: u16 = 0;
    let mut workers: usize = 4;
    let mut cap: usize = 64;
    let mut rate_burst: u64 = 256;
    let mut rate_per_sec: f64 = 64.0;
    let mut addr_file: Option<PathBuf> = None;
    let mut debug_routes = false;
    let mut trace: Option<TraceMode> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(parsed) = parse_trace_flag(a) {
            match parsed {
                Ok(mode) => trace = Some(mode),
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            }
            continue;
        }
        let mut grab = |what: &str| -> Option<String> {
            let v = it.next().cloned();
            if v.is_none() {
                eprintln!("{what} needs a value");
            }
            v
        };
        match a.as_str() {
            "--full" => full = true,
            "--seed" => match grab("--seed").and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--port" => match grab("--port").and_then(|v| v.parse().ok()) {
                Some(v) => port = v,
                None => return usage(),
            },
            "--whois-port" => match grab("--whois-port").and_then(|v| v.parse().ok()) {
                Some(v) => whois_port = v,
                None => return usage(),
            },
            "--workers" => match grab("--workers").and_then(|v| v.parse().ok()) {
                Some(v) => workers = v,
                None => return usage(),
            },
            "--cap" => match grab("--cap").and_then(|v| v.parse().ok()) {
                Some(v) => cap = v,
                None => return usage(),
            },
            "--rate-burst" => match grab("--rate-burst").and_then(|v| v.parse().ok()) {
                Some(v) => rate_burst = v,
                None => return usage(),
            },
            "--rate-per-sec" => match grab("--rate-per-sec").and_then(|v| v.parse().ok()) {
                Some(v) => rate_per_sec = v,
                None => return usage(),
            },
            "--addr-file" => match grab("--addr-file") {
                Some(v) => addr_file = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--debug" => debug_routes = true,
            other => {
                eprintln!("unexpected serve argument {other:?}");
                return usage();
            }
        }
    }

    // The server runs until killed, so the guard lives for the whole
    // process; buffered JSONL output may lose its tail on SIGKILL.
    let _trace_guard = match trace.as_ref().map(install_trace) {
        Some(Ok(guard)) => Some(guard),
        Some(Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        None => None,
    };

    let config = if full {
        StudyConfig::full_seeded(seed)
    } else {
        StudyConfig::quick_seeded(seed)
    };
    eprintln!("# building serving state (scale {:?}, seed {seed})…", config.scale);
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
    let server = match serve::Server::start(app, server_config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let http = server.http_addr();
    let Some(whois) = server.whois_addr() else {
        eprintln!("whois listener failed to come up");
        return ExitCode::FAILURE;
    };
    println!("listening http={http} whois={whois}");
    if let Some(path) = &addr_file {
        // The file is the startup handshake for scripts: it appears
        // only once both listeners are live.
        if let Err(e) = fs::write(path, format!("{http}\n{whois}\n")) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("# wrote {}", path.display());
    }
    eprintln!("# serving until killed (workers {workers}, connection cap {cap})");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `repro loadgen`: drive a running server, print the throughput and
/// latency report, exit non-zero on any protocol error.
fn cmd_loadgen(args: &[String]) -> ExitCode {
    let mut config = serve::loadgen::LoadgenConfig::default();
    let mut addr: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut grab = |what: &str| -> Option<String> {
            let v = it.next().cloned();
            if v.is_none() {
                eprintln!("{what} needs a value");
            }
            v
        };
        match a.as_str() {
            "--addr" => match grab("--addr") {
                Some(v) => addr = Some(v),
                None => return usage(),
            },
            "--addr-file" => match grab("--addr-file") {
                Some(path) => match fs::read_to_string(&path) {
                    // First line of the handshake file is the HTTP address.
                    Ok(text) => addr = text.lines().next().map(str::to_string),
                    Err(e) => {
                        eprintln!("cannot read {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => return usage(),
            },
            "--clients" => match grab("--clients").and_then(|v| v.parse().ok()) {
                Some(v) => config.clients = v,
                None => return usage(),
            },
            "--requests" => match grab("--requests").and_then(|v| v.parse().ok()) {
                Some(v) => config.requests_per_client = v,
                None => return usage(),
            },
            "--seed" => match grab("--seed").and_then(|v| v.parse().ok()) {
                Some(v) => config.seed = v,
                None => return usage(),
            },
            other => {
                eprintln!("unexpected loadgen argument {other:?}");
                return usage();
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("loadgen needs --addr HOST:PORT or --addr-file PATH");
        return usage();
    };
    config.addr = match addr.trim().parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bad address {addr:?}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match serve::loadgen::run(&config) {
        Ok(report) => {
            print!("{}", report.render());
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                eprintln!("loadgen: protocol errors detected");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro bench [--json PATH] [--full] [--seed N] [--threads N]
/// [--baseline PATH] [--max-ratio X]`: time the named pipeline stages
/// (world build, render_days, MRT encode, delegation pipeline, fig6
/// end-to-end) and optionally write the machine-readable JSON report.
/// With `--baseline`, compare every guarded quick-scale stage
/// (`render_days`, `mrt_encode`, `delegation_pipeline`) against the
/// committed JSON and exit non-zero past `--max-ratio` (default 2.0).
fn cmd_bench(args: &[String]) -> ExitCode {
    let mut json_path: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut max_ratio = 2.0f64;
    let mut max_overhead_pct: Option<f64> = None;
    let mut max_lint_ms = 2000.0f64;
    let mut full = false;
    let mut seed: u64 = 2020;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => full = true,
            "--json" => {
                let Some(p) = it.next() else {
                    eprintln!("--json needs a PATH");
                    return usage();
                };
                json_path = Some(PathBuf::from(p));
            }
            "--baseline" => {
                let Some(p) = it.next() else {
                    eprintln!("--baseline needs a PATH");
                    return usage();
                };
                baseline_path = Some(PathBuf::from(p));
            }
            "--max-ratio" => {
                let Some(v) = it.next().and_then(|s| s.parse::<f64>().ok()) else {
                    eprintln!("--max-ratio needs a number");
                    return usage();
                };
                max_ratio = v;
            }
            "--max-overhead-pct" => {
                let Some(v) = it.next().and_then(|s| s.parse::<f64>().ok()) else {
                    eprintln!("--max-overhead-pct needs a number");
                    return usage();
                };
                max_overhead_pct = Some(v);
            }
            "--max-lint-ms" => {
                let Some(v) = it.next().and_then(|s| s.parse::<f64>().ok()) else {
                    eprintln!("--max-lint-ms needs a number");
                    return usage();
                };
                max_lint_ms = v;
            }
            "--seed" => {
                let Some(v) = it.next().and_then(|s| s.parse().ok()) else {
                    eprintln!("--seed needs an integer");
                    return usage();
                };
                seed = v;
            }
            "--threads" => {
                let Some(v) = it.next().and_then(|s| s.parse::<usize>().ok()) else {
                    eprintln!("--threads needs an integer");
                    return usage();
                };
                env::set_var("DRYWELLS_THREADS", v.max(1).to_string());
            }
            other => {
                eprintln!("unexpected bench argument {other:?}");
                return usage();
            }
        }
    }
    let report = match drywells::bench::run(seed, full) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render());
    if let Some(path) = &json_path {
        if let Err(e) = fs::write(path, report.to_json()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("# wrote {}", path.display());
    }
    if let Some(path) = &baseline_path {
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        match drywells::bench::check_regression(&report, &text, max_ratio) {
            Ok(msg) => println!("{msg}"),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(max_pct) = max_overhead_pct {
        match drywells::bench::check_overhead(&report, max_pct) {
            Ok(msg) => println!("{msg}"),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // The lint gate runs on every CI job, so its wall time is always
    // budgeted (override the 2 s default with --max-lint-ms).
    match drywells::bench::check_lint_budget(&report, max_lint_ms) {
        Ok(msg) => println!("{msg}"),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `repro archive --out DIR [--full] [--seed N] [--threads N]`:
/// generate the RFC 6396 collector archive for the study window and
/// write it to a directory that `repro query` (and the serve layer)
/// can scan.
fn cmd_archive(args: &[String]) -> ExitCode {
    let mut out: Option<PathBuf> = None;
    let mut full = false;
    let mut seed: u64 = 2020;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => full = true,
            "--out" => {
                let Some(p) = it.next() else {
                    eprintln!("--out needs a DIR");
                    return usage();
                };
                out = Some(PathBuf::from(p));
            }
            "--seed" => {
                let Some(v) = it.next().and_then(|s| s.parse().ok()) else {
                    eprintln!("--seed needs an integer");
                    return usage();
                };
                seed = v;
            }
            "--threads" => {
                let Some(v) = it.next().and_then(|s| s.parse::<usize>().ok()) else {
                    eprintln!("--threads needs an integer");
                    return usage();
                };
                env::set_var("DRYWELLS_THREADS", v.max(1).to_string());
            }
            other => {
                eprintln!("unexpected archive argument {other:?}");
                return usage();
            }
        }
    }
    let Some(out) = out else {
        eprintln!("archive needs --out DIR");
        return usage();
    };
    let config = if full {
        StudyConfig::full_seeded(seed)
    } else {
        StudyConfig::quick_seeded(seed)
    };
    eprintln!("# building world and rendering days (scale {:?}, seed {seed})…", config.scale);
    let study = experiments::build_bgp_study(&config);
    let archive = match bgpsim::updates::CollectorArchiveV2::generate(
        &study.world,
        study.visibility_model(),
        study.world.span,
        &bgpsim::updates::ArchiveV2Config::default(),
    ) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("archive generation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match archive.write_dir(&out) {
        Ok(n) => {
            println!(
                "wrote {n} MRT files ({:.1} MiB) to {}",
                archive.total_bytes() as f64 / (1024.0 * 1024.0),
                out.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", out.display());
            ExitCode::FAILURE
        }
    }
}

/// `repro query DIR [--filter F] [--format csv|jsonl] [--lossy]
/// [--limit N] [--threads N]`: scan an on-disk MRT archive directory,
/// print matching rows to stdout and scan accounting to stderr.
/// Strict mode exits non-zero on the first damaged record; `--lossy`
/// skips damage, reports it (per-reason counts plus bytes left
/// unscanned after an aborted file), and still exits zero.
fn cmd_query(args: &[String]) -> ExitCode {
    use bgpsim::query::{Filter, OutputFormat, QueryOptions};
    let mut dir: Option<PathBuf> = None;
    let mut opts = QueryOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--filter" => {
                let Some(v) = it.next() else {
                    eprintln!("--filter needs a filter string");
                    return usage();
                };
                opts.filter = match Filter::parse(v) {
                    Ok(f) => f,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--format" => {
                let Some(v) = it.next() else {
                    eprintln!("--format needs csv or jsonl");
                    return usage();
                };
                opts.format = match v.parse::<OutputFormat>() {
                    Ok(f) => f,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--lossy" => opts.lossy = true,
            "--limit" => {
                let Some(v) = it.next().and_then(|s| s.parse::<usize>().ok()) else {
                    eprintln!("--limit needs an integer");
                    return usage();
                };
                opts.limit = Some(v);
            }
            "--threads" => {
                let Some(v) = it.next().and_then(|s| s.parse::<usize>().ok()) else {
                    eprintln!("--threads needs an integer");
                    return usage();
                };
                env::set_var("DRYWELLS_THREADS", v.max(1).to_string());
                opts.threads = v.max(1);
            }
            other if dir.is_none() && !other.starts_with('-') => {
                dir = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("unexpected query argument {other:?}");
                return usage();
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("query needs an archive DIR (see `repro archive --out DIR`)");
        return usage();
    };
    let files = match bgpsim::query::files_from_dir(&dir) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot read archive dir {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    if files.is_empty() {
        eprintln!("no archive files (rib-*.mrt / updates-*.mrt) in {}", dir.display());
        return ExitCode::FAILURE;
    }
    match bgpsim::query::run_query(&files, &opts) {
        Ok(out) => {
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
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("query failed: {e} (use --lossy to skip damaged records)");
            ExitCode::FAILURE
        }
    }
}

/// `repro lint [--update-baseline] [--format json] [--explain Ln]`:
/// the workspace invariant gate. Scans every crate against rules
/// L1–L10 and compares the findings to the committed ratchet
/// baseline; new findings and stale baseline entries both exit
/// non-zero. `--format json` emits the SARIF-shaped report CI uploads
/// as an artifact; `--explain` prints the invariant behind a rule.
fn cmd_lint(args: &[String]) -> ExitCode {
    let mut update = false;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--update-baseline" => update = true,
            "--format" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("json") => json = true,
                    Some("text") => json = false,
                    _ => {
                        eprintln!("lint: --format needs a value (json or text)");
                        return usage();
                    }
                }
            }
            "--explain" => {
                let Some(id) = args.get(i + 1) else {
                    eprintln!("lint: --explain needs a rule id (L1…L10)");
                    return usage();
                };
                return match lint::Rule::parse(id) {
                    Some(rule) => {
                        println!("{}", rule.explain());
                        ExitCode::SUCCESS
                    }
                    None => {
                        eprintln!(
                            "lint: unknown rule {id:?}; known rules: {}",
                            lint::ALL_RULES
                                .iter()
                                .map(|r| r.id())
                                .collect::<Vec<_>>()
                                .join(", ")
                        );
                        ExitCode::FAILURE
                    }
                };
            }
            other => {
                eprintln!("lint: unexpected argument {other:?}");
                return usage();
            }
        }
        i += 1;
    }
    let cwd = env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let Some(root) = lint::find_workspace_root(&cwd) else {
        eprintln!("lint: no [workspace] Cargo.toml above {}", cwd.display());
        return ExitCode::FAILURE;
    };
    match lint::run(&root, &root.join(lint::BASELINE_FILE), update) {
        Ok(report) => {
            if json {
                print!("{}", report.to_json());
            } else {
                print!("{}", report.render());
            }
            if report.ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("lint: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one named artifact and return its rendered text; `None` for an
/// unknown name. Shared by the default artifact command and
/// `repro flight-dump`.
fn artifact_output(artifact: &str, config: &StudyConfig) -> Option<String> {
    Some(match artifact {
        "table1" => experiments::table1::run().rendered,
        "s2-waitlists" => experiments::s2_waitlists::run(config).rendered,
        "fig1" => experiments::fig1::run(config).rendered,
        "fig2" => experiments::fig2::run(config).rendered,
        "fig3" => experiments::fig3::run(config).rendered,
        "fig4" => experiments::fig4::run().rendered,
        "fig5" => experiments::fig5::run(config).rendered,
        "fig6" => experiments::fig6::run(config).rendered,
        "s4-coverage" => experiments::s4_coverage::run(config).rendered,
        "s5-prediction" => experiments::s5_prediction::run(config)
            .map(|r| r.rendered)
            .unwrap_or_else(|| "insufficient data".into()),
        "s6-amortization" => experiments::s6_amortization::run().rendered,
        "s6-behavior" => experiments::s6_behavior::run(config).rendered,
        "s7-combined" => experiments::s7_combined::run(config).rendered,
        "sensitivity" => experiments::sensitivity::run(config).rendered,
        "all" => run_all(config),
        _ => return None,
    })
}

/// `repro flight-dump [artifact] [--full] [--seed N] [--threads N]
/// [--out PATH]`: run an artifact (default fig6) with the always-on
/// flight recorder, then dump the ring as trace-check-compatible
/// JSONL — to stdout, or to `--out PATH`. `repro trace-check` accepts
/// the output directly.
fn cmd_flight_dump(args: &[String]) -> ExitCode {
    let mut artifact: Option<String> = None;
    let mut full = false;
    let mut seed: u64 = 2020;
    let mut out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => full = true,
            "--seed" => {
                let Some(v) = it.next().and_then(|s| s.parse().ok()) else {
                    eprintln!("--seed needs an integer");
                    return usage();
                };
                seed = v;
            }
            "--threads" => {
                let Some(v) = it.next().and_then(|s| s.parse::<usize>().ok()) else {
                    eprintln!("--threads needs an integer");
                    return usage();
                };
                env::set_var("DRYWELLS_THREADS", v.max(1).to_string());
            }
            "--out" => {
                let Some(p) = it.next() else {
                    eprintln!("--out needs a PATH");
                    return usage();
                };
                out = Some(PathBuf::from(p));
            }
            other if artifact.is_none() && !other.starts_with('-') => {
                artifact = Some(other.to_string());
            }
            other => {
                eprintln!("unexpected flight-dump argument {other:?}");
                return usage();
            }
        }
    }
    let artifact = artifact.unwrap_or_else(|| "fig6".to_string());
    let config = if full {
        StudyConfig::full_seeded(seed)
    } else {
        StudyConfig::quick_seeded(seed)
    };
    eprintln!("# running {artifact} with the flight recorder (scale {:?}, seed {seed})…", config.scale);
    if artifact_output(&artifact, &config).is_none() {
        eprintln!("unknown artifact {artifact:?}");
        return usage();
    }
    let snapshot = obs::flight::global().snapshot_jsonl();
    let lines = snapshot.lines().count();
    match &out {
        Some(path) => {
            if let Err(e) = fs::write(path, &snapshot) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("# wrote {lines} JSONL line(s) to {}", path.display());
        }
        None => {
            print!("{snapshot}");
            eprintln!("# {lines} JSONL line(s) from the flight ring");
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    // The serving subcommands have their own flags; dispatch early.
    match args.first().map(String::as_str) {
        Some("serve") => return cmd_serve(&args[1..]),
        Some("loadgen") => return cmd_loadgen(&args[1..]),
        Some("profile") => return cmd_profile(&args[1..]),
        Some("trace-check") => return cmd_trace_check(&args[1..]),
        Some("flight-dump") => return cmd_flight_dump(&args[1..]),
        Some("bench") => return cmd_bench(&args[1..]),
        Some("lint") => return cmd_lint(&args[1..]),
        Some("archive") => return cmd_archive(&args[1..]),
        Some("query") => return cmd_query(&args[1..]),
        _ => {}
    }
    let mut artifact: Option<String> = None;
    let mut full = false;
    let mut seed: u64 = 2020;
    let mut csv_dir: Option<PathBuf> = None;
    let mut trace: Option<TraceMode> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(parsed) = parse_trace_flag(a) {
            match parsed {
                Ok(mode) => trace = Some(mode),
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            }
            continue;
        }
        match a.as_str() {
            "--full" => full = true,
            "--csv" => {
                let Some(dir) = it.next() else {
                    eprintln!("--csv needs a directory");
                    return usage();
                };
                csv_dir = Some(PathBuf::from(dir));
            }
            "--seed" => {
                let Some(v) = it.next().and_then(|s| s.parse().ok()) else {
                    eprintln!("--seed needs an integer");
                    return usage();
                };
                seed = v;
            }
            "--threads" => {
                let Some(v) = it.next().and_then(|s| s.parse::<usize>().ok()) else {
                    eprintln!("--threads needs an integer");
                    return usage();
                };
                // The pool reads DRYWELLS_THREADS at each fan-out.
                env::set_var("DRYWELLS_THREADS", v.max(1).to_string());
            }
            "list" | "--help" | "-h" => return usage(),
            other if artifact.is_none() => artifact = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument {other:?}");
                return usage();
            }
        }
    }
    let Some(artifact) = artifact else {
        return usage();
    };
    // Installed before the run; dropped (flushing JSONL) before exit.
    let trace_guard = match trace.as_ref().map(install_trace) {
        Some(Ok(guard)) => Some(guard),
        Some(Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        None => None,
    };

    let config = if full {
        StudyConfig::full_seeded(seed)
    } else {
        StudyConfig::quick_seeded(seed)
    };
    eprintln!(
        "# scale: {:?}, seed: {seed}, BGP window {} → {}, workers: {}",
        config.scale,
        config.world.span.start,
        config.world.span.end,
        bgpsim::par::num_threads()
    );

    // lint:allow(L3): stderr wall-time note only, never reaches artifacts
    let t0 = Instant::now();
    let Some(output) = artifact_output(&artifact, &config) else {
        eprintln!("unknown artifact {artifact:?}");
        return usage();
    };
    if let Some(dir) = &csv_dir {
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        let write = |name: &str, contents: String| {
            let path = dir.join(name);
            match fs::write(&path, contents) {
                Ok(()) => eprintln!("# wrote {}", path.display()),
                Err(e) => eprintln!("# FAILED to write {}: {e}", path.display()),
            }
        };
        let wants = |a: &str| artifact == "all" || artifact == a;
        if wants("fig1") {
            write("fig1_prices.csv", csv::fig1_csv(&experiments::fig1::run(&config)));
        }
        if wants("fig2") {
            write("fig2_transfers.csv", csv::fig2_csv(&experiments::fig2::run(&config)));
        }
        if wants("fig3") {
            write("fig3_inter_rir.csv", csv::fig3_csv(&experiments::fig3::run(&config)));
        }
        if wants("fig4") {
            write("fig4_leasing.csv", csv::fig4_csv(&experiments::fig4::run()));
        }
        if wants("fig5") {
            write("fig5_fail_rates.csv", csv::fig5_csv(&experiments::fig5::run(&config)));
        }
        if wants("fig6") {
            write("fig6_delegations.csv", csv::fig6_csv(&experiments::fig6::run(&config)));
        }
        if wants("sensitivity") {
            write(
                "sensitivity.csv",
                csv::sensitivity_csv(&experiments::sensitivity::run(&config)),
            );
        }
    }
    println!("{output}");
    eprintln!("# regenerated {artifact} in {:.2?}", t0.elapsed());
    drop(trace_guard);
    ExitCode::SUCCESS
}
