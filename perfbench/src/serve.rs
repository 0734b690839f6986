//! The `serve` workload: RDAP, transfer feeds and port-43 WHOIS over
//! sockets.
//!
//! An in-process `serve::Server` with 2 workers serves
//! `App::from_study(full, None)` for the full preset. The per-IP rate limiter is off: one
//! process stands in for many client IPs. Load comes from this process
//! over at most 2 connections at a time: keep-alive HTTP, closed for
//! the duration of each one-line WHOIS exchange, so no idle connection
//! ever holds a worker another client waits for.
//!
//! The request mix is drawn from the served database with `--seed`:
//! RDAP address lookups inside sampled objects, RDAP prefix lookups of
//! exact objects, addresses no object covers, transfer feeds and WHOIS
//! lines. Every response is checked against an expectation computed
//! in-process; a refusal (429, 503), a timeout or any other unexpected
//! status is a failed request.
//!
//! Phases: a warm-up; a closed loop (each of 2 clients sends its next
//! request when the last completes); and an open loop at a fixed
//! offered rate, where each request is timed from when it was due.
//!
//! `op_ms` is the CPU time this process (server and clients) spends per
//! completed closed-loop request. Wall-clock latency and rate are
//! per-layer numbers (`serve.open_p50_ms`, `serve.closed_rps`) because
//! on a shared VM they measure the hypervisor: with 4 busy threads on 2
//! vCPUs, 30–40% of the VM's CPU time was stolen, and the same code's
//! open-loop median read 0.52–2.51 ms and its closed-loop rate
//! 3379–5026/s from run to run.

use crate::proc;
use crate::stats::{self, Rng};
use crate::trace::{self, Tracer};
use crate::{Args, Outcome};
use drywells::experiments::build_bgp_study_cached;
use drywells::StudyConfig;
use rdap::database::{DbBuildConfig, WhoisDb};
use rdap::inetnum::Inetnum;
use rdap::server::RdapServer;
use serve::client::Client;
use serve::http::{read_request, Request};
use serve::{App, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server worker threads and client connections.
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// The open loop's offered rate, requests per second over both
/// clients: about a third of the closed-loop capacity measured on a
/// 2-CPU container, so the server is loaded but never saturated.
pub const OPEN_RATE: f64 = 1000.0;
/// Alternating closed- and open-loop slices per run.
const SLICES: usize = 4;
/// Distinct requests in the plan; the clients cycle through it.
const PLAN_LEN: usize = 2000;
/// Client-side timeout: a request slower than this failed.
const TIMEOUT: Duration = Duration::from_secs(5);

/// The mix, in parts per 100 requests. Address, prefix and feed shares
/// are the repository's load generator's (`serve::loadgen`, 50/15/15).
/// Its other 20 parts go to `/healthz` and `/metrics`, which run no
/// lookup layer; here they go to the two kinds it lacks, addresses no
/// object covers and port-43 WHOIS lines, 10 each. No measured traffic
/// backs any of these shares.
const MIX: [(Kind, u64); 5] = [
    (Kind::RdapAddr, 50),
    (Kind::RdapPrefix, 15),
    (Kind::RdapMiss, 10),
    (Kind::Feed, 15),
    (Kind::Whois, 10),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    RdapAddr,
    RdapPrefix,
    RdapMiss,
    Feed,
    Whois,
}

/// What a correct response looks like.
#[derive(Clone, Debug)]
pub enum Expect {
    /// 200 naming this object: its handle and its range's ends.
    Object {
        handle: String,
        start: String,
        end: String,
    },
    /// 404: no object covers the address.
    NotFound,
    /// 200 with exactly these bytes.
    Body(Arc<Vec<u8>>),
}

/// One planned request: an HTTP path, or a WHOIS line.
#[derive(Clone, Debug)]
pub struct Planned {
    pub kind: Kind,
    pub target: String,
    pub expect: Expect,
}

/// A running server with the addresses to reach it.
pub struct Rig {
    server: Server,
    pub http: SocketAddr,
    pub whois: SocketAddr,
}

impl Rig {
    pub fn app(&self) -> &App {
        self.server.app()
    }

    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Bind a server over `app` and warm both client connections, then
/// close them (an idle keep-alive connection would hold a worker until
/// its 5 s read timeout).
pub fn start(app: App, tr: &mut Tracer) -> Result<Rig, String> {
    let config = ServerConfig {
        workers: WORKERS,
        whois_addr: Some(SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0)),
        ..ServerConfig::default()
    };
    let server = tr
        .span("serve.bind_ms", |_| Server::start(app, config))
        .map_err(|e| format!("cannot start the server: {e}"))?;
    let http = server.http_addr();
    let whois = server
        .whois_addr()
        .ok_or("the WHOIS listener did not bind")?;
    for _ in 0..CLIENTS {
        let mut c = Client::new(http, TIMEOUT);
        for _ in 0..3 {
            let r = c
                .get("/healthz")
                .map_err(|e| format!("warm-up request: {e}"))?;
            if r.status != 200 {
                return Err(format!("warm-up request answered {}", r.status));
            }
        }
    }
    Ok(Rig {
        server,
        http,
        whois,
    })
}

/// The served study: the full preset, what `repro serve --full` serves.
/// The seed draws the traffic, not the data: the cost of a request
/// depends on the served world (closed-loop rates over two seeds' worlds
/// differed by 20% while each repeated within 2%).
pub fn served() -> StudyConfig {
    StudyConfig::full()
}

/// The workload's set-up: study, App, server bind and warm connections.
pub fn setup(tr: &mut Tracer) -> Result<Rig, String> {
    let cfg = served();
    if tr.on() {
        tr.span("core.study_build_ms", |_| build_bgp_study_cached(&cfg));
    }
    let app = tr.span("serve.app_build_ms", |_| App::from_study(&cfg, None));
    start(app, tr)
}

/// The smallest object covering `addr` — what an address lookup must
/// return (the first of equal-sized ones, as the database scans).
fn covering(objects: &[Inetnum], addr: u32) -> Option<&Inetnum> {
    objects
        .iter()
        .filter(|o| o.range.contains_address(addr))
        .min_by_key(|o| o.num_addresses())
}

fn object_expect(o: &Inetnum) -> Expect {
    Expect::Object {
        handle: o.handle(),
        start: nettypes::fmt_ipv4(o.range.start()),
        end: nettypes::fmt_ipv4(o.range.end()),
    }
}

/// Parse a request the way the server would receive it.
pub fn parse(path: &str) -> Result<Request, String> {
    let raw = format!("GET {path} HTTP/1.1\r\nHost: drywells\r\n\r\n");
    read_request(&mut raw.as_bytes())
        .map_err(|e| format!("request for {path} does not parse: {e:?}"))?
        .ok_or(format!("request for {path} is empty"))
}

fn client_ip() -> IpAddr {
    IpAddr::V4(Ipv4Addr::LOCALHOST)
}

/// Draw the request plan from the served database.
pub fn plan(app: &App, seed: u64, len: usize) -> Result<Vec<Planned>, String> {
    let objects = app.whois_db().objects();
    if objects.is_empty() {
        return Err("the served database is empty".into());
    }
    let prefixed: Vec<&Inetnum> = objects
        .iter()
        .filter(|o| o.range.as_single_prefix().is_some())
        .collect();
    if prefixed.is_empty() {
        return Err("no object of the served database is a prefix".into());
    }
    let mut feeds = Vec::new();
    for rir in registry::rir::Rir::ALL {
        let path = format!("/feed/transfers/{}.json", rir.label());
        let resp = app.handle(&parse(&path)?, client_ip());
        if resp.status != 200 {
            return Err(format!("{path} answers {} in-process", resp.status));
        }
        feeds.push((path, Arc::new(resp.body)));
    }
    // The mix dealt in exact proportions: every block of 100
    // requests holds each kind its share of times, in a seeded order.
    let deck: Vec<Kind> = MIX
        .iter()
        .flat_map(|&(k, w)| std::iter::repeat_n(k, w as usize))
        .collect();
    let mut rng = Rng::new(seed);
    let mut kinds = Vec::with_capacity(len);
    while kinds.len() < len {
        let mut block = deck.clone();
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i as u64 + 1) as usize);
        }
        kinds.extend(block);
    }
    let inside = |rng: &mut Rng| {
        let o = &objects[rng.below(objects.len() as u64) as usize];
        o.range.start() + rng.below(o.num_addresses()) as u32
    };
    let mut out = Vec::with_capacity(len);
    for &kind in &kinds[..len] {
        out.push(match kind {
            Kind::RdapAddr => {
                let addr = inside(&mut rng);
                let o = covering(objects, addr)
                    .ok_or("an address inside an object has no covering object")?;
                Planned {
                    kind,
                    target: format!("/rdap/ip/{}", nettypes::fmt_ipv4(addr)),
                    expect: object_expect(o),
                }
            }
            Kind::RdapPrefix => {
                let o = prefixed[rng.below(prefixed.len() as u64) as usize];
                let p = o
                    .range
                    .as_single_prefix()
                    .ok_or("prefix object lost its prefix")?;
                let exact = objects
                    .iter()
                    .find(|x| x.range == o.range)
                    .ok_or("no exact object")?;
                Planned {
                    kind,
                    target: format!("/rdap/ip/{p}"),
                    expect: object_expect(exact),
                }
            }
            Kind::RdapMiss => {
                let addr = (0..1000)
                    .map(|_| rng.next_u64() as u32)
                    .find(|a| covering(objects, *a).is_none())
                    .ok_or("no uncovered address found")?;
                Planned {
                    kind,
                    target: format!("/rdap/ip/{}", nettypes::fmt_ipv4(addr)),
                    expect: Expect::NotFound,
                }
            }
            Kind::Feed => {
                let (path, body) = &feeds[rng.below(feeds.len() as u64) as usize];
                Planned {
                    kind,
                    target: path.clone(),
                    expect: Expect::Body(Arc::clone(body)),
                }
            }
            Kind::Whois => {
                let line = nettypes::fmt_ipv4(inside(&mut rng));
                let body = app.handle_whois_line(&line).into_bytes();
                Planned {
                    kind,
                    target: line,
                    expect: Expect::Body(Arc::new(body)),
                }
            }
        });
    }
    Ok(out)
}

/// Check one response against its plan entry.
pub fn check(req: &Planned, status: u16, body: &[u8]) -> Result<(), String> {
    let want_status = match req.expect {
        Expect::NotFound => 404,
        _ => 200,
    };
    if status != want_status {
        return Err(format!(
            "{} answered {status}, expected {want_status}",
            req.target
        ));
    }
    match &req.expect {
        Expect::NotFound => Ok(()),
        Expect::Body(want) if body == want.as_slice() => Ok(()),
        Expect::Body(_) => Err(format!("{}: body differs from the App's", req.target)),
        Expect::Object { handle, start, end } => {
            let text = String::from_utf8_lossy(body);
            for field in [handle, start, end] {
                if !text.contains(&format!("\"{field}\"")) {
                    return Err(format!("{}: response does not name {field}", req.target));
                }
            }
            Ok(())
        }
    }
}

/// One port-43 exchange: a line out, the response up to close.
fn whois(addr: SocketAddr, line: &str) -> std::io::Result<Vec<u8>> {
    let mut s = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    s.set_read_timeout(Some(TIMEOUT))?;
    s.set_write_timeout(Some(TIMEOUT))?;
    s.write_all(format!("{line}\r\n").as_bytes())?;
    let mut out = Vec::new();
    s.read_to_end(&mut out)?;
    Ok(out)
}

/// One completed (or failed) request.
#[derive(Clone, Debug)]
pub struct Sample {
    pub kind: Kind,
    pub status: u16,
    pub error: Option<String>,
    /// Seconds from due (open loop) or send (closed loop) to done.
    pub latency_s: f64,
    /// Seconds the send ran behind schedule (open loop only).
    pub late_s: f64,
}

/// One client: issue `plan` requests from `offset` on until `until`;
/// with `interval`, on a fixed schedule (open loop), else back to back.
pub fn client(
    rig_http: SocketAddr,
    rig_whois: SocketAddr,
    plan: &[Planned],
    offset: usize,
    (start, until): (Instant, Instant),
    interval: Option<Duration>,
    tr: &mut Tracer,
) -> Vec<Sample> {
    let mut http: Option<Client> = None;
    let mut samples = Vec::new();
    for k in 0.. {
        let due = interval.map_or_else(Instant::now, |iv| start + iv * k as u32);
        if due >= until {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let req = &plan[(offset + k) % plan.len()];
        tr.set_id(k as u64);
        let result = tr.span("serve.socket_us", |_| match req.kind {
            Kind::Whois => {
                // One connection at a time per client: close the
                // keep-alive one for the duration of the exchange.
                http = None;
                whois(rig_whois, &req.target).map(|b| (200, b))
            }
            _ => http
                .get_or_insert_with(|| Client::new(rig_http, TIMEOUT))
                .get(&req.target)
                .map(|r| (r.status, r.body)),
        });
        let done = Instant::now();
        let (status, error) = match result {
            Ok((status, body)) => (status, check(req, status, &body).err()),
            Err(e) => {
                http = None;
                (0, Some(format!("{}: {e}", req.target)))
            }
        };
        samples.push(Sample {
            kind: req.kind,
            status,
            error,
            latency_s: (done - due).as_secs_f64(),
            late_s: (sent - due).as_secs_f64(),
        });
    }
    samples
}

/// Run [`CLIENTS`] clients for about `secs` seconds; the samples and
/// the seconds until the last client finished.
pub fn load(
    rig: &Rig,
    plan: &[Planned],
    secs: f64,
    rate: Option<f64>,
    tr: &mut Tracer,
) -> (Vec<Sample>, f64) {
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(secs);
    let interval = rate.map(|r| Duration::from_secs_f64(CLIENTS as f64 / r));
    let (http, whois) = (rig.http, rig.whois);
    let mut forks: Vec<Tracer> = (0..CLIENTS).map(|_| tr.fork()).collect();
    let samples = std::thread::scope(|s| {
        let handles: Vec<_> = forks
            .iter_mut()
            .enumerate()
            .map(|(c, t)| {
                s.spawn(move || {
                    client(
                        http,
                        whois,
                        plan,
                        c * plan.len() / CLIENTS,
                        (t0, until),
                        interval,
                        t,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect::<Vec<_>>()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    for f in forks {
        tr.join(f);
    }
    (samples, elapsed)
}

/// Count failures into `out`; the successful samples' latencies.
pub fn tally(samples: &[Sample], out: &mut Outcome) -> Vec<f64> {
    out.attempted += samples.len() as u64;
    let failed: Vec<&Sample> = samples.iter().filter(|s| s.error.is_some()).collect();
    if let Some(first) = failed.first() {
        out.fail(
            failed.len() as u64,
            format!(
                "{} of {} requests failed; first: {}",
                failed.len(),
                samples.len(),
                first.error.as_deref().unwrap_or("")
            ),
        );
    }
    samples
        .iter()
        .filter(|s| s.error.is_none())
        .map(|s| s.latency_s)
        .collect()
}

/// Time each in-process layer over the plan: RDAP lookups, App
/// dispatch, HTTP parsing and WHOIS lines.
fn in_process(
    cfg: &StudyConfig,
    rig: &Rig,
    plan: &[Planned],
    tr: &mut Tracer,
) -> Result<(), String> {
    let study = build_bgp_study_cached(cfg);
    let db = tr.span("rdap.db_build_ms", |_| {
        WhoisDb::build_from_world(
            &study.world,
            study.world.span.end,
            &DbBuildConfig::default(),
        )
    });
    tr.span("registry.simulate_ms", |_| {
        registry::simulate::simulate(&cfg.registry)
    });
    let rdap = RdapServer::new(db);
    let app = rig.app();
    for (i, req) in plan.iter().enumerate() {
        tr.set_id(i as u64);
        match req.kind {
            Kind::RdapAddr | Kind::RdapMiss => {
                let addr = nettypes::parse_ipv4(req.target.trim_start_matches("/rdap/ip/"))
                    .map_err(|e| format!("{}: {e}", req.target))?;
                let name = if req.kind == Kind::RdapAddr {
                    "rdap.lookup_hit_us"
                } else {
                    "rdap.lookup_miss_us"
                };
                let hit = tr.span(name, |_| rdap.query_ip(addr)).is_ok();
                if hit != (req.kind == Kind::RdapAddr) {
                    return Err(format!("in-process lookup of {} hit={hit}", req.target));
                }
            }
            Kind::Whois => {
                let text = tr.span("serve.whois_line_us", |_| {
                    app.handle_whois_line(&req.target)
                });
                check(req, 200, text.as_bytes())?;
                continue;
            }
            _ => {}
        }
        let parsed = tr.span("serve.http_parse_us", |_| parse(&req.target))?;
        let name = if req.kind == Kind::Feed {
            "serve.handle_us.feed"
        } else {
            "serve.handle_us.rdap"
        };
        let resp = tr.span(name, |_| app.handle(&parsed, client_ip()));
        check(req, resp.status, &resp.body)?;
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setups = vec![proc::setup_sample(args)?];
    let mut out = Outcome::default();
    let mut tr = Tracer::new(args.trace);
    let cfg = served();
    let rig = setup(&mut tr)?;
    let plan = plan(rig.app(), args.seed, PLAN_LEN)?;

    // Shares of `--seconds`: warm-up, closed loop, open loop, and in a
    // traced run the alternating traced and untraced closed loops.
    let secs = args.seconds;
    let (closed_secs, open_secs) = if args.trace {
        (0.15 * secs, 0.4 * secs)
    } else {
        (0.4 * secs, 0.5 * secs)
    };
    tr.set_on(false);
    tally(
        &load(&rig, &plan, (0.05 * secs).max(0.5), None, &mut tr).0,
        &mut out,
    );
    // Closed and open loops alternate in slices, so the quietest closed
    // slice is drawn from across the whole run rather than one stretch.
    let (mut closed, mut cpu_per_request) = (Vec::new(), Vec::new());
    let (mut closed_ok, mut closed_wall) = (0, 0.0);
    let (mut open, mut open_lat) = (Vec::new(), Vec::new());
    for _ in 0..SLICES {
        let cpu0 = stats::cpu_s()?;
        let (samples, wall) = load(&rig, &plan, closed_secs / SLICES as f64, None, &mut tr);
        let cpu = stats::cpu_s()? - cpu0;
        let ok = tally(&samples, &mut out).len();
        cpu_per_request.push(cpu / ok.max(1) as f64);
        closed_ok += ok;
        closed_wall += wall;
        closed.extend(samples);
        let (samples, _) = load(
            &rig,
            &plan,
            open_secs / SLICES as f64,
            Some(OPEN_RATE),
            &mut tr,
        );
        open_lat.extend(tally(&samples, &mut out));
        open.extend(samples);
        setups.push(proc::setup_sample(args)?);
    }

    if args.trace {
        // Alternate short untraced and traced closed loops; the
        // recorder's cost is the gap between their median rates.
        let mut rates = [Vec::new(), Vec::new()];
        let mut traced = Vec::new();
        for i in 0..8 {
            let on = i % 2 == 1;
            tr.set_on(on);
            let (samples, wall) = load(&rig, &plan, 0.04 * secs, None, &mut tr);
            rates[usize::from(on)].push(tally(&samples, &mut out).len() as f64 / wall);
            if on {
                traced.extend(samples);
            }
        }
        tr.set_on(true);
        let (plain_ok, traced_ok) = (stats::median(&rates[0]), stats::median(&rates[1]));
        in_process(&cfg, &rig, &plan, &mut tr)?;
        let rdap: Vec<&Sample> = closed
            .iter()
            .filter(|s| matches!(s.kind, Kind::RdapAddr | Kind::RdapPrefix | Kind::RdapMiss))
            .collect();
        let ok200 = rdap.iter().filter(|s| s.status == 200).count();
        tr.value(
            "serve.rdap_hit_ratio",
            ok200 as f64 / rdap.len().max(1) as f64,
        );
        tr.value(
            "obs.trace_overhead_pct",
            100.0 * (plain_ok / traced_ok - 1.0),
        );
        let selfs = tr.self_times();
        let med = |names: &[&str]| {
            let v: Vec<f64> = names
                .iter()
                .flat_map(|n| selfs.get(n).cloned().unwrap_or_default())
                .collect();
            stats::median(&v) / 1e3
        };
        let http_socket: Vec<f64> = traced
            .iter()
            .filter(|s| s.kind != Kind::Whois && s.error.is_none())
            .map(|s| s.latency_s * 1e6)
            .collect();
        tr.value(
            "serve.transport_us",
            stats::median(&http_socket) - med(&["serve.handle_us.rdap", "serve.handle_us.feed"]),
        );
        tr.value("serve.closed_rps", closed_ok as f64 / closed_wall);
        for (name, q) in [("serve.open_p50_ms", 0.5), ("serve.open_p99_ms", 0.99)] {
            let v = stats::tail(&open_lat, q) * 1e3;
            if v.is_finite() {
                tr.value(name, v);
            }
        }
        tr.value("serve.open_samples", open_lat.len() as f64);
        let late: Vec<f64> = open.iter().map(|s| s.late_s).collect();
        let late99 = stats::tail(&late, 0.99) * 1e3;
        if late99.is_finite() {
            tr.value("loadgen.late_ms", late99);
        }
        tr.write_jsonl(&trace::out_path(&args.workload, args.seed))?;
        for (name, value, unit) in tr.per_layer() {
            out.metric(name, value, unit);
        }
    } else {
        eprintln!(
            "perfbench serve: closed loop {} requests, open loop {} at {OPEN_RATE}/s",
            closed.len(),
            open.len()
        );
        out.metric("setup_s", stats::median(&setups), "s");
        out.metric("peak_rss_mb", stats::peak_rss_mb()?, "MiB");
        out.metric("op_ms", stats::min(&cpu_per_request) * 1e3, "ms");
    }
    rig.shutdown();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serve::RateLimitConfig;

    fn quick_rig(rate_limit: Option<RateLimitConfig>) -> Rig {
        let app = App::from_study(&StudyConfig::quick_seeded(7), rate_limit);
        start(app, &mut Tracer::new(false)).expect("server starts")
    }

    #[test]
    fn plan_resolves_and_every_request_checks_out() {
        let rig = quick_rig(None);
        let plan = plan(rig.app(), 7, 200).expect("plan");
        let mut tr = Tracer::new(false);
        let (samples, _) = load(&rig, &plan, 0.5, None, &mut tr);
        let mut out = Outcome::default();
        let ok = tally(&samples, &mut out);
        assert!(!samples.is_empty());
        assert_eq!(out.failed, 0, "{:?}", out.problems);
        assert_eq!(ok.len(), samples.len());
        // Every RDAP target resolves as planned: hits answer 200.
        let hits = samples
            .iter()
            .filter(|s| matches!(s.kind, Kind::RdapAddr | Kind::RdapPrefix));
        assert!(hits.clone().count() > 0);
        assert!(hits.clone().all(|s| s.status == 200));
        assert!(samples
            .iter()
            .filter(|s| s.kind == Kind::RdapMiss)
            .all(|s| s.status == 404));
        rig.shutdown();
    }

    #[test]
    fn wrong_expected_range_fails_the_check() {
        let rig = quick_rig(None);
        let plan = plan(rig.app(), 7, 200).expect("plan");
        let mut req = plan
            .iter()
            .find(|r| r.kind == Kind::RdapAddr)
            .expect("an address lookup")
            .clone();
        let resp = rig.app().handle(&parse(&req.target).unwrap(), client_ip());
        assert!(check(&req, resp.status, &resp.body).is_ok());
        if let Expect::Object { start, .. } = &mut req.expect {
            *start = "203.0.113.0".into();
        }
        assert!(check(&req, resp.status, &resp.body).is_err());
        rig.shutdown();
    }

    #[test]
    fn refused_requests_count_as_failures() {
        let rig = quick_rig(Some(RateLimitConfig {
            burst: 1,
            per_second: 0.001,
        }));
        let plan = plan(rig.app(), 7, 200).expect("plan");
        let mut tr = Tracer::new(false);
        let (samples, _) = load(&rig, &plan, 0.3, None, &mut tr);
        let mut out = Outcome::default();
        let ok = tally(&samples, &mut out);
        let refused = samples.iter().filter(|s| s.status == 429).count();
        assert!(refused > 0, "the limiter refused nothing");
        assert!(out.failed >= refused as u64);
        assert_eq!(ok.len() as u64 + out.failed, samples.len() as u64);
        rig.shutdown();
    }
}
