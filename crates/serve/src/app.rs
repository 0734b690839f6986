//! The application behind the sockets: route dispatch and shared
//! state (WHOIS database, RDAP service, pre-serialized transfer
//! feeds, memoized experiment CSVs, metrics, rate limiter).
//!
//! Routes:
//!
//! | Route | Backed by |
//! |---|---|
//! | `GET /rdap/ip/{addr}` | [`rdap::server::RdapServer::query_ip`] |
//! | `GET /rdap/ip/{addr}/{len}` | [`rdap::server::RdapServer::query`] |
//! | `GET /feed/transfers/{rir}.json` | the registry transfer-stats export |
//! | `GET /experiments/{id}.csv` | [`drywells::catalogue`] over the process-wide study cache |
//! | `GET /query?filter=…&format=…` | [`bgpsim::query`] over the study's MRT archive |
//! | `GET /healthz` | liveness |
//! | `GET /metrics` | [`crate::metrics::Metrics`] |
//!
//! Request targets are percent-decoded before dispatch; malformed
//! escapes answer 400 instead of silently routing the mangled path.

use crate::http::{Request, Response};
use crate::metrics::Metrics;
use crate::rate::{RateLimitConfig, RateLimiter};
use bgpsim::query::{self as bgpquery, QueryFile, QueryOptions};
use bgpsim::updates::{ArchiveV2Config, CollectorArchiveV2};
use drywells::{catalogue, experiments, StudyConfig};
use nettypes::prefix::Prefix;
use nettypes::range::IpRange;
use rdap::database::{DbBuildConfig, WhoisDb};
use rdap::server::{RdapError, RdapServer};
use rdap::whois::WhoisServer;
use registry::rir::Rir;
use registry::transfer::TransferLog;
use serde_json::ToJson;
use std::collections::{BTreeMap, HashMap};
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Hard cap on rows a single `/query` request may return, applied on
/// top of any client-requested `limit`.
pub const MAX_QUERY_ROWS: usize = 10_000;

/// Worker-pool gauges the TCP layer keeps current so `/debug/pool`
/// can report them without reaching into [`crate::server`] internals.
/// All plain atomics: the server stores, the debug route loads.
#[derive(Default)]
pub struct PoolStats {
    /// Connections waiting in the bounded queue.
    pub queued: AtomicUsize,
    /// Connections currently held by workers.
    pub in_flight: AtomicUsize,
    /// Connections refused with 503 at the cap (monotonic).
    pub shed_total: AtomicU64,
    /// Worker threads in the pool (set once at startup).
    pub workers: AtomicUsize,
    /// The queued + in-flight cap (set once at startup).
    pub max_connections: AtomicUsize,
}

/// One row of the `/debug/requests` in-flight table.
struct InflightEntry {
    path: String,
    client: IpAddr,
    started: Instant,
}

/// Shared serving state. One instance is built at startup and shared
/// (via `Arc`) by every worker thread.
pub struct App {
    rdap: RdapServer,
    /// Transfer feeds, serialized **once** at construction — requests
    /// serve the cached bytes instead of re-encoding the log each time.
    feeds: BTreeMap<&'static str, Arc<String>>,
    /// Memoized experiment CSVs (computed on first request; the
    /// underlying BGP study additionally hits the process-wide
    /// `build_bgp_study_cached` memo).
    experiment_csvs: Mutex<HashMap<String, Arc<String>>>,
    /// Memoized MRT archive files for `/query` (generated from the
    /// study world on first request; `Bytes` clones are cheap).
    query_files: Mutex<Option<Arc<Vec<QueryFile>>>>,
    study: StudyConfig,
    limiter: Option<RateLimiter>,
    /// Counters and latency histogram, rendered by `/metrics`.
    pub metrics: Metrics,
    /// Worker-pool gauges kept current by the TCP layer.
    pub pool: PoolStats,
    /// Monotonic request-id source (first request gets id 1). The id
    /// goes out as `X-Request-Id` and into the flight recorder's
    /// access-log events.
    next_request_id: AtomicU64,
    /// Whether `/debug/*` introspection routes answer (off by
    /// default; `repro serve --debug` turns them on).
    debug_routes: bool,
    /// The in-flight request table behind `/debug/requests`. Only
    /// maintained when `debug_routes` is on, so the default hot path
    /// never takes this lock.
    inflight: Mutex<BTreeMap<u64, InflightEntry>>,
}

impl App {
    /// Build from explicit parts — used by tests and embedders that
    /// already have a database and a transfer log.
    pub fn from_parts(
        db: WhoisDb,
        log: &TransferLog,
        study: StudyConfig,
        rate_limit: Option<RateLimitConfig>,
    ) -> App {
        let feeds = Rir::ALL
            .iter()
            .map(|&rir| {
                let regional = TransferLog::from_records(log.for_region(rir).cloned().collect());
                let text = serde_json::to_string_pretty(&regional.to_feed_json())
                    // lint:allow(L2): startup fail-fast — abort before serving begins
                    .expect("feed serializes");
                (rir.label(), Arc::new(text))
            })
            .collect();
        App {
            rdap: RdapServer::new(db),
            feeds,
            experiment_csvs: Mutex::new(HashMap::new()),
            query_files: Mutex::new(None),
            study,
            limiter: rate_limit.map(RateLimiter::new),
            metrics: Metrics::default(),
            pool: PoolStats::default(),
            next_request_id: AtomicU64::new(1),
            debug_routes: false,
            inflight: Mutex::new(BTreeMap::new()),
        }
    }

    /// Enable (or disable) the `/debug/*` introspection routes.
    pub fn with_debug_routes(mut self, on: bool) -> App {
        self.debug_routes = on;
        self
    }

    /// Allocate the next request id (1, 2, 3, … per App).
    pub fn next_request_id(&self) -> u64 {
        self.next_request_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Register a request in the `/debug/requests` table. No-op
    /// unless debug routes are on (keeps the lock off the hot path).
    pub fn begin_request(&self, id: u64, path: &str, client: IpAddr) {
        if !self.debug_routes {
            return;
        }
        self.inflight
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(
                id,
                InflightEntry {
                    path: path.to_string(),
                    client,
                    started: Instant::now(),
                },
            );
    }

    /// Remove a request from the `/debug/requests` table.
    pub fn end_request(&self, id: u64) {
        if !self.debug_routes {
            return;
        }
        self.inflight
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&id);
    }

    /// Build the full serving state from a study config: generate the
    /// ground-truth world (through the process-wide study cache), turn
    /// it into a WHOIS database, and simulate the registry history for
    /// the transfer feeds.
    pub fn from_study(study: &StudyConfig, rate_limit: Option<RateLimitConfig>) -> App {
        let bgp = experiments::build_bgp_study_cached(study);
        let db =
            WhoisDb::build_from_world(&bgp.world, bgp.world.span.end, &DbBuildConfig::default());
        let history = registry::simulate::simulate(&study.registry);
        App::from_parts(db, &history.log.published(), study.clone(), rate_limit)
    }

    /// The WHOIS database the RDAP service wraps (the port-43
    /// responder queries it directly).
    pub fn whois_db(&self) -> &WhoisDb {
        self.rdap.db()
    }

    /// Answer one port-43 WHOIS query line.
    pub fn handle_whois_line(&self, line: &str) -> String {
        self.metrics.whois_queries.inc();
        obs::event!(obs::Level::Debug, "whois_query");
        WhoisServer::new(self.whois_db()).handle(line)
    }

    /// Dispatch one HTTP request. Never panics; unknown routes are
    /// 404, malformed targets 400, non-GET methods 405.
    pub fn handle(&self, req: &Request, client: IpAddr) -> Response {
        self.handle_labeled(req, client).0
    }

    /// Dispatch one HTTP request and also report which route label it
    /// matched, for the per-route labeled counters and histograms the
    /// TCP layer records.
    pub fn handle_labeled(&self, req: &Request, client: IpAddr) -> (Response, &'static str) {
        if req.method != "GET" {
            return (Response::error(405, "only GET is supported"), "other");
        }
        // Percent-decode before routing so `/rdap/ip/10%2E0%2E1%2E7`
        // works and a malformed escape is a clean 400, never a
        // mis-routed 404.
        let path = match req.decoded_path() {
            Ok(p) => p,
            Err(detail) => return (Response::error(400, &detail), "other"),
        };
        let path = path.as_str();
        if path == "/query" {
            self.metrics.route_query.inc();
            return (self.handle_query(req), "query");
        }
        if path == "/healthz" {
            self.metrics.route_probe.inc();
            return (Response::ok("text/plain", "ok\n"), "probe");
        }
        if path == "/metrics" {
            self.metrics.route_probe.inc();
            return (Response::ok("text/plain", self.metrics.render()), "probe");
        }
        if let Some(rest) = path.strip_prefix("/rdap/ip/") {
            self.metrics.route_rdap.inc();
            return (self.handle_rdap(rest, client), "rdap");
        }
        if let Some(rest) = path.strip_prefix("/feed/transfers/") {
            self.metrics.route_feed.inc();
            return (self.handle_feed(rest), "feed");
        }
        if let Some(rest) = path.strip_prefix("/experiments/") {
            self.metrics.route_experiments.inc();
            return (self.handle_experiment(rest), "experiments");
        }
        if let Some(rest) = path.strip_prefix("/debug/") {
            return (self.handle_debug(rest), "debug");
        }
        (Response::error(404, "no such route"), "other")
    }

    /// `GET /debug/{flight,requests,pool}` — introspection, answered
    /// only when the server started with debug routes enabled.
    fn handle_debug(&self, rest: &str) -> Response {
        if !self.debug_routes {
            return Response::error(404, "debug routes are disabled");
        }
        match rest {
            "flight" => Response::ok(
                "application/x-ndjson",
                obs::flight::global().snapshot_jsonl(),
            ),
            "requests" => {
                let table = self.inflight.lock().unwrap_or_else(|p| p.into_inner());
                let mut out = String::from("id path client age_us\n");
                for (id, entry) in table.iter() {
                    let age_us = entry.started.elapsed().as_micros();
                    out.push_str(&format!(
                        "{id:016x} {} {} {age_us}\n",
                        entry.path, entry.client
                    ));
                }
                Response::ok("text/plain", out)
            }
            "pool" => {
                let mut out = String::new();
                for (name, value) in [
                    (
                        "pool_workers",
                        self.pool.workers.load(Ordering::SeqCst) as u64,
                    ),
                    (
                        "pool_max_connections",
                        self.pool.max_connections.load(Ordering::SeqCst) as u64,
                    ),
                    (
                        "pool_queued",
                        self.pool.queued.load(Ordering::SeqCst) as u64,
                    ),
                    (
                        "pool_in_flight",
                        self.pool.in_flight.load(Ordering::SeqCst) as u64,
                    ),
                    (
                        "pool_shed_total",
                        self.pool.shed_total.load(Ordering::SeqCst),
                    ),
                    ("pool_requests_total", self.metrics.requests.get()),
                ] {
                    out.push_str(&format!("{name} {value}\n"));
                }
                Response::ok("text/plain", out)
            }
            _ => Response::error(404, "debug routes: flight, requests, pool"),
        }
    }

    /// `GET /query?filter=F&format=csv|jsonl&lossy=1&limit=N` — run a
    /// [`bgpsim::query`] scan over the study's MRT archive and stream
    /// the rows back (chunked for HTTP/1.1 peers). Row count is capped
    /// at [`MAX_QUERY_ROWS`] regardless of the requested limit. Bad
    /// filter syntax, unknown parameters and malformed escapes all
    /// answer 400.
    fn handle_query(&self, req: &Request) -> Response {
        let params = match req.query_params() {
            Ok(p) => p,
            Err(detail) => return Response::error(400, &detail),
        };
        let mut opts = QueryOptions::default();
        for (key, value) in &params {
            match key.as_str() {
                "filter" => match bgpquery::Filter::parse(value) {
                    Ok(f) => opts.filter = f,
                    Err(e) => return Response::error(400, &e.to_string()),
                },
                "format" => match value.parse() {
                    Ok(f) => opts.format = f,
                    Err(e) => {
                        let e: bgpquery::FilterError = e;
                        return Response::error(400, &e.to_string());
                    }
                },
                "lossy" => match value.as_str() {
                    "" | "1" | "true" => opts.lossy = true,
                    "0" | "false" => opts.lossy = false,
                    other => return Response::error(400, &format!("bad lossy value {other:?}")),
                },
                "limit" => match value.parse::<usize>() {
                    Ok(n) => opts.limit = Some(n),
                    Err(_) => return Response::error(400, &format!("bad limit value {value:?}")),
                },
                other => {
                    return Response::error(400, &format!("unknown query parameter {other:?}"))
                }
            }
        }
        // The server, not the client, owns the worst-case row budget.
        opts.limit = Some(opts.limit.map_or(MAX_QUERY_ROWS, |n| n.min(MAX_QUERY_ROWS)));
        let files = match self.query_archive() {
            Ok(f) => f,
            Err(detail) => return Response::error(500, &detail),
        };
        match bgpquery::run_query(&files, &opts) {
            Ok(out) => Response::ok(opts.format.content_type(), out.body).with_chunked(),
            Err(e) => Response::error(500, &e.to_string()),
        }
    }

    /// The memoized archive behind `/query`. Same memoize-outside-lock
    /// shape as the experiment CSVs: a multi-second first build never
    /// holds the lock, concurrent first requests race benignly and the
    /// first insert wins.
    fn query_archive(&self) -> Result<Arc<Vec<QueryFile>>, String> {
        if let Some(hit) = self
            .query_files
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
        {
            return Ok(hit);
        }
        let bgp = experiments::build_bgp_study_cached(&self.study);
        let archive = CollectorArchiveV2::generate(
            &bgp.world,
            bgp.visibility_model(),
            bgp.world.span,
            &ArchiveV2Config::default(),
        )
        .map_err(|e| format!("archive generation failed: {e}"))?;
        let files = Arc::new(bgpquery::files_from_archive_v2(&archive));
        let mut memo = self.query_files.lock().unwrap_or_else(|p| p.into_inner());
        Ok(Arc::clone(memo.get_or_insert_with(|| Arc::clone(&files))))
    }

    fn handle_rdap(&self, rest: &str, client: IpAddr) -> Response {
        if let Some(limiter) = &self.limiter {
            if let Err(retry_after) = limiter.check(client, Instant::now()) {
                return Response::error(429, "query budget exhausted")
                    .with_header("Retry-After", retry_after.to_string());
            }
        }
        let result = match rest.split('/').collect::<Vec<_>>()[..] {
            [addr] if !addr.is_empty() => match nettypes::parse_ipv4(addr) {
                Ok(a) => self.rdap.query_ip(a),
                Err(_) => return Response::error(400, "malformed IPv4 address"),
            },
            [addr, len] => {
                let prefix: Result<Prefix, _> = format!("{addr}/{len}").parse();
                match prefix {
                    Ok(p) => self.rdap.query(IpRange::from_prefix(p)),
                    Err(_) => return Response::error(400, "malformed CIDR prefix"),
                }
            }
            _ => return Response::error(400, "expected /rdap/ip/{addr}[/{len}]"),
        };
        match result {
            Ok(resp) => match serde_json::to_string_pretty(&resp.to_json()) {
                Ok(body) => Response::ok("application/rdap+json", body),
                Err(_) => Response::error(500, "response serialization failed"),
            },
            Err(RdapError::NotFound) => Response::error(404, "no matching ip network"),
            Err(RdapError::RateLimited) => Response::error(429, "service window budget exhausted")
                .with_header("Retry-After", "1".to_string()),
        }
    }

    fn handle_feed(&self, rest: &str) -> Response {
        let Some(rir) = rest.strip_suffix(".json") else {
            return Response::error(404, "feeds are served as {rir}.json");
        };
        match self.feeds.get(rir) {
            Some(feed) => Response::ok("application/json", feed.as_bytes().to_vec()),
            None => Response::error(404, "unknown RIR label"),
        }
    }

    fn handle_experiment(&self, rest: &str) -> Response {
        let Some(id) = rest.strip_suffix(".csv") else {
            return Response::error(404, "experiments are served as {id}.csv");
        };
        // Serve from the memo when warm; compute outside the lock
        // otherwise so a multi-second build never blocks other routes.
        // A poisoned memo (a panicking route) only loses cached CSVs,
        // so recover the lock instead of propagating the panic.
        if let Some(hit) = self
            .experiment_csvs
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(id)
        {
            return Response::ok("text/csv", hit.as_bytes().to_vec());
        }
        let Some(text) = self.compute_experiment_csv(id) else {
            return Response::error(404, "unknown experiment id");
        };
        let text = Arc::new(text);
        self.experiment_csvs
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .entry(id.to_string())
            .or_insert_with(|| Arc::clone(&text));
        Response::ok("text/csv", text.as_bytes().to_vec())
    }

    /// `None` for ids without a CSV in [`drywells::catalogue`] — the
    /// route answers 404.
    fn compute_experiment_csv(&self, id: &str) -> Option<String> {
        catalogue::find(id)?.csv(&self.study)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::read_request;
    use nettypes::date::date;
    use rdap::inetnum::{Inetnum, InetnumStatus};
    use registry::org::OrgId;
    use registry::transfer::{Transfer, TransferKind};
    use std::io::BufReader;

    fn test_db() -> WhoisDb {
        let mk = |r: &str, status, org: &str, name: &str| Inetnum {
            range: r.parse().unwrap(),
            netname: name.into(),
            status,
            org: org.into(),
            admin_c: format!("AC-{org}"),
            created: date("2018-01-01"),
        };
        [
            mk(
                "10.0.0.0 - 10.0.255.255",
                InetnumStatus::AllocatedPa,
                "LIR1",
                "ALLOC",
            ),
            mk(
                "10.0.1.0 - 10.0.1.255",
                InetnumStatus::AssignedPa,
                "CUST1",
                "LEASE",
            ),
        ]
        .into_iter()
        .collect()
    }

    fn test_log() -> TransferLog {
        let mut log = TransferLog::new();
        log.push(Transfer {
            date: date("2020-01-01"),
            prefix: "1.0.0.0/24".parse().unwrap(),
            from_org: OrgId(1),
            to_org: OrgId(2),
            source_rir: Rir::Arin,
            dest_rir: Rir::RipeNcc,
            kind: Some(TransferKind::Market),
        });
        log
    }

    pub(crate) fn test_app(rate_limit: Option<RateLimitConfig>) -> App {
        App::from_parts(test_db(), &test_log(), StudyConfig::quick(), rate_limit)
    }

    fn get(app: &App, path: &str) -> Response {
        let raw = format!("GET {path} HTTP/1.1\r\n\r\n");
        let req = read_request(&mut BufReader::new(raw.as_bytes()))
            .unwrap()
            .unwrap();
        app.handle(&req, IpAddr::V4(std::net::Ipv4Addr::LOCALHOST))
    }

    #[test]
    fn healthz_and_metrics() {
        let app = test_app(None);
        assert_eq!(get(&app, "/healthz").status, 200);
        let m = get(&app, "/metrics");
        assert_eq!(m.status, 200);
        assert!(String::from_utf8(m.body)
            .unwrap()
            .contains("serve_requests_total"));
    }

    #[test]
    fn rdap_address_and_prefix_lookups() {
        let app = test_app(None);
        let r = get(&app, "/rdap/ip/10.0.1.77");
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, "application/rdap+json");
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("\"name\": \"LEASE\""), "{body}");
        assert!(body.contains("parentHandle"), "{body}");

        let r = get(&app, "/rdap/ip/10.0.1.0/24");
        assert_eq!(r.status, 200);

        assert_eq!(get(&app, "/rdap/ip/192.0.2.1").status, 404);
        assert_eq!(get(&app, "/rdap/ip/not-an-ip").status, 400);
        assert_eq!(get(&app, "/rdap/ip/10.0.1.0/33").status, 400);
        assert_eq!(get(&app, "/rdap/ip/10.0.1.0/24/extra").status, 400);
    }

    #[test]
    fn rdap_rate_limit_answers_429_with_retry_after() {
        let app = test_app(Some(RateLimitConfig {
            burst: 2,
            per_second: 0.01,
        }));
        assert_eq!(get(&app, "/rdap/ip/10.0.1.1").status, 200);
        assert_eq!(get(&app, "/rdap/ip/10.0.1.2").status, 200);
        let limited = get(&app, "/rdap/ip/10.0.1.3");
        assert_eq!(limited.status, 429);
        let retry: u64 = limited
            .extra_headers
            .iter()
            .find(|(n, _)| *n == "Retry-After")
            .map(|(_, v)| v.parse().unwrap())
            .expect("Retry-After present");
        assert!(retry >= 1);
        // Non-RDAP routes are not budgeted.
        assert_eq!(get(&app, "/healthz").status, 200);
    }

    #[test]
    fn feed_routes_serve_cached_bytes() {
        let app = test_app(None);
        let r = get(&app, "/feed/transfers/ripencc.json");
        assert_eq!(r.status, 200);
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("\"transfers\""), "{body}");
        assert!(body.contains("1.0.0.0/24"));
        // The same Arc-cached bytes every time.
        let again = get(&app, "/feed/transfers/ripencc.json");
        assert_eq!(again.body, body.as_bytes());
        // ARIN saw no transfers land: an empty but valid feed.
        let empty = get(&app, "/feed/transfers/arin.json");
        assert_eq!(empty.status, 200);
        let back = registry::transfer::TransferLog::from_feed_json(
            &serde_json::parse(&String::from_utf8(empty.body).unwrap()).unwrap(),
        )
        .unwrap();
        assert!(back.is_empty());

        assert_eq!(get(&app, "/feed/transfers/ripencc").status, 404);
        assert_eq!(get(&app, "/feed/transfers/nosuchrir.json").status, 404);
    }

    #[test]
    fn query_route_streams_rows_and_respects_limit() {
        let app = test_app(None);
        let r = get(&app, "/query?limit=5");
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, "text/csv");
        assert!(r.chunked, "query responses use chunked framing");
        let body = String::from_utf8(r.body).unwrap();
        assert!(
            body.starts_with("day,kind,prefix,origin,peer,path\n"),
            "{body}"
        );
        // Header plus at most 5 rows.
        assert!(body.lines().count() <= 6, "{body}");
        assert_eq!(app.metrics.route_query.get(), 1);

        let j = get(&app, "/query?format=jsonl&limit=1");
        assert_eq!(j.status, 200);
        assert_eq!(j.content_type, "application/x-ndjson");
        let body = String::from_utf8(j.body).unwrap();
        assert!(body.starts_with('{'), "{body}");

        // Percent-encoded filter syntax round-trips through the URL.
        let f = get(&app, "/query?filter=kind%3Dwithdraw&limit=3");
        assert_eq!(f.status, 200);
        let body = String::from_utf8(f.body).unwrap();
        for line in body.lines().skip(1) {
            assert!(line.contains(",withdraw,"), "{line}");
        }
    }

    #[test]
    fn query_route_rejects_bad_parameters_with_400() {
        let app = test_app(None);
        for path in [
            "/query?filter=bogus%3D1",     // unknown filter key
            "/query?filter=prefix%3Dnope", // unparseable prefix
            "/query?format=xml",
            "/query?limit=banana",
            "/query?lossy=maybe",
            "/query?unknown=1",
            "/query?filter=%zz", // malformed escape in a value
        ] {
            assert_eq!(get(&app, path).status, 400, "{path} should be 400");
        }
    }

    #[test]
    fn malformed_path_escapes_answer_400_not_404() {
        let app = test_app(None);
        assert_eq!(get(&app, "/rdap/ip/10%2").status, 400);
        // A well-formed escape in the path decodes before routing.
        assert_eq!(get(&app, "/health%7A").status, 200); // %7A = 'z'
    }

    #[test]
    fn debug_routes_answer_404_unless_enabled() {
        let app = test_app(None);
        assert_eq!(get(&app, "/debug/flight").status, 404);
        assert_eq!(get(&app, "/debug/requests").status, 404);
        assert_eq!(get(&app, "/debug/pool").status, 404);

        let app = test_app(None).with_debug_routes(true);
        let flight = get(&app, "/debug/flight");
        assert_eq!(flight.status, 200);
        assert_eq!(flight.content_type, "application/x-ndjson");

        let pool = get(&app, "/debug/pool");
        assert_eq!(pool.status, 200);
        let body = String::from_utf8(pool.body).unwrap();
        for name in [
            "pool_workers",
            "pool_max_connections",
            "pool_queued",
            "pool_in_flight",
            "pool_shed_total",
            "pool_requests_total",
        ] {
            assert!(
                body.lines().any(|l| l.starts_with(name)),
                "{name} in {body}"
            );
        }

        assert_eq!(get(&app, "/debug/nope").status, 404);
    }

    #[test]
    fn debug_requests_lists_registered_inflight_entries() {
        let app = test_app(None).with_debug_routes(true);
        let client = IpAddr::V4(std::net::Ipv4Addr::LOCALHOST);
        app.begin_request(7, "/rdap/ip/10.0.1.1", client);
        let body = String::from_utf8(get(&app, "/debug/requests").body).unwrap();
        assert!(
            body.contains("0000000000000007 /rdap/ip/10.0.1.1 127.0.0.1"),
            "{body}"
        );
        app.end_request(7);
        let body = String::from_utf8(get(&app, "/debug/requests").body).unwrap();
        assert!(!body.contains("0000000000000007"), "{body}");
    }

    #[test]
    fn request_ids_are_unique_and_start_at_one() {
        let app = test_app(None);
        assert_eq!(app.next_request_id(), 1);
        assert_eq!(app.next_request_id(), 2);
        assert_eq!(app.next_request_id(), 3);
    }

    #[test]
    fn handle_labeled_reports_route_labels() {
        let app = test_app(None);
        let raw = b"GET /healthz HTTP/1.1\r\n\r\n";
        let req = read_request(&mut BufReader::new(&raw[..]))
            .unwrap()
            .unwrap();
        let client = IpAddr::V4(std::net::Ipv4Addr::LOCALHOST);
        assert_eq!(app.handle_labeled(&req, client).1, "probe");
        let raw = b"GET /nope HTTP/1.1\r\n\r\n";
        let req = read_request(&mut BufReader::new(&raw[..]))
            .unwrap()
            .unwrap();
        assert_eq!(app.handle_labeled(&req, client).1, "other");
    }

    #[test]
    fn unknown_routes_and_methods() {
        let app = test_app(None);
        assert_eq!(get(&app, "/nope").status, 404);
        assert_eq!(get(&app, "/experiments/fig99.csv").status, 404);
        assert_eq!(get(&app, "/experiments/fig6.txt").status, 404);
        let raw = b"DELETE /healthz HTTP/1.1\r\n\r\n";
        let req = read_request(&mut BufReader::new(&raw[..]))
            .unwrap()
            .unwrap();
        let resp = app.handle(&req, IpAddr::V4(std::net::Ipv4Addr::LOCALHOST));
        assert_eq!(resp.status, 405);
    }
}
