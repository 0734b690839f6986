//! Integration: the full TCP serving lifecycle over loopback sockets.
//!
//! Covers the serving layer's contract end to end: concurrent clients
//! get correct RDAP JSON (including `parentHandle`), over-budget
//! clients get 429 with `Retry-After`, connections beyond the cap are
//! shed with 503 (never queued unboundedly), the port-43 WHOIS
//! listener speaks the hierarchy flags over a real socket, and
//! graceful shutdown drains in-flight requests and joins every worker.

use drywells::StudyConfig;
use nettypes::date::date;
use rdap::database::WhoisDb;
use rdap::inetnum::{Inetnum, InetnumStatus};
use registry::org::OrgId;
use registry::rir::Rir;
use registry::transfer::{Transfer, TransferKind, TransferLog};
use serve::client::{get_once, Client};
use serve::rate::RateLimitConfig;
use serve::{App, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn test_db() -> WhoisDb {
    let mk = |r: &str, status, name: &str| Inetnum {
        range: r.parse().unwrap(),
        netname: name.into(),
        status,
        org: format!("ORG-{name}"),
        admin_c: format!("AC-{name}"),
        created: date("2018-01-01"),
    };
    [
        mk(
            "10.0.0.0 - 10.255.255.255",
            InetnumStatus::AllocatedPa,
            "TOP",
        ),
        mk(
            "10.0.0.0 - 10.0.255.255",
            InetnumStatus::SubAllocatedPa,
            "MID",
        ),
        mk("10.0.1.0 - 10.0.1.255", InetnumStatus::AssignedPa, "LEAF-A"),
        mk("10.0.2.0 - 10.0.2.255", InetnumStatus::AssignedPa, "LEAF-B"),
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

fn test_app(rate_limit: Option<RateLimitConfig>) -> App {
    App::from_parts(test_db(), &test_log(), StudyConfig::quick(), rate_limit)
}

fn quick_config() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_millis(300),
        write_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    }
}

const TIMEOUT: Duration = Duration::from_secs(5);

#[test]
fn concurrent_clients_get_correct_rdap_json_and_shutdown_drains() {
    let server = Server::start(test_app(None), quick_config()).unwrap();
    let addr = server.http_addr();

    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(move || {
                let mut client = Client::new(addr, TIMEOUT);
                for _ in 0..10 {
                    let leaf = client.get("/rdap/ip/10.0.1.77").unwrap();
                    assert_eq!(leaf.status, 200);
                    let body = leaf.text();
                    assert!(
                        body.contains("\"objectClassName\": \"ip network\""),
                        "{body}"
                    );
                    assert!(body.contains("\"name\": \"LEAF-A\""), "{body}");
                    // The covering MID object is the RDAP parent.
                    assert!(
                        body.contains("\"parentHandle\": \"SIM-NET-0A000000-0A00FFFF\""),
                        "{body}"
                    );
                    let top = client.get("/rdap/ip/10.128.0.1").unwrap();
                    assert_eq!(top.status, 200);
                    assert!(!top.text().contains("parentHandle"));
                    let miss = client.get("/rdap/ip/192.0.2.1").unwrap();
                    assert_eq!(miss.status, 404);
                }
            });
        }
    });

    let metrics = get_once(addr, "/metrics", TIMEOUT).unwrap().text();
    let count = |name: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("{name} missing from:\n{metrics}"))
    };
    assert!(count("serve_requests_total ") >= 240, "{metrics}");
    assert_eq!(count("serve_responses_404_total "), 80, "{metrics}");
    assert!(count("serve_accepted_total ") >= 9, "{metrics}");

    // Graceful shutdown joins every thread without a panic or leak.
    server.shutdown();
}

#[test]
fn over_budget_clients_get_429_with_retry_after() {
    let app = test_app(Some(RateLimitConfig {
        burst: 3,
        per_second: 0.01, // effectively no refill inside the test
    }));
    let server = Server::start(app, quick_config()).unwrap();
    let mut client = Client::new(server.http_addr(), TIMEOUT);
    for _ in 0..3 {
        assert_eq!(client.get("/rdap/ip/10.0.1.1").unwrap().status, 200);
    }
    let limited = client.get("/rdap/ip/10.0.1.1").unwrap();
    assert_eq!(limited.status, 429);
    let retry: u64 = limited
        .header("retry-after")
        .expect("Retry-After header present")
        .parse()
        .unwrap();
    assert!(retry >= 1);
    // The budget only guards RDAP; operational routes stay reachable.
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    server.shutdown();
}

#[test]
fn connections_beyond_the_cap_are_shed_with_503() {
    let config = ServerConfig {
        workers: 1,
        max_connections: 1,
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let server = Server::start(test_app(None), config).unwrap();
    let addr = server.http_addr();

    // One silent connection occupies the only slot (the worker sits in
    // read until data or timeout).
    let holder = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // The next connection must be refused *immediately* with 503 —
    // shedding, not unbounded queueing.
    let shed = get_once(addr, "/healthz", TIMEOUT).unwrap();
    assert_eq!(shed.status, 503);
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert_eq!(shed.header("connection"), Some("close"));

    // The in-slot connection is still fully served.
    let mut holder = holder;
    holder.set_read_timeout(Some(TIMEOUT)).unwrap();
    holder
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut resp = String::new();
    holder.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");

    // The slot is released a hair *after* the holder sees EOF, so a
    // raced /metrics connection may itself be shed — retry briefly,
    // then assert on the counter's value rather than an exact render.
    let mut metrics = get_once(addr, "/metrics", TIMEOUT).unwrap();
    for _ in 0..50 {
        if metrics.status == 200 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        metrics = get_once(addr, "/metrics", TIMEOUT).unwrap();
    }
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    let shed_total: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("serve_responses_503_total "))
        .expect("503 counter rendered")
        .trim()
        .parse()
        .unwrap();
    assert!(shed_total >= 1, "{text}");
    server.shutdown();
}

#[test]
fn graceful_shutdown_serves_already_queued_requests() {
    let config = ServerConfig {
        workers: 1,
        max_connections: 8,
        read_timeout: Duration::from_millis(300),
        write_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let server = Server::start(test_app(None), config).unwrap();
    let addr = server.http_addr();

    // Occupy the single worker with a keep-alive connection…
    let mut first = Client::new(addr, TIMEOUT);
    assert_eq!(first.get("/healthz").unwrap().status, 200);

    // …and queue two more connections with requests already on the
    // wire before shutdown begins.
    let mut queued: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(TIMEOUT)).unwrap();
            s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            s
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));

    // Shutdown must drain them (the worker frees up once the idle
    // keep-alive connection times out) before joining.
    server.shutdown();

    for s in &mut queued {
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        // Responses written during shutdown end the conversation.
        assert!(resp.contains("Connection: close"), "{resp}");
    }
}

#[test]
fn malformed_http_gets_400_and_close() {
    let server = Server::start(test_app(None), quick_config()).unwrap();
    let mut s = TcpStream::connect(server.http_addr()).unwrap();
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    s.write_all(b"THIS IS NOT HTTP\r\n\r\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 400 Bad Request"), "{resp}");
    server.shutdown();
}

#[test]
fn keep_alive_reuses_one_connection_across_requests() {
    let server = Server::start(test_app(None), quick_config()).unwrap();
    let addr = server.http_addr();
    let mut client = Client::new(addr, TIMEOUT);
    for _ in 0..20 {
        assert_eq!(client.get("/healthz").unwrap().status, 200);
    }
    let metrics = get_once(addr, "/metrics", TIMEOUT).unwrap().text();
    // 20 keep-alive requests + this /metrics probe: 2 connections.
    assert!(metrics.contains("serve_accepted_total 2"), "{metrics}");
    server.shutdown();
}

fn whois_query(addr: SocketAddr, line: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    s.write_all(line.as_bytes()).unwrap();
    s.write_all(b"\r\n").unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}

#[test]
fn port_43_whois_speaks_hierarchy_flags_over_a_real_socket() {
    let config = ServerConfig {
        whois_addr: Some(SocketAddr::from(([127, 0, 0, 1], 0))),
        ..quick_config()
    };
    let server = Server::start(test_app(None), config).unwrap();
    let addr = server.whois_addr().expect("whois listener enabled");

    // Plain lookup: smallest enclosing object.
    let resp = whois_query(addr, "10.0.1.77");
    assert!(resp.contains("netname:        LEAF-A"), "{resp}");
    assert!(!resp.contains("LEAF-B"));

    // -L walks the delegation chain upwards, exact match first.
    let resp = whois_query(addr, "-L 10.0.1.0 - 10.0.1.255");
    let leaf = resp.find("LEAF-A").expect("leaf present");
    let mid = resp.find("netname:        MID").expect("mid present");
    let top = resp.find("netname:        TOP").expect("top present");
    assert!(leaf < mid && leaf < top, "{resp}");

    // -m: one level of more-specifics; -M: all of them.
    let resp = whois_query(addr, "-m 10.0.0.0 - 10.255.255.255");
    assert!(resp.contains("MID") && !resp.contains("LEAF-A"), "{resp}");
    let resp = whois_query(addr, "-M 10.0.0.0 - 10.255.255.255");
    assert!(resp.contains("LEAF-A") && resp.contains("LEAF-B"), "{resp}");

    // -x: exact range only.
    let resp = whois_query(addr, "-x 10.0.1.0 - 10.0.1.255");
    assert!(resp.contains("LEAF-A"), "{resp}");
    let resp = whois_query(addr, "-x 10.0.1.0 - 10.0.1.127");
    assert!(resp.starts_with("%ERROR:101"), "{resp}");

    // %ERROR lines for bad queries and empty results.
    assert!(whois_query(addr, "-Z 10.0.0.1").starts_with("%ERROR:108"));
    assert!(whois_query(addr, "192.0.2.1").starts_with("%ERROR:101"));

    let metrics = get_once(server.http_addr(), "/metrics", TIMEOUT)
        .unwrap()
        .text();
    assert!(metrics.contains("serve_whois_queries_total 8"), "{metrics}");
    server.shutdown();
}

#[test]
fn every_response_carries_a_unique_request_id() {
    let server = Server::start(test_app(None), quick_config()).unwrap();
    let addr = server.http_addr();
    let mut ids = std::collections::BTreeSet::new();
    let mut client = Client::new(addr, TIMEOUT);
    for path in ["/healthz", "/metrics", "/rdap/ip/10.0.1.77", "/nope"] {
        let resp = client.get(path).unwrap();
        let id = resp
            .header("x-request-id")
            .unwrap_or_else(|| panic!("GET {path}: no X-Request-Id"))
            .to_string();
        assert_eq!(id.len(), 16, "ids are zero-padded 64-bit hex: {id}");
        assert!(ids.insert(id), "duplicate id on GET {path}");
    }
    // A malformed request is answered 400 — with an id too.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    s.write_all(b"NOT HTTP AT ALL\r\n\r\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    assert!(resp.contains("X-Request-Id: "), "{resp}");
    server.shutdown();
}

#[test]
fn debug_routes_introspect_a_live_server() {
    let app = test_app(None).with_debug_routes(true);
    let server = Server::start(app, quick_config()).unwrap();
    let addr = server.http_addr();
    let mut client = Client::new(addr, TIMEOUT);

    // Generate some traffic first so the introspection has content.
    for _ in 0..5 {
        assert_eq!(client.get("/healthz").unwrap().status, 200);
    }

    // /debug/flight: a trace-check-valid JSONL ring dump that contains
    // the access-log events the requests above just wrote.
    let flight = client.get("/debug/flight").unwrap();
    assert_eq!(flight.status, 200);
    assert_eq!(flight.header("content-type"), Some("application/x-ndjson"));
    let body = flight.text();
    assert!(
        body.lines()
            .any(|l| l.contains("\"message\":\"http_access\"")),
        "{body}"
    );
    drywells::tracecheck::check_trace(&body)
        .unwrap_or_else(|errs| panic!("/debug/flight fails trace-check: {errs:?}"));

    // /debug/requests lists the request *currently being served* —
    // which is the /debug/requests request itself.
    let requests = client.get("/debug/requests").unwrap();
    assert_eq!(requests.status, 200);
    assert!(
        requests.text().contains("/debug/requests"),
        "{}",
        requests.text()
    );

    // /debug/pool: workers/cap from the config, a requests_total that
    // covers everything served so far on this connection.
    let pool = client.get("/debug/pool").unwrap().text();
    let field = |name: &str| -> u64 {
        pool.lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("{name} missing from:\n{pool}"))
    };
    assert_eq!(field("pool_workers"), 4);
    assert_eq!(field("pool_max_connections"), 64);
    // 5 /healthz + /debug/flight + /debug/requests are counted; the
    // /debug/pool request itself is counted only after it renders.
    assert!(field("pool_requests_total") >= 7, "{pool}");
    assert_eq!(field("pool_shed_total"), 0);
    server.shutdown();

    // With the flag off (the default), the same routes answer 404.
    let server = Server::start(test_app(None), quick_config()).unwrap();
    let mut client = Client::new(server.http_addr(), TIMEOUT);
    for path in ["/debug/flight", "/debug/requests", "/debug/pool"] {
        assert_eq!(client.get(path).unwrap().status, 404, "{path}");
    }
    server.shutdown();
}

#[test]
fn shed_responses_carry_request_ids_and_count_into_pool_stats() {
    let config = ServerConfig {
        workers: 1,
        max_connections: 1,
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let app = test_app(None).with_debug_routes(true);
    let server = Server::start(app, config).unwrap();
    let addr = server.http_addr();

    let _holder = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let shed = get_once(addr, "/healthz", TIMEOUT).unwrap();
    assert_eq!(shed.status, 503);
    assert!(
        shed.header("x-request-id").is_some(),
        "shed 503 without an id"
    );
    drop(_holder);

    // Once the slot frees, /debug/pool reports the shed connection.
    let mut pool = None;
    for _ in 0..50 {
        let resp = get_once(addr, "/debug/pool", TIMEOUT).unwrap();
        if resp.status == 200 {
            pool = Some(resp.text());
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let pool = pool.expect("/debug/pool reachable after the holder closed");
    let shed_total: u64 = pool
        .lines()
        .find_map(|l| l.strip_prefix("pool_shed_total "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("pool_shed_total missing from:\n{pool}"));
    assert!(shed_total >= 1, "{pool}");
    server.shutdown();
}

#[test]
fn loadgen_runs_clean_against_a_live_server() {
    let server = Server::start(test_app(None), quick_config()).unwrap();
    let report = serve::loadgen::run(&serve::loadgen::LoadgenConfig {
        addr: server.http_addr(),
        clients: 3,
        requests_per_client: 30,
        seed: 42,
        timeout: TIMEOUT,
    })
    .unwrap();
    assert!(report.is_clean(), "errors: {:?}", report.errors);
    assert_eq!(report.completed, 90);
    assert!(report.requests_per_sec > 0.0);
    assert!(report.p99_us >= report.p50_us);
    // The same seed issues the same mix: the status distribution is
    // reproducible.
    let rendered = report.render();
    assert!(rendered.contains("requests in"), "{rendered}");
    // The per-route table came back from the server's labeled
    // histograms — the RDAP-heavy mix must show an rdap row.
    let rdap = report
        .route_latency
        .iter()
        .find(|r| r.route == "rdap")
        .expect("rdap row in the per-route table");
    assert!(rdap.count > 0 && rdap.p99_us >= rdap.p50_us, "{rdap:?}");
    assert!(rendered.contains("rdap"), "{rendered}");
    server.shutdown();
}
