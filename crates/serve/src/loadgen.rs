//! The load generator: N concurrent clients, a fixed request mix, a
//! latency histogram, and a reproducible seed — serving throughput and
//! tail latency as a measurable artifact, Criterion-style.
//!
//! Protocol correctness is part of the measurement: every response
//! must be well-formed HTTP with an allowed status (2xx anywhere,
//! 404 on RDAP lookups whose random target legitimately misses, 429
//! when rate-limited, 503 when shed). Anything else — a 400, a 500, a
//! malformed response — is a protocol error and the run fails. The
//! run also snapshots `/metrics` before and after and fails if any
//! `*_total` counter moved backwards.

use crate::client::Client;
use crate::metrics::Histogram;
use rand::prelude::*;
use rand_pcg::Pcg64Mcg;
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Load-generator parameters.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests issued per client.
    pub requests_per_client: usize,
    /// RNG seed; equal seeds issue the identical request sequence.
    pub seed: u64,
    /// Per-request socket timeout.
    pub timeout: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            clients: 4,
            requests_per_client: 100,
            seed: 2020,
            timeout: Duration::from_secs(10),
        }
    }
}

/// What a run measured.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// Requests that received a well-formed, allowed response.
    pub completed: u64,
    /// Responses per status code.
    pub status_counts: BTreeMap<u16, u64>,
    /// Protocol errors (first few, with detail).
    pub errors: Vec<String>,
    /// Wall-clock of the request phase.
    pub elapsed: Duration,
    /// Completed requests per second.
    pub requests_per_sec: f64,
    /// Median latency (µs, bucket upper bound).
    pub p50_us: u64,
    /// 99th-percentile latency (µs, bucket upper bound).
    pub p99_us: u64,
    /// Per-route latency rows, from the server's labeled
    /// `serve_route_latency_*{route="…"}` histograms (after-probe).
    pub route_latency: Vec<RouteLatency>,
}

/// One per-route row of the loadgen summary table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteLatency {
    /// The route label (`rdap`, `feed`, `probe`, …).
    pub route: String,
    /// Requests the server timed on this route.
    pub count: u64,
    /// Median service time (µs, bucket upper bound).
    pub p50_us: u64,
    /// 99th-percentile service time (µs, bucket upper bound).
    pub p99_us: u64,
}

impl LoadgenReport {
    /// Whether the run saw no protocol errors.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// Human-readable summary (what `repro loadgen` prints).
    pub fn render(&self) -> String {
        let mut out = format!(
            "loadgen: {} requests in {:.2?} ({:.0} req/s), p50 {} µs, p99 {} µs\n",
            self.completed, self.elapsed, self.requests_per_sec, self.p50_us, self.p99_us
        );
        for (status, n) in &self.status_counts {
            out.push_str(&format!("  status {status}: {n}\n"));
        }
        let active: Vec<_> = self.route_latency.iter().filter(|r| r.count > 0).collect();
        if !active.is_empty() {
            out.push_str("  route           count     p50µs     p99µs\n");
            for r in active {
                out.push_str(&format!(
                    "  {:<12} {:>9} {:>9} {:>9}\n",
                    r.route, r.count, r.p50_us, r.p99_us
                ));
            }
        }
        if !self.errors.is_empty() {
            out.push_str(&format!("  PROTOCOL ERRORS: {}\n", self.errors.len()));
            for e in &self.errors {
                out.push_str(&format!("    {e}\n"));
            }
        }
        out
    }
}

/// The deterministic request mix: mostly RDAP lookups (the paper's
/// workload), plus feed, experiment-CSV and health/metrics traffic.
fn pick_path(rng: &mut Pcg64Mcg) -> String {
    match rng.gen_range(0..100u32) {
        // Random addresses inside 10/8 — where the synthetic worlds
        // allocate — so a realistic share of lookups hit.
        0..=49 => format!(
            "/rdap/ip/10.{}.{}.{}",
            rng.gen_range(0..32u32),
            rng.gen_range(0..256u32),
            rng.gen_range(0..256u32)
        ),
        50..=64 => format!(
            "/rdap/ip/10.{}.{}.0/24",
            rng.gen_range(0..32u32),
            rng.gen_range(0..256u32)
        ),
        65..=79 => {
            let rirs = ["afrinic", "apnic", "arin", "lacnic", "ripencc"];
            format!(
                "/feed/transfers/{}.json",
                rirs[rng.gen_range(0..rirs.len())]
            )
        }
        80..=89 => "/healthz".to_string(),
        _ => "/metrics".to_string(),
    }
}

/// Statuses that are protocol-correct for a given path.
fn allowed(path: &str, status: u16) -> bool {
    match status {
        200..=299 | 429 | 503 => true,
        // A random RDAP target may land between objects; the correct
        // answer to that is 404, not an error.
        404 => path.starts_with("/rdap/"),
        _ => false,
    }
}

/// Whether a metric name (label set stripped) is monotone: `_total`
/// counters, histogram `_count`/`_sum_us` accumulators, and `_max_us`
/// watermarks only ever grow. Quantiles (`_p50_us`/`_p99_us`) can
/// legitimately move either way and are excluded.
fn is_monotone(name: &str) -> bool {
    let base = name.split('{').next().unwrap_or(name);
    ["_total", "_count", "_sum_us", "_max_us"]
        .iter()
        .any(|s| base.ends_with(s))
}

/// Snapshot every monotone metric out of a `/metrics` body (labeled
/// lines included — label values never contain spaces).
fn parse_totals(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            if !is_monotone(name) {
                return None;
            }
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// Extract the per-route latency table from a `/metrics` body: one
/// row per `route` label on the `serve_route_latency` histogram.
fn parse_route_latency(text: &str) -> Vec<RouteLatency> {
    let mut rows: BTreeMap<String, RouteLatency> = BTreeMap::new();
    for line in text.lines() {
        let Some((name, value)) = line.split_once(' ') else {
            continue;
        };
        let Ok(value) = value.trim().parse::<u64>() else {
            continue;
        };
        let Some((base, labels)) = name.split_once('{') else {
            continue;
        };
        let Some(route) = labels
            .strip_prefix("route=\"")
            .and_then(|r| r.strip_suffix("\"}"))
        else {
            continue;
        };
        let row = rows
            .entry(route.to_string())
            .or_insert_with(|| RouteLatency {
                route: route.to_string(),
                count: 0,
                p50_us: 0,
                p99_us: 0,
            });
        match base {
            "serve_route_latency_count" => row.count = value,
            "serve_route_latency_p50_us" => row.p50_us = value,
            "serve_route_latency_p99_us" => row.p99_us = value,
            _ => {}
        }
    }
    rows.into_values().collect()
}

/// Run the load generator against a live server. `Err` only for
/// setup failures (server unreachable); protocol errors during the
/// run land in the report.
pub fn run(config: &LoadgenConfig) -> Result<LoadgenReport, String> {
    let probe = |when: &str| {
        crate::client::get_once(config.addr, "/metrics", config.timeout)
            .map_err(|e| format!("cannot fetch /metrics {when} run: {e}"))
    };
    let before = parse_totals(&probe("before")?.text());

    let hist = Histogram::default();
    let completed = AtomicU64::new(0);
    let status_counts: Mutex<BTreeMap<u16, u64>> = Mutex::new(BTreeMap::new());
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let request_ids: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());

    let t0 = Instant::now();
    std::thread::scope(|s| {
        for client_idx in 0..config.clients {
            let hist = &hist;
            let completed = &completed;
            let status_counts = &status_counts;
            let errors = &errors;
            let request_ids = &request_ids;
            s.spawn(move || {
                let mut rng =
                    Pcg64Mcg::seed_from_u64(config.seed ^ (client_idx as u64).wrapping_mul(0x9E37));
                let mut client = Client::new(config.addr, config.timeout);
                for _ in 0..config.requests_per_client {
                    let path = pick_path(&mut rng);
                    let t = Instant::now();
                    match client.get(&path) {
                        Ok(resp) => {
                            hist.record(t.elapsed());
                            *status_counts
                                .lock()
                                .unwrap_or_else(|p| p.into_inner())
                                .entry(resp.status)
                                .or_insert(0) += 1;
                            // Every response (including shed 503s)
                            // must carry a never-repeated request id.
                            match resp.header("x-request-id") {
                                Some(id) => {
                                    let fresh = request_ids
                                        .lock()
                                        .unwrap_or_else(|p| p.into_inner())
                                        .insert(id.to_string());
                                    if !fresh {
                                        let mut errs =
                                            errors.lock().unwrap_or_else(|p| p.into_inner());
                                        if errs.len() < 10 {
                                            errs.push(format!(
                                                "GET {path} → duplicate X-Request-Id {id}"
                                            ));
                                        }
                                    }
                                }
                                None => {
                                    let mut errs = errors.lock().unwrap_or_else(|p| p.into_inner());
                                    if errs.len() < 10 {
                                        errs.push(format!(
                                            "GET {path} → response without X-Request-Id"
                                        ));
                                    }
                                }
                            }
                            if allowed(&path, resp.status) {
                                completed.fetch_add(1, Ordering::Relaxed);
                            } else {
                                let mut errs = errors.lock().unwrap_or_else(|p| p.into_inner());
                                if errs.len() < 10 {
                                    errs.push(format!(
                                        "GET {path} → unexpected status {}",
                                        resp.status
                                    ));
                                }
                            }
                        }
                        Err(e) => {
                            let mut errs = errors.lock().unwrap_or_else(|p| p.into_inner());
                            if errs.len() < 10 {
                                errs.push(format!("GET {path} → {e}"));
                            }
                        }
                    }
                }
            });
        }
    });
    let elapsed = t0.elapsed();

    let after_text = probe("after")?.text();
    let after = parse_totals(&after_text);
    let route_latency = parse_route_latency(&after_text);
    let mut errors = errors.into_inner().unwrap_or_else(|p| p.into_inner());
    for (name, &was) in &before {
        match after.get(name) {
            Some(&now) if now >= was => {}
            Some(&now) => errors.push(format!(
                "metrics counter {name} went backwards: {was} → {now}"
            )),
            None => errors.push(format!("metrics counter {name} disappeared")),
        }
    }

    let completed = completed.into_inner();
    Ok(LoadgenReport {
        completed,
        status_counts: status_counts
            .into_inner()
            .unwrap_or_else(|p| p.into_inner()),
        errors,
        elapsed,
        requests_per_sec: completed as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
        p50_us: hist.quantile_us(0.50),
        p99_us: hist.quantile_us(0.99),
        route_latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_mix_is_seed_deterministic() {
        let seq = |seed: u64| {
            let mut rng = Pcg64Mcg::seed_from_u64(seed);
            (0..50).map(|_| pick_path(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(seq(7), seq(7));
        assert_ne!(seq(7), seq(8));
        // The mix covers every route family.
        let paths = seq(1).join("\n");
        assert!(paths.contains("/rdap/ip/"));
        assert!(paths.contains("/feed/transfers/"));
        assert!(paths.contains("/healthz"));
        assert!(paths.contains("/metrics"));
    }

    #[test]
    fn allowed_statuses() {
        assert!(allowed("/healthz", 200));
        assert!(allowed("/rdap/ip/10.0.0.1", 404));
        assert!(!allowed("/healthz", 404));
        assert!(allowed("/rdap/ip/10.0.0.1", 429));
        assert!(allowed("/feed/transfers/arin.json", 503));
        assert!(!allowed("/rdap/ip/10.0.0.1", 400));
        assert!(!allowed("/metrics", 500));
    }

    #[test]
    fn metric_totals_parse() {
        let m = parse_totals(
            "serve_requests_total 10\nserve_active_connections 2\nserve_responses_200_total 9\nnot a metric\n",
        );
        assert_eq!(m.len(), 2);
        assert_eq!(m["serve_requests_total"], 10);
        assert!(!m.contains_key("serve_active_connections"));
    }

    #[test]
    fn monotone_suffixes_include_histogram_accumulators_and_labels() {
        let m = parse_totals(
            "serve_latency_count 5\nserve_latency_sum_us 900\nserve_latency_max_us 400\n\
             serve_latency_p50_us 100\nserve_latency_p99_us 400\n\
             serve_route_latency_count{route=\"rdap\"} 3\n\
             serve_route_latency_p99_us{route=\"rdap\"} 200\n",
        );
        assert_eq!(m["serve_latency_count"], 5);
        assert_eq!(m["serve_latency_sum_us"], 900);
        assert_eq!(m["serve_latency_max_us"], 400);
        assert_eq!(m["serve_route_latency_count{route=\"rdap\"}"], 3);
        // Quantiles can move down between probes: not monotone.
        assert!(!m.contains_key("serve_latency_p50_us"));
        assert!(!m.contains_key("serve_route_latency_p99_us{route=\"rdap\"}"));
    }

    #[test]
    fn route_latency_table_parses_labeled_histogram_lines() {
        let rows = parse_route_latency(
            "serve_route_latency_count{route=\"rdap\"} 7\n\
             serve_route_latency_p50_us{route=\"rdap\"} 100\n\
             serve_route_latency_p99_us{route=\"rdap\"} 500\n\
             serve_route_latency_count{route=\"probe\"} 2\n\
             serve_route_latency_p50_us{route=\"probe\"} 50\n\
             serve_route_latency_p99_us{route=\"probe\"} 50\n\
             serve_requests_total 9\n",
        );
        assert_eq!(rows.len(), 2);
        let rdap = rows.iter().find(|r| r.route == "rdap").unwrap();
        assert_eq!((rdap.count, rdap.p50_us, rdap.p99_us), (7, 100, 500));
    }
}
