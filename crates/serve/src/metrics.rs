//! Serving metrics, now instruments on the shared [`obs::metrics`]
//! registry: monotonic counters, an active-connection gauge, and the
//! fixed-bucket latency histogram (which moved to `obs` and is
//! re-exported here for the load generator).
//!
//! Everything is lock-free atomics so the hot path pays one
//! `fetch_add` per event; the instrument `Arc`s are resolved once at
//! construction. The `/metrics` endpoint renders the plain
//! `name value` text format with the same counter names as before
//! (`serve_*_total`, `serve_active_connections`,
//! `serve_latency_p50_us`/`p99_us`) so the load generator's
//! monotonicity check and the CI smoke gate keep working, then appends
//! the process-global registry — pipeline counters like
//! `study_cache_hits_total` show up on the same endpoint.
//!
//! Each [`Metrics`] defaults to its **own** registry rather than the
//! global one so that several servers in one process (the integration
//! tests) keep independent exact counts; pass
//! [`obs::metrics::global()`] to [`Metrics::on`] to share.

use obs::metrics::{Counter, Gauge, Registry};
use std::sync::Arc;

pub use obs::metrics::Histogram;

/// The route labels the serving layer attaches to labeled metrics
/// (and reports in loadgen's per-route table). `other` covers 404s
/// and parse failures that never matched a route.
pub const ROUTE_LABELS: [&str; 8] = [
    "rdap",
    "feed",
    "experiments",
    "query",
    "probe",
    "debug",
    "whois",
    "other",
];

/// A static status label, so labeled-counter bumps never allocate for
/// the statuses this server actually emits.
fn status_label(status: u16) -> &'static str {
    match status {
        200 => "200",
        400 => "400",
        404 => "404",
        405 => "405",
        429 => "429",
        500 => "500",
        503 => "503",
        _ => "other",
    }
}

/// All instruments the serving layer maintains.
pub struct Metrics {
    registry: Arc<Registry>,
    /// Connections accepted (HTTP and WHOIS, including shed ones).
    pub accepted: Arc<Counter>,
    /// Connections currently queued or being handled (gauge).
    pub active: Arc<Gauge>,
    /// HTTP requests answered (any status).
    pub requests: Arc<Counter>,
    /// 200 responses.
    pub ok_200: Arc<Counter>,
    /// 400 responses.
    pub bad_400: Arc<Counter>,
    /// 404 responses.
    pub missing_404: Arc<Counter>,
    /// 429 responses (rate-limited clients).
    pub limited_429: Arc<Counter>,
    /// 503 responses (connections shed at the cap).
    pub shed_503: Arc<Counter>,
    /// Port-43 WHOIS queries answered.
    pub whois_queries: Arc<Counter>,
    /// RDAP route hits (`/rdap/ip/…`).
    pub route_rdap: Arc<Counter>,
    /// Transfer-feed route hits (`/feed/transfers/…`).
    pub route_feed: Arc<Counter>,
    /// Experiment-CSV route hits (`/experiments/…`).
    pub route_experiments: Arc<Counter>,
    /// BGP element query route hits (`/query`).
    pub route_query: Arc<Counter>,
    /// Health/metrics probe hits (`/healthz`, `/metrics`).
    pub route_probe: Arc<Counter>,
    /// Per-request service time (parse end → response flushed).
    pub latency: Arc<Histogram>,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::on(Arc::new(Registry::new()))
    }
}

impl Metrics {
    /// Build the serving instruments on `registry`. Every instrument
    /// is created eagerly so `/metrics` lists the full set (at zero)
    /// before any traffic arrives.
    pub fn on(registry: Arc<Registry>) -> Metrics {
        // Labeled latency histograms are eager too, so `/metrics`
        // (and loadgen's before-probe) sees every route at zero.
        for route in ROUTE_LABELS {
            registry.histogram_with("serve_route_latency", &[("route", route)]);
        }
        Metrics {
            accepted: registry.counter("serve_accepted_total"),
            active: registry.gauge("serve_active_connections"),
            requests: registry.counter("serve_requests_total"),
            ok_200: registry.counter("serve_responses_200_total"),
            bad_400: registry.counter("serve_responses_400_total"),
            missing_404: registry.counter("serve_responses_404_total"),
            limited_429: registry.counter("serve_responses_429_total"),
            shed_503: registry.counter("serve_responses_503_total"),
            whois_queries: registry.counter("serve_whois_queries_total"),
            route_rdap: registry.counter("serve_route_rdap_total"),
            route_feed: registry.counter("serve_route_feed_total"),
            route_experiments: registry.counter("serve_route_experiments_total"),
            route_query: registry.counter("serve_route_query_total"),
            route_probe: registry.counter("serve_route_probe_total"),
            latency: registry.histogram("serve_latency"),
            registry,
        }
    }

    /// Count a response by status (also bumps `requests`).
    pub fn count_response(&self, status: u16) {
        self.requests.inc();
        let c = match status {
            200 => &self.ok_200,
            400 | 405 => &self.bad_400,
            404 => &self.missing_404,
            429 => &self.limited_429,
            503 => &self.shed_503,
            _ => return,
        };
        c.inc();
    }

    /// Count a response by route and status: the flat per-status
    /// counters (unchanged names) plus one labeled
    /// `serve_requests_by_route_total{route=…,status=…}` bump.
    pub fn count_route_response(&self, route: &'static str, status: u16) {
        self.count_response(status);
        self.registry
            .counter_with(
                "serve_requests_by_route_total",
                &[("route", route), ("status", status_label(status))],
            )
            .inc();
    }

    /// The labeled latency histogram for `route`
    /// (`serve_route_latency_*{route="…"}` lines on `/metrics`).
    pub fn route_latency(&self, route: &'static str) -> Arc<Histogram> {
        self.registry
            .histogram_with("serve_route_latency", &[("route", route)])
    }

    /// Render the `/metrics` plain-text exposition: this server's
    /// registry, then (when distinct) the process-global registry so
    /// pipeline metrics share the endpoint.
    pub fn render(&self) -> String {
        let mut out = self.registry.render();
        let global = obs::metrics::global();
        if !Arc::ptr_eq(&self.registry, &global) {
            out.push_str(&global.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile_us(0.5), 0);
        // 99 fast observations, one slow outlier.
        for _ in 0..99 {
            h.record(Duration::from_micros(80));
        }
        h.record(Duration::from_millis(40));
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_us(0.50), 100); // bucket bound containing 80µs
        assert_eq!(h.quantile_us(0.99), 100);
        assert_eq!(h.quantile_us(1.0), 50_000); // the outlier's bucket
    }

    #[test]
    fn render_lists_monotonic_counters_with_total_suffix() {
        let m = Metrics::default();
        m.accepted.add(3);
        m.count_response(200);
        m.count_response(429);
        m.count_response(405);
        let text = m.render();
        assert!(text.contains("serve_accepted_total 3\n"), "{text}");
        assert!(text.contains("serve_requests_total 3\n"));
        assert!(text.contains("serve_responses_200_total 1\n"));
        assert!(text.contains("serve_responses_400_total 1\n"));
        assert!(text.contains("serve_responses_429_total 1\n"));
        // The latency summary keeps its pre-registry names.
        assert!(text.contains("serve_latency_p50_us 0\n"), "{text}");
        assert!(text.contains("serve_latency_p99_us 0\n"), "{text}");
        // Every line is `name value`.
        for line in text.lines() {
            let mut it = line.split_whitespace();
            assert!(it.next().is_some() && it.next().unwrap().parse::<i64>().is_ok());
            assert!(it.next().is_none());
        }
    }

    #[test]
    fn route_response_bumps_flat_and_labeled_counters() {
        let m = Metrics::default();
        m.count_route_response("rdap", 200);
        m.count_route_response("rdap", 200);
        m.count_route_response("other", 404);
        m.route_latency("rdap").record(Duration::from_micros(80));
        let text = m.render();
        assert!(text.contains("serve_requests_total 3\n"), "{text}");
        assert!(
            text.contains("serve_requests_by_route_total{route=\"rdap\",status=\"200\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("serve_requests_by_route_total{route=\"other\",status=\"404\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("serve_route_latency_count{route=\"rdap\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("serve_route_latency_sum_us{route=\"rdap\"} 80\n"),
            "{text}"
        );
        // Every route's latency histogram exists eagerly, even untouched.
        assert!(
            text.contains("serve_route_latency_count{route=\"whois\"} 0\n"),
            "{text}"
        );
    }

    #[test]
    fn default_metrics_are_isolated_per_instance() {
        let a = Metrics::default();
        let b = Metrics::default();
        a.count_response(200);
        assert_eq!(a.ok_200.get(), 1);
        assert_eq!(
            b.ok_200.get(),
            0,
            "per-App registries must not share counts"
        );
    }
}
