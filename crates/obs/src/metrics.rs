//! The process-wide metrics registry: named counters, gauges, and
//! fixed-bucket latency histograms.
//!
//! Unlike tracing (off unless subscribed), metrics are always on —
//! their hot path is one `fetch_add` on an `Arc`-shared atomic, and
//! call sites cache the `Arc` so the name lookup happens once. The
//! serving layer's `/metrics` endpoint renders a registry as the plain
//! `name value` text format; counter names end in `_total` by
//! convention so clients can check monotonicity without a schema.
//!
//! The default registry ([`global`]) is shared by the whole process,
//! putting serving-layer and pipeline metrics in one namespace; tests
//! that assert exact counts construct their own [`Registry`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// A monotonic counter. Name it `*_total`.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (queue depth, active
/// connections).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Upper bucket bounds in microseconds; the last bucket is unbounded.
const BOUNDS_US: [u64; 16] = [
    50,
    100,
    200,
    500,
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    5_000_000,
    u64::MAX,
];

/// A fixed-bucket duration histogram (microsecond resolution), the
/// generalization of the serving layer's original latency histogram.
/// Lock-free: recording is a `fetch_add` into the matching bucket plus
/// running-sum and running-max updates (averages are computable from
/// `/metrics` as `_sum_us / _count`).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BOUNDS_US.len()],
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation. Durations beyond `u64::MAX` µs saturate
    /// into the unbounded top bucket instead of wrapping.
    pub fn record(&self, d: Duration) {
        self.record_us(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Record one observation given directly in microseconds.
    pub fn record_us(&self, us: u64) {
        let idx = BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(BOUNDS_US.len() - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Sum of all observations, µs (monotonic; wraps only after
    /// ~585 millennia of accumulated latency).
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Largest observation seen, µs (monotonic, 0 when empty).
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The upper bound (µs) of the bucket containing quantile `q`
    /// (0 < q ≤ 1). Returns 0 with no observations; `u64::MAX` means
    /// the unbounded top bucket.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return BOUNDS_US[i];
            }
        }
        BOUNDS_US[BOUNDS_US.len() - 1]
    }
}

/// A namespace of metrics. Get-or-create by name; instruments are
/// `Arc`-shared so call sites cache them and skip the lookup lock on
/// the hot path.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// The canonical key for a labeled instrument: `name{k="v",k2="v2"}`
/// with the labels sorted by key, values escaped, no spaces — so one
/// label set always maps to one map entry and `/metrics` lines stay
/// `name value` (two whitespace-split tokens). An empty label set is
/// just `name`.
fn labeled_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort();
    let mut key = String::with_capacity(name.len() + 16 * sorted.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push_str("=\"");
        for c in v.chars() {
            match c {
                '"' => key.push_str("\\\""),
                '\\' => key.push_str("\\\\"),
                // The exposition is line-oriented with space-separated
                // name/value; keep label values on one token.
                '\n' | ' ' => key.push('_'),
                other => key.push(other),
            }
        }
        key.push('"');
    }
    key.push('}');
    key
}

/// Split a stored key back into `(name, label_suffix)` so histogram
/// rendering can put its `_count`/`_p50_us`/… suffix *before* the
/// label braces: `lat{route="a"}` → `lat_count{route="a"}`.
fn split_labels(key: &str) -> (&str, &str) {
    match key.find('{') {
        Some(i) => key.split_at(i),
        None => (key, ""),
    }
}

impl Registry {
    /// An empty registry (tests; the process shares [`global`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter named `name`.
    // A thread that panicked mid-`entry` cannot leave the BTreeMap
    // half-mutated (inserts complete or don't); recover poisoned locks
    // instead of cascading the panic into every metrics user.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Get or create a labeled counter:
    /// `counter_with("serve_requests_total", &[("route","rdap"),("status","200")])`.
    /// Label order never matters — the stored key sorts them.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.counter(&labeled_key(name, labels))
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Get or create the histogram named `name`. Rendering emits
    /// `{name}_count`, `{name}_p50_us`, `{name}_p99_us`, `{name}_sum_us`
    /// and `{name}_max_us` lines.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Get or create a labeled histogram; its render lines put the
    /// statistic suffix before the labels
    /// (`serve_route_latency_p99_us{route="rdap"}`).
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.histogram(&labeled_key(name, labels))
    }

    /// Render every instrument as `name value` lines, sorted by name
    /// (deterministic output for diffing and monotonicity checks).
    /// Labeled instruments render as `name{k="v"} value` and sort by
    /// their full labeled key; unlabeled lines are byte-identical to
    /// what they were before labels existed.
    pub fn render(&self) -> String {
        let mut lines: BTreeMap<String, String> = BTreeMap::new();
        for (name, c) in self
            .counters
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
        {
            lines.insert(name.clone(), c.get().to_string());
        }
        for (name, g) in self.gauges.lock().unwrap_or_else(|p| p.into_inner()).iter() {
            lines.insert(name.clone(), g.get().to_string());
        }
        for (key, h) in self
            .histograms
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
        {
            let (name, labels) = split_labels(key);
            lines.insert(format!("{name}_count{labels}"), h.count().to_string());
            lines.insert(
                format!("{name}_p50_us{labels}"),
                h.quantile_us(0.50).to_string(),
            );
            lines.insert(
                format!("{name}_p99_us{labels}"),
                h.quantile_us(0.99).to_string(),
            );
            lines.insert(format!("{name}_sum_us{labels}"), h.sum_us().to_string());
            lines.insert(format!("{name}_max_us{labels}"), h.max_us().to_string());
        }
        let mut out = String::new();
        for (name, value) in lines {
            out.push_str(&name);
            out.push(' ');
            out.push_str(&value);
            out.push('\n');
        }
        out
    }
}

/// The process-wide registry: serving-layer and pipeline metrics share
/// this one namespace.
pub fn global() -> Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(Registry::new())))
}

/// Get or create a counter on the [`global`] registry.
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Get or create a gauge on the [`global`] registry.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// Get or create a histogram on the [`global`] registry.
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().histogram(name)
}

/// Get or create a labeled counter on the [`global`] registry.
pub fn counter_with(name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
    global().counter_with(name, labels)
}

/// Get or create a labeled histogram on the [`global`] registry.
pub fn histogram_with(name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
    global().histogram_with(name, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_and_render_sorted() {
        let r = Registry::new();
        r.counter("b_total").add(2);
        r.counter("a_total").inc();
        r.gauge("m_depth").set(7);
        r.gauge("m_depth").sub(3);
        // Same name returns the same instrument.
        assert_eq!(r.counter("b_total").get(), 2);
        assert_eq!(r.render(), "a_total 1\nb_total 2\nm_depth 4\n");
    }

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(Duration::from_micros(80));
        }
        h.record(Duration::from_millis(40));
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_us(0.50), 100); // bucket bound containing 80µs
        assert_eq!(h.quantile_us(0.99), 100);
        assert_eq!(h.quantile_us(1.0), 50_000); // the outlier's bucket
    }

    /// Satellite requirement: quantile edge cases.
    #[test]
    fn histogram_empty_quantile_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        for q in [0.0_f64, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_us(q), 0, "q={q}");
        }
    }

    #[test]
    fn histogram_all_in_one_bucket() {
        let h = Histogram::default();
        for _ in 0..1000 {
            h.record_us(150); // bucket (100, 200]
        }
        for q in [0.01_f64, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_us(q), 200, "q={q}");
        }
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn histogram_saturates_on_u64_max_durations() {
        let h = Histogram::default();
        h.record(Duration::MAX); // far beyond u64::MAX µs: saturate, don't wrap
        h.record_us(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile_us(0.5), u64::MAX);
        assert_eq!(h.quantile_us(1.0), u64::MAX);
        // A subsequent small observation still lands in a low bucket.
        h.record_us(10);
        assert_eq!(h.quantile_us(0.01), 50);
    }

    #[test]
    fn histogram_renders_count_and_quantiles() {
        let r = Registry::new();
        let h = r.histogram("latency");
        h.record_us(80);
        let text = r.render();
        assert!(text.contains("latency_count 1\n"), "{text}");
        assert!(text.contains("latency_p50_us 100\n"), "{text}");
        assert!(text.contains("latency_p99_us 100\n"), "{text}");
    }

    #[test]
    fn histogram_tracks_sum_and_max() {
        let r = Registry::new();
        let h = r.histogram("latency");
        h.record_us(80);
        h.record_us(300);
        h.record_us(20);
        assert_eq!(h.sum_us(), 400);
        assert_eq!(h.max_us(), 300);
        let text = r.render();
        // Average computable from the exposition: 400 / 3.
        assert!(text.contains("latency_sum_us 400\n"), "{text}");
        assert!(text.contains("latency_max_us 300\n"), "{text}");
    }

    #[test]
    fn labeled_counters_render_sorted_and_dedupe_on_label_order() {
        let r = Registry::new();
        // Label order must not matter: both orders hit one instrument.
        r.counter_with("req_total", &[("route", "rdap"), ("status", "200")])
            .inc();
        r.counter_with("req_total", &[("status", "200"), ("route", "rdap")])
            .inc();
        r.counter_with("req_total", &[("route", "feed"), ("status", "404")])
            .inc();
        r.counter("req_total").add(3);
        let text = r.render();
        assert!(text.contains("req_total 3\n"), "{text}");
        assert!(
            text.contains("req_total{route=\"rdap\",status=\"200\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("req_total{route=\"feed\",status=\"404\"} 1\n"),
            "{text}"
        );
        // Deterministic full ordering (BTreeMap over the labeled key).
        assert_eq!(r.render(), text);
        // Every line still splits into exactly two whitespace tokens.
        for line in text.lines() {
            assert_eq!(line.split_whitespace().count(), 2, "{line}");
        }
    }

    #[test]
    fn labeled_histograms_put_suffix_before_labels() {
        let r = Registry::new();
        r.histogram_with("lat", &[("route", "rdap")]).record_us(80);
        let text = r.render();
        assert!(text.contains("lat_count{route=\"rdap\"} 1\n"), "{text}");
        assert!(text.contains("lat_p50_us{route=\"rdap\"} 100\n"), "{text}");
        assert!(text.contains("lat_p99_us{route=\"rdap\"} 100\n"), "{text}");
        assert!(text.contains("lat_sum_us{route=\"rdap\"} 80\n"), "{text}");
        assert!(text.contains("lat_max_us{route=\"rdap\"} 80\n"), "{text}");
    }

    #[test]
    fn label_values_are_escaped_and_kept_single_token() {
        let key = super::labeled_key("m_total", &[("why", "he said \"hi\" to\\me now")]);
        assert_eq!(key, "m_total{why=\"he_said_\\\"hi\\\"_to\\\\me_now\"}");
        assert_eq!(super::labeled_key("m_total", &[]), "m_total");
    }

    #[test]
    fn global_registry_is_shared() {
        let name = "obs_test_shared_total";
        counter(name).inc();
        counter(name).inc();
        assert!(counter(name).get() >= 2);
        assert!(Arc::ptr_eq(&global(), &global()));
    }
}
