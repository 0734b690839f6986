//! The benchmark's own span recorder.
//!
//! A span wraps one call into a library crate: a name, start, end, the
//! enclosing span and the id of the iteration or request it belongs
//! to. Spans stay in memory and are written out when the run ends.
//! A layer's self time is its span's duration minus its children's.
//! With tracing off, [`Tracer::span`] only calls its closure.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Every per-layer metric, in `BENCHMARK.json` order: `(name, unit)`.
/// A traced run reports all of them; a layer the workload does not
/// run reads 0. Names ending in `_ms`/`_us` are median span self
/// times; the rest are counts, ratios or derived values.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.study_build_ms", "ms"),
    ("core.exp.table1_ms", "ms"),
    ("core.exp.s2_waitlists_ms", "ms"),
    ("core.exp.fig1_ms", "ms"),
    ("core.exp.fig2_ms", "ms"),
    ("core.exp.fig3_ms", "ms"),
    ("core.exp.fig4_ms", "ms"),
    ("core.exp.fig5_ms", "ms"),
    ("core.exp.fig6_ms", "ms"),
    ("core.exp.s4_coverage_ms", "ms"),
    ("core.exp.s5_prediction_ms", "ms"),
    ("core.exp.s6_amortization_ms", "ms"),
    ("core.exp.s6_behavior_ms", "ms"),
    ("core.exp.s7_combined_ms", "ms"),
    ("core.exp.sensitivity_ms", "ms"),
    ("delegation.delegations", "count"),
    ("delegation.replay_days", "count"),
    ("delegation.replay_ms", "ms"),
    ("bgpsim.world_ms", "ms"),
    ("bgpsim.encode_ms", "ms"),
    ("bgpsim.archive_bytes", "count"),
    ("bgpsim.archive_files", "count"),
    ("bgpsim.query.files_ms", "ms"),
    ("bgpsim.query.scan_ms", "ms"),
    ("bgpsim.query.point_ms", "ms"),
    ("bgpsim.query.window_ms", "ms"),
    ("bgpsim.query.scan.elems_scanned", "count"),
    ("bgpsim.query.scan.rows_matched", "count"),
    ("bgpsim.query.scan.files_pruned", "count"),
    ("bgpsim.query.point.elems_scanned", "count"),
    ("bgpsim.query.point.rows_matched", "count"),
    ("bgpsim.query.point.files_pruned", "count"),
    ("bgpsim.query.window.elems_scanned", "count"),
    ("bgpsim.query.window.rows_matched", "count"),
    ("bgpsim.query.window.files_pruned", "count"),
    ("bgpsim.query.point_match_ratio", "ratio"),
    ("serve.app_build_ms", "ms"),
    ("rdap.db_build_ms", "ms"),
    ("registry.simulate_ms", "ms"),
    ("serve.bind_ms", "ms"),
    ("rdap.lookup_hit_us", "us"),
    ("rdap.lookup_miss_us", "us"),
    ("serve.handle_us.rdap", "us"),
    ("serve.handle_us.feed", "us"),
    ("serve.http_parse_us", "us"),
    ("serve.whois_line_us", "us"),
    ("serve.socket_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.rdap_hit_ratio", "ratio"),
    ("serve.closed_rps", "1/s"),
    ("serve.open_p50_ms", "ms"),
    ("serve.open_p99_ms", "ms"),
    ("serve.open_samples", "count"),
    ("loadgen.late_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

/// Every end-to-end metric, in `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mb", "MiB"), ("op_ms", "ms")];

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// The iteration or request this span belongs to.
    pub id: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    id: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
    /// Counts and derived values, by metric name (last write wins).
    values: BTreeMap<String, f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            id: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    /// A tracer for another thread, on this one's clock.
    pub fn fork(&self) -> Tracer {
        Tracer {
            t0: self.t0,
            ..Tracer::new(self.on)
        }
    }

    /// Append a forked tracer's spans and values.
    pub fn join(&mut self, other: Tracer) {
        self.adopt(&other.spans, &other.values, None, 0);
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Turn recording on or off between spans (a traced run interleaves
    /// untraced iterations to measure the recorder's own cost).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Start a new iteration or request: later spans carry this id.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name` (recorded only when on).
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            id: self.id,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Record a count or derived value (only when on).
    pub fn value(&mut self, name: &str, v: f64) {
        if self.on {
            self.values.insert(name.to_string(), v);
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append spans recorded elsewhere (a child process or thread),
    /// shifted by `offset_ns` onto this tracer's clock and tagged with
    /// `id`.
    /// `None` keeps each span's own id.
    pub fn adopt(
        &mut self,
        spans: &[Span],
        values: &BTreeMap<String, f64>,
        id: Option<u64>,
        offset_ns: u64,
    ) {
        let base = self.spans.len();
        for s in spans {
            self.spans.push(Span {
                name: s.name.clone(),
                id: id.unwrap_or(s.id),
                parent: s.parent.map(|p| p + base),
                start_ns: s.start_ns + offset_ns,
                end_ns: s.end_ns + offset_ns,
            });
        }
        for (k, v) in values {
            self.values.insert(k.clone(), *v);
        }
    }

    pub fn elapsed_ns(&self) -> u64 {
        self.now_ns()
    }

    /// Self time of every span (ns), grouped by span name.
    pub fn self_times(&self) -> BTreeMap<&str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            out.entry(s.name.as_str()).or_default().push(own as f64);
        }
        out
    }

    /// The per-layer metrics: the median self time of each span name
    /// (in the unit its suffix names), every recorded value, and 0 for
    /// a layer this run did not touch.
    pub fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        let selfs = self.self_times();
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = if let Some(v) = self.values.get(name) {
                    *v
                } else if let Some(ns) = selfs.get(name) {
                    let scale = if unit == "us" { 1e3 } else { 1e6 };
                    stats::median(ns) / scale
                } else {
                    0.0
                };
                (name, value, unit)
            })
            .collect()
    }

    /// Spans as lines: `span <name> <parent|-> <start_ns> <end_ns>`,
    /// then `value <name> <v>` — the form a child process reports in
    /// and [`parse_lines`] reads back.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(out, "span {} {parent} {} {}", s.name, s.start_ns, s.end_ns);
        }
        for (k, v) in &self.values {
            let _ = writeln!(out, "value {k} {v}");
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.id, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {path:?}: {e}"))
    }
}

/// Read back [`Tracer::to_lines`] output; other lines are ignored.
pub fn parse_lines(text: &str) -> (Vec<Span>, BTreeMap<String, f64>) {
    let mut spans = Vec::new();
    let mut values = BTreeMap::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split(' ').collect();
        match f[..] {
            ["span", name, parent, start, end] => {
                if let (Ok(start_ns), Ok(end_ns)) = (start.parse(), end.parse()) {
                    spans.push(Span {
                        name: name.to_string(),
                        id: 0,
                        parent: parent.parse().ok(),
                        start_ns,
                        end_ns,
                    });
                }
            }
            ["value", name, v] => {
                if let Ok(v) = v.parse() {
                    values.insert(name.to_string(), v);
                }
            }
            _ => {}
        }
    }
    (spans, values)
}

/// Where a traced run writes its spans.
pub fn out_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new("perfbench/out").join(format!("trace-{workload}-seed{seed}.jsonl"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("outer_ms", |t| {
            t.span("inner_ms", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let selfs = t.self_times();
        let outer = selfs["outer_ms"][0];
        let inner = selfs["inner_ms"][0];
        assert!(inner >= 20e6, "{inner}");
        assert!((5e6..20e6).contains(&outer), "{outer}");
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn lines_round_trip() {
        let mut t = Tracer::new(true);
        t.span("a_ms", |t| t.span("b_ms", |_| ()));
        t.value("bgpsim.archive_files", 7.0);
        let (spans, values) = parse_lines(&t.to_lines());
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(values["bgpsim.archive_files"], 7.0);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("a_ms", |_| 3), 3);
        t.value("x", 1.0);
        assert!(t.spans().is_empty());
        assert!(t.per_layer().iter().all(|(_, v, _)| *v == 0.0));
    }

    /// `BENCHMARK.json` and these tables name the same metrics.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = |section: &str| -> Vec<String> {
            let start = json.find(&format!("\"{section}\"")).expect(section);
            let body = &json[start..];
            let body = &body[..body.find(']').expect("list end")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("quote")].to_string())
                .collect()
        };
        let want = |t: &[(&str, &str)]| t.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names("per_layer"), want(PER_LAYER));
        assert_eq!(names("end_to_end"), want(END_TO_END));
    }
}
