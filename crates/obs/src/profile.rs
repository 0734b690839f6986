//! The pipeline profiler behind `repro profile <experiment>`.
//!
//! [`ProfileCollector`] is a subscriber that retains every closed span
//! (with its parent link, wall time, and item count) and renders the
//! run as an indented tree: one line per stage with wall time, item
//! count, and throughput. A span's conventional `unit = "days"` field
//! labels its items-per-second figure (`5143 days/s`); spans without
//! items print wall time only.

use crate::subscriber::Subscriber;
use crate::{FieldBuf, Level, Record, Value};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

struct SpanNode {
    parent: Option<u64>,
    name: &'static str,
    fields: FieldBuf,
    wall: Option<Duration>,
    items: u64,
}

#[derive(Default)]
struct State {
    // Open order — also the render order within each parent.
    spans: Vec<SpanNode>,
    index: HashMap<u64, usize>,
    // Warn/error events, surfaced under the tree.
    notes: Vec<String>,
}

/// Collects spans for a profile report. Install with
/// [`crate::subscribe`], run the workload, then call [`render_tree`]
/// (after dropping the guard so every span has closed).
///
/// [`render_tree`]: ProfileCollector::render_tree
#[derive(Default)]
pub struct ProfileCollector {
    state: Mutex<State>,
}

fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", d.as_secs_f64())
    }
}

fn fmt_rate(items: u64, wall: Duration, unit: &str) -> String {
    let secs = wall.as_secs_f64();
    if secs <= 0.0 {
        return format!("{items} {unit}");
    }
    let rate = items as f64 / secs;
    if rate >= 10.0 {
        format!("{items} {unit}, {rate:.0} {unit}/s")
    } else {
        format!("{items} {unit}, {rate:.2} {unit}/s")
    }
}

impl ProfileCollector {
    /// An empty collector.
    pub fn new() -> ProfileCollector {
        ProfileCollector::default()
    }

    // Every update is a single push, insert or field store, so state
    // recovered from a poisoned lock is still coherent.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Render the collected spans as an indented tree, root spans in
    /// open order, one line per span: name, wall time, and — when the
    /// span attributed items — count and throughput. Collected
    /// warn/error events follow the tree.
    pub fn render_tree(&self) -> String {
        let state = self.state();
        // children[i] = indices of spans whose parent is spans[i].
        let mut roots: Vec<usize> = Vec::new();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); state.spans.len()];
        for (i, node) in state.spans.iter().enumerate() {
            match node.parent.and_then(|p| state.index.get(&p)) {
                Some(&pi) => children[pi].push(i),
                None => roots.push(i),
            }
        }
        let mut out = String::new();
        for &root in &roots {
            render_node(&state.spans, &children, root, "", "", &mut out);
        }
        if !state.notes.is_empty() {
            out.push('\n');
            for note in &state.notes {
                out.push_str(note);
                out.push('\n');
            }
        }
        out
    }

    /// Total wall time over every closed span with the given name.
    ///
    /// Stage harnesses (`repro bench`) wrap each pipeline stage in a
    /// uniquely-named span and read its duration back through this
    /// accessor, keeping all wall-clock reads inside `obs`. Returns
    /// `None` when no span of that name closed.
    pub fn stage_wall(&self, name: &str) -> Option<Duration> {
        let mut total = Duration::ZERO;
        let mut seen = false;
        for node in &self.state().spans {
            if node.name == name {
                if let Some(wall) = node.wall {
                    total += wall;
                    seen = true;
                }
            }
        }
        seen.then_some(total)
    }
}

fn render_node(
    spans: &[SpanNode],
    children: &[Vec<usize>],
    i: usize,
    prefix: &str,
    child_prefix: &str,
    out: &mut String,
) {
    let node = &spans[i];
    let label = format!("{prefix}{}", node.name);
    out.push_str(&format!("{label:<42}"));
    match node.wall {
        Some(wall) => {
            out.push_str(&format!("{:>10}", fmt_duration(wall)));
            if node.items > 0 {
                let unit = node.fields.as_slice().iter().find_map(|f| match *f {
                    ("unit", Value::Str(unit)) => Some(unit),
                    _ => None,
                });
                let unit = unit.unwrap_or("items");
                out.push_str("  ");
                out.push_str(&fmt_rate(node.items, wall, unit));
            }
        }
        None => out.push_str("   (never closed)"),
    }
    for (k, v) in node.fields.as_slice() {
        if *k != "unit" {
            out.push_str(&format!("  {k}={v}"));
        }
    }
    out.push('\n');
    let kids = &children[i];
    for (n, &child) in kids.iter().enumerate() {
        let last = n + 1 == kids.len();
        let branch = if last { "└─ " } else { "├─ " };
        let cont = if last { "   " } else { "│  " };
        render_node(
            spans,
            children,
            child,
            &format!("{child_prefix}{branch}"),
            &format!("{child_prefix}{cont}"),
            out,
        );
    }
}

impl Subscriber for ProfileCollector {
    fn record(&self, r: &Record) {
        match *r {
            Record::SpanOpen {
                id,
                parent,
                name,
                fields,
                ..
            } => {
                let mut state = self.state();
                let idx = state.spans.len();
                state.spans.push(SpanNode {
                    parent,
                    name,
                    fields,
                    wall: None,
                    items: 0,
                });
                state.index.insert(id, idx);
            }
            Record::SpanClose {
                id, wall_us, items, ..
            } => {
                let mut state = self.state();
                if let Some(&idx) = state.index.get(&id) {
                    let node = &mut state.spans[idx];
                    node.wall = Some(Duration::from_micros(wall_us));
                    node.items = items;
                }
            }
            Record::Event {
                level,
                message,
                fields,
                ..
            } if level <= Level::Warn => {
                let mut note = format!("[{}] {message}", level.as_str());
                for (k, v) in fields.as_slice() {
                    note.push_str(&format!(" {k}={v}"));
                }
                self.state().notes.push(note);
            }
            Record::Event { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{event, span, subscribe, test_lock};
    use std::sync::Arc;

    #[test]
    fn profile_tree_nests_and_reports_throughput() {
        let _guard = test_lock();
        let collector = Arc::new(ProfileCollector::new());
        let sub = subscribe(collector.clone());
        {
            let outer = span!("chain", unit = "days");
            outer.add_items(90);
            // Wall times are whole microseconds; make the rate finite.
            std::thread::sleep(Duration::from_millis(1));
            {
                let _a = span!("stage_a");
            }
            {
                let _b = span!("stage_b");
            }
            event!(Level::Warn, "fallback_used", kind = "synthetic");
            event!(Level::Debug, "noise");
        }
        drop(sub);
        let tree = collector.render_tree();
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(
            lines.len(),
            5,
            "three spans, a blank line, one note: {tree}"
        );
        assert!(lines[0].starts_with("chain"), "{tree}");
        assert!(lines[0].contains("90 days"), "{tree}");
        assert!(lines[0].contains("days/s"), "{tree}");
        // stage_a opened first, so it renders first; both are children.
        assert!(lines[1].contains("├─ stage_a"), "{tree}");
        assert!(lines[2].contains("└─ stage_b"), "{tree}");
        // Warn surfaced, debug suppressed.
        assert!(
            tree.contains("[warn] fallback_used kind=synthetic"),
            "{tree}"
        );
        assert!(!tree.contains("noise"), "{tree}");
        assert!(!tree.contains("(never closed)"), "{tree}");
        assert!(collector.stage_wall("chain") >= Some(Duration::from_millis(1)));
    }

    #[test]
    fn unclosed_spans_are_flagged() {
        let collector = ProfileCollector::new();
        collector.record(&Record::SpanOpen {
            id: 7,
            parent: None,
            thread: 0,
            t_us: 0,
            name: "stuck",
            fields: FieldBuf::default(),
        });
        let tree = collector.render_tree();
        assert!(tree.contains("stuck"), "{tree}");
        assert!(tree.contains("(never closed)"), "{tree}");
    }

    #[test]
    fn duration_formatting_scales() {
        assert_eq!(fmt_duration(Duration::from_micros(250)), "250µs");
        assert_eq!(fmt_duration(Duration::from_micros(1_500)), "1.5ms");
        assert_eq!(fmt_duration(Duration::from_millis(2_500)), "2.50s");
    }
}
