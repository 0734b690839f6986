//! Trace sinks — human-readable stderr, machine-readable JSONL, and an
//! in-memory collector for tests — each a reader of the crate's one
//! [`Record`] stream. `write_jsonl` is the one JSONL line writer,
//! shared by [`JsonlSubscriber`] and the flight ring's dump.

use crate::{Record, Value};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A trace sink. Install with [`crate::subscribe`]. It must be cheap
/// and must never panic on weird field contents; it may be called
/// concurrently from any thread.
pub trait Subscriber: Send + Sync {
    /// A span opened, a span closed, or an event fired.
    fn record(&self, record: &Record);
}

fn fmt_fields(fields: &[(&'static str, Value)]) -> String {
    let mut out = String::new();
    for (k, v) in fields {
        out.push(' ');
        out.push_str(k);
        out.push('=');
        out.push_str(&v.to_string());
    }
    out
}

/// Human-readable tracing on stderr (`repro --trace`).
#[derive(Default)]
pub struct StderrSubscriber;

impl Subscriber for StderrSubscriber {
    fn record(&self, r: &Record) {
        match r {
            Record::SpanOpen {
                id, name, fields, ..
            } => {
                eprintln!("# trace > {name} [{id}]{}", fmt_fields(fields.as_slice()));
            }
            Record::SpanClose {
                id,
                name,
                wall_us,
                items,
                ..
            } => {
                let wall = Duration::from_micros(*wall_us);
                let mut line = format!("# trace < {name} [{id}] {wall:.2?}");
                if *items > 0 {
                    let per_sec = *items as f64 / wall.as_secs_f64().max(f64::MIN_POSITIVE);
                    line.push_str(&format!(" items={items} ({per_sec:.0}/s)"));
                }
                eprintln!("{line}");
            }
            Record::Event {
                level,
                message,
                fields,
                ..
            } => {
                eprintln!(
                    "# trace ! {}: {message}{}",
                    level.as_str(),
                    fmt_fields(fields.as_slice())
                );
            }
        }
    }
}

/// Escape a string for inclusion in a JSON string literal. Handles
/// quotes, backslashes, and all control characters (newlines included);
/// non-ASCII is passed through as UTF-8, which JSON permits.
fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", u32::from(c)));
            }
            c => out.push(c),
        }
    }
}

fn json_str(s: &str, out: &mut String) {
    out.push('"');
    json_escape(s, out);
    out.push('"');
}

fn json_value(v: &Value, out: &mut String) {
    match v {
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(n) if n.is_finite() => out.push_str(&format!("{n}")),
        // JSON has no NaN/Infinity; degrade to a string.
        Value::F64(n) => json_str(&n.to_string(), out),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Str(s) => json_str(s, out),
    }
}

fn json_fields(fields: &[(&'static str, Value)], out: &mut String) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_str(k, out);
        out.push(':');
        json_value(v, out);
    }
    out.push('}');
}

/// Append `record` to `out` as one JSONL line in the schema documented
/// on [`JsonlSubscriber`]. With `links` off the line leaves out the
/// `parent`/`span` references, as the flight ring's dump does.
pub(crate) fn write_jsonl(record: &Record, links: bool, out: &mut String) {
    match record {
        Record::SpanOpen {
            id,
            parent,
            thread,
            t_us,
            name,
            fields,
        } => {
            out.push_str(&format!("{{\"type\":\"span_open\",\"id\":{id}"));
            if let (true, Some(parent)) = (links, parent) {
                out.push_str(&format!(",\"parent\":{parent}"));
            }
            out.push_str(&format!(",\"thread\":{thread},\"t_us\":{t_us},\"name\":"));
            json_str(name, out);
            out.push_str(",\"fields\":");
            json_fields(fields.as_slice(), out);
        }
        Record::SpanClose {
            id,
            thread,
            t_us,
            name,
            wall_us,
            items,
        } => {
            out.push_str(&format!(
                "{{\"type\":\"span_close\",\"id\":{id},\"thread\":{thread},\"t_us\":{t_us},\"name\":"
            ));
            json_str(name, out);
            out.push_str(&format!(",\"wall_us\":{wall_us},\"items\":{items}"));
        }
        Record::Event {
            level,
            span,
            thread,
            t_us,
            message,
            fields,
        } => {
            out.push_str(&format!(
                "{{\"type\":\"event\",\"level\":\"{}\",\"thread\":{thread},\"t_us\":{t_us}",
                level.as_str()
            ));
            if let (true, Some(span)) = (links, span) {
                out.push_str(&format!(",\"span\":{span}"));
            }
            out.push_str(",\"message\":");
            json_str(message, out);
            out.push_str(",\"fields\":");
            json_fields(fields.as_slice(), out);
        }
    }
    out.push_str("}\n");
}

/// Machine-readable JSONL tracing (`repro --trace=jsonl:PATH`).
///
/// One JSON object per line, three record types:
///
/// ```json
/// {"type":"span_open","id":1,"thread":0,"t_us":12,"name":"render_days","fields":{"days":90}}
/// {"type":"span_close","id":1,"thread":0,"t_us":999,"name":"render_days","wall_us":987,"items":90}
/// {"type":"event","level":"info","thread":0,"t_us":40,"span":1,"message":"…","fields":{}}
/// ```
///
/// `span_open` carries `"parent":<id>` when nested. The schema is
/// validated by `repro trace-check` (every line parses, spans nest and
/// close per thread, no `error` events).
pub struct JsonlSubscriber {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlSubscriber {
    /// Write the trace to a file at `path` (buffered; flushed when the
    /// subscriber drops).
    pub fn create(path: &Path) -> io::Result<JsonlSubscriber> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSubscriber::to_writer(Box::new(BufWriter::new(file))))
    }

    /// Write the trace to an arbitrary sink (tests use a shared
    /// `Vec<u8>`; see [`shared_buffer`]).
    pub fn to_writer(out: Box<dyn Write + Send>) -> JsonlSubscriber {
        JsonlSubscriber {
            out: Mutex::new(out),
        }
    }
}

impl Drop for JsonlSubscriber {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

impl Subscriber for JsonlSubscriber {
    fn record(&self, r: &Record) {
        let mut line = String::new();
        write_jsonl(r, true, &mut line);
        // A writer that panicked mid-line leaves at worst a torn line,
        // which trace-check reports; keep tracing rather than panic.
        let mut out = self.out.lock().unwrap_or_else(|p| p.into_inner());
        // Trace output is best-effort: a full disk must not take the
        // traced pipeline down with it.
        let _ = write!(out, "{line}");
    }
}

/// A cloneable in-memory byte sink plus a [`JsonlSubscriber`] writing
/// into it — the test harness for JSONL traces.
pub fn shared_buffer() -> (JsonlSubscriber, Arc<Mutex<Vec<u8>>>) {
    #[derive(Clone)]
    struct BufSink(Arc<Mutex<Vec<u8>>>);
    impl Write for BufSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    let buf = Arc::new(Mutex::new(Vec::new()));
    (
        JsonlSubscriber::to_writer(Box::new(BufSink(Arc::clone(&buf)))),
        buf,
    )
}

/// Collects every record in memory — the assertion surface for tests.
#[derive(Default)]
pub struct MemorySubscriber {
    records: Mutex<Vec<Record>>,
}

impl MemorySubscriber {
    /// A copy of everything recorded so far, in dispatch order.
    pub fn records(&self) -> Vec<Record> {
        self.records
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }
}

impl Subscriber for MemorySubscriber {
    fn record(&self, r: &Record) {
        self.records
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(*r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{event, span, subscribe, test_lock, Level};

    /// JSONL escaping survives keys/values with quotes, newlines, and
    /// non-ASCII — every emitted line must parse as JSON and
    /// round-trip the value.
    #[test]
    fn jsonl_escaping_round_trips_hostile_strings() {
        let _guard = test_lock();
        let (jsonl, buf) = shared_buffer();
        let sub = subscribe(std::sync::Arc::new(jsonl));
        let hostile = "he said \"hi\"\nthen\tleft \\ fin — völlig 日本語 \u{1}";
        {
            let span = span!("weird \"span\"\nname", note = hostile);
            span.add_items(3);
            event!(Level::Warn, "line\r\nbreaks", payload = hostile, ok = true);
        }
        drop(sub);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        for line in &lines {
            let v = serde_json::parse(line).unwrap_or_else(|e| panic!("bad JSON {line:?}: {e:?}"));
            assert!(v.get("type").is_some());
        }
        let open = serde_json::parse(lines[0]).unwrap();
        assert_eq!(open["name"].as_str(), Some("weird \"span\"\nname"));
        assert_eq!(open["fields"]["note"].as_str(), Some(hostile));
        let event = serde_json::parse(lines[1]).unwrap();
        assert_eq!(event["message"].as_str(), Some("line\r\nbreaks"));
        assert_eq!(event["fields"]["payload"].as_str(), Some(hostile));
        assert_eq!(event["fields"]["ok"].as_bool(), Some(true));
        let close = serde_json::parse(lines[2]).unwrap();
        assert_eq!(close["items"].as_i64(), Some(3));
        assert!(close["wall_us"].as_i64().is_some());
    }

    #[test]
    fn jsonl_non_finite_floats_degrade_to_strings() {
        let mut out = String::new();
        json_value(&Value::F64(f64::NAN), &mut out);
        assert_eq!(out, "\"NaN\"");
        let mut out = String::new();
        json_value(&Value::F64(1.5), &mut out);
        assert_eq!(out, "1.5");
    }

    #[test]
    fn memory_subscriber_records_in_order() {
        let _guard = test_lock();
        let mem = std::sync::Arc::new(MemorySubscriber::default());
        let sub = subscribe(mem.clone());
        {
            let _a = span!("a");
            let _b = span!("b");
        }
        drop(sub);
        let order: Vec<(bool, &str)> = mem
            .records()
            .into_iter()
            .filter_map(|r| match r {
                Record::SpanOpen { name, .. } => Some((true, name)),
                Record::SpanClose { name, .. } => Some((false, name)),
                Record::Event { .. } => None,
            })
            .collect();
        assert_eq!(
            order,
            [(true, "a"), (true, "b"), (false, "b"), (false, "a")]
        );
    }
}
