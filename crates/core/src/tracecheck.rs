//! JSONL trace validation (`repro trace-check`).
//!
//! The CI gate runs a traced pipeline, then feeds the trace through
//! [`check_trace`], which enforces the schema contract of
//! `obs::JsonlSubscriber`:
//!
//! * every line parses as a JSON object with a known `type`;
//! * span ids are unique, and spans nest per thread — `span_open`'s
//!   `parent` is the thread's innermost open span, `span_close`
//!   closes exactly that innermost span (LIFO);
//! * `event` records carry a known level and may only reference an
//!   open span on their thread;
//! * no `level":"error"` events occur;
//! * every span is closed by end of trace.

use std::collections::{HashMap, HashSet};

/// Summary of a valid trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// `span_open`/`span_close` pairs seen.
    pub spans: usize,
    /// `event` records seen.
    pub events: usize,
    /// Deepest nesting on any one thread.
    pub max_depth: usize,
}

/// Validate a JSONL trace. Returns the trace's stats, or every
/// violation found (line numbers are 1-based).
pub fn check_trace(text: &str) -> Result<TraceStats, Vec<String>> {
    let mut errors: Vec<String> = Vec::new();
    let mut stats = TraceStats::default();
    // Per-thread stack of open span ids.
    let mut stacks: HashMap<i64, Vec<i64>> = HashMap::new();
    let mut seen_ids: HashSet<i64> = HashSet::new();

    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = match serde_json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                errors.push(format!("line {lineno}: not valid JSON ({e:?})"));
                continue;
            }
        };
        let Some(kind) = v.get("type").and_then(|t| t.as_str()) else {
            errors.push(format!("line {lineno}: missing \"type\""));
            continue;
        };
        let int = |key: &str| v.get(key).and_then(|x| x.as_i64());
        match kind {
            "span_open" => {
                let (Some(id), Some(thread)) = (int("id"), int("thread")) else {
                    errors.push(format!("line {lineno}: span_open missing id/thread"));
                    continue;
                };
                if v.get("name").and_then(|n| n.as_str()).is_none() {
                    errors.push(format!("line {lineno}: span_open missing name"));
                }
                if !seen_ids.insert(id) {
                    errors.push(format!("line {lineno}: duplicate span id {id}"));
                }
                let stack = stacks.entry(thread).or_default();
                let expected_parent = stack.last().copied();
                if int("parent") != expected_parent {
                    errors.push(format!(
                        "line {lineno}: span {id} parent {:?} does not match \
                         thread {thread}'s innermost open span {expected_parent:?}",
                        int("parent"),
                    ));
                }
                stack.push(id);
                stats.spans += 1;
                stats.max_depth = stats.max_depth.max(stack.len());
            }
            "span_close" => {
                let (Some(id), Some(thread)) = (int("id"), int("thread")) else {
                    errors.push(format!("line {lineno}: span_close missing id/thread"));
                    continue;
                };
                if int("wall_us").is_none() || int("items").is_none() {
                    errors.push(format!("line {lineno}: span_close missing wall_us/items"));
                }
                let stack = stacks.entry(thread).or_default();
                match stack.last() {
                    Some(&top) if top == id => {
                        stack.pop();
                    }
                    Some(&top) => errors.push(format!(
                        "line {lineno}: span_close {id} but thread {thread}'s \
                         innermost open span is {top} (closes must be LIFO)"
                    )),
                    None => errors.push(format!(
                        "line {lineno}: span_close {id} with no open span on thread {thread}"
                    )),
                }
            }
            "event" => {
                stats.events += 1;
                match v.get("level").and_then(|l| l.as_str()) {
                    Some("error") => {
                        errors.push(format!(
                            "line {lineno}: error event: {}",
                            v.get("message").and_then(|m| m.as_str()).unwrap_or("?")
                        ));
                    }
                    Some("warn" | "info" | "debug") => {}
                    other => errors.push(format!("line {lineno}: bad level {other:?}")),
                }
                if let (Some(span), Some(thread)) = (int("span"), int("thread")) {
                    let open = stacks.get(&thread).is_some_and(|s| s.contains(&span));
                    if !open {
                        errors.push(format!(
                            "line {lineno}: event references span {span} \
                             not open on thread {thread}"
                        ));
                    }
                }
            }
            other => errors.push(format!("line {lineno}: unknown type {other:?}")),
        }
    }
    for (thread, stack) in &stacks {
        if !stack.is_empty() {
            errors.push(format!(
                "end of trace: thread {thread} still has open spans {stack:?}"
            ));
        }
    }
    if errors.is_empty() {
        Ok(stats)
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{"type":"span_open","id":1,"thread":0,"t_us":1,"name":"outer","fields":{}}
{"type":"span_open","id":2,"parent":1,"thread":0,"t_us":2,"name":"inner","fields":{"days":90}}
{"type":"event","level":"info","thread":0,"t_us":3,"span":2,"message":"midpoint","fields":{}}
{"type":"span_close","id":2,"thread":0,"t_us":4,"name":"inner","wall_us":2,"items":90}
{"type":"span_close","id":1,"thread":0,"t_us":5,"name":"outer","wall_us":4,"items":0}
"#;

    #[test]
    fn valid_trace_passes_with_stats() {
        let stats = check_trace(GOOD).expect("valid");
        assert_eq!(
            stats,
            TraceStats {
                spans: 2,
                events: 1,
                max_depth: 2
            }
        );
    }

    #[test]
    fn empty_trace_is_valid() {
        assert_eq!(check_trace("").unwrap(), TraceStats::default());
    }

    #[test]
    fn unparsable_line_is_reported_with_line_number() {
        let bad = GOOD.replace(
            "{\"type\":\"event\",\"level\":\"info\"",
            "{\"type\":\"event\",\"level\":\"info\"oops",
        );
        let errs = check_trace(&bad).unwrap_err();
        assert!(errs.iter().any(|e| e.starts_with("line 3:")), "{errs:?}");
    }

    #[test]
    fn error_events_fail_validation() {
        let bad = GOOD.replace("\"level\":\"info\"", "\"level\":\"error\"");
        let errs = check_trace(&bad).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("error event")), "{errs:?}");
    }

    #[test]
    fn unclosed_span_fails_validation() {
        let bad: String = GOOD.lines().take(4).collect::<Vec<_>>().join("\n");
        let errs = check_trace(&bad).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("still has open spans")),
            "{errs:?}"
        );
    }

    #[test]
    fn out_of_order_close_fails_validation() {
        let bad = r#"{"type":"span_open","id":1,"thread":0,"t_us":1,"name":"a","fields":{}}
{"type":"span_open","id":2,"parent":1,"thread":0,"t_us":2,"name":"b","fields":{}}
{"type":"span_close","id":1,"thread":0,"t_us":3,"name":"a","wall_us":2,"items":0}
{"type":"span_close","id":2,"thread":0,"t_us":4,"name":"b","wall_us":2,"items":0}
"#;
        let errs = check_trace(bad).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("LIFO")), "{errs:?}");
    }

    #[test]
    fn wrong_parent_and_duplicate_id_fail_validation() {
        let bad = r#"{"type":"span_open","id":1,"thread":0,"t_us":1,"name":"a","fields":{}}
{"type":"span_open","id":1,"parent":7,"thread":0,"t_us":2,"name":"b","fields":{}}
{"type":"span_close","id":1,"thread":0,"t_us":3,"name":"b","wall_us":1,"items":0}
{"type":"span_close","id":1,"thread":0,"t_us":4,"name":"a","wall_us":3,"items":0}
"#;
        let errs = check_trace(bad).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("duplicate span id")),
            "{errs:?}"
        );
        assert!(
            errs.iter().any(|e| e.contains("does not match")),
            "{errs:?}"
        );
    }

    #[test]
    fn threads_have_independent_stacks() {
        let trace = r#"{"type":"span_open","id":1,"thread":0,"t_us":1,"name":"a","fields":{}}
{"type":"span_open","id":2,"thread":1,"t_us":2,"name":"b","fields":{}}
{"type":"span_close","id":1,"thread":0,"t_us":3,"name":"a","wall_us":2,"items":0}
{"type":"span_close","id":2,"thread":1,"t_us":4,"name":"b","wall_us":2,"items":0}
"#;
        let stats = check_trace(trace).expect("interleaved threads are fine");
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.max_depth, 1);
    }
}
