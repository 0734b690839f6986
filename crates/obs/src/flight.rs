//! The flight recorder: a fixed-capacity ring buffer that is **always
//! recording** — no subscriber needed — so the recent history of span
//! closes and events is available *after the fact* when a request
//! misbehaves in production.
//!
//! Unlike tracing (off unless subscribed) and like metrics, the
//! recorder is compiled in and always on. Writers claim a slot with
//! one atomic `fetch_add` on the write cursor; the slots are sharded —
//! each holds its own tiny lock guarding only the single record copy,
//! so concurrent writers touch disjoint slots and never contend on a
//! global lock. A slot holds the crate's one [`Record`] type — the same
//! `Copy` value the subscribers receive, fixed-size with no heap
//! behind it — which is what keeps the hot path to roughly a timestamp
//! read plus two atomic operations.
//!
//! A snapshot renders the ring (oldest first) as JSONL that passes
//! `repro trace-check`, through the same line writer as
//! [`crate::JsonlSubscriber`]: each captured span close is emitted as a
//! matched, parentless `span_open`/`span_close` pair on its recording
//! thread — the ring only keeps closes, so the opens are synthesized
//! from `t_us - wall_us` — and events carry no `span` reference.

use crate::subscriber::write_jsonl;
use crate::{FieldBuf, Record};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Slots in the process-global ring: enough for the recent history of
/// a busy server (a few seconds at thousands of requests/sec) while
/// staying about a megabyte resident.
pub const DEFAULT_CAPACITY: usize = 4096;

/// The always-on ring buffer. One process-global instance lives behind
/// [`global`]; tests construct their own with [`FlightRecorder::with_capacity`].
pub struct FlightRecorder {
    /// Sharded slots: each guards exactly one record copy, so writers
    /// on different slots never touch the same lock. They hold span
    /// closes and events only.
    slots: Box<[Mutex<Option<Record>>]>,
    /// Total records ever written; `cursor % capacity` is the next slot.
    cursor: AtomicU64,
    /// Bench-only escape hatch: `obs_overhead` compares a paused run
    /// against an active one. Production never pauses.
    paused: AtomicBool,
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` records (min 1).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
            paused: AtomicBool::new(false),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records ever written (not capped at capacity).
    pub fn recorded_total(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Pause or resume recording. Exists so the `obs_overhead` bench
    /// stage can measure a baseline; everything else leaves this alone.
    pub fn set_paused(&self, paused: bool) {
        self.paused.store(paused, Ordering::Relaxed);
    }

    /// Whether recording is paused (bench only).
    pub fn is_paused(&self) -> bool {
        self.paused.load(Ordering::Relaxed)
    }

    /// Write one span close or event: claim a slot via the cursor,
    /// copy under that slot's own lock. A snapshot reading the same
    /// slot waits only for this single copy.
    pub(crate) fn record(&self, record: Record) {
        if self.paused.load(Ordering::Relaxed) {
            return;
        }
        let at = self.cursor.fetch_add(1, Ordering::Relaxed);
        let idx = (at % self.slots.len() as u64) as usize;
        // A poisoned slot (panic mid-copy is impossible, but a
        // panicking test thread may hold it) still has a coherent
        // Option; recover rather than propagate.
        let mut slot = self.slots[idx].lock().unwrap_or_else(|p| p.into_inner());
        *slot = Some(record);
    }

    /// Copy the ring out, oldest first. Writers racing the snapshot
    /// may replace a slot between reads; every record returned is a
    /// complete copy (the per-slot lock covers the whole record).
    pub fn snapshot(&self) -> Vec<Record> {
        let cap = self.slots.len() as u64;
        let cursor = self.cursor.load(Ordering::Relaxed);
        let start = cursor % cap; // the oldest surviving slot
        let mut out = Vec::new();
        for k in 0..cap {
            let idx = ((start + k) % cap) as usize;
            let slot = self.slots[idx].lock().unwrap_or_else(|p| p.into_inner());
            if let Some(record) = *slot {
                out.push(record);
            }
        }
        out
    }

    /// Render the ring as `repro trace-check`-compatible JSONL: every
    /// captured span close becomes a matched, parentless
    /// `span_open`/`span_close` pair (the open's `t_us` reconstructed
    /// as `close - wall`), events carry no `span` reference, so spans
    /// trivially nest LIFO per thread and all close by end of dump.
    pub fn snapshot_jsonl(&self) -> String {
        let mut out = String::new();
        for record in self.snapshot() {
            if let Record::SpanClose {
                id,
                thread,
                t_us,
                name,
                wall_us,
                ..
            } = record
            {
                let open = Record::SpanOpen {
                    id,
                    parent: None,
                    thread,
                    t_us: t_us.saturating_sub(wall_us),
                    name,
                    fields: FieldBuf::default(),
                };
                write_jsonl(&open, false, &mut out);
            }
            write_jsonl(&record, false, &mut out);
        }
        out
    }
}

/// The process-global recorder every span close and event lands in.
pub fn global() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| FlightRecorder::with_capacity(DEFAULT_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Level, Value};

    fn close(id: u64, t_us: u64) -> Record {
        Record::SpanClose {
            id,
            thread: 0,
            t_us,
            name: "stage",
            wall_us: 5,
            items: id,
        }
    }

    fn event(message: &'static str, fields: FieldBuf) -> Record {
        Record::Event {
            level: Level::Info,
            span: Some(9),
            thread: 3,
            t_us: 101,
            message,
            fields,
        }
    }

    #[test]
    fn ring_wraps_at_capacity_keeping_newest() {
        let ring = FlightRecorder::with_capacity(8);
        for i in 0..20u64 {
            ring.record(close(i, 100 + i));
        }
        assert_eq!(ring.recorded_total(), 20);
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 8, "ring keeps exactly capacity records");
        let ids: Vec<Option<u64>> = snap
            .iter()
            .map(|r| match *r {
                Record::SpanClose { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(
            ids,
            (12..20).map(Some).collect::<Vec<_>>(),
            "oldest first, newest kept"
        );
    }

    #[test]
    fn snapshot_of_partial_ring_returns_only_written_slots() {
        let ring = FlightRecorder::with_capacity(16);
        ring.record(close(1, 10));
        ring.record(close(2, 11));
        assert_eq!(ring.snapshot().len(), 2);
    }

    #[test]
    fn paused_recorder_drops_records() {
        let ring = FlightRecorder::with_capacity(4);
        ring.record(close(1, 10));
        ring.set_paused(true);
        assert!(ring.is_paused());
        ring.record(close(2, 11));
        ring.set_paused(false);
        ring.record(close(3, 12));
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 2, "the paused record is gone");
    }

    #[test]
    fn jsonl_pairs_pass_trace_semantics_by_construction() {
        let ring = FlightRecorder::with_capacity(8);
        ring.record(close(7, 100));
        ring.record(event(
            "hit \"quoted\"",
            FieldBuf::new([("route", Value::Str("rdap")), ("status", Value::U64(200))]),
        ));
        let jsonl = ring.snapshot_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3, "{jsonl}");
        assert!(lines[0].contains("\"type\":\"span_open\"") && lines[0].contains("\"id\":7"));
        assert!(
            lines[0].contains("\"t_us\":95"),
            "open at close - wall: {}",
            lines[0]
        );
        assert!(lines[1].contains("\"type\":\"span_close\"") && lines[1].contains("\"wall_us\":5"));
        assert!(
            lines[2].contains("\"message\":\"hit \\\"quoted\\\"\""),
            "{}",
            lines[2]
        );
        assert!(lines[2].contains("\"route\":\"rdap\"") && lines[2].contains("\"status\":200"));
        assert!(
            !lines[2].contains("\"span\""),
            "the dump drops span links: {}",
            lines[2]
        );
        // Every line is valid JSON per the shim parser.
        for line in &lines {
            serde_json::parse(line).expect("snapshot line parses");
        }
    }

    #[test]
    fn non_finite_floats_dump_as_valid_json() {
        let ring = FlightRecorder::with_capacity(4);
        ring.record(event(
            "ratio",
            FieldBuf::new([
                ("nan", Value::F64(f64::NAN)),
                ("inf", Value::F64(f64::INFINITY)),
            ]),
        ));
        let jsonl = ring.snapshot_jsonl();
        assert_eq!(jsonl.lines().count(), 1, "{jsonl}");
        for line in jsonl.lines() {
            let v = serde_json::parse(line).unwrap_or_else(|e| panic!("bad JSON {line:?}: {e:?}"));
            assert_eq!(v["fields"]["nan"].as_str(), Some("NaN"));
            assert_eq!(v["fields"]["inf"].as_str(), Some("inf"));
        }
    }

    #[test]
    fn snapshot_while_writing_yields_complete_records() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let ring = FlightRecorder::with_capacity(32);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let ring = &ring;
                let stop = &stop;
                s.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        ring.record(close(w * 1_000_000 + i, i));
                        i += 1;
                    }
                });
            }
            for _ in 0..50 {
                let jsonl = ring.snapshot_jsonl();
                for line in jsonl.lines() {
                    serde_json::parse(line).expect("mid-write snapshot line parses");
                }
                // Pairs stay adjacent: opens and closes alternate.
                let kinds: Vec<bool> = jsonl
                    .lines()
                    .map(|l| l.contains("\"type\":\"span_open\""))
                    .collect();
                for pair in kinds.chunks(2) {
                    assert_eq!(pair, [true, false], "open/close pairs stay adjacent");
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
}
