//! # drywells-obs
//!
//! Workspace-wide structured observability, pure `std`:
//!
//! * **Spans** — hierarchical wall-time regions with item-throughput
//!   attribution (`obs::span!("render_days", days = n)`); a span knows
//!   its parent (per-thread stack), its wall time, and how many items
//!   it processed, so a profiler can print `days/s` per stage.
//! * **Events** — leveled, structured key/value records
//!   (`obs::event!(Level::Warn, "rdap_rejected", budget = b)`).
//! * **One event model** — every span open, span close and event is
//!   one fixed-size, heap-free [`Record`] whose fields are at most
//!   [`MAX_FIELDS`] `Copy` [`Value`]s (numbers, bools, `&'static str`).
//!   A span close or an event is built once, written into the
//!   [`flight`] ring, and handed unchanged to the subscribers.
//! * **Subscribers** — pluggable readers of that stream
//!   ([`StderrSubscriber`] for humans, [`JsonlSubscriber`] for
//!   machines, [`MemorySubscriber`] for tests, [`ProfileCollector`] for
//!   `repro profile`). Installed via [`subscribe`], removed when the
//!   returned guard drops. The JSONL subscriber and the ring's dump
//!   share one line writer.
//! * **Metrics** — a process-wide registry of named counters, gauges
//!   and fixed-bucket histograms ([`metrics`]), always on and
//!   lock-free, rendered by the serving layer's `/metrics` endpoint.
//! * **Flight recorder** — a fixed-capacity ring ([`flight`]) that is
//!   always recording span closes and events (no subscriber needed),
//!   snapshotable as trace-check-compatible JSONL after the fact.
//!
//! ## The disabled path stays off the hot path
//!
//! Tracing is off unless at least one subscriber is installed. The
//! `span!`/`event!` macros expand to `if obs::enabled() { … }`, and
//! [`enabled`] is a single `Relaxed` atomic load — no allocation and
//! no field evaluation while nobody is listening. The flight recorder
//! still sees the history: a disabled `span!` returns a *lite* span
//! (name + start time only — no subscriber dispatch, no span stack)
//! whose drop writes its close record into the ring, and a disabled
//! `event!` records its static message and level without touching the
//! fields. `flight_event!` always evaluates its fields and records them.
//! The metrics registry is separate and intentionally always on (its
//! hot path is one `fetch_add`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod metrics;
pub mod profile;
pub mod subscriber;

pub use profile::ProfileCollector;
pub use subscriber::{JsonlSubscriber, MemorySubscriber, StderrSubscriber, Subscriber};

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Event severity. `Error` events fail `repro trace-check`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Something is wrong; a trace containing one fails validation.
    Error,
    /// Unusual but handled (admission rejection, archive fallback).
    Warn,
    /// Normal milestones (archive built, cache miss).
    Info,
    /// High-volume diagnostics (per-fanout worker accounting).
    Debug,
}

impl Level {
    /// Lower-case name, as serialized in JSONL traces.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// A structured field value: numbers, bools and static text only, so
/// a record holding it is `Copy` and recording never allocates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Static text (route names, labels, units).
    Str(&'static str),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! value_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {
        $(impl From<$t> for Value {
            fn from(v: $t) -> Value { Value::$variant(v as $conv) }
        })*
    };
}
value_from!(u64 => U64 as u64, u32 => U64 as u64, u16 => U64 as u64, usize => U64 as u64,
            i64 => I64 as i64, i32 => I64 as i64, f64 => F64 as f64);

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&'static str> for Value {
    fn from(v: &'static str) -> Value {
        Value::Str(v)
    }
}

/// Fields kept per record. Access logs need four (request id, route,
/// status, latency); a call site with more fails to compile.
pub const MAX_FIELDS: usize = 4;

/// Rejects, at compile time, a call site with more than [`MAX_FIELDS`]
/// fields.
struct Fits<const N: usize>;

impl<const N: usize> Fits<N> {
    const OK: () = assert!(
        N <= MAX_FIELDS,
        "obs records carry at most MAX_FIELDS (4) fields"
    );
}

/// A fixed-size, `Copy` bag of up to [`MAX_FIELDS`] fields.
#[derive(Clone, Copy, Debug)]
pub struct FieldBuf {
    len: usize,
    slots: [(&'static str, Value); MAX_FIELDS],
}

impl Default for FieldBuf {
    fn default() -> FieldBuf {
        FieldBuf {
            len: 0,
            slots: [("", Value::U64(0)); MAX_FIELDS],
        }
    }
}

impl FieldBuf {
    /// Copy `fields` in. More than [`MAX_FIELDS`] fields is a compile
    /// error, not a silent truncation.
    pub fn new<const N: usize>(fields: [(&'static str, Value); N]) -> FieldBuf {
        let () = Fits::<N>::OK;
        let mut buf = FieldBuf::default();
        buf.slots[..N].copy_from_slice(&fields);
        buf.len = N;
        buf
    }

    /// The populated fields.
    pub fn as_slice(&self) -> &[(&'static str, Value)] {
        &self.slots[..self.len]
    }
}

/// One trace record: what the [`flight`] ring stores and what every
/// [`Subscriber`] reads. Fixed-size and heap-free.
#[derive(Clone, Copy, Debug)]
pub enum Record {
    /// A span opened (dispatched to subscribers only; the ring keeps
    /// closes).
    SpanOpen {
        /// Process-unique span id (monotonic).
        id: u64,
        /// The id of the span enclosing this one on the same thread.
        parent: Option<u64>,
        /// Small process-unique id of the opening thread.
        thread: u64,
        /// Microseconds since the process trace epoch.
        t_us: u64,
        /// Static span name.
        name: &'static str,
        /// Structured fields captured at open.
        fields: FieldBuf,
    },
    /// A span closed.
    SpanClose {
        /// The id from the matching open (or allocated at close for a
        /// lite span, which has no open).
        id: u64,
        /// The thread that opened (and closed) the span.
        thread: u64,
        /// Microseconds since the process trace epoch at close.
        t_us: u64,
        /// Static span name.
        name: &'static str,
        /// Wall time between open and close, µs.
        wall_us: u64,
        /// Items attributed via [`Span::add_items`] (0 if none).
        items: u64,
    },
    /// An event fired.
    Event {
        /// Severity.
        level: Level,
        /// The enclosing traced span on the emitting thread, if any.
        span: Option<u64>,
        /// Small process-unique id of the emitting thread.
        thread: u64,
        /// Microseconds since the process trace epoch.
        t_us: u64,
        /// Static message/name of the event.
        message: &'static str,
        /// Structured fields.
        fields: FieldBuf,
    },
}

// --- global tracing state -------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_SUB_TOKEN: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

/// The installed subscribers, keyed by their guard token.
type SubscriberList = Vec<(u64, Arc<dyn Subscriber>)>;

fn subscribers() -> &'static Mutex<SubscriberList> {
    static SUBS: OnceLock<Mutex<SubscriberList>> = OnceLock::new();
    SUBS.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn now_us() -> u64 {
    micros(epoch().elapsed())
}

thread_local! {
    static THREAD_ID: Cell<Option<u64>> = const { Cell::new(None) };
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Small process-unique id of the calling thread (0 for the first
/// thread that traces, 1 for the next, …).
pub fn thread_id() -> u64 {
    THREAD_ID.with(|c| match c.get() {
        Some(id) => id,
        None => {
            let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            c.set(Some(id));
            id
        }
    })
}

/// Whether any subscriber is installed. This is the whole cost of an
/// instrumented call site while tracing is off: one relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Removes its subscriber (and possibly disables tracing) on drop.
#[must_use = "dropping the guard immediately uninstalls the subscriber"]
pub struct SubscriberGuard {
    token: u64,
}

// Every update to the subscriber list is a single push or retain, so a
// list recovered from a poisoned lock is still coherent.
fn lock_subscribers() -> std::sync::MutexGuard<'static, SubscriberList> {
    subscribers().lock().unwrap_or_else(|p| p.into_inner())
}

/// Install a subscriber; tracing is enabled while at least one is
/// installed. The subscriber is removed when the guard drops.
pub fn subscribe(sub: Arc<dyn Subscriber>) -> SubscriberGuard {
    let token = NEXT_SUB_TOKEN.fetch_add(1, Ordering::Relaxed);
    let mut subs = lock_subscribers();
    subs.push((token, sub));
    ENABLED.store(true, Ordering::Relaxed);
    SubscriberGuard { token }
}

impl Drop for SubscriberGuard {
    fn drop(&mut self) {
        let mut subs = lock_subscribers();
        subs.retain(|(t, _)| *t != self.token);
        ENABLED.store(!subs.is_empty(), Ordering::Relaxed);
    }
}

fn dispatch(record: &Record) {
    // Snapshot under the lock, call outside it: subscribers may take
    // their own locks (JSONL writer) and must not deadlock against
    // subscribe/unsubscribe from other threads.
    let subs: Vec<Arc<dyn Subscriber>> = lock_subscribers()
        .iter()
        .map(|(_, s)| Arc::clone(s))
        .collect();
    for s in &subs {
        s.record(record);
    }
}

// --- spans ----------------------------------------------------------------

/// An RAII span guard. Created by the [`span!`] macro; on drop it
/// writes its close record (wall time and item count) into the
/// [`flight`] ring and, if it was opened while tracing was on, hands
/// the same record to every subscriber.
pub struct Span {
    name: &'static str,
    start: Instant,
    items: Cell<u64>,
    /// `(id, thread)` of the open dispatched to subscribers; `None`
    /// for a lite span, which never meets a subscriber.
    open: Option<(u64, u64)>,
}

impl Span {
    /// Open a span. Prefer the [`span!`] macro, which skips the
    /// subscriber path (fields unevaluated) while tracing is disabled.
    pub fn enter(name: &'static str, fields: FieldBuf) -> Span {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let thread = thread_id();
        let parent = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let parent = stack.last().copied();
            stack.push(id);
            parent
        });
        dispatch(&Record::SpanOpen {
            id,
            parent,
            thread,
            t_us: now_us(),
            name,
            fields,
        });
        Span {
            name,
            start: Instant::now(),
            items: Cell::new(0),
            open: Some((id, thread)),
        }
    }

    /// The lite span the [`span!`] macro returns while tracing is off:
    /// no subscriber dispatch and no stack entry, but its drop still
    /// records the close (name, wall time, items) in the ring.
    pub fn flight_only(name: &'static str) -> Span {
        Span {
            name,
            start: Instant::now(),
            items: Cell::new(0),
            open: None,
        }
    }

    /// Whether this span dispatches to subscribers (callers use this
    /// to skip computing expensive attribution like item totals).
    pub fn is_enabled(&self) -> bool {
        self.open.is_some()
    }

    /// Attribute `n` processed items to this span (shown as
    /// items-per-second by the profiler).
    pub fn add_items(&self, n: u64) {
        self.items.set(self.items.get().saturating_add(n));
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let wall_us = micros(self.start.elapsed());
        let (id, thread) = match self.open {
            Some((id, thread)) => {
                SPAN_STACK.with(|s| {
                    let mut stack = s.borrow_mut();
                    if let Some(pos) = stack.iter().rposition(|&open| open == id) {
                        stack.remove(pos);
                    }
                });
                (id, thread)
            }
            // A lite span's id is allocated at close: it never meets a
            // subscriber, so nothing needs it earlier, and sharing
            // NEXT_SPAN_ID keeps ids unique across the trace stream
            // and the flight ring.
            None => (NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed), thread_id()),
        };
        let record = Record::SpanClose {
            id,
            thread,
            t_us: now_us(),
            name: self.name,
            wall_us,
            items: self.items.get(),
        };
        flight::global().record(record);
        if self.open.is_some() {
            dispatch(&record);
        }
    }
}

/// Record an event into the [`flight`] ring and, while tracing is on,
/// hand the same record to every subscriber. The backend of both
/// [`event!`] (which passes no fields while tracing is off) and
/// [`flight_event!`] (which always passes its fields).
pub fn emit(level: Level, message: &'static str, fields: FieldBuf) {
    let record = Record::Event {
        level,
        span: SPAN_STACK.with(|s| s.borrow().last().copied()),
        thread: thread_id(),
        t_us: now_us(),
        message,
        fields,
    };
    flight::global().record(record);
    if enabled() {
        dispatch(&record);
    }
}

/// Wall-clock a closure. Lives here because `obs` (with `serve`) is
/// the only workspace crate allowed to read the clock (lint rule L3);
/// `repro bench` uses it to measure flight-recorder overhead without
/// installing a subscriber that would perturb the measurement.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Open a hierarchical span: `obs::span!("render_days", days = n)`.
///
/// Returns a [`Span`] guard; bind it (`let _span = …`) so it closes at
/// scope end. Field values are only evaluated when tracing is enabled;
/// while it is off the span is *lite* — its close still lands in the
/// [`flight`] ring, fields unevaluated. The conventional field
/// `unit = "days"` labels the span's items-per-second throughput in
/// profiler output. At most [`MAX_FIELDS`] fields.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::Span::enter(
                $name,
                $crate::FieldBuf::new([$((stringify!($key), $crate::Value::from($val))),*]),
            )
        } else {
            $crate::Span::flight_only($name)
        }
    };
}

/// Emit a structured event:
/// `obs::event!(obs::Level::Warn, "rdap_rejected", used = u)`.
/// Field values are only evaluated when tracing is enabled; while it
/// is off, the static message and level still land in the [`flight`]
/// ring (fields unevaluated).
///
/// A call site carries at most [`MAX_FIELDS`] fields:
///
/// ```
/// obs::event!(obs::Level::Info, "http_access", id = 1u64, route = "rdap", status = 200u64, us = 12u64);
/// ```
///
/// and a fifth is a compile error rather than a silently dropped field:
///
/// ```compile_fail,E0080
/// obs::event!(obs::Level::Info, "too_many", a = 1u64, b = 2u64, c = 3u64, d = 4u64, e = 5u64);
/// ```
#[macro_export]
macro_rules! event {
    ($level:expr, $msg:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::emit(
            $level,
            $msg,
            if $crate::enabled() {
                $crate::FieldBuf::new([$((stringify!($key), $crate::Value::from($val))),*])
            } else {
                $crate::FieldBuf::default()
            },
        )
    };
}

/// Emit a *flight* event: always recorded in the [`flight`] ring with
/// its fields, and also dispatched to subscribers when tracing is on.
/// Use for request access logs and other records that must survive in
/// the ring with structure even when nobody is tracing:
/// `obs::flight_event!(obs::Level::Info, "http_access", status = 200u64)`.
#[macro_export]
macro_rules! flight_event {
    ($level:expr, $msg:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::emit(
            $level,
            $msg,
            $crate::FieldBuf::new([$((stringify!($key), $crate::Value::from($val))),*]),
        )
    };
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    // Subscribers are process-global; tests that install one must not
    // overlap or they would see each other's spans.
    static LOCK: Mutex<()> = Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_macros_do_not_evaluate_fields() {
        let _guard = test_lock();
        assert!(!enabled());
        let mut evaluated = false;
        let _span = span!(
            "never",
            x = {
                evaluated = true;
                1u64
            }
        );
        event!(
            Level::Info,
            "never",
            y = {
                evaluated = true;
                2u64
            }
        );
        assert!(!evaluated, "fields must not be evaluated while disabled");
    }

    #[test]
    fn spans_nest_and_report_items() {
        let _guard = test_lock();
        let mem = Arc::new(MemorySubscriber::default());
        let sub = subscribe(mem.clone());
        {
            let outer = span!("outer", kind = "test");
            outer.add_items(10);
            {
                let inner = span!("inner");
                inner.add_items(5);
                event!(Level::Info, "midpoint", step = 1u64);
            }
        }
        drop(sub);
        assert!(!enabled());
        let records = mem.records();
        let opens: Vec<_> = records
            .iter()
            .filter_map(|r| match *r {
                Record::SpanOpen {
                    id, parent, name, ..
                } => Some((id, parent, name)),
                _ => None,
            })
            .collect();
        assert_eq!(opens.len(), 2);
        assert_eq!(opens[0].2, "outer");
        assert_eq!(opens[1].2, "inner");
        // inner's parent is outer.
        assert_eq!(opens[1].1, Some(opens[0].0));
        let closes: Vec<_> = records
            .iter()
            .filter_map(|r| match *r {
                Record::SpanClose { name, items, .. } => Some((name, items)),
                _ => None,
            })
            .collect();
        // Inner closes before outer (LIFO).
        assert_eq!(closes, vec![("inner", 5), ("outer", 10)]);
        let events: Vec<_> = records
            .iter()
            .filter_map(|r| match *r {
                Record::Event {
                    level,
                    message,
                    span,
                    ..
                } => Some((level, message, span)),
                _ => None,
            })
            .collect();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].0, Level::Info);
        assert_eq!(events[0].1, "midpoint");
        // The event is attributed to the innermost open span.
        assert_eq!(events[0].2, Some(opens[1].0));
    }

    #[test]
    fn disabled_span_still_lands_in_flight_recorder() {
        let _guard = test_lock();
        assert!(!enabled());
        {
            let s = span!("flight_only_marker_span");
            s.add_items(7);
        }
        let snap = flight::global().snapshot();
        let hit = snap.iter().rev().find_map(|r| match *r {
            Record::SpanClose {
                name: "flight_only_marker_span",
                items,
                ..
            } => Some(items),
            _ => None,
        });
        assert_eq!(hit, Some(7), "lite span close must reach the ring");
    }

    #[test]
    fn disabled_event_notes_into_flight_recorder() {
        let _guard = test_lock();
        assert!(!enabled());
        event!(Level::Warn, "flight_note_marker");
        let snap = flight::global().snapshot();
        let hit = snap.iter().rev().any(|r| {
            matches!(
                r,
                Record::Event { level, message, .. }
                    if *message == "flight_note_marker" && *level == Level::Warn
            )
        });
        assert!(
            hit,
            "disabled event! must record message + level to the ring"
        );
    }

    #[test]
    fn flight_event_macro_records_fields_and_dispatches_when_enabled() {
        let _guard = test_lock();
        let mem = Arc::new(MemorySubscriber::default());
        let sub = subscribe(mem.clone());
        flight_event!(
            Level::Info,
            "flight_event_marker",
            id = 42u64,
            route = "rdap"
        );
        drop(sub);
        let snap = flight::global().snapshot();
        let fields = snap
            .iter()
            .rev()
            .find_map(|r| match *r {
                Record::Event {
                    message: "flight_event_marker",
                    fields,
                    ..
                } => Some(fields),
                _ => None,
            })
            .expect("flight_event! must always reach the ring");
        assert_eq!(
            fields.as_slice(),
            [("id", Value::U64(42)), ("route", Value::Str("rdap"))]
        );
        // And the installed subscriber saw it too.
        assert!(mem.records().iter().any(
            |r| matches!(r, Record::Event { message, .. } if *message == "flight_event_marker")
        ));
    }

    #[test]
    fn ring_dump_and_jsonl_trace_agree_on_every_record() {
        let _guard = test_lock();
        let (jsonl, buf) = subscriber::shared_buffer();
        let sub = subscribe(Arc::new(jsonl));
        {
            let span = span!("agree_span", n = 3u64);
            span.add_items(5);
            // Every value kind, split over two call sites per macro
            // (a record holds at most MAX_FIELDS fields).
            event!(
                Level::Info,
                "agree_event",
                u = 1u64,
                i = -2i64,
                f = f64::NAN,
                s = "rdap"
            );
            event!(
                Level::Info,
                "agree_event",
                b = true,
                f = f64::INFINITY,
                s = "whois"
            );
            flight_event!(
                Level::Info,
                "agree_flight",
                u = 1u64,
                i = -2i64,
                f = f64::NAN,
                s = "rdap"
            );
            flight_event!(
                Level::Info,
                "agree_flight",
                b = false,
                f = f64::NEG_INFINITY,
                s = "x"
            );
        }
        drop(sub);
        let traced = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let ring = flight::global().snapshot_jsonl();
        let ring: Vec<&str> = ring.lines().collect();
        let mut events = 0;
        let mut closes = 0;
        for line in traced.lines() {
            let v = serde_json::parse(line).unwrap_or_else(|e| panic!("bad JSON {line:?}: {e:?}"));
            match v["type"].as_str() {
                Some("event") => {
                    // The ring's dump is the trace line minus its span link.
                    let at = line
                        .find(",\"span\":")
                        .expect("event inside a span links it");
                    let end = at + 1 + line[at + 1..].find(',').unwrap();
                    let unlinked = format!("{}{}", &line[..at], &line[end..]);
                    assert!(ring.contains(&unlinked.as_str()), "ring lacks {unlinked}");
                    events += 1;
                }
                Some("span_close") => {
                    assert_eq!(v["name"].as_str(), Some("agree_span"));
                    assert_eq!(v["items"].as_i64(), Some(5));
                    assert!(ring.contains(&line), "ring lacks {line}");
                    closes += 1;
                }
                _ => {}
            }
        }
        assert_eq!((events, closes), (4, 1), "{traced}");
    }

    #[test]
    fn time_reports_wall_clock_and_result() {
        let (value, wall) = time(|| 2 + 2);
        assert_eq!(value, 4);
        assert!(wall.as_nanos() > 0 || wall.is_zero());
    }

    #[test]
    fn guard_drop_disables_tracing() {
        let _guard = test_lock();
        let mem = Arc::new(MemorySubscriber::default());
        let sub = subscribe(mem.clone());
        assert!(enabled());
        let second = subscribe(Arc::new(MemorySubscriber::default()));
        drop(sub);
        assert!(enabled(), "one subscriber still installed");
        drop(second);
        assert!(!enabled());
        event!(Level::Error, "after_uninstall");
        assert!(!mem
            .records()
            .iter()
            .any(|r| matches!(r, Record::Event { message, .. } if *message == "after_uninstall")));
    }
}
