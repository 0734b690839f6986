//! Bounded worker pool for per-day fan-out.
//!
//! The archive pipeline is embarrassingly parallel in the date
//! dimension: rendering, encoding and inference each map an
//! independent function over day indices. This module provides that
//! map with a *deterministic merge* — results land in index order no
//! matter how the OS schedules the workers — so parallel runs are
//! byte-identical to sequential ones.
//!
//! Workers pull indices from a shared atomic counter (work stealing
//! beats static chunking when day costs are skewed, e.g. RIB days vs
//! update days). Thread count defaults to the machine's parallelism
//! and can be pinned with the `DRYWELLS_THREADS` environment variable
//! (`1` forces the sequential path).

use obs::metrics::{Counter, Gauge};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Fan-outs executed (parallel path only; the inline path is the
/// sequential baseline and stays unobserved).
fn fanouts_total() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| obs::metrics::counter("par_fanouts_total"))
}

/// Items pulled off the shared counter across all fan-outs.
fn items_pulled_total() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| obs::metrics::counter("par_items_pulled_total"))
}

/// Indices not yet claimed by any worker in the current fan-out.
/// Per-pull updates are gated on [`obs::enabled`] so the work-stealing
/// loop stays two atomic ops when nobody is tracing.
fn queue_depth() -> &'static Arc<Gauge> {
    static G: OnceLock<Arc<Gauge>> = OnceLock::new();
    G.get_or_init(|| obs::metrics::gauge("par_queue_depth"))
}

/// Fan-out bookkeeping shared by both pool variants: span + counters
/// up front, per-worker pull accounting (as debug events) after the
/// deterministic merge — workers themselves emit nothing, so traces
/// stay single-threaded and strictly nested.
struct FanoutObs {
    span: obs::Span,
}

impl FanoutObs {
    fn start(n: usize, threads: usize) -> FanoutObs {
        let span = obs::span!("par_fanout", threads = threads);
        span.add_items(n as u64);
        fanouts_total().inc();
        items_pulled_total().add(n as u64);
        if obs::enabled() {
            queue_depth().set(n as i64);
        }
        FanoutObs { span }
    }

    fn pulled(n: usize, next: usize) {
        if obs::enabled() {
            queue_depth().set(n.saturating_sub(next) as i64);
        }
    }

    fn finish(self, worker_pulls: &[usize]) {
        if self.span.is_enabled() {
            for (worker, &pulled) in worker_pulls.iter().enumerate() {
                obs::event!(
                    obs::Level::Debug,
                    "par_worker",
                    worker = worker,
                    pulled = pulled
                );
            }
        }
        if obs::enabled() {
            queue_depth().set(0);
        }
    }
}

/// Worker count: `DRYWELLS_THREADS` if set, else the machine's
/// available parallelism, else 1.
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("DRYWELLS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Map `f` over `0..n` on `threads` workers, returning results in
/// index order. `threads <= 1` (or tiny `n`) runs inline with no
/// thread machinery, so the sequential baseline stays measurable.
///
/// Panics in `f` propagate (the pool does not swallow worker panics).
pub fn map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_indexed_local(n, threads, || (), |_, i| f(i))
}

/// Split `0..n` into at most `chunks` contiguous, near-equal ranges
/// (the first `n % chunks` ranges get one extra item). The split is a
/// pure function of `(n, chunks)`, so the chunk boundaries — and with
/// them the seed days of incremental sweeps — are reproducible.
pub fn chunk_ranges(n: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    let chunks = chunks.max(1).min(n.max(1));
    let base = n / chunks;
    let extra = n % chunks;
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0usize;
    for c in 0..chunks {
        let len = base + usize::from(c < extra);
        if len == 0 {
            continue;
        }
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Map `f` over every index of `ranges`, one worker per contiguous
/// range, and concatenate the per-range outputs in range order. Each
/// worker builds private state with `init(first)` from its range's
/// first index (empty ranges build none) and calls `f` on the indices
/// of its range in increasing order, so every range yields exactly one
/// item per index.
///
/// This is the fan-out primitive for *incremental* day sweeps: each
/// worker seeds full state at its range start and patches forward, so
/// unlike [`map_indexed`] the items inside a range are processed in
/// order by one worker. Determinism contract: each item's output must
/// be independent of which range contains it, which makes the
/// concatenation byte-identical for any chunking — including the
/// single-range sequential path.
///
/// Panics in `init` or `f` propagate.
pub fn map_chunked_with<T, S, I, F>(ranges: &[std::ops::Range<usize>], init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let run = |r: std::ops::Range<usize>, out: &mut Vec<T>| {
        if let Some(first) = r.clone().next() {
            let mut state = init(first);
            out.extend(r.map(|i| f(&mut state, i)));
        }
    };
    let total: usize = ranges.iter().map(ExactSizeIterator::len).sum();
    let mut out = Vec::with_capacity(total);
    if ranges.len() <= 1 {
        for r in ranges {
            run(r.clone(), &mut out);
        }
        return out;
    }
    let fanout = FanoutObs::start(total, ranges.len());
    let mut worker_pulls = vec![0usize; ranges.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|r| {
                let run = &run;
                s.spawn(move || {
                    let mut part = Vec::with_capacity(r.len());
                    run(r.clone(), &mut part);
                    part
                })
            })
            .collect();
        // Deterministic merge: ranges are contiguous and ordered, so
        // concatenating per-range outputs in range order is the
        // index-ordered merge.
        for (w, h) in handles.into_iter().enumerate() {
            // Re-raise worker panics with their original payload so a
            // failure reads the same at any thread count.
            let part = match h.join() {
                Ok(p) => p,
                Err(e) => std::panic::resume_unwind(e),
            };
            worker_pulls[w] = part.len();
            out.extend(part);
        }
    });
    fanout.finish(&worker_pulls);
    out
}

/// Like [`map_indexed`], but each worker carries private mutable state
/// built by `init` — e.g. a memoization cache that is expensive to
/// rebuild per item but cannot be shared across threads.
///
/// Correctness requirement: `f`'s *output* must not depend on the
/// state's history (the state may only be used as a pure cache),
/// otherwise results would depend on which worker picked which index.
pub fn map_indexed_local<T, S, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }

    let fanout = FanoutObs::start(n, threads);
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut worker_pulls = vec![0usize; threads];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut state = init();
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        FanoutObs::pulled(n, i + 1);
                        local.push((i, f(&mut state, i)));
                    }
                    local
                })
            })
            .collect();
        for (w, h) in handles.into_iter().enumerate() {
            let local = h.join().expect("pool worker panicked");
            worker_pulls[w] = local.len();
            for (i, v) in local {
                slots[i] = Some(v);
            }
        }
    });
    fanout.finish(&worker_pulls);
    slots
        .into_iter()
        .map(|o| o.expect("every index produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order() {
        for threads in [1, 2, 3, 8] {
            let out = map_indexed(100, threads, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_matches_sequential_with_skewed_costs() {
        let work = |i: usize| {
            // Skew: every 7th item is much heavier.
            let reps = if i.is_multiple_of(7) { 5000 } else { 50 };
            let mut acc = i as u64;
            for _ in 0..reps {
                acc = acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            acc
        };
        let seq = map_indexed(64, 1, work);
        let par = map_indexed(64, 4, work);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(map_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(1, 4, |i| i + 1), vec![1]);
    }

    #[test]
    fn local_state_variant_matches_stateless() {
        // A memoizing worker-local cache must not change results.
        use std::collections::HashMap;
        let work = |cache: &mut HashMap<usize, u64>, i: usize| -> u64 {
            let base = *cache.entry(i % 5).or_insert_with(|| (i % 5) as u64 * 1000);
            base + i as u64
        };
        let seq = map_indexed_local(50, 1, HashMap::new, work);
        for threads in [2, 4, 8] {
            assert_eq!(map_indexed_local(50, threads, HashMap::new, work), seq);
        }
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for n in [0usize, 1, 2, 7, 64, 100] {
            for chunks in [1usize, 2, 3, 4, 13] {
                let ranges = chunk_ranges(n, chunks);
                let mut next = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, next, "ranges must be contiguous");
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, n, "ranges must cover 0..{n}");
                assert!(ranges.len() <= chunks.max(1));
                // Near-equal: sizes differ by at most one.
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(ExactSizeIterator::len).min(),
                    ranges.iter().map(ExactSizeIterator::len).max(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn chunked_matches_sequential_for_any_split() {
        let work = |_: &mut (), i: usize| i * 31 + 7;
        let seq = map_chunked_with(&chunk_ranges(40, 1), |_| (), work);
        assert_eq!(seq, (0..40).map(|i| i * 31 + 7).collect::<Vec<_>>());
        for threads in [2, 3, 4, 8] {
            assert_eq!(
                map_chunked_with(&chunk_ranges(40, threads), |_| (), work),
                seq
            );
        }
        // Arbitrary (non-balanced) boundaries are also fine.
        let ranges = vec![0..1, 1..17, 17..18, 18..40];
        assert_eq!(map_chunked_with(&ranges, |_| (), work), seq);
    }

    #[test]
    fn chunked_state_starts_at_each_nonempty_range() {
        // Each item sees the state its range's `init` built, advanced
        // once per earlier index of the range; empty ranges build none.
        let ranges = vec![0..3, 3..3, 3..4, 4..7];
        let out = map_chunked_with(
            &ranges,
            |first| (first, 0usize),
            |(first, calls), i| {
                *calls += 1;
                (*first, *calls, i)
            },
        );
        assert_eq!(
            out,
            [
                (0, 1, 0),
                (0, 2, 1),
                (0, 3, 2),
                (3, 1, 3),
                (4, 1, 4),
                (4, 2, 5),
                (4, 3, 6)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "pool worker panicked")]
    fn worker_panic_propagates() {
        let _ = map_indexed(8, 2, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}
