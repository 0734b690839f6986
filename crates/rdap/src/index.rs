//! The range index behind every [`WhoisDb`](crate::WhoisDb) lookup.
//!
//! Object ids are sorted by `(range, id)`. Over that order sits an
//! implicit max-end tree: the subtree of the sorted slice `[lo, hi)` is
//! rooted at its midpoint and records the largest range end inside it.
//! The ranges starting at or before an address are a prefix of the
//! sorted order, so [`RangeIndex::covering`] finds every range covering
//! `start..=end` by walking that prefix and pruning each subtree whose
//! largest end falls short of `end`: `O((k + 1) log n)` for `k` hits.

use nettypes::range::IpRange;

/// Sorted `(range, id)` pairs plus the max-end tree over them.
#[derive(Clone, Debug)]
pub(crate) struct RangeIndex {
    /// Every object's range and insertion id, sorted.
    sorted: Vec<(IpRange, usize)>,
    /// `max_end[mid]`: the largest end in the subtree rooted at `mid`.
    max_end: Vec<u32>,
}

impl RangeIndex {
    /// Index `ranges`; the i-th range gets id `i`.
    pub(crate) fn new(ranges: impl IntoIterator<Item = IpRange>) -> RangeIndex {
        let _sp = obs::span!("whois_index_build");
        let mut sorted: Vec<(IpRange, usize)> = ranges
            .into_iter()
            .enumerate()
            .map(|(id, r)| (r, id))
            .collect();
        sorted.sort_unstable();
        let mut max_end = vec![0; sorted.len()];
        fill_max_end(&sorted, &mut max_end, 0, sorted.len());
        RangeIndex { sorted, max_end }
    }

    /// The lowest id whose range is exactly `range`.
    pub(crate) fn exact(&self, range: IpRange) -> Option<usize> {
        let i = self.sorted.partition_point(|&(r, _)| r < range);
        self.sorted
            .get(i)
            .filter(|&&(r, _)| r == range)
            .map(|&(_, id)| id)
    }

    /// Call `visit` with the range and id of every range that covers
    /// `start..=end` (starts at or before `start`, ends at or after
    /// `end`), in sorted order.
    pub(crate) fn covering(&self, start: u32, end: u32, mut visit: impl FnMut(IpRange, usize)) {
        let prefix = self.sorted.partition_point(|&(r, _)| r.start() <= start);
        self.walk(0, self.sorted.len(), prefix, end, &mut visit);
    }

    /// In-order walk of the subtree over `[lo, hi)`, restricted to
    /// positions below `prefix` and to ranges ending at or after `end`.
    fn walk(
        &self,
        lo: usize,
        hi: usize,
        prefix: usize,
        end: u32,
        visit: &mut impl FnMut(IpRange, usize),
    ) {
        if lo >= hi.min(prefix) {
            return;
        }
        let mid = lo + (hi - lo) / 2;
        if self.max_end[mid] < end {
            return;
        }
        self.walk(lo, mid, prefix, end, visit);
        if mid < prefix {
            let (r, id) = self.sorted[mid];
            if r.end() >= end {
                visit(r, id);
            }
            self.walk(mid + 1, hi, prefix, end, visit);
        }
    }

    /// Every `(range, id)` contained in `outer`, in sorted order. Such
    /// ranges start inside `outer`, a contiguous run of the order.
    pub(crate) fn within(&self, outer: IpRange) -> impl Iterator<Item = (IpRange, usize)> + '_ {
        let lo = self
            .sorted
            .partition_point(|&(r, _)| r.start() < outer.start());
        let hi = self
            .sorted
            .partition_point(|&(r, _)| r.start() <= outer.end());
        self.sorted[lo..hi]
            .iter()
            .copied()
            .filter(move |&(r, _)| r.end() <= outer.end())
    }
}

/// Fill `max_end` for the subtree over `sorted[lo..hi]`; returns its
/// largest end, `None` when empty.
fn fill_max_end(
    sorted: &[(IpRange, usize)],
    max_end: &mut [u32],
    lo: usize,
    hi: usize,
) -> Option<u32> {
    if lo >= hi {
        return None;
    }
    let mid = lo + (hi - lo) / 2;
    let left = fill_max_end(sorted, max_end, lo, mid);
    let right = fill_max_end(sorted, max_end, mid + 1, hi);
    let m = [left, right]
        .into_iter()
        .flatten()
        .fold(sorted[mid].0.end(), u32::max);
    max_end[mid] = m;
    Some(m)
}
