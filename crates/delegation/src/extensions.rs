//! The paper's extensions (iv) and (v).

use crate::as2org::As2OrgSeries;
use crate::base::Delegation;
use nettypes::date::Date;

/// Extension (iv): remove delegations between ASes of the same
/// organization, using the AS-to-Org snapshot applicable to `day`
/// ("the next available snapshot"). Returns the surviving delegations
/// and the number removed.
pub fn filter_intra_org(
    delegations: &[Delegation],
    as2org: &As2OrgSeries,
    day: Date,
) -> (Vec<Delegation>, usize) {
    let before = delegations.len();
    let mut kept: Vec<Delegation> = delegations
        .iter()
        .filter(|d| !as2org.same_org(day, d.delegator, d.delegatee))
        .copied()
        .collect();
    // A study keeps the filtered walk for its lifetime: no spare
    // capacity.
    kept.shrink_to_fit();
    let removed = before - kept.len();
    (kept, removed)
}

/// Extension (v): temporal consistency fill.
///
/// For each delegation key `(P', S, T)` observed on days X and Y with
/// `Y − X ≤ max_gap_days`, and no *conflicting* delegation (same P'
/// delegated to some T' ≠ T) observed strictly between X and Y,
/// materialize the delegation on every day in `(X, Y)`.
///
/// Input and output are day-indexed delegation sets (`days[i]`
/// corresponds to `start + i`).
///
/// One stable sort puts every observation in `(P', day)` order. Each
/// prefix's observations are then scanned once, one day at a time,
/// with a cursor per key: the day the key was last seen and whether a
/// conflicting delegatee has appeared since. A filled day lies
/// strictly between two consecutive observations of its key, so the
/// key is never already present there.
pub fn consistency_fill(days: &[Vec<Delegation>], max_gap_days: usize) -> Vec<Vec<Delegation>> {
    fill_scan(days, &observations_by_prefix(days), max_gap_days)
}

/// Every `(day index, delegation)` of `days`, stably sorted by
/// `(P', day)`. They are collected in day order, so a stable sort by
/// P' alone keeps each prefix's observations in day order.
pub(crate) fn observations_by_prefix(days: &[Vec<Delegation>]) -> Vec<(usize, &Delegation)> {
    let mut observations: Vec<(usize, &Delegation)> = days
        .iter()
        .enumerate()
        .flat_map(|(di, day)| day.iter().map(move |d| (di, d)))
        .collect();
    observations.sort_by_key(|&(_, d)| d.prefix);
    observations
}

/// The fill of one window: `observations` are `days`' own, sorted by
/// [`observations_by_prefix`], so one sort serves any number of
/// windows. The scan collects the filled `(day, delegation)`s; each
/// output day is then its input day plus its fills, sorted, in a
/// vector of exactly that length.
pub(crate) fn fill_scan(
    days: &[Vec<Delegation>],
    observations: &[(usize, &Delegation)],
    max_gap_days: usize,
) -> Vec<Vec<Delegation>> {
    let mut fills: Vec<(usize, Delegation)> = Vec::new();
    let mut cursors: Vec<KeyCursor> = Vec::new();
    for group in observations.chunk_by(|a, b| a.1.prefix == b.1.prefix) {
        cursors.clear();
        for on_day in group.chunk_by(|a, b| a.0 == b.0) {
            let day = on_day[0].0;
            // The first observation of a key is its canonical form
            // (the parent may differ between days).
            for &(_, d) in on_day {
                if !cursors.iter().any(|c| c.is(d)) {
                    cursors.push(KeyCursor {
                        delegation: *d,
                        last_seen: day,
                        conflict: false,
                    });
                }
            }
            for c in &mut cursors {
                if !on_day.iter().any(|&(_, d)| c.is(d)) {
                    let t = c.delegation.delegatee;
                    c.conflict |= on_day.iter().any(|&(_, d)| d.delegatee != t);
                    continue;
                }
                let gap = day - c.last_seen;
                if gap > 1 && gap <= max_gap_days && !c.conflict {
                    fills.extend((c.last_seen + 1..day).map(|filled| (filled, c.delegation)));
                }
                c.last_seen = day;
                c.conflict = false;
            }
        }
    }
    fills.sort_unstable_by_key(|&(day, _)| day);
    let mut fills = fills.as_slice();
    (0..)
        .zip(days)
        .map(|(i, day)| {
            let (today, rest) = fills.split_at(fills.partition_point(|&(d, _)| d == i));
            fills = rest;
            let mut out = Vec::with_capacity(day.len() + today.len());
            out.extend_from_slice(day);
            out.extend(today.iter().map(|&(_, d)| d));
            out.sort();
            out
        })
        .collect()
}

/// One key's state while [`consistency_fill`] scans its prefix.
struct KeyCursor {
    /// The key's first observation.
    delegation: Delegation,
    /// The last day the key was observed.
    last_seen: usize,
    /// Whether the prefix went to another delegatee since `last_seen`.
    conflict: bool,
}

impl KeyCursor {
    fn is(&self, d: &Delegation) -> bool {
        d.key() == self.delegation.key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettypes::asn::Asn;
    use nettypes::date::date;
    use nettypes::prefix::pfx;
    use registry::org::OrgId;

    fn deleg(p: &str, s: u32, t: u32) -> Delegation {
        Delegation {
            prefix: pfx(p),
            parent: pfx("64.0.0.0/16"),
            delegator: Asn(s),
            delegatee: Asn(t),
        }
    }

    #[test]
    fn intra_org_filtering() {
        let mut s = As2OrgSeries::new();
        s.insert_snapshot(
            date("2018-01-01"),
            [(Asn(1), OrgId(7)), (Asn(2), OrgId(7)), (Asn(3), OrgId(8))]
                .into_iter()
                .collect(),
        );
        let delegs = vec![deleg("64.0.1.0/24", 1, 2), deleg("64.0.2.0/24", 1, 3)];
        let (kept, removed) = filter_intra_org(&delegs, &s, date("2017-12-15"));
        assert_eq!(removed, 1);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].delegatee, Asn(3));
    }

    /// Build a day-series for one delegation from a presence pattern.
    fn series(pattern: &str, d: Delegation) -> Vec<Vec<Delegation>> {
        pattern
            .chars()
            .map(|c| if c == '1' { vec![d] } else { vec![] })
            .collect()
    }

    fn presence(days: &[Vec<Delegation>], d: &Delegation) -> String {
        days.iter()
            .map(|day| if day.contains(d) { '1' } else { '0' })
            .collect()
    }

    #[test]
    fn fills_short_gaps() {
        let d = deleg("64.0.1.0/24", 1, 2);
        let days = series("1100111", d);
        let filled = consistency_fill(&days, 10);
        assert_eq!(presence(&filled, &d), "1111111");
    }

    #[test]
    fn respects_max_gap() {
        let d = deleg("64.0.1.0/24", 1, 2);
        // Gap of 12 days > 10: not filled.
        let days = series("1000000000001", d);
        let filled = consistency_fill(&days, 10);
        assert_eq!(presence(&filled, &d), "1000000000001");
        // Gap of exactly 10 (indices 0 and 10): filled.
        let days = series("10000000001", d);
        let filled = consistency_fill(&days, 10);
        assert_eq!(presence(&filled, &d), "11111111111");
    }

    #[test]
    fn conflict_blocks_fill() {
        let d = deleg("64.0.1.0/24", 1, 2);
        let other = deleg("64.0.1.0/24", 1, 3); // same P', different T
        let mut days = series("100001", d);
        days[3] = vec![other];
        let filled = consistency_fill(&days, 10);
        // The gap around the conflict is NOT filled for (.., T=2)...
        assert_eq!(presence(&filled, &d), "100001");
        // ...and the conflicting observation is untouched.
        assert!(filled[3].contains(&other));
    }

    #[test]
    fn non_conflicting_other_prefix_does_not_block() {
        let d = deleg("64.0.1.0/24", 1, 2);
        let unrelated = deleg("64.0.9.0/24", 1, 3);
        let mut days = series("100001", d);
        days[2].push(unrelated);
        let filled = consistency_fill(&days, 10);
        assert_eq!(presence(&filled, &d), "111111");
    }

    #[test]
    fn fill_is_idempotent() {
        let d = deleg("64.0.1.0/24", 1, 2);
        let days = series("110011011", d);
        let once = consistency_fill(&days, 10);
        let twice = consistency_fill(&once, 10);
        assert_eq!(once, twice);
    }

    #[test]
    fn chains_of_observations_fill_each_window() {
        let d = deleg("64.0.1.0/24", 1, 2);
        // Two separate windows: 0-4 and 4-8.
        let days = series("100010001", d);
        let filled = consistency_fill(&days, 10);
        assert_eq!(presence(&filled, &d), "111111111");
    }

    #[test]
    fn empty_input() {
        assert!(consistency_fill(&[], 10).is_empty());
        let empty_days: Vec<Vec<Delegation>> = vec![vec![], vec![], vec![]];
        let filled = consistency_fill(&empty_days, 10);
        assert!(filled.iter().all(Vec::is_empty));
    }
}
