//! Steps (i)–(iv) of the per-day inference, and step (iv) on ROA
//! snapshots (Appendix A), which uses the same sweep.

use crate::config::InferenceConfig;
use bgpsim::observe::ObservationDay;
use nettypes::asn::{Asn, Origin};
use nettypes::bogons::{route_is_clean, BogonFilter};
use nettypes::prefix::Prefix;
use rpki::delegation::RpkiDelegation;
use rpki::snapshot::RoaSnapshot;
use serde::{Deserialize, Serialize};

/// An inferred delegation `P'_{S,T}`: S originates the covering P and
/// delegates the more-specific P' to T.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub struct Delegation {
    /// The delegated (more-specific) prefix P'.
    pub prefix: Prefix,
    /// The covering prefix P announced by the delegator.
    pub parent: Prefix,
    /// The delegator AS S.
    pub delegator: Asn,
    /// The delegatee AS T.
    pub delegatee: Asn,
}

impl Delegation {
    /// The conflict identity used by extension (v): a delegation
    /// conflicts with another if the same P' goes to a different T.
    pub fn key(&self) -> (Prefix, Asn, Asn) {
        (self.prefix, self.delegator, self.delegatee)
    }
}

/// The step (ii) visibility threshold: the minimum number of monitors
/// that must see a route out of `num_monitors`.
pub(crate) fn visibility_threshold(config: &InferenceConfig, num_monitors: u16) -> u16 {
    // lint:allow(L1): a ceil of a fraction of a u16 count fits u16
    (config.visibility_threshold * num_monitors as f64).ceil() as u16
}

/// The §4 route sanitization of one row, which no threshold changes:
/// a single-origin row is dropped when its route is not clean (bogon
/// prefix, reserved ASN or loop on the path) or its origin is
/// reserved. AS_SET rows are all kept, clean or not: a visible one
/// drops its prefix (step (iii)).
fn row_is_kept(bogons: &BogonFilter, prefix: &Prefix, origin: &Origin, path: &[Asn]) -> bool {
    match origin {
        Origin::Set(_) => true,
        Origin::Single(asn) => route_is_clean(bogons, prefix, path) && !asn.is_reserved(),
    }
}

/// The two monitor counts that decide steps (ii) and (iii) for one
/// prefix at every threshold: `best`, the count of the strongest clean
/// origin, and `block`, the highest count of any AS_SET row or of any
/// clean row with another origin.
#[derive(Clone, Copy, Debug)]
struct Visibility {
    best: u16,
    block: u16,
}

impl Visibility {
    /// Whether the strongest origin survives at `threshold` monitors:
    /// it is visible and nothing that would drop the prefix is. With
    /// `t = max(threshold, 1)` that is `best >= t > block`.
    fn at(self, threshold: u16) -> bool {
        let t = threshold.max(1);
        self.best >= t && self.block < t
    }
}

/// Fold one prefix's kept rows `(key, origin, monitors seen)`, in any
/// order, into its strongest origin, the key of that origin's first
/// row with the highest count, and the [`Visibility`] counts. `None`
/// when no threshold keeps the prefix (`best <= block`).
fn summarize<'a, K: Copy>(
    rows: impl IntoIterator<Item = (K, &'a Origin, u16)>,
) -> Option<(K, Asn, Visibility)> {
    let mut top: Option<(K, Asn, u16)> = None;
    let mut block = 0;
    for (key, origin, seen) in rows {
        let asn = match origin {
            Origin::Set(_) => {
                block = block.max(seen);
                continue;
            }
            Origin::Single(asn) => *asn,
        };
        match top {
            Some((_, a, best)) if a == asn => {
                if seen > best {
                    top = Some((key, asn, seen));
                }
            }
            Some((_, _, best)) if seen <= best => block = block.max(seen),
            Some((_, _, best)) => {
                block = block.max(best);
                top = Some((key, asn, seen));
            }
            None => top = Some((key, asn, seen)),
        }
    }
    let (key, origin, best) = top?;
    (best > block).then_some((key, origin, Visibility { best, block }))
}

/// Steps (i)–(iii) for a single prefix, fed its observation rows
/// `(origin, monitors seen, AS path)` in any order. Returns the one
/// surviving origin, or `None` when the prefix is dropped.
///
/// Step (ii) drops rows below the visibility `threshold`; step (iii)
/// drops the prefix if any visible row has an AS_SET origin or if
/// visible rows disagree on the origin (MOAS). Rows failing the §4
/// sanitization — bogon prefix, reserved ASN or loop on the path, or
/// a reserved origin (archive rows carry no path) — are ignored. The
/// result does not depend on row order.
///
/// The rows are summarized first, independently of the threshold, the
/// way [`ReducedDay`] summarizes every prefix of a day.
pub fn origin_for_prefix<'a>(
    bogons: &BogonFilter,
    threshold: u16,
    prefix: Prefix,
    rows: impl IntoIterator<Item = (&'a Origin, u16, &'a [Asn])>,
) -> Option<Asn> {
    let kept = rows
        .into_iter()
        .filter(|&(origin, _, path)| row_is_kept(bogons, &prefix, origin, path))
        .map(|(origin, seen, _)| ((), origin, seen));
    summarize(kept)
        .filter(|&(_, _, vis)| vis.at(threshold))
        .map(|(_, origin, _)| origin)
}

/// One observation day reduced for every visibility threshold at once:
/// the sanitization and steps (i) and (iii) are done, step (ii) is
/// [`ReducedDay::pairs`].
///
/// It holds one row per prefix that some threshold keeps, in prefix
/// order: the index of the prefix's strongest route in `day.routes`
/// and its [`Visibility`] counts, 8 bytes in all. Prefix and origin
/// are read back from the route, so a reduced day is read against the
/// day it was reduced from.
#[derive(Clone, Debug)]
pub struct ReducedDay {
    /// `day.routes.len()` of the day it was reduced from.
    routes: usize,
    rows: Box<[ReducedRow]>,
}

#[derive(Clone, Copy, Debug)]
struct ReducedRow {
    route: u32,
    vis: Visibility,
}

impl ReducedDay {
    /// Sanitize the day's rows, sort the kept ones by prefix and
    /// summarize each prefix.
    pub fn new(day: &ObservationDay) -> ReducedDay {
        let bogons = BogonFilter::shared();
        // A day's routes are in memory, so their count fits u32.
        let mut kept: Vec<(Prefix, u32)> = (0u32..)
            .zip(&day.routes)
            .filter(|(_, r)| row_is_kept(bogons, &r.prefix, &r.origin, &r.path))
            .map(|(i, r)| (r.prefix, i))
            .collect();
        kept.sort_unstable();
        let rows: Vec<ReducedRow> = kept
            .chunk_by(|a, b| a.0 == b.0)
            .filter_map(|group| {
                let group = group.iter().map(|&(_, i)| {
                    let r = &day.routes[i as usize];
                    (i, &r.origin, r.monitors_seen)
                });
                summarize(group).map(|(route, _, vis)| ReducedRow { route, vis })
            })
            .collect();
        ReducedDay {
            routes: day.routes.len(),
            rows: rows.into_boxed_slice(),
        }
    }

    /// Step (ii) at `config`'s visibility threshold: the surviving
    /// prefix-origin pairs of `day`, the day this was reduced from, in
    /// prefix order.
    pub fn pairs(&self, day: &ObservationDay, config: &InferenceConfig) -> Vec<(Prefix, Asn)> {
        assert_eq!(
            day.routes.len(),
            self.routes,
            "a reduced day is read against the day it was reduced from"
        );
        let threshold = visibility_threshold(config, day.num_monitors);
        self.rows
            .iter()
            .filter(|row| row.vis.at(threshold))
            .filter_map(|row| {
                let r = &day.routes[row.route as usize];
                r.origin.as_single().map(|asn| (r.prefix, asn))
            })
            .collect()
    }
}

/// Reduce every day (see [`ReducedDay::new`]), fanned out over the
/// worker pool in contiguous day ranges.
pub fn reduce_days(days: &[ObservationDay]) -> Vec<ReducedDay> {
    let sp = obs::span!("reduce_days", days = days.len() as u64, unit = "days");
    sp.add_items(days.len() as u64);
    let ranges = bgpsim::par::chunk_ranges(days.len(), bgpsim::par::num_threads());
    bgpsim::par::map_chunked_with(&ranges, |_| (), |_, i| ReducedDay::new(&days[i]))
}

/// Step (iv) on already-reduced pairs: the delegator of P' is the
/// origin of the *most specific* covering prefix with a different
/// origin. Output is sorted, so pair order does not matter.
///
/// One sweep in `(network, len)` order, where every prefix comes after
/// the prefixes covering it, keeps the chain of ancestors of the
/// current pair on a stack. Unsorted input is stable-sorted first, so
/// of two pairs with the same prefix both are inferred and the later
/// one is the ancestor of their more-specifics.
pub fn infer_from_pairs(pairs: &[(Prefix, Asn)]) -> Vec<Delegation> {
    let sorted;
    let pairs = if pairs.is_sorted_by_key(|&(p, _)| p) {
        pairs
    } else {
        let mut copy = pairs.to_vec();
        copy.sort_by_key(|&(p, _)| p);
        sorted = copy;
        &sorted[..]
    };

    let mut out = Vec::new();
    let mut ancestors: Vec<(Prefix, Asn)> = Vec::new();
    for &(prefix, delegatee) in pairs {
        while ancestors
            .last()
            .is_some_and(|(top, _)| !top.covers_strictly(&prefix))
        {
            ancestors.pop();
        }
        let delegator = ancestors
            .iter()
            .rev()
            .find(|&&(_, origin)| origin != delegatee);
        if let Some(&(parent, delegator)) = delegator {
            out.push(Delegation {
                prefix,
                parent,
                delegator,
                delegatee,
            });
        }
        ancestors.push((prefix, delegatee));
    }
    out.sort();
    // A study keeps some walks for its lifetime: no spare capacity.
    out.shrink_to_fit();
    out
}

/// Steps (i)–(iv) for one day: reduce it, keep the pairs visible at
/// `config`'s threshold and infer delegations from them.
pub fn infer_base_delegations(day: &ObservationDay, config: &InferenceConfig) -> Vec<Delegation> {
    infer_from_pairs(&ReducedDay::new(day).pairs(day, config))
}

/// Step (iv) on one ROA snapshot (Appendix A): "rather than taking the
/// announcements of P and P′, we now check whether those prefixes have
/// ROAs assigned to different ASes". The snapshot's distinct
/// `(prefix, asn)` pairs go through [`infer_from_pairs`], so a prefix
/// with ROAs for several ASes is inferred once per AS, and its
/// more-specifics see only its greatest ASN (the later pair) as their
/// ancestor there. Output is sorted; each `(prefix, delegatee)` occurs
/// once.
pub fn infer_rpki_delegations(snapshot: &RoaSnapshot) -> Vec<RpkiDelegation> {
    let mut pairs: Vec<(Prefix, Asn)> = snapshot.roas.iter().map(|r| (r.prefix, r.asn)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut out: Vec<RpkiDelegation> = infer_from_pairs(&pairs)
        .into_iter()
        .map(|d| RpkiDelegation {
            prefix: d.prefix,
            delegator: d.delegator,
            delegatee: d.delegatee,
        })
        .collect();
    out.sort_unstable();
    out
}

/// [`infer_rpki_delegations`] of every day of a series, one sorted set
/// per day.
pub fn infer_rpki_series(days: &[RoaSnapshot]) -> Vec<Vec<RpkiDelegation>> {
    days.iter().map(infer_rpki_delegations).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim::observe::RouteObservation;
    use nettypes::date::Date;
    use nettypes::prefix::pfx;
    use rpki::roa::Roa;

    fn obs(prefix: &str, origin: u32, seen: u16) -> RouteObservation {
        RouteObservation {
            prefix: pfx(prefix),
            origin: Origin::Single(Asn(origin)),
            monitors_seen: seen,
            path: vec![].into(),
            class: None,
        }
    }

    fn day(routes: Vec<RouteObservation>) -> ObservationDay {
        ObservationDay {
            date: Date::from_days(17532),
            num_monitors: 40,
            routes,
        }
    }

    #[test]
    fn basic_inference() {
        let d = day(vec![
            obs("64.0.0.0/16", 1001, 40),
            obs("64.0.1.0/24", 1002, 38),
        ]);
        let cfg = InferenceConfig::baseline();
        let delegs = infer_base_delegations(&d, &cfg);
        assert_eq!(
            delegs,
            vec![Delegation {
                prefix: pfx("64.0.1.0/24"),
                parent: pfx("64.0.0.0/16"),
                delegator: Asn(1001),
                delegatee: Asn(1002),
            }]
        );
    }

    #[test]
    fn visibility_threshold_drops_local_routes() {
        let d = day(vec![
            obs("64.0.0.0/16", 1001, 40),
            obs("64.0.1.0/24", 1002, 19), // below 50 % of 40
        ]);
        let cfg = InferenceConfig::baseline();
        assert!(infer_base_delegations(&d, &cfg).is_empty());
        // With a 25 % threshold it appears.
        let lax = InferenceConfig {
            visibility_threshold: 0.25,
            ..cfg
        };
        assert_eq!(infer_base_delegations(&d, &lax).len(), 1);
    }

    #[test]
    fn moas_prefixes_dropped() {
        let d = day(vec![
            obs("64.0.0.0/16", 1001, 40),
            obs("64.0.1.0/24", 1002, 38),
            obs("64.0.1.0/24", 1003, 35), // MOAS on the more-specific
        ]);
        let cfg = InferenceConfig::baseline();
        assert!(infer_base_delegations(&d, &cfg).is_empty());
        // MOAS on the parent also kills the delegation (parent pair is
        // dropped, no covering prefix remains).
        let d2 = day(vec![
            obs("64.0.0.0/16", 1001, 40),
            obs("64.0.0.0/16", 1009, 40),
            obs("64.0.1.0/24", 1002, 38),
        ]);
        assert!(infer_base_delegations(&d2, &cfg).is_empty());
    }

    #[test]
    fn as_set_prefixes_dropped() {
        let d = day(vec![
            obs("64.0.0.0/16", 1001, 40),
            RouteObservation {
                prefix: pfx("64.0.1.0/24"),
                origin: Origin::Set(vec![Asn(1002), Asn(1003)]),
                monitors_seen: 38,
                path: vec![].into(),
                class: None,
            },
        ]);
        let cfg = InferenceConfig::baseline();
        assert!(infer_base_delegations(&d, &cfg).is_empty());
    }

    #[test]
    fn nearest_covering_origin_is_delegator() {
        let d = day(vec![
            obs("64.0.0.0/12", 1000, 40),
            obs("64.0.0.0/16", 1001, 40),
            obs("64.0.1.0/24", 1002, 38),
        ]);
        let cfg = InferenceConfig::baseline();
        let delegs = infer_base_delegations(&d, &cfg);
        let d24 = delegs
            .iter()
            .find(|d| d.prefix == pfx("64.0.1.0/24"))
            .unwrap();
        assert_eq!(d24.delegator, Asn(1001));
        assert_eq!(d24.parent, pfx("64.0.0.0/16"));
        // The /16 itself is delegated by the /12.
        let d16 = delegs
            .iter()
            .find(|d| d.prefix == pfx("64.0.0.0/16"))
            .unwrap();
        assert_eq!(d16.delegator, Asn(1000));
    }

    #[test]
    fn same_origin_more_specific_is_not_a_delegation() {
        // Traffic engineering: same AS announces both.
        let d = day(vec![
            obs("64.0.0.0/16", 1001, 40),
            obs("64.0.1.0/24", 1001, 38),
        ]);
        let cfg = InferenceConfig::baseline();
        assert!(infer_base_delegations(&d, &cfg).is_empty());
    }

    #[test]
    fn skips_same_origin_ancestor_to_find_delegator() {
        // /24 by AS B; /16 by AS B (its own TE); /12 by AS A.
        let d = day(vec![
            obs("64.0.0.0/12", 1000, 40),
            obs("64.0.0.0/16", 1002, 40),
            obs("64.0.1.0/24", 1002, 38),
        ]);
        let cfg = InferenceConfig::baseline();
        let delegs = infer_base_delegations(&d, &cfg);
        let d24 = delegs
            .iter()
            .find(|d| d.prefix == pfx("64.0.1.0/24"))
            .unwrap();
        assert_eq!(d24.delegator, Asn(1000));
        assert_eq!(d24.parent, pfx("64.0.0.0/12"));
    }

    #[test]
    fn bogon_and_reserved_asn_routes_sanitized() {
        let d = day(vec![
            obs("10.0.0.0/8", 1001, 40),  // bogon prefix
            obs("10.0.1.0/24", 1002, 38), // bogon prefix
            obs("64.0.0.0/16", 1001, 40),
            obs("64.0.1.0/24", 64512, 38), // reserved origin ASN
        ]);
        let cfg = InferenceConfig::baseline();
        assert!(infer_base_delegations(&d, &cfg).is_empty());
    }

    #[test]
    fn path_loop_routes_sanitized() {
        let d = day(vec![
            obs("64.0.0.0/16", 1001, 40),
            RouteObservation {
                prefix: pfx("64.0.1.0/24"),
                origin: Origin::Single(Asn(1002)),
                monitors_seen: 38,
                path: vec![Asn(1050), Asn(1060), Asn(1050), Asn(1002)].into(), // loop
                class: None,
            },
        ]);
        let cfg = InferenceConfig::baseline();
        assert!(infer_base_delegations(&d, &cfg).is_empty());
    }

    proptest::proptest! {
        /// The sweep-based inference equals an O(n²) brute-force
        /// reference implementation of steps (i)–(iv) on arbitrary
        /// observation days (clean address space and ASNs, so the
        /// sanitization layer is identity).
        #[test]
        fn prop_matches_bruteforce_reference(
            routes in proptest::collection::vec(
                (0u32..(1 << 18), 16u8..=28, 1000u32..1060, 1u16..=40),
                0..40
            ),
            threshold in proptest::sample::select(vec![0.1f64, 0.5, 0.9]),
        ) {
            use std::collections::HashMap;
            // Build the day inside 64.0.0.0/8 (never bogon).
            let day = day(routes
                .iter()
                .map(|&(net, len, origin, seen)| RouteObservation {
                    prefix: Prefix::new_unchecked_masked(0x4000_0000 | net, len),
                    origin: Origin::Single(Asn(origin)),
                    monitors_seen: seen,
                    path: vec![].into(),
                    class: None,
                })
                .collect());
            let cfg = InferenceConfig {
                visibility_threshold: threshold,
                ..InferenceConfig::baseline()
            };
            let fast = infer_base_delegations(&day, &cfg);

            // --- brute force ---
            let min_seen = (threshold * day.num_monitors as f64).ceil().max(1.0) as u16;
            let mut origins: HashMap<Prefix, Vec<Asn>> = HashMap::new();
            for r in &day.routes {
                if r.monitors_seen < min_seen {
                    continue;
                }
                if let Origin::Single(a) = &r.origin {
                    let v = origins.entry(r.prefix).or_default();
                    if !v.contains(a) {
                        v.push(*a);
                    }
                }
            }
            let pairs: Vec<(Prefix, Asn)> = origins
                .iter()
                .filter(|(_, v)| v.len() == 1)
                .map(|(p, v)| (*p, v[0]))
                .collect();
            let mut slow = Vec::new();
            for &(p, t) in &pairs {
                // Most specific covering pair with a different origin.
                let mut best: Option<(Prefix, Asn)> = None;
                for &(q, s) in &pairs {
                    if q.covers_strictly(&p) && s != t {
                        match best {
                            Some((bq, _)) if bq.len() >= q.len() => {}
                            _ => best = Some((q, s)),
                        }
                    }
                }
                if let Some((parent, delegator)) = best {
                    slow.push(Delegation { prefix: p, parent, delegator, delegatee: t });
                }
            }
            slow.sort();
            proptest::prop_assert_eq!(fast, slow);
        }
    }

    #[test]
    fn prefix_origin_reduction_counts() {
        let d = day(vec![
            obs("64.0.0.0/16", 1001, 40),
            obs("64.0.1.0/24", 1002, 10), // below threshold
            obs("64.1.0.0/16", 1003, 40),
        ]);
        // The reduction keeps the /24 for lower thresholds; step (ii)
        // at 50 % drops it.
        let reduced = ReducedDay::new(&d);
        assert_eq!(reduced.rows.len(), 3);
        let pairs = reduced.pairs(&d, &InferenceConfig::baseline());
        assert_eq!(pairs.len(), 2);
    }

    fn snap(roas: &[(&str, u32)]) -> RoaSnapshot {
        RoaSnapshot {
            date: Date::from_days(0),
            roas: roas
                .iter()
                .map(|&(p, asn)| Roa::exact(pfx(p), Asn(asn)))
                .collect(),
        }
    }

    fn rpki(prefix: &str, delegator: u32, delegatee: u32) -> RpkiDelegation {
        RpkiDelegation {
            prefix: pfx(prefix),
            delegator: Asn(delegator),
            delegatee: Asn(delegatee),
        }
    }

    #[test]
    fn rpki_basic_delegation() {
        let s = snap(&[("10.0.0.0/16", 1), ("10.0.1.0/24", 2)]);
        assert_eq!(infer_rpki_delegations(&s), vec![rpki("10.0.1.0/24", 1, 2)]);
    }

    #[test]
    fn rpki_same_origin_is_not_a_delegation() {
        let s = snap(&[("10.0.0.0/16", 1), ("10.0.1.0/24", 1)]);
        assert!(infer_rpki_delegations(&s).is_empty());
    }

    #[test]
    fn rpki_nearest_covering_roa_wins() {
        let s = snap(&[("10.0.0.0/8", 1), ("10.0.0.0/16", 2), ("10.0.1.0/24", 3)]);
        // /24 is delegated by the /16 holder (nearest), the /16 by the /8.
        assert_eq!(
            infer_rpki_delegations(&s),
            vec![rpki("10.0.0.0/16", 1, 2), rpki("10.0.1.0/24", 2, 3)]
        );
    }

    #[test]
    fn rpki_nearest_ancestor_with_same_origin_skipped() {
        // /16 has the same origin as the /24; the delegator is the /8
        // holder.
        let s = snap(&[("10.0.0.0/8", 1), ("10.0.0.0/16", 3), ("10.0.1.0/24", 3)]);
        assert!(infer_rpki_delegations(&s).contains(&rpki("10.0.1.0/24", 1, 3)));
    }

    #[test]
    fn rpki_no_covering_roa_no_delegation() {
        let s = snap(&[("10.0.1.0/24", 2)]);
        assert!(infer_rpki_delegations(&s).is_empty());
    }

    #[test]
    fn rpki_duplicate_roas_deduplicated() {
        let s = snap(&[("10.0.0.0/16", 1), ("10.0.1.0/24", 2), ("10.0.1.0/24", 2)]);
        assert_eq!(infer_rpki_delegations(&s).len(), 1);
    }

    #[test]
    fn rpki_prefix_with_several_ases_is_an_ancestor_by_its_greatest_as() {
        // The /16 has ROAs for AS 3 and AS 1 (in that order). It is
        // inferred once per AS, and its more-specifics see AS 3 alone:
        // the /24 of AS 3 skips it for the /8, the /24 of AS 2 gets AS 3.
        let s = snap(&[
            ("10.0.1.0/24", 3),
            ("10.0.0.0/16", 3),
            ("10.0.0.0/8", 5),
            ("10.0.0.0/16", 1),
            ("10.0.2.0/24", 2),
        ]);
        assert_eq!(
            infer_rpki_delegations(&s),
            vec![
                rpki("10.0.0.0/16", 5, 1),
                rpki("10.0.0.0/16", 5, 3),
                rpki("10.0.1.0/24", 5, 3),
                rpki("10.0.2.0/24", 3, 2),
            ]
        );
    }

    #[test]
    fn rpki_max_length_does_not_change_the_inference() {
        let exact = snap(&[("10.0.0.0/16", 1), ("10.0.1.0/24", 2)]);
        let mut loose = exact.clone();
        loose.roas[0] = Roa::new(pfx("10.0.0.0/16"), 24, Asn(1));
        assert_eq!(
            infer_rpki_delegations(&loose),
            infer_rpki_delegations(&exact)
        );
    }

    #[test]
    fn rpki_series_infers_each_day() {
        let days = [snap(&[("10.0.0.0/16", 1), ("10.0.1.0/24", 2)]), snap(&[])];
        assert_eq!(
            infer_rpki_series(&days),
            vec![vec![rpki("10.0.1.0/24", 1, 2)], vec![]]
        );
    }
}
