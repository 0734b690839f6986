//! Steps (i)–(iv) of the per-day inference.

use crate::config::InferenceConfig;
use bgpsim::observe::{ObservationDay, RouteObservation};
use nettypes::asn::{Asn, Origin};
use nettypes::bogons::{route_is_clean, BogonFilter};
use nettypes::prefix::Prefix;
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

/// Sanitize and reduce a day's observations to globally-visible,
/// single-origin prefix-origin pairs (steps i–iii plus the route
/// sanitization from §4: no bogons, no reserved ASNs, no AS-path
/// loops), sorted by prefix.
pub fn visible_prefix_origins(
    day: &ObservationDay,
    config: &InferenceConfig,
) -> Vec<(Prefix, Asn)> {
    let threshold = visibility_threshold(config, day.num_monitors);
    let bogons = BogonFilter::shared();
    let mut rows: Vec<&RouteObservation> = day.routes.iter().collect();
    rows.sort_unstable_by_key(|r| r.prefix);
    let mut out = Vec::new();
    let mut rest = &rows[..];
    while let Some(first) = rest.first() {
        let p = first.prefix;
        let (group, tail) = rest.split_at(rest.partition_point(|r| r.prefix == p));
        rest = tail;
        let group = group.iter().map(|r| (&r.origin, r.monitors_seen, &r.path[..]));
        if let Some(a) = origin_for_prefix(bogons, threshold, p, group) {
            out.push((p, a));
        }
    }
    out
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
pub fn origin_for_prefix<'a>(
    bogons: &BogonFilter,
    threshold: u16,
    prefix: Prefix,
    rows: impl IntoIterator<Item = (&'a Origin, u16, &'a [Asn])>,
) -> Option<Asn> {
    let mut origin = None;
    for (o, seen, path) in rows {
        if seen < threshold.max(1) {
            continue; // step (ii)
        }
        match o {
            Origin::Set(_) => return None, // step (iii), AS_SET
            Origin::Single(asn) => {
                if !route_is_clean(bogons, &prefix, path) || asn.is_reserved() {
                    continue;
                }
                if origin.is_some_and(|a| a != *asn) {
                    return None; // step (iii), MOAS
                }
                origin = Some(*asn);
            }
        }
    }
    origin
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
    out
}

/// Step (iv): infer delegations from the surviving prefix-origin
/// pairs.
pub fn infer_base_delegations(day: &ObservationDay, config: &InferenceConfig) -> Vec<Delegation> {
    let pairs = visible_prefix_origins(day, config);
    infer_from_pairs(&pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettypes::date::Date;
    use nettypes::prefix::pfx;

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
        let d = day(vec![obs("64.0.0.0/16", 1001, 40), obs("64.0.1.0/24", 1002, 38)]);
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
        let d24 = delegs.iter().find(|d| d.prefix == pfx("64.0.1.0/24")).unwrap();
        assert_eq!(d24.delegator, Asn(1001));
        assert_eq!(d24.parent, pfx("64.0.0.0/16"));
        // The /16 itself is delegated by the /12.
        let d16 = delegs.iter().find(|d| d.prefix == pfx("64.0.0.0/16")).unwrap();
        assert_eq!(d16.delegator, Asn(1000));
    }

    #[test]
    fn same_origin_more_specific_is_not_a_delegation() {
        // Traffic engineering: same AS announces both.
        let d = day(vec![obs("64.0.0.0/16", 1001, 40), obs("64.0.1.0/24", 1001, 38)]);
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
        let d24 = delegs.iter().find(|d| d.prefix == pfx("64.0.1.0/24")).unwrap();
        assert_eq!(d24.delegator, Asn(1000));
        assert_eq!(d24.parent, pfx("64.0.0.0/12"));
    }

    #[test]
    fn bogon_and_reserved_asn_routes_sanitized() {
        let d = day(vec![
            obs("10.0.0.0/8", 1001, 40),      // bogon prefix
            obs("10.0.1.0/24", 1002, 38),     // bogon prefix
            obs("64.0.0.0/16", 1001, 40),
            obs("64.0.1.0/24", 64512, 38),    // reserved origin ASN
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
        /// The trie-based inference equals an O(n²) brute-force
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
        let pairs = visible_prefix_origins(&d, &InferenceConfig::baseline());
        assert_eq!(pairs.len(), 2);
    }
}
