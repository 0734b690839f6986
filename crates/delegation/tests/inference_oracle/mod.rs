//! Per-element implementations of steps (i)–(iv), extension (v) and
//! the truth scoring, kept as test oracles for `delegation`'s linear
//! passes and its per-study reduction.
//!
//! Steps (i)–(iii) run per walk at one threshold: each day's rows are
//! sorted by prefix and every prefix is folded with early returns.
//! Step (iv), for BGP pairs and for ROAs, scans every pair of inputs.
//! The others index everything first (a map of every key's days, every
//! lease checked on every day) and then answer per element. Duplicates
//! follow the sweep's rule or the index: a prefix's value is its last
//! pair (its greatest AS for ROAs), a map entry keeps its first value,
//! and a set counts a key once.

use bgpsim::observe::{ObservationDay, RouteObservation};
use bgpsim::scenario::LeaseWorld;
use delegation::base::Delegation;
use delegation::config::InferenceConfig;
use delegation::eval::TruthEvaluation;
use delegation::pipeline::DailyDelegations;
use nettypes::asn::{Asn, Origin};
use nettypes::bogons::{route_is_clean, BogonFilter};
use nettypes::prefix::Prefix;
use rpki::delegation::RpkiDelegation;
use rpki::roa::Roa;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Steps (i)–(iii) for one day at `config`'s threshold: the rows
/// sorted by prefix, each prefix folded by [`origin_for_prefix`].
pub fn visible_prefix_origins(
    day: &ObservationDay,
    config: &InferenceConfig,
) -> Vec<(Prefix, Asn)> {
    let threshold = (config.visibility_threshold * day.num_monitors as f64).ceil() as u16;
    let bogons = BogonFilter::shared();
    let mut rows: Vec<&RouteObservation> = day.routes.iter().collect();
    rows.sort_unstable_by_key(|r| r.prefix);
    let mut out = Vec::new();
    let mut rest = &rows[..];
    while let Some(first) = rest.first() {
        let p = first.prefix;
        let (group, tail) = rest.split_at(rest.partition_point(|r| r.prefix == p));
        rest = tail;
        let group = group
            .iter()
            .map(|r| (&r.origin, r.monitors_seen, &r.path[..]));
        if let Some(a) = origin_for_prefix(bogons, threshold, p, group) {
            out.push((p, a));
        }
    }
    out
}

/// Steps (i)–(iii) for one prefix at one threshold, an early-return
/// fold: skip rows below the threshold, drop the prefix on a visible
/// AS_SET row or a second visible clean origin, and ignore unclean
/// single-origin rows.
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

/// Step (iv) by a scan of every pair: the delegator of P' is the value
/// of the most specific prefix strictly covering P' whose value is not
/// P''s origin, where a prefix's value is its last pair.
pub fn infer_from_pairs(pairs: &[(Prefix, Asn)]) -> Vec<Delegation> {
    let is_value = |i: usize| pairs[i + 1..].iter().all(|&(q, _)| q != pairs[i].0);
    let mut out = Vec::new();
    for &(prefix, delegatee) in pairs {
        let mut best: Option<(Prefix, Asn)> = None;
        for (i, &(q, s)) in pairs.iter().enumerate() {
            if q.covers_strictly(&prefix)
                && s != delegatee
                && is_value(i)
                && best.is_none_or(|(b, _)| b.len() < q.len())
            {
                best = Some((q, s));
            }
        }
        if let Some((parent, delegator)) = best {
            out.push(Delegation {
                prefix,
                parent,
                delegator,
                delegatee,
            });
        }
    }
    out.sort();
    out
}

/// RPKI step (iv) by a scan of every pair of ROAs: the delegator of a
/// ROA's prefix P' is the value of the most specific prefix strictly
/// covering P' whose value is not the ROA's AS, where a prefix's value
/// is the greatest AS among its ROAs.
pub fn infer_rpki_delegations(roas: &[Roa]) -> Vec<RpkiDelegation> {
    let value = |p: Prefix| roas.iter().filter(|r| r.prefix == p).map(|r| r.asn).max();
    let mut out = Vec::new();
    for roa in roas {
        let parent = roas
            .iter()
            .map(|q| q.prefix)
            .filter(|q| q.covers_strictly(&roa.prefix) && value(*q) != Some(roa.asn))
            .max_by_key(|q| q.len());
        if let Some(delegator) = parent.and_then(value) {
            out.push(RpkiDelegation {
                prefix: roa.prefix,
                delegator,
                delegatee: roa.asn,
            });
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Extension (v): each key's observed days, and each prefix's
/// delegatees on every day of the span, checked window by window.
pub fn consistency_fill(days: &[Vec<Delegation>], max_gap_days: usize) -> Vec<Vec<Delegation>> {
    let n = days.len();
    let mut observed: BTreeMap<(Prefix, Asn, Asn), Vec<usize>> = BTreeMap::new();
    let mut canonical: BTreeMap<(Prefix, Asn, Asn), Delegation> = BTreeMap::new();
    let mut by_prefix: BTreeMap<Prefix, Vec<Vec<Asn>>> = BTreeMap::new();
    for (di, day) in days.iter().enumerate() {
        for d in day {
            let key = d.key();
            observed.entry(key).or_default().push(di);
            canonical.entry(key).or_insert(*d);
            let slots = by_prefix
                .entry(d.prefix)
                .or_insert_with(|| vec![Vec::new(); n]);
            if !slots[di].contains(&d.delegatee) {
                slots[di].push(d.delegatee);
            }
        }
    }

    let mut fills: Vec<(usize, Delegation)> = Vec::new();
    for (key, day_idxs) in &observed {
        let (prefix, _, t) = *key;
        let slots = &by_prefix[&prefix];
        for w in day_idxs.windows(2) {
            let (x, y) = (w[0], w[1]);
            if y - x <= 1 || y - x > max_gap_days {
                continue;
            }
            if (x + 1..y).any(|di| slots[di].iter().any(|&tt| tt != t)) {
                continue;
            }
            for di in x + 1..y {
                fills.push((di, canonical[key]));
            }
        }
    }

    let mut out: Vec<Vec<Delegation>> = days.to_vec();
    let mut present: Vec<BTreeSet<(Prefix, Asn, Asn)>> = days
        .iter()
        .map(|d| d.iter().map(Delegation::key).collect())
        .collect();
    for (di, d) in fills {
        if present[di].insert(d.key()) {
            out[di].push(d);
        }
    }
    for day in &mut out {
        day.sort();
    }
    out
}

/// Truth scoring: every lease checked on every day of the result.
pub fn evaluate_against_truth(world: &LeaseWorld, result: &DailyDelegations) -> TruthEvaluation {
    let mut eval = TruthEvaluation::default();
    for (i, day) in (0i64..).zip(&result.days) {
        let truth: HashSet<(Prefix, Asn, Asn)> = world
            .true_bgp_delegations_on(result.start + i)
            .into_iter()
            .collect();
        let mut matched = HashSet::new();
        for d in day {
            if truth.contains(&d.key()) {
                eval.true_positives += 1;
                matched.insert(d.key());
            } else {
                eval.false_positives += 1;
            }
        }
        eval.false_negatives += (truth.len() - matched.len()) as u64;
    }
    eval
}
