//! The per-element implementations of step (iv), extension (v) and
//! the truth scoring that `delegation` ran before its linear passes,
//! kept as test oracles for them.
//!
//! Each one indexes everything first (a trie of all pairs, a map of
//! every key's days, every lease checked on every day) and then
//! answers per element. Duplicates follow the index: a trie insert
//! replaces the value, a map entry keeps its first value, and a set
//! counts a key once.

use bgpsim::scenario::LeaseWorld;
use delegation::base::Delegation;
use delegation::eval::TruthEvaluation;
use delegation::pipeline::DailyDelegations;
use nettypes::asn::Asn;
use nettypes::prefix::Prefix;
use nettypes::trie::PrefixTrie;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Step (iv): every pair looks up its covering prefixes in a trie of
/// all pairs and takes the most specific one with another origin.
pub fn infer_from_pairs(pairs: &[(Prefix, Asn)]) -> Vec<Delegation> {
    let trie: PrefixTrie<Asn> = pairs.iter().copied().collect();
    let mut out = Vec::new();
    for &(prefix, delegatee) in pairs {
        let covering = trie.covering(&prefix);
        if let Some((parent, &delegator)) =
            covering.into_iter().rev().find(|(_, &a)| a != delegatee)
        {
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
