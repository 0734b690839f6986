//! The linear passes of step (iv), extension (v) and the truth scoring
//! against their per-element oracles, on random inputs with the cases
//! the passes treat specially: unsorted and duplicate input, conflicts
//! at the edges of the fill window, leases reaching past the span and
//! empty results.

mod inference_oracle;

use bgpsim::scenario::{Lease, LeaseWorld, WorldConfig};
use bgpsim::topology::TopologyConfig;
use delegation::base::{infer_from_pairs, Delegation};
use delegation::eval::evaluate_against_truth;
use delegation::extensions::consistency_fill;
use delegation::pipeline::DailyDelegations;
use nettypes::asn::Asn;
use nettypes::date::{date, DateRange};
use nettypes::prefix::Prefix;
use proptest::prelude::*;
use registry::org::OrgId;
use std::sync::OnceLock;

/// A prefix of 64.0.0.0/20 from a small pool, so nesting and
/// duplicates are common: `net` picks one of 16 /24s and `len` is
/// 20, 22, 24 or 26.
fn prefix(net: u32, len: u8) -> Prefix {
    Prefix::new_unchecked_masked(0x4000_0000 | net << 8, len)
}

/// A delegation from a pool of 3 prefixes, 2 parents, 2 delegators
/// and 3 delegatees.
fn delegation((p, parent, s, t): (u32, u32, u32, u32)) -> Delegation {
    Delegation {
        prefix: prefix(p * 4, 24),
        parent: if parent == 0 {
            prefix(0, 20)
        } else {
            prefix(8, 22)
        },
        delegator: Asn(100 + s),
        delegatee: Asn(200 + t),
    }
}

fn delegation_strategy() -> impl Strategy<Value = Delegation> {
    (0u32..3, 0u32..2, 0u32..2, 0u32..3).prop_map(delegation)
}

/// Days of at most 2 delegations, half of them empty, so keys recur
/// with gaps of every width.
fn days_strategy() -> impl Strategy<Value = Vec<Vec<Delegation>>> {
    proptest::collection::vec(
        proptest::collection::vec(delegation_strategy(), 0..4).prop_map(|mut day| {
            day.truncate(day.len().saturating_sub(1));
            day
        }),
        0..24,
    )
}

proptest! {
    #[test]
    fn prop_stack_sweep_matches_the_trie(
        raw in proptest::collection::vec(
            (0u32..16, proptest::sample::select(vec![20u8, 22, 24, 26]), 0u32..4),
            0..24,
        ),
    ) {
        let pairs: Vec<(Prefix, Asn)> =
            raw.iter().map(|&(net, len, o)| (prefix(net, len), Asn(1000 + o))).collect();
        prop_assert_eq!(infer_from_pairs(&pairs), inference_oracle::infer_from_pairs(&pairs));
        // The sorted input takes the path without a copy.
        let mut sorted = pairs.clone();
        sorted.sort_by_key(|&(p, _)| p);
        prop_assert_eq!(infer_from_pairs(&sorted), inference_oracle::infer_from_pairs(&sorted));
    }

    #[test]
    fn prop_sort_fill_matches_the_map_fill(
        days in days_strategy(),
        max_gap in proptest::sample::select(vec![1usize, 2, 3, 5, 10]),
    ) {
        prop_assert_eq!(
            consistency_fill(&days, max_gap),
            inference_oracle::consistency_fill(&days, max_gap)
        );
    }

    #[test]
    fn prop_lease_sweep_matches_the_lease_scan(
        leases in proptest::collection::vec(
            (0u32..3, 0u32..2, 0u32..3, -5i64..25, 0i64..30, 0u8..4),
            0..16,
        ),
        // Up to 3 delegations a day: a key inferred twice on one day
        // (under two parents) is common.
        days in proptest::collection::vec(
            proptest::collection::vec(delegation_strategy(), 0..4),
            0..24,
        ),
    ) {
        let mut world = template_world().clone();
        world.leases = (0..)
            .zip(&leases)
            .map(|(id, &(p, s, t, start, len, flags))| {
                let d = delegation((p, 0, s, t));
                lease(id, d, start, len, flags & 1 == 0, flags & 2 != 0)
            })
            .collect();
        let result = DailyDelegations {
            start: span_start(),
            days,
            fallback_days: Vec::new(),
            missing_days: Vec::new(),
            intra_org_removed: 0,
        };
        prop_assert_eq!(
            evaluate_against_truth(&world, &result),
            inference_oracle::evaluate_against_truth(&world, &result)
        );
    }
}

#[test]
fn stack_sweep_empty_results() {
    assert!(infer_from_pairs(&[]).is_empty());
    // One origin throughout: nothing is delegated.
    let same: Vec<(Prefix, Asn)> = [(0, 20), (0, 24), (4, 26), (8, 22)]
        .iter()
        .map(|&(net, len)| (prefix(net, len), Asn(7)))
        .collect();
    assert!(infer_from_pairs(&same).is_empty());
    assert_eq!(
        infer_from_pairs(&same),
        inference_oracle::infer_from_pairs(&same)
    );
}

#[test]
fn stack_sweep_duplicate_prefixes_follow_the_trie() {
    // Two origins for the /22; the later one is the /24's ancestor.
    let pairs = [
        (prefix(0, 24), Asn(3)),
        (prefix(0, 22), Asn(2)),
        (prefix(0, 20), Asn(1)),
        (prefix(0, 22), Asn(3)),
    ];
    let got = infer_from_pairs(&pairs);
    assert_eq!(got, inference_oracle::infer_from_pairs(&pairs));
    let of_24: Vec<_> = got.iter().filter(|d| d.prefix == prefix(0, 24)).collect();
    assert_eq!(of_24.len(), 1);
    assert_eq!(
        (of_24[0].parent, of_24[0].delegator),
        (prefix(0, 20), Asn(1))
    );
    // Both /22 pairs are inferred.
    assert_eq!(got.iter().filter(|d| d.prefix == prefix(0, 22)).count(), 2);
}

/// A conflict at each interior day of a gap of 1, `max_gap` and
/// `max_gap + 1`, and each gap without one.
#[test]
fn fill_conflicts_at_the_window_edges() {
    let d = delegation((0, 0, 0, 0));
    let conflicting = delegation((0, 1, 1, 1));
    let same_delegatee = delegation((0, 1, 1, 0));
    for max_gap in [1, 2, 3, 10] {
        for gap in [1, max_gap, max_gap + 1] {
            let mut days = vec![Vec::new(); gap + 3];
            days[1].push(d);
            days[1 + gap].push(d);
            let filled = consistency_fill(&days, max_gap);
            assert_eq!(filled, inference_oracle::consistency_fill(&days, max_gap));
            let bridged = (2..1 + gap).all(|i| filled[i].contains(&d));
            assert_eq!(bridged, gap <= max_gap, "max_gap {max_gap}, gap {gap}");
            for blocker in [conflicting, same_delegatee] {
                for at in 0..days.len() {
                    let mut blocked = days.clone();
                    blocked[at].push(blocker);
                    let filled = consistency_fill(&blocked, max_gap);
                    assert_eq!(
                        filled,
                        inference_oracle::consistency_fill(&blocked, max_gap),
                        "max_gap {max_gap}, gap {gap}, {blocker:?} on day {at}"
                    );
                    let inside = (2..1 + gap).contains(&at);
                    let bridged = (2..1 + gap).all(|i| filled[i].contains(&d));
                    assert_eq!(
                        bridged,
                        gap <= max_gap && !(blocker == conflicting && inside)
                    );
                }
            }
        }
    }
}

#[test]
fn fill_keeps_unsorted_days_and_duplicates() {
    let a = delegation((0, 0, 0, 0));
    let b = delegation((1, 0, 1, 2));
    let days = vec![vec![b, a, a], vec![], vec![a, b], vec![], vec![b, b, a]];
    let filled = consistency_fill(&days, 10);
    assert_eq!(filled, inference_oracle::consistency_fill(&days, 10));
    assert_eq!(filled[0], vec![a, a, b]);
    assert_eq!(filled[1], vec![a, b]);
    assert!(consistency_fill(&[], 10).is_empty());
}

#[test]
fn lease_sweep_clamps_leases_to_the_span() {
    let d = delegation((0, 0, 0, 0));
    let mut world = template_world().clone();
    world.leases = vec![
        lease(0, d, -30, 30, true, false), // ends on the span's first day
        lease(1, d, 9, 40, true, false),   // starts on its last day
        lease(2, d, -3, 400, true, false), // covers it
    ];
    let mut days = vec![vec![d]; 10];
    // The same key under another parent: two true positives.
    days[5].push(delegation((0, 1, 0, 0)));
    let result = DailyDelegations {
        start: span_start(),
        days,
        fallback_days: Vec::new(),
        missing_days: Vec::new(),
        intra_org_removed: 0,
    };
    let eval = evaluate_against_truth(&world, &result);
    assert_eq!(
        eval,
        inference_oracle::evaluate_against_truth(&world, &result)
    );
    assert_eq!(
        (
            eval.true_positives,
            eval.false_positives,
            eval.false_negatives
        ),
        (11, 0, 0)
    );
    let empty = DailyDelegations {
        days: Vec::new(),
        ..result
    };
    assert_eq!(evaluate_against_truth(&world, &empty), Default::default());
}

fn span_start() -> nettypes::date::Date {
    date("2019-01-01")
}

/// A lease of `d`'s key active from `start` (days after the span
/// start) for `len + 1` days.
fn lease(id: u32, d: Delegation, start: i64, len: i64, announced: bool, aggregated: bool) -> Lease {
    Lease {
        id,
        prefix: d.prefix,
        parent: d.parent,
        delegator_asn: d.delegator,
        delegator_org: OrgId(1),
        delegatee_asn: d.delegatee,
        delegatee_org: OrgId(2),
        active: DateRange::new(span_start() + start, span_start() + start + len),
        announced,
        aggregated,
        onoff: None,
        flap_rate: 0.0,
        flap_key: 0,
        registered: false,
    }
}

/// A tiny generated world whose leases each test replaces.
fn template_world() -> &'static LeaseWorld {
    static WORLD: OnceLock<LeaseWorld> = OnceLock::new();
    WORLD.get_or_init(|| {
        LeaseWorld::generate(&WorldConfig {
            seed: 5,
            span: DateRange::new(date("2018-01-01"), date("2018-01-10")),
            topology: TopologyConfig {
                seed: 5,
                num_tier1: 2,
                num_tier2: 3,
                num_stubs: 10,
                multi_as_org_fraction: 0.0,
            },
            num_allocations: 2,
            initial_active_leases: 2,
            ..Default::default()
        })
    })
}
