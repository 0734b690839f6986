//! The per-study reduction of steps (i)–(iii), the linear passes of
//! step (iv) on BGP pairs and on ROA snapshots, extension (v) and the
//! truth scoring against their per-walk and per-element oracles, on
//! random inputs with the cases they treat specially: shuffled rows,
//! duplicate prefix-origin rows, AS_SETs, MOAS, unclean routes,
//! thresholds at both ends, unsorted and duplicate pairs, duplicate
//! ROAs and prefixes with ROAs for several ASes, conflicts at the
//! edges of the fill window, leases reaching past the span and empty
//! results.

mod inference_oracle;

use bgpsim::observe::{ObservationDay, RouteObservation};
use bgpsim::scenario::{Lease, LeaseWorld, WorldConfig};
use bgpsim::topology::TopologyConfig;
use delegation::base::{
    infer_base_delegations, infer_from_pairs, infer_rpki_delegations, origin_for_prefix,
    reduce_days, Delegation, ReducedDay,
};
use delegation::config::InferenceConfig;
use delegation::eval::evaluate_against_truth;
use delegation::extensions::consistency_fill;
use delegation::pipeline::DailyDelegations;
use nettypes::asn::{Asn, Origin};
use nettypes::bogons::BogonFilter;
use nettypes::date::{date, DateRange};
use nettypes::prefix::Prefix;
use proptest::prelude::*;
use registry::org::OrgId;
use rpki::roa::Roa;
use rpki::snapshot::RoaSnapshot;
use std::sync::{Arc, OnceLock};

/// The thresholds every reduction is read at: both ends, where
/// `ceil` gives 0 or every monitor, and the paper's sweep points.
const THRESHOLDS: [f64; 5] = [0.0, 0.1, 0.5, 0.9, 1.0];

/// Row prefixes: four nested prefixes of 64.0.0.0/16 and two bogons.
fn row_prefix(i: usize) -> Prefix {
    let (network, len) = [
        (0x4000_0000, 16),
        (0x4000_0000, 22),
        (0x4000_0100, 24),
        (0x4000_0200, 24),
        (0x0A00_0000, 8),
        (0xC0A8_0100, 24),
    ][i];
    Prefix::new_unchecked_masked(network, len)
}

/// Row origins: three ASes (the first two twice as likely), a
/// reserved one and two AS_SETs.
fn row_origin(i: u32) -> Origin {
    match i {
        0 | 1 => Origin::Single(Asn(1001)),
        2 | 3 => Origin::Single(Asn(1002)),
        4 => Origin::Single(Asn(1003)),
        5 => Origin::Single(Asn(64512)),
        6 => Origin::Set(vec![Asn(1001), Asn(1002)]),
        _ => Origin::Set(vec![Asn(1002), Asn(1003)]),
    }
}

/// Row paths ending in `origin`: empty, clean (three times as likely),
/// prepended, looped, or through a reserved ASN.
fn row_path(i: u32, origin: &Origin) -> Arc<[Asn]> {
    let o = origin.as_single().unwrap_or(Asn(1001));
    match i {
        0 => vec![],
        1..=3 => vec![Asn(1050), o],
        4 => vec![Asn(1050), Asn(1050), o],
        5 => vec![Asn(1050), Asn(1060), Asn(1050), o],
        _ => vec![Asn(1050), Asn(64512), o],
    }
    .into()
}

/// Rows `(prefix, origin, path, monitors seen)`: with 6 prefixes and
/// 3 clean origins, duplicate prefix-origin rows at different counts,
/// MOAS and AS_SETs beside clean rows are all common.
fn rows_strategy() -> impl Strategy<Value = Vec<(usize, u32, u32, u16)>> {
    proptest::collection::vec((0usize..6, 0u32..8, 0u32..7, 0u16..=40), 0..16)
}

/// One day of `num_monitors` monitors; counts wrap into `0..=num_monitors`.
fn observation_day(rows: &[(usize, u32, u32, u16)], num_monitors: u16) -> ObservationDay {
    ObservationDay {
        date: date("2019-01-01"),
        num_monitors,
        routes: rows
            .iter()
            .map(|&(p, o, path, seen)| {
                let origin = row_origin(o);
                RouteObservation {
                    prefix: row_prefix(p),
                    path: row_path(path, &origin),
                    origin,
                    monitors_seen: seen % (num_monitors + 1),
                    class: None,
                }
            })
            .collect(),
    }
}

fn at(threshold: f64) -> InferenceConfig {
    InferenceConfig {
        visibility_threshold: threshold,
        ..InferenceConfig::baseline()
    }
}

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
    /// One reduction read at every threshold equals the per-walk fold
    /// at that threshold, for the rows in any order.
    #[test]
    fn prop_reduction_matches_the_per_walk_fold(
        rows in rows_strategy(),
        num_monitors in proptest::sample::select(vec![1u16, 40]),
    ) {
        let day = observation_day(&rows, num_monitors);
        let mut reversed = day.clone();
        reversed.routes.reverse();
        let mut rotated = day.clone();
        rotated.routes.rotate_left(rows.len() / 2);
        let days = [day, reversed, rotated];
        let reduced = reduce_days(&days);
        for threshold in THRESHOLDS {
            let cfg = at(threshold);
            let expected = inference_oracle::visible_prefix_origins(&days[0], &cfg);
            for (day, reduced) in days.iter().zip(&reduced) {
                prop_assert_eq!(&reduced.pairs(day, &cfg), &expected, "threshold {}", threshold);
                prop_assert_eq!(
                    infer_base_delegations(day, &cfg),
                    inference_oracle::infer_from_pairs(&expected)
                );
            }
        }
    }

    /// The summarize-then-test fold of one prefix equals the
    /// early-return fold at every threshold, in both row orders.
    #[test]
    fn prop_summary_matches_the_early_return_fold(
        prefix in 0usize..6,
        raw in proptest::collection::vec((0u32..8, 0u32..7, 0u16..=40), 0..8),
        threshold in 0u16..=41,
    ) {
        let prefix = row_prefix(prefix);
        let rows: Vec<(Origin, u16, Arc<[Asn]>)> = raw
            .iter()
            .map(|&(o, path, seen)| {
                let origin = row_origin(o);
                (origin.clone(), seen, row_path(path, &origin))
            })
            .collect();
        let view = || rows.iter().map(|(o, seen, path)| (o, *seen, &path[..]));
        let bogons = BogonFilter::shared();
        let expected = inference_oracle::origin_for_prefix(bogons, threshold, prefix, view());
        prop_assert_eq!(origin_for_prefix(bogons, threshold, prefix, view()), expected);
        prop_assert_eq!(origin_for_prefix(bogons, threshold, prefix, view().rev()), expected);
    }

    #[test]
    fn prop_stack_sweep_matches_the_scan(
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

    /// RPKI step (iv) through the sweep equals a scan of every pair of
    /// ROAs, in any ROA order, with nested prefixes, exact duplicate
    /// ROAs and prefixes with ROAs for several ASes.
    #[test]
    fn prop_rpki_inference_matches_a_brute_force_scan(
        raw in proptest::collection::vec(
            (0u32..16, proptest::sample::select(vec![20u8, 22, 24, 26]), 0u32..4, 0usize..3),
            0..24,
        ),
    ) {
        let mut roas = Vec::new();
        for &(net, len, o, copies) in &raw {
            for _ in 0..=copies {
                roas.push(Roa::exact(prefix(net, len), Asn(1000 + o)));
            }
        }
        let expected = inference_oracle::infer_rpki_delegations(&roas);
        let mut snapshot = RoaSnapshot { date: date("2019-01-01"), roas };
        prop_assert_eq!(infer_rpki_delegations(&snapshot), expected.clone());
        snapshot.roas.reverse();
        prop_assert_eq!(infer_rpki_delegations(&snapshot), expected);
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

    /// One sort serves every window: each result of `filled_many`
    /// equals its own fill, for gap lists holding 0, 1, duplicates and
    /// any order.
    #[test]
    fn prop_filled_many_matches_one_fill_per_window(
        days in days_strategy(),
        gaps in proptest::collection::vec(
            proptest::sample::select(vec![0usize, 1, 2, 3, 5, 10]),
            0..6,
        ),
    ) {
        let result = DailyDelegations {
            start: span_start(),
            days,
            fallback_days: vec![span_start()],
            missing_days: Vec::new(),
            intra_org_removed: 3,
        };
        for gaps in [gaps, vec![10, 0, 3, 10, 1]] {
            let many: Vec<DailyDelegations> = result.filled_many(&gaps).collect();
            prop_assert_eq!(many.len(), gaps.len());
            for (filled, &gap) in many.iter().zip(&gaps) {
                prop_assert_eq!(&filled.days, &consistency_fill(&result.days, gap));
                prop_assert_eq!(filled, &result.filled(gap));
            }
        }
        // A series long enough that sorting its observations is not
        // an insertion sort, against the map oracle.
        let long = DailyDelegations {
            days: result.days.iter().cycle().take(8 * result.days.len()).cloned().collect(),
            ..result
        };
        let gaps = [2, 10, 5];
        for (filled, &gap) in long.filled_many(&gaps).zip(&gaps) {
            prop_assert_eq!(filled.days, inference_oracle::consistency_fill(&long.days, gap));
        }
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

/// A prefix whose second origin is visible only at low thresholds
/// survives only in between: MOAS below, too few monitors above.
#[test]
fn moas_visible_only_at_low_thresholds_is_non_monotone() {
    // 64.0.1.0/24: AS 1001 from 30 of 40 monitors, AS 1002 from 5, and
    // a looped route of AS 1003 from all 40, which sanitization drops.
    let day = observation_day(&[(2, 0, 1, 30), (2, 2, 1, 5), (2, 4, 5, 40)], 40);
    let reduced = ReducedDay::new(&day);
    for (threshold, survives) in [(0.1, false), (0.5, true), (0.75, true), (0.9, false)] {
        let cfg = at(threshold);
        let pairs = reduced.pairs(&day, &cfg);
        assert_eq!(pairs, inference_oracle::visible_prefix_origins(&day, &cfg));
        let expected = if survives {
            vec![(row_prefix(2), Asn(1001))]
        } else {
            vec![]
        };
        assert_eq!(pairs, expected, "threshold {threshold}");
    }
}

#[test]
#[should_panic(expected = "reduced from")]
fn reduced_day_is_read_against_its_own_day() {
    let day = observation_day(&[(0, 0, 1, 30)], 40);
    let other = observation_day(&[(0, 0, 1, 30), (1, 2, 1, 30)], 40);
    ReducedDay::new(&day).pairs(&other, &InferenceConfig::baseline());
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
fn stack_sweep_duplicate_prefixes_follow_the_scan() {
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
