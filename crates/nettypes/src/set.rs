//! An aggregating set of IPv4 prefixes.
//!
//! [`PrefixSet`] answers the question every market-sizing analysis in
//! the paper reduces to: *how many unique addresses does this pile of
//! (possibly overlapping, possibly adjacent) prefixes cover?* It keeps
//! a canonical disjoint-interval representation, so membership,
//! address counting and set algebra are exact regardless of overlap.

use crate::prefix::Prefix;
use crate::range::IpRange;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A set of IPv4 addresses represented as sorted, disjoint,
/// non-adjacent inclusive intervals.
#[derive(Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefixSet {
    // Invariant: sorted by start; gaps of at least one address between
    // consecutive intervals.
    intervals: Vec<(u32, u32)>,
}

impl PrefixSet {
    /// Create an empty set.
    pub fn new() -> Self {
        PrefixSet::default()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Number of disjoint intervals in the canonical representation.
    pub fn num_intervals(&self) -> usize {
        self.intervals.len()
    }

    /// Number of unique addresses covered.
    pub fn num_addresses(&self) -> u64 {
        self.intervals
            .iter()
            .map(|&(s, e)| (e - s) as u64 + 1)
            .sum()
    }

    /// Insert all addresses of `prefix`.
    pub fn insert_prefix(&mut self, prefix: Prefix) {
        self.insert_range(IpRange::from_prefix(prefix));
    }

    /// Insert all addresses of `range`, merging with any overlapping or
    /// adjacent intervals to preserve the canonical representation.
    pub fn insert_range(&mut self, range: IpRange) {
        let (mut s, mut e) = (range.start(), range.end());
        // First interval whose end reaches the merge zone [s-1, ...].
        let lower = s.saturating_sub(1);
        let i0 = self.intervals.partition_point(|&(_, ie)| ie < lower);
        let mut i1 = i0;
        while i1 < self.intervals.len() {
            let (is, ie) = self.intervals[i1];
            let upper = e.saturating_add(1);
            if is > upper {
                break;
            }
            s = s.min(is);
            e = e.max(ie);
            i1 += 1;
        }
        self.intervals.splice(i0..i1, std::iter::once((s, e)));
    }

    /// Whether `addr` is in the set.
    pub fn contains_address(&self, addr: u32) -> bool {
        let idx = self.intervals.partition_point(|&(_, e)| e < addr);
        idx < self.intervals.len() && self.intervals[idx].0 <= addr
    }

    /// Whether the whole `prefix` is covered by the set.
    pub fn covers_prefix(&self, prefix: &Prefix) -> bool {
        let s = prefix.network();
        let e = prefix.last_address();
        let idx = self.intervals.partition_point(|&(_, ie)| ie < s);
        idx < self.intervals.len() && self.intervals[idx].0 <= s && self.intervals[idx].1 >= e
    }

    /// Number of addresses shared with `other`.
    pub fn intersection_size(&self, other: &PrefixSet) -> u64 {
        let mut total = 0u64;
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.intervals.len() && j < other.intervals.len() {
            let (as_, ae) = self.intervals[i];
            let (bs, be) = other.intervals[j];
            let s = as_.max(bs);
            let e = ae.min(be);
            if s <= e {
                total += (e - s) as u64 + 1;
            }
            if ae < be {
                i += 1;
            } else {
                j += 1;
            }
        }
        total
    }

    /// The fraction of `self`'s addresses also present in `other`
    /// (0.0 for an empty `self`). This is the "BGP-delegations cover
    /// X % of the RDAP-delegated IPs" statistic from §4 of the paper.
    pub fn coverage_by(&self, other: &PrefixSet) -> f64 {
        let own = self.num_addresses();
        if own == 0 {
            return 0.0;
        }
        self.intersection_size(other) as f64 / own as f64
    }

    /// Union with another set.
    pub fn union(&self, other: &PrefixSet) -> PrefixSet {
        let mut out = self.clone();
        for &(s, e) in &other.intervals {
            out.insert_range(IpRange::new(s, e).expect("canonical interval"));
        }
        out
    }

    /// The canonical intervals (sorted, disjoint, non-adjacent).
    pub fn intervals(&self) -> impl Iterator<Item = IpRange> + '_ {
        self.intervals
            .iter()
            .map(|&(s, e)| IpRange::new(s, e).expect("canonical interval"))
    }

    /// The minimal CIDR decomposition of the set.
    pub fn to_cidrs(&self) -> Vec<Prefix> {
        self.intervals().flat_map(|r| r.to_cidrs()).collect()
    }
}

impl fmt::Debug for PrefixSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.intervals().map(|r| r.to_string()))
            .finish()
    }
}

impl FromIterator<Prefix> for PrefixSet {
    fn from_iter<T: IntoIterator<Item = Prefix>>(iter: T) -> Self {
        let mut s = PrefixSet::new();
        for p in iter {
            s.insert_prefix(p);
        }
        s
    }
}

impl FromIterator<IpRange> for PrefixSet {
    fn from_iter<T: IntoIterator<Item = IpRange>>(iter: T) -> Self {
        let mut s = PrefixSet::new();
        for r in iter {
            s.insert_range(r);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::pfx;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn dedup_overlaps() {
        let s: PrefixSet = [pfx("10.0.0.0/8"), pfx("10.1.0.0/16"), pfx("10.0.0.0/24")]
            .into_iter()
            .collect();
        assert_eq!(s.num_addresses(), 1 << 24);
        assert_eq!(s.num_intervals(), 1);
    }

    #[test]
    fn merges_adjacent() {
        let s: PrefixSet = [pfx("10.0.0.0/25"), pfx("10.0.0.128/25")]
            .into_iter()
            .collect();
        assert_eq!(s.num_intervals(), 1);
        assert_eq!(s.to_cidrs(), vec![pfx("10.0.0.0/24")]);
    }

    #[test]
    fn keeps_gaps() {
        let s: PrefixSet = [pfx("10.0.0.0/24"), pfx("10.0.2.0/24")]
            .into_iter()
            .collect();
        assert_eq!(s.num_intervals(), 2);
        assert_eq!(s.num_addresses(), 512);
        assert!(!s.contains_address(crate::parse_ipv4("10.0.1.0").unwrap()));
        assert!(s.contains_address(crate::parse_ipv4("10.0.2.255").unwrap()));
    }

    #[test]
    fn covers_prefix_check() {
        let s: PrefixSet = [pfx("10.0.0.0/24"), pfx("10.0.1.0/24")]
            .into_iter()
            .collect();
        assert!(s.covers_prefix(&pfx("10.0.0.0/23")));
        assert!(s.covers_prefix(&pfx("10.0.1.128/25")));
        assert!(!s.covers_prefix(&pfx("10.0.0.0/22")));
    }

    #[test]
    fn intersection_and_coverage() {
        let a: PrefixSet = [pfx("10.0.0.0/23")].into_iter().collect(); // 512
        let b: PrefixSet = [pfx("10.0.1.0/24"), pfx("10.0.2.0/24")]
            .into_iter()
            .collect();
        assert_eq!(a.intersection_size(&b), 256);
        assert!((a.coverage_by(&b) - 0.5).abs() < 1e-12);
        assert!((b.coverage_by(&a) - 0.5).abs() < 1e-12);
        let empty = PrefixSet::new();
        assert_eq!(empty.coverage_by(&a), 0.0);
        assert_eq!(a.intersection_size(&empty), 0);
    }

    #[test]
    fn whole_space_boundaries() {
        let mut s = PrefixSet::new();
        s.insert_prefix(pfx("0.0.0.0/1"));
        s.insert_prefix(pfx("128.0.0.0/1"));
        assert_eq!(s.num_intervals(), 1);
        assert_eq!(s.num_addresses(), 1u64 << 32);
        assert!(s.contains_address(u32::MAX));
        assert!(s.covers_prefix(&Prefix::DEFAULT));
    }

    #[test]
    fn union_counts() {
        let a: PrefixSet = [pfx("10.0.0.0/24")].into_iter().collect();
        let b: PrefixSet = [pfx("10.0.0.128/25"), pfx("192.0.2.0/24")]
            .into_iter()
            .collect();
        let u = a.union(&b);
        assert_eq!(u.num_addresses(), 512);
        assert_eq!(u.num_intervals(), 2);
    }

    proptest! {
        #[test]
        fn prop_matches_address_set_reference(
            prefixes in proptest::collection::vec(
                // Confine everything to 0.0.0.0/10 so the brute-force
                // reference set stays small.
                (0u32..(1 << 22), 22u8..=32).prop_map(|(n, l)| {
                    Prefix::new_unchecked_masked(n, l)
                }),
                0..20
            ),
            probes in proptest::collection::vec(0u32..(1 << 22), 0..30),
        ) {
            let set: PrefixSet = prefixes.iter().copied().collect();
            let mut reference: BTreeSet<u32> = BTreeSet::new();
            for p in &prefixes {
                for a in p.network()..=p.last_address() {
                    reference.insert(a);
                    if a == u32::MAX { break; }
                }
            }
            prop_assert_eq!(set.num_addresses(), reference.len() as u64);
            for a in probes {
                prop_assert_eq!(set.contains_address(a), reference.contains(&a));
            }
            // Canonical form: disjoint and non-adjacent.
            let iv: Vec<_> = set.intervals().collect();
            for w in iv.windows(2) {
                prop_assert!(w[0].end() < u32::MAX && w[0].end() + 1 < w[1].start());
            }
        }

        #[test]
        fn prop_cidr_decomposition_roundtrip(
            prefixes in proptest::collection::vec(
                (any::<u32>(), 8u8..=32).prop_map(|(n, l)| Prefix::new_unchecked_masked(n, l)),
                0..15
            ),
        ) {
            let set: PrefixSet = prefixes.iter().copied().collect();
            let rebuilt: PrefixSet = set.to_cidrs().into_iter().collect();
            prop_assert_eq!(&rebuilt, &set);
            prop_assert_eq!(rebuilt.num_addresses(), set.num_addresses());
        }

        #[test]
        fn prop_intersection_commutes(
            a in proptest::collection::vec((any::<u32>(), 8u8..=28).prop_map(|(n, l)| Prefix::new_unchecked_masked(n, l)), 0..10),
            b in proptest::collection::vec((any::<u32>(), 8u8..=28).prop_map(|(n, l)| Prefix::new_unchecked_masked(n, l)), 0..10),
        ) {
            let sa: PrefixSet = a.into_iter().collect();
            let sb: PrefixSet = b.into_iter().collect();
            prop_assert_eq!(sa.intersection_size(&sb), sb.intersection_size(&sa));
            let u = sa.union(&sb);
            // |A ∪ B| = |A| + |B| - |A ∩ B|
            prop_assert_eq!(
                u.num_addresses(),
                sa.num_addresses() + sb.num_addresses() - sa.intersection_size(&sb)
            );
        }
    }
}
