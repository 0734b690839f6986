//! Inclusive IPv4 address ranges as used by WHOIS `inetnum` objects.
//!
//! RIPE's database keys `inetnum` objects by `start - end` ranges which
//! need not align to CIDR boundaries. This module provides lossless
//! conversion between ranges and their minimal CIDR cover.

use crate::error::NetTypesError;
use crate::prefix::Prefix;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// An inclusive range `start..=end` of IPv4 addresses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct IpRange {
    start: u32,
    end: u32,
}

impl IpRange {
    /// Create a range; rejects `start > end`.
    pub fn new(start: u32, end: u32) -> Result<Self, NetTypesError> {
        if start > end {
            return Err(NetTypesError::InvalidRange { start, end });
        }
        Ok(IpRange { start, end })
    }

    /// First address of the range.
    #[inline]
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Last address of the range (inclusive).
    #[inline]
    pub fn end(&self) -> u32 {
        self.end
    }

    /// Number of addresses covered.
    #[inline]
    pub fn num_addresses(&self) -> u64 {
        (self.end - self.start) as u64 + 1
    }

    /// True if `addr` is inside the range.
    #[inline]
    pub fn contains_address(&self, addr: u32) -> bool {
        addr >= self.start && addr <= self.end
    }

    /// True if `other` is fully contained in `self`.
    #[inline]
    pub fn contains_range(&self, other: &IpRange) -> bool {
        other.start >= self.start && other.end <= self.end
    }

    /// True if the two ranges share any address.
    #[inline]
    pub fn overlaps(&self, other: &IpRange) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// The range covered by a single prefix.
    pub fn from_prefix(p: Prefix) -> Self {
        IpRange {
            start: p.network(),
            end: p.last_address(),
        }
    }

    /// If the range is exactly one CIDR block, return that prefix.
    pub fn as_single_prefix(&self) -> Option<Prefix> {
        let span = self.num_addresses();
        if !span.is_power_of_two() {
            return None;
        }
        let len = 32 - span.trailing_zeros() as u8;
        let p = Prefix::new(self.start, len).ok()?;
        if p.last_address() == self.end {
            Some(p)
        } else {
            None
        }
    }

    /// The minimal list of CIDR prefixes that exactly covers the range,
    /// in ascending address order (the classic range-to-CIDR algorithm).
    pub fn to_cidrs(&self) -> Vec<Prefix> {
        let mut out = Vec::new();
        let mut cur = self.start as u64;
        let end = self.end as u64;
        while cur <= end {
            // Largest block size allowed by alignment of `cur`…
            let align = if cur == 0 {
                32
            } else {
                cur.trailing_zeros().min(32)
            };
            // …and by the remaining span.
            let remaining = end - cur + 1;
            let span_bits = 63 - remaining.leading_zeros(); // floor(log2(remaining))
            let bits = align.min(span_bits);
            let len = 32 - bits as u8;
            out.push(Prefix::new_unchecked_masked(cur as u32, len));
            cur += 1u64 << bits;
        }
        out
    }

    /// Intersect two ranges, if they overlap.
    pub fn intersection(&self, other: &IpRange) -> Option<IpRange> {
        if !self.overlaps(other) {
            return None;
        }
        Some(IpRange {
            start: self.start.max(other.start),
            end: self.end.min(other.end),
        })
    }

    /// Merge two overlapping or adjacent ranges into one.
    pub fn union_if_contiguous(&self, other: &IpRange) -> Option<IpRange> {
        let adjacent = self.end != u32::MAX && self.end + 1 == other.start
            || other.end != u32::MAX && other.end + 1 == self.start;
        if self.overlaps(other) || adjacent {
            Some(IpRange {
                start: self.start.min(other.start),
                end: self.end.max(other.end),
            })
        } else {
            None
        }
    }
}

impl fmt::Display for IpRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} - {}",
            crate::fmt_ipv4(self.start),
            crate::fmt_ipv4(self.end)
        )
    }
}

impl fmt::Debug for IpRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IpRange({self})")
    }
}

impl FromStr for IpRange {
    type Err = NetTypesError;

    /// Parse the WHOIS `inetnum` notation `a.b.c.d - e.f.g.h`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (a, b) = s
            .split_once('-')
            .ok_or(NetTypesError::InvalidRange { start: 0, end: 0 })?;
        IpRange::new(crate::parse_ipv4(a.trim())?, crate::parse_ipv4(b.trim())?)
    }
}

impl From<Prefix> for IpRange {
    fn from(p: Prefix) -> Self {
        IpRange::from_prefix(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::pfx;
    use proptest::prelude::*;

    #[test]
    fn rejects_inverted() {
        assert!(IpRange::new(5, 4).is_err());
        assert!(IpRange::new(5, 5).is_ok());
    }

    #[test]
    fn parses_whois_notation() {
        let r: IpRange = "193.0.0.0 - 193.0.7.255".parse().unwrap();
        assert_eq!(r.as_single_prefix().unwrap(), pfx("193.0.0.0/21"));
        assert_eq!(r.to_string(), "193.0.0.0 - 193.0.7.255");
    }

    #[test]
    fn single_prefix_detection() {
        assert_eq!(
            IpRange::from_prefix(pfx("10.0.0.0/8")).as_single_prefix(),
            Some(pfx("10.0.0.0/8"))
        );
        // Power-of-two size but misaligned start.
        let r = IpRange::new(1, 2).unwrap();
        assert_eq!(r.as_single_prefix(), None);
        // Non-power-of-two size.
        let r = IpRange::new(0, 2).unwrap();
        assert_eq!(r.as_single_prefix(), None);
        // Whole space.
        let r = IpRange::new(0, u32::MAX).unwrap();
        assert_eq!(r.as_single_prefix(), Some(Prefix::DEFAULT));
    }

    #[test]
    fn to_cidrs_classic_example() {
        // 10.0.0.1 - 10.0.0.6 => .1/32 .2/31 .4/31 .6/32
        let r: IpRange = "10.0.0.1 - 10.0.0.6".parse().unwrap();
        let cidrs = r.to_cidrs();
        assert_eq!(
            cidrs,
            vec![
                pfx("10.0.0.1/32"),
                pfx("10.0.0.2/31"),
                pfx("10.0.0.4/31"),
                pfx("10.0.0.6/32"),
            ]
        );
    }

    #[test]
    fn to_cidrs_whole_space() {
        let r = IpRange::new(0, u32::MAX).unwrap();
        assert_eq!(r.to_cidrs(), vec![Prefix::DEFAULT]);
    }

    #[test]
    fn set_operations() {
        let a = IpRange::new(10, 20).unwrap();
        let b = IpRange::new(15, 30).unwrap();
        let c = IpRange::new(21, 25).unwrap();
        assert_eq!(a.intersection(&b), Some(IpRange::new(15, 20).unwrap()));
        assert_eq!(a.intersection(&c), None);
        assert_eq!(
            a.union_if_contiguous(&c),
            Some(IpRange::new(10, 25).unwrap())
        );
        assert_eq!(
            a.union_if_contiguous(&b),
            Some(IpRange::new(10, 30).unwrap())
        );
        let far = IpRange::new(100, 200).unwrap();
        assert_eq!(a.union_if_contiguous(&far), None);
    }

    #[test]
    fn union_at_space_boundary_no_overflow() {
        let hi = IpRange::new(u32::MAX - 1, u32::MAX).unwrap();
        let lo = IpRange::new(0, 1).unwrap();
        assert_eq!(hi.union_if_contiguous(&lo), None);
        assert_eq!(lo.union_if_contiguous(&hi), None);
    }

    proptest! {
        #[test]
        fn prop_to_cidrs_exact_cover(start in any::<u32>(), span in 0u32..100_000) {
            let end = start.saturating_add(span);
            let r = IpRange::new(start, end).unwrap();
            let cidrs = r.to_cidrs();
            // Total size matches.
            let total: u64 = cidrs.iter().map(|p| p.num_addresses()).sum();
            prop_assert_eq!(total, r.num_addresses());
            // Contiguous, in-order, inside the range.
            let mut cur = start as u64;
            for p in &cidrs {
                prop_assert_eq!(p.network() as u64, cur);
                cur += p.num_addresses();
            }
            prop_assert_eq!(cur - 1, end as u64);
            // Minimality: no two adjacent blocks are aggregatable siblings.
            for w in cidrs.windows(2) {
                prop_assert!(w[0].aggregate(&w[1]).is_none());
            }
        }

        #[test]
        fn prop_prefix_range_roundtrip(net in any::<u32>(), len in 0u8..=32) {
            let p = Prefix::new_unchecked_masked(net, len);
            let r = IpRange::from_prefix(p);
            prop_assert_eq!(r.as_single_prefix(), Some(p));
            prop_assert_eq!(r.to_cidrs(), vec![p]);
        }
    }
}
