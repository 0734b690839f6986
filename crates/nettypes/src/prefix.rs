//! IPv4 CIDR prefixes and their arithmetic.

use crate::error::NetTypesError;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// An IPv4 CIDR prefix, e.g. `193.0.0.0/21`.
///
/// The network address is always stored in canonical form: host bits
/// below the prefix length are zero. Construction via [`Prefix::new`]
/// enforces this; the raw constructor [`Prefix::new_unchecked_masked`]
/// masks silently.
///
/// Ordering sorts by network address first and then by prefix length
/// (less-specific first), which yields the conventional "supernet
/// before subnets" iteration order used by routing-table dumps.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Prefix {
    network: u32,
    len: u8,
}

#[allow(clippy::len_without_is_empty)]
impl Prefix {
    /// The whole IPv4 space, `0.0.0.0/0`.
    pub const DEFAULT: Prefix = Prefix { network: 0, len: 0 };

    /// Create a prefix, rejecting invalid lengths and non-canonical
    /// network addresses (host bits set).
    pub fn new(network: u32, len: u8) -> Result<Self, NetTypesError> {
        if len > 32 {
            return Err(NetTypesError::InvalidPrefixLen(len));
        }
        let mask = Self::mask_for(len);
        if network & !mask != 0 {
            return Err(NetTypesError::InvalidPrefix(format!(
                "{}/{len} has host bits set",
                crate::fmt_ipv4(network)
            )));
        }
        Ok(Prefix { network, len })
    }

    /// Create a prefix, masking away any host bits. Panics on `len > 32`.
    pub fn new_unchecked_masked(network: u32, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} > 32");
        Prefix {
            network: network & Self::mask_for(len),
            len,
        }
    }

    /// The netmask for a given prefix length.
    #[inline]
    pub fn mask_for(len: u8) -> u32 {
        debug_assert!(len <= 32);
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The network address (first address) of the prefix.
    #[inline]
    pub fn network(&self) -> u32 {
        self.network
    }

    /// The prefix length in bits. (A prefix is never "empty", so there
    /// is deliberately no `is_empty`.)
    #[inline]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// The last address covered by the prefix (broadcast address for
    /// subnet-sized prefixes).
    #[inline]
    pub fn last_address(&self) -> u32 {
        self.network | !Self::mask_for(self.len)
    }

    /// Number of addresses covered: `2^(32-len)`.
    ///
    /// Returned as `u64` so `/0` (2^32) is representable.
    #[inline]
    pub fn num_addresses(&self) -> u64 {
        1u64 << (32 - self.len as u32)
    }

    /// True if `addr` falls inside this prefix.
    #[inline]
    pub fn contains_address(&self, addr: u32) -> bool {
        addr & Self::mask_for(self.len) == self.network
    }

    /// True if `other` is equal to or more specific than `self`
    /// (i.e. fully covered by `self`).
    #[inline]
    pub fn covers(&self, other: &Prefix) -> bool {
        other.len >= self.len && self.contains_address(other.network)
    }

    /// True if `other` is *strictly* more specific than `self`.
    #[inline]
    pub fn covers_strictly(&self, other: &Prefix) -> bool {
        other.len > self.len && self.contains_address(other.network)
    }

    /// True if the two prefixes share any address.
    #[inline]
    pub fn overlaps(&self, other: &Prefix) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// The immediate parent (one bit less specific), or an error at /0.
    pub fn parent(&self) -> Result<Prefix, NetTypesError> {
        if self.len == 0 {
            return Err(NetTypesError::OutOfSpace("parent of /0"));
        }
        Ok(Prefix::new_unchecked_masked(self.network, self.len - 1))
    }

    /// The two immediate children (one bit more specific), or an error
    /// at /32.
    pub fn children(&self) -> Result<(Prefix, Prefix), NetTypesError> {
        if self.len == 32 {
            return Err(NetTypesError::OutOfSpace("children of /32"));
        }
        let left = Prefix {
            network: self.network,
            len: self.len + 1,
        };
        let right = Prefix {
            network: self.network | (1u32 << (31 - self.len as u32)),
            len: self.len + 1,
        };
        Ok((left, right))
    }

    /// The sibling sharing this prefix's parent, or an error at /0.
    pub fn sibling(&self) -> Result<Prefix, NetTypesError> {
        if self.len == 0 {
            return Err(NetTypesError::OutOfSpace("sibling of /0"));
        }
        Ok(Prefix {
            network: self.network ^ (1u32 << (32 - self.len as u32)),
            len: self.len,
        })
    }

    /// Split this prefix into all sub-prefixes of length `target_len`.
    ///
    /// Returns an error if `target_len` is shorter than `self.len` or
    /// longer than 32. Splitting into the same length yields `[self]`.
    pub fn split(&self, target_len: u8) -> Result<Vec<Prefix>, NetTypesError> {
        if target_len > 32 {
            return Err(NetTypesError::InvalidPrefixLen(target_len));
        }
        if target_len < self.len {
            return Err(NetTypesError::OutOfSpace("split to less-specific length"));
        }
        let count = 1u64 << (target_len - self.len) as u32;
        let step = 1u64 << (32 - target_len as u32);
        let mut out = Vec::with_capacity(count as usize);
        let mut net = self.network as u64;
        for _ in 0..count {
            out.push(Prefix {
                network: net as u32,
                len: target_len,
            });
            net += step;
        }
        Ok(out)
    }

    /// The `n`-th sub-prefix of length `target_len` (0-based), without
    /// materializing the whole split.
    pub fn subprefix(&self, target_len: u8, n: u64) -> Result<Prefix, NetTypesError> {
        if target_len > 32 {
            return Err(NetTypesError::InvalidPrefixLen(target_len));
        }
        if target_len < self.len {
            return Err(NetTypesError::OutOfSpace(
                "subprefix with less-specific length",
            ));
        }
        let count = 1u64 << (target_len - self.len) as u32;
        if n >= count {
            return Err(NetTypesError::OutOfSpace("subprefix index out of range"));
        }
        let step = 1u64 << (32 - target_len as u32);
        Ok(Prefix {
            network: (self.network as u64 + n * step) as u32,
            len: target_len,
        })
    }

    /// Whether `self` and `other` can be aggregated into their common
    /// parent (i.e. they are siblings).
    pub fn is_aggregatable_with(&self, other: &Prefix) -> bool {
        self.len == other.len
            && self.len > 0
            && self.network ^ other.network == 1u32 << (32 - self.len as u32)
    }

    /// Aggregate two sibling prefixes into their parent.
    pub fn aggregate(&self, other: &Prefix) -> Option<Prefix> {
        if self.is_aggregatable_with(other) {
            Some(Prefix {
                network: self.network & other.network,
                len: self.len - 1,
            })
        } else {
            None
        }
    }

    /// Iterate over all addresses of the prefix. Useful only for small
    /// prefixes; guarded by `debug_assert` against anything larger than
    /// a /16 to avoid accidental 2^32 loops in tests.
    pub fn addresses(&self) -> impl Iterator<Item = u32> {
        debug_assert!(
            self.len >= 16,
            "iterating addresses of /{} is excessive",
            self.len
        );
        let start = self.network as u64;
        let end = self.last_address() as u64;
        (start..=end).map(|a| a as u32)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", crate::fmt_ipv4(self.network), self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix({self})")
    }
}

impl FromStr for Prefix {
    type Err = NetTypesError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (net, len) = s
            .split_once('/')
            .ok_or_else(|| NetTypesError::InvalidPrefix(s.to_string()))?;
        let network = crate::parse_ipv4(net)?;
        let len: u8 = len
            .parse()
            .map_err(|_| NetTypesError::InvalidPrefix(s.to_string()))?;
        Prefix::new(network, len)
    }
}

impl Ord for Prefix {
    fn cmp(&self, other: &Self) -> Ordering {
        self.network
            .cmp(&other.network)
            .then(self.len.cmp(&other.len))
    }
}

impl PartialOrd for Prefix {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Parse a prefix from a literal, panicking on failure. Test helper.
pub fn pfx(s: &str) -> Prefix {
    s.parse().expect("invalid prefix literal")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_display_roundtrip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "193.0.0.0/21", "192.0.2.1/32"] {
            assert_eq!(pfx(s).to_string(), s);
        }
    }

    #[test]
    fn rejects_host_bits() {
        assert!("10.0.0.1/8".parse::<Prefix>().is_err());
        assert!(Prefix::new(1, 31).is_err());
        assert!(Prefix::new(1, 32).is_ok());
    }

    #[test]
    fn rejects_bad_len() {
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
        assert!(Prefix::new(0, 33).is_err());
        assert!("10.0.0.0/".parse::<Prefix>().is_err());
        assert!("10.0.0.0".parse::<Prefix>().is_err());
    }

    #[test]
    fn masks() {
        assert_eq!(Prefix::mask_for(0), 0);
        assert_eq!(Prefix::mask_for(1), 0x8000_0000);
        assert_eq!(Prefix::mask_for(24), 0xffff_ff00);
        assert_eq!(Prefix::mask_for(32), u32::MAX);
    }

    #[test]
    fn containment() {
        let p8 = pfx("10.0.0.0/8");
        let p24 = pfx("10.1.2.0/24");
        assert!(p8.covers(&p24));
        assert!(p8.covers_strictly(&p24));
        assert!(!p24.covers(&p8));
        assert!(p8.covers(&p8));
        assert!(!p8.covers_strictly(&p8));
        assert!(p8.overlaps(&p24));
        assert!(p24.overlaps(&p8));
        assert!(!pfx("11.0.0.0/8").overlaps(&p24));
    }

    #[test]
    fn default_covers_everything() {
        assert!(Prefix::DEFAULT.covers(&pfx("255.255.255.255/32")));
        assert!(Prefix::DEFAULT.covers(&pfx("0.0.0.0/32")));
        assert!(Prefix::DEFAULT.contains_address(u32::MAX));
        assert_eq!(Prefix::DEFAULT.num_addresses(), 1u64 << 32);
    }

    #[test]
    fn family_relations() {
        let p = pfx("10.0.0.0/9");
        assert_eq!(p.parent().unwrap(), pfx("10.0.0.0/8"));
        assert_eq!(p.sibling().unwrap(), pfx("10.128.0.0/9"));
        let (l, r) = pfx("10.0.0.0/8").children().unwrap();
        assert_eq!(l, p);
        assert_eq!(r, pfx("10.128.0.0/9"));
        assert!(Prefix::DEFAULT.parent().is_err());
        assert!(Prefix::DEFAULT.sibling().is_err());
        assert!(pfx("1.2.3.4/32").children().is_err());
    }

    #[test]
    fn split_counts() {
        let p = pfx("192.0.2.0/24");
        assert_eq!(p.split(24).unwrap(), vec![p]);
        let halves = p.split(25).unwrap();
        assert_eq!(halves, vec![pfx("192.0.2.0/25"), pfx("192.0.2.128/25")]);
        assert_eq!(p.split(28).unwrap().len(), 16);
        assert!(p.split(23).is_err());
        assert!(p.split(33).is_err());
    }

    #[test]
    fn split_of_default_to_slash1() {
        let halves = Prefix::DEFAULT.split(1).unwrap();
        assert_eq!(halves, vec![pfx("0.0.0.0/1"), pfx("128.0.0.0/1")]);
    }

    #[test]
    fn subprefix_matches_split() {
        let p = pfx("10.0.0.0/8");
        let all = p.split(12).unwrap();
        for (i, q) in all.iter().enumerate() {
            assert_eq!(p.subprefix(12, i as u64).unwrap(), *q);
        }
        assert!(p.subprefix(12, 16).is_err());
    }

    #[test]
    fn aggregation() {
        let a = pfx("10.0.0.0/9");
        let b = pfx("10.128.0.0/9");
        assert!(a.is_aggregatable_with(&b));
        assert_eq!(a.aggregate(&b).unwrap(), pfx("10.0.0.0/8"));
        assert_eq!(b.aggregate(&a).unwrap(), pfx("10.0.0.0/8"));
        // Not siblings: same parent bit pattern required.
        assert!(pfx("10.128.0.0/9").aggregate(&pfx("11.0.0.0/9")).is_none());
        assert!(a.aggregate(&a).is_none());
    }

    #[test]
    fn ordering_supernet_first() {
        let mut v = vec![pfx("10.0.0.0/24"), pfx("10.0.0.0/8"), pfx("9.0.0.0/8")];
        v.sort();
        assert_eq!(
            v,
            vec![pfx("9.0.0.0/8"), pfx("10.0.0.0/8"), pfx("10.0.0.0/24")]
        );
    }

    #[test]
    fn address_iteration() {
        let p = pfx("192.0.2.248/29");
        let addrs: Vec<u32> = p.addresses().collect();
        assert_eq!(addrs.len(), 8);
        assert_eq!(addrs[0], p.network());
        assert_eq!(*addrs.last().unwrap(), p.last_address());
    }

    proptest! {
        #[test]
        fn prop_roundtrip(net in any::<u32>(), len in 0u8..=32) {
            let p = Prefix::new_unchecked_masked(net, len);
            let s = p.to_string();
            prop_assert_eq!(s.parse::<Prefix>().unwrap(), p);
        }

        #[test]
        fn prop_children_partition_parent(net in any::<u32>(), len in 0u8..32) {
            let p = Prefix::new_unchecked_masked(net, len);
            let (l, r) = p.children().unwrap();
            prop_assert_eq!(l.num_addresses() + r.num_addresses(), p.num_addresses());
            prop_assert!(p.covers(&l) && p.covers(&r));
            prop_assert!(!l.overlaps(&r));
            prop_assert_eq!(l.aggregate(&r).unwrap(), p);
        }

        #[test]
        fn prop_contains_consistent(net in any::<u32>(), len in 0u8..=32, addr in any::<u32>()) {
            let p = Prefix::new_unchecked_masked(net, len);
            let inside = addr >= p.network() && addr <= p.last_address();
            prop_assert_eq!(p.contains_address(addr), inside);
        }

        #[test]
        fn prop_covers_iff_range_subset(a in any::<u32>(), la in 0u8..=32,
                                        b in any::<u32>(), lb in 0u8..=32) {
            let p = Prefix::new_unchecked_masked(a, la);
            let q = Prefix::new_unchecked_masked(b, lb);
            let subset = q.network() >= p.network() && q.last_address() <= p.last_address();
            prop_assert_eq!(p.covers(&q), subset);
        }
    }
}
