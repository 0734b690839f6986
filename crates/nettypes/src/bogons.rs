//! Bogon address space and route sanitization predicates.
//!
//! The paper sanitizes BGP data by removing "routes for private and
//! reserved address space [Team Cymru bogon reference], routes that
//! contain ASes currently reserved by IANA, and routes that contain a
//! loop in their AS-PATH". This module provides those predicates.

use crate::asn::Asn;
use crate::prefix::Prefix;
use std::sync::OnceLock;

/// The IANA special-purpose IPv4 registry entries (the "full bogon"
/// prefix list as distributed by Team Cymru's bogon reference), as
/// `(network, length)`.
const BOGON_TABLE: [(u32, u8); 14] = [
    (0x0000_0000, 8),  // 0.0.0.0/8, "this network", RFC 791
    (0x0A00_0000, 8),  // 10.0.0.0/8, private, RFC 1918
    (0x6440_0000, 10), // 100.64.0.0/10, CGN shared space, RFC 6598
    (0x7F00_0000, 8),  // 127.0.0.0/8, loopback, RFC 1122
    (0xA9FE_0000, 16), // 169.254.0.0/16, link local, RFC 3927
    (0xAC10_0000, 12), // 172.16.0.0/12, private, RFC 1918
    (0xC000_0000, 24), // 192.0.0.0/24, IETF protocol assignments, RFC 6890
    (0xC000_0200, 24), // 192.0.2.0/24, TEST-NET-1, RFC 5737
    (0xC0A8_0000, 16), // 192.168.0.0/16, private, RFC 1918
    (0xC612_0000, 15), // 198.18.0.0/15, benchmarking, RFC 2544
    (0xC633_6400, 24), // 198.51.100.0/24, TEST-NET-2, RFC 5737
    (0xCB00_7100, 24), // 203.0.113.0/24, TEST-NET-3, RFC 5737
    (0xE000_0000, 4),  // 224.0.0.0/4, multicast, RFC 5771
    (0xF000_0000, 4),  // 240.0.0.0/4, reserved, RFC 1112
];

/// For each first octet `o`, whether `o.0.0.0/8` overlaps a bogon
/// block. A prefix of length 8 or more lies inside the /8 of its first
/// octet, so it can overlap a bogon only if that octet is marked.
const BOGON_FIRST_OCTETS: [bool; 256] = {
    let mut table = [false; 256];
    let mut i = 0;
    while i < BOGON_TABLE.len() {
        let (network, len) = BOGON_TABLE[i];
        let first = (network >> 24) as usize;
        let octets = if len >= 8 { 1 } else { 1 << (8 - len) };
        let mut o = first;
        while o < first + octets {
            table[o] = true;
            o += 1;
        }
        i += 1;
    }
    table
};

/// The bogon table as prefixes. Every entry is canonical, so none is
/// dropped (`tests::table_matches_the_cidr_strings` pins all 14).
pub fn bogon_prefixes() -> Vec<Prefix> {
    BOGON_TABLE
        .iter()
        .filter_map(|&(network, len)| Prefix::new(network, len).ok())
        .collect()
}

/// A compiled bogon filter for fast per-route checks.
#[derive(Clone, Debug)]
pub struct BogonFilter {
    bogons: Vec<Prefix>,
}

impl Default for BogonFilter {
    fn default() -> Self {
        Self::new()
    }
}

impl BogonFilter {
    /// Build the filter from the static bogon table.
    pub fn new() -> Self {
        BogonFilter {
            bogons: bogon_prefixes(),
        }
    }

    /// The process-wide filter, built on first use.
    pub fn shared() -> &'static BogonFilter {
        static SHARED: OnceLock<BogonFilter> = OnceLock::new();
        SHARED.get_or_init(BogonFilter::new)
    }

    /// True if the prefix overlaps any bogon block (i.e. the route must
    /// be discarded). A prefix of length 8 or more whose first octet no
    /// bogon block reaches is accepted without scanning the table.
    ///
    /// Rejections are counted (`bogon_routes_dropped_total`); the
    /// accept path stays untouched. The inference checks every row of
    /// a day once when it reduces the day, before any visibility
    /// threshold, so the counter grows by each bogon row once per
    /// reduction, whatever the threshold.
    pub fn is_bogon(&self, prefix: &Prefix) -> bool {
        let may_hit = prefix.len() < 8 || BOGON_FIRST_OCTETS[(prefix.network() >> 24) as usize];
        let hit = may_hit && self.bogons.iter().any(|b| b.overlaps(prefix));
        if hit {
            static DROPPED: OnceLock<std::sync::Arc<obs::metrics::Counter>> = OnceLock::new();
            DROPPED
                .get_or_init(|| obs::metrics::counter("bogon_routes_dropped_total"))
                .inc();
        }
        hit
    }
}

/// True if the AS path contains a reserved ASN.
pub fn path_has_reserved_asn(path: &[Asn]) -> bool {
    path.iter().any(Asn::is_reserved)
}

/// True if the AS path contains a loop: the same ASN appearing in two
/// non-contiguous runs (legitimate prepending — the same ASN repeated
/// consecutively — is not a loop). A hop that starts a new run is a
/// loop when its ASN already occurs earlier in the path.
pub fn path_has_loop(path: &[Asn]) -> bool {
    (1..path.len()).any(|i| path[i] != path[i - 1] && path[..i - 1].contains(&path[i]))
}

/// The full route-sanitization predicate from §4 of the paper: keep a
/// route only if its prefix is not bogon, its path has no reserved ASN
/// and no loop.
pub fn route_is_clean(filter: &BogonFilter, prefix: &Prefix, path: &[Asn]) -> bool {
    !filter.is_bogon(prefix) && !path_has_reserved_asn(path) && !path_has_loop(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::pfx;

    #[test]
    fn bogon_hits() {
        let f = BogonFilter::new();
        assert!(f.is_bogon(&pfx("10.1.2.0/24")));
        assert!(f.is_bogon(&pfx("192.168.0.0/16")));
        assert!(f.is_bogon(&pfx("100.64.0.0/10")));
        // A less-specific covering a bogon block is also dirty.
        assert!(f.is_bogon(&pfx("192.0.0.0/8")));
        assert!(f.is_bogon(&Prefix::DEFAULT));
    }

    #[test]
    fn clean_space_passes() {
        let f = BogonFilter::new();
        assert!(!f.is_bogon(&pfx("193.0.0.0/21"))); // RIPE NCC
        assert!(!f.is_bogon(&pfx("8.8.8.0/24")));
        assert!(!f.is_bogon(&pfx("1.0.0.0/24")));
    }

    #[test]
    fn table_matches_the_cidr_strings() {
        let cidrs = [
            "0.0.0.0/8",
            "10.0.0.0/8",
            "100.64.0.0/10",
            "127.0.0.0/8",
            "169.254.0.0/16",
            "172.16.0.0/12",
            "192.0.0.0/24",
            "192.0.2.0/24",
            "192.168.0.0/16",
            "198.18.0.0/15",
            "198.51.100.0/24",
            "203.0.113.0/24",
            "224.0.0.0/4",
            "240.0.0.0/4",
        ];
        let parsed: Vec<Prefix> = cidrs.iter().map(|s| pfx(s)).collect();
        assert_eq!(bogon_prefixes(), parsed);
    }

    proptest::proptest! {
        /// The first-octet prefilter never changes the answer of the
        /// table scan: prefixes of every length, half of them drawn
        /// from the octets bogon blocks reach.
        #[test]
        fn prop_prefilter_matches_the_scan(
            octet in proptest::sample::select(vec![
                0u32, 9, 10, 100, 127, 169, 172, 192, 198, 203, 223, 224, 255,
            ]),
            rest in 0u32..(1 << 24),
            random in proptest::any::<u32>(),
            pick in proptest::any::<bool>(),
            len in 0u8..=32,
        ) {
            let network = if pick { octet << 24 | rest } else { random };
            let prefix = Prefix::new_unchecked_masked(network, len);
            let f = BogonFilter::new();
            let scan = f.bogons.iter().any(|b| b.overlaps(&prefix));
            proptest::prop_assert_eq!(f.is_bogon(&prefix), scan, "{:?}", prefix);
        }
    }

    /// The set-based loop check: remember every ASN run seen so far.
    fn path_has_loop_oracle(path: &[Asn]) -> bool {
        let mut seen = std::collections::HashSet::new();
        let mut prev = None;
        for &asn in path {
            if prev == Some(asn) {
                continue; // prepending
            }
            if !seen.insert(asn) {
                return true;
            }
            prev = Some(asn);
        }
        false
    }

    proptest::proptest! {
        /// Paths over a 4-ASN alphabet, so prepending runs, loops and
        /// loops through a prepended run are all common.
        #[test]
        fn prop_loop_check_matches_the_set_oracle(
            hops in proptest::collection::vec(0u32..4, 0..10),
        ) {
            let path: Vec<Asn> = hops.iter().map(|&h| Asn(64_000 + h)).collect();
            proptest::prop_assert_eq!(path_has_loop(&path), path_has_loop_oracle(&path));
        }
    }

    #[test]
    fn loop_detection() {
        let a = |v: &[u32]| v.iter().map(|&x| Asn(x)).collect::<Vec<_>>();
        assert!(!path_has_loop(&a(&[1, 2, 3])));
        // Prepending is not a loop.
        assert!(!path_has_loop(&a(&[1, 2, 2, 2, 3])));
        // Same ASN in two separate runs is a loop.
        assert!(path_has_loop(&a(&[1, 2, 1])));
        assert!(path_has_loop(&a(&[1, 2, 2, 3, 2])));
        assert!(!path_has_loop(&[]));
        assert!(!path_has_loop(&a(&[7])));
    }

    #[test]
    fn reserved_asn_detection() {
        let path = [Asn(3320), Asn(64512), Asn(174)];
        assert!(path_has_reserved_asn(&path));
        let clean = [Asn(3320), Asn(1299), Asn(174)];
        assert!(!path_has_reserved_asn(&clean));
    }

    #[test]
    fn full_predicate() {
        let f = BogonFilter::new();
        let clean_path = [Asn(3320), Asn(1299)];
        assert!(route_is_clean(&f, &pfx("193.0.0.0/21"), &clean_path));
        assert!(!route_is_clean(&f, &pfx("10.0.0.0/8"), &clean_path));
        assert!(!route_is_clean(
            &f,
            &pfx("193.0.0.0/21"),
            &[Asn(3320), Asn(0)]
        ));
        assert!(!route_is_clean(
            &f,
            &pfx("193.0.0.0/21"),
            &[Asn(1), Asn(2), Asn(1)]
        ));
    }
}
