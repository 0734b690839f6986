//! A binary trie keyed by IPv4 prefixes.
//!
//! The trie supports exact lookup, longest-prefix match, and the two
//! coverage queries the delegation-inference pipeline is built on:
//! *covered* (all entries at or below a prefix — candidate delegatees)
//! and *covering* (all entries above an address — candidate delegators).
//!
//! Nodes are stored in a flat arena (`Vec`) with index links, which
//! keeps the structure cache-friendly and avoids `Box`-chasing; this is
//! the usual idiom for routing-table tries in Rust networking code.

use crate::prefix::Prefix;
use std::fmt;

const NO_NODE: u32 = u32::MAX;

#[derive(Clone)]
struct Node<V> {
    children: [u32; 2],
    value: Option<V>,
}

impl<V> Node<V> {
    fn new() -> Self {
        Node {
            children: [NO_NODE, NO_NODE],
            value: None,
        }
    }
}

/// A map from [`Prefix`] to `V` supporting longest-prefix match and
/// coverage queries.
#[derive(Clone)]
pub struct PrefixTrie<V> {
    nodes: Vec<Node<V>>,
    len: usize,
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> PrefixTrie<V> {
    /// Create an empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            nodes: vec![Node::new()],
            len: 0,
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trie is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove all entries but keep allocated capacity.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.nodes.push(Node::new());
        self.len = 0;
    }

    fn descend(&self, prefix: &Prefix) -> Option<usize> {
        let mut idx = 0usize;
        for i in 0..prefix.len() {
            let bit = prefix.bit(i) as usize;
            let next = self.nodes[idx].children[bit];
            if next == NO_NODE {
                return None;
            }
            idx = next as usize;
        }
        Some(idx)
    }

    /// Insert a value, returning the previous value for the prefix if any.
    pub fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        let mut idx = 0usize;
        for i in 0..prefix.len() {
            let bit = prefix.bit(i) as usize;
            let next = self.nodes[idx].children[bit];
            idx = if next == NO_NODE {
                let new_idx = self.nodes.len() as u32;
                self.nodes.push(Node::new());
                self.nodes[idx].children[bit] = new_idx;
                new_idx as usize
            } else {
                next as usize
            };
        }
        let old = self.nodes[idx].value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: &Prefix) -> Option<&V> {
        self.descend(prefix)
            .and_then(|idx| self.nodes[idx].value.as_ref())
    }

    /// Exact-match mutable lookup.
    pub fn get_mut(&mut self, prefix: &Prefix) -> Option<&mut V> {
        self.descend(prefix)
            .and_then(|idx| self.nodes[idx].value.as_mut())
    }

    /// Whether the exact prefix is present.
    pub fn contains(&self, prefix: &Prefix) -> bool {
        self.get(prefix).is_some()
    }

    /// Remove a prefix, returning its value. (The node chain is left in
    /// place; the arena is reclaimed only by [`PrefixTrie::clear`].)
    pub fn remove(&mut self, prefix: &Prefix) -> Option<V> {
        let idx = self.descend(prefix)?;
        let old = self.nodes[idx].value.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Longest-prefix match for an address: the most-specific stored
    /// prefix containing `addr`, together with its value.
    pub fn longest_match(&self, addr: u32) -> Option<(Prefix, &V)> {
        self.longest_match_upto(addr, 32)
    }

    /// Longest-prefix match considering only stored prefixes of length
    /// `<= max_len`. `longest_match_upto(addr, 32)` equals
    /// [`PrefixTrie::longest_match`].
    pub fn longest_match_upto(&self, addr: u32, max_len: u8) -> Option<(Prefix, &V)> {
        let mut idx = 0usize;
        let mut best: Option<(Prefix, &V)> = None;
        for depth in 0..=max_len.min(32) {
            if let Some(v) = self.nodes[idx].value.as_ref() {
                best = Some((Prefix::new_unchecked_masked(addr, depth), v));
            }
            if depth == 32 {
                break;
            }
            let bit = ((addr >> (31 - depth)) & 1) as usize;
            let next = self.nodes[idx].children[bit];
            if next == NO_NODE {
                break;
            }
            idx = next as usize;
        }
        best
    }

    /// All stored prefixes *strictly less specific* than `prefix` that
    /// cover it, from least to most specific — the candidate delegators
    /// for a route.
    pub fn covering(&self, prefix: &Prefix) -> Vec<(Prefix, &V)> {
        let mut out = Vec::new();
        let mut idx = 0usize;
        let addr = prefix.network();
        for depth in 0..prefix.len() {
            if let Some(v) = self.nodes[idx].value.as_ref() {
                out.push((Prefix::new_unchecked_masked(addr, depth), v));
            }
            let bit = ((addr >> (31 - depth)) & 1) as usize;
            let next = self.nodes[idx].children[bit];
            if next == NO_NODE {
                return out;
            }
            idx = next as usize;
        }
        out
    }

    /// The most specific stored prefix strictly covering `prefix`,
    /// i.e. its nearest ancestor in routing terms.
    pub fn nearest_ancestor(&self, prefix: &Prefix) -> Option<(Prefix, &V)> {
        self.covering(prefix).into_iter().last()
    }

    /// All stored prefixes covered by `prefix` (including `prefix`
    /// itself if stored), in sorted order — the candidate delegatee
    /// routes under an allocation.
    pub fn covered(&self, prefix: &Prefix) -> Vec<(Prefix, &V)> {
        let mut out = Vec::new();
        if let Some(idx) = self.descend(prefix) {
            self.walk(idx, *prefix, &mut |p, v| out.push((p, v)));
        }
        out
    }

    fn walk<'a>(&'a self, idx: usize, prefix: Prefix, f: &mut impl FnMut(Prefix, &'a V)) {
        if let Some(v) = self.nodes[idx].value.as_ref() {
            f(prefix, v);
        }
        if prefix.len() == 32 {
            return;
        }
        let (l, r) = prefix.children().expect("len < 32");
        let lc = self.nodes[idx].children[0];
        if lc != NO_NODE {
            self.walk(lc as usize, l, f);
        }
        let rc = self.nodes[idx].children[1];
        if rc != NO_NODE {
            self.walk(rc as usize, r, f);
        }
    }

    /// Iterate all `(prefix, value)` pairs in sorted order.
    pub fn iter(&self) -> Vec<(Prefix, &V)> {
        self.covered(&Prefix::DEFAULT)
    }

    /// Visit all `(prefix, value)` pairs in sorted order without
    /// materializing a Vec.
    pub fn for_each<'a>(&'a self, mut f: impl FnMut(Prefix, &'a V)) {
        self.walk(0, Prefix::DEFAULT, &mut f);
    }
}

impl<V: fmt::Debug> fmt::Debug for PrefixTrie<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.iter().into_iter().map(|(p, v)| (p.to_string(), v)))
            .finish()
    }
}

impl<V> FromIterator<(Prefix, V)> for PrefixTrie<V> {
    fn from_iter<T: IntoIterator<Item = (Prefix, V)>>(iter: T) -> Self {
        let mut t = PrefixTrie::new();
        for (p, v) in iter {
            t.insert(p, v);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::pfx;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn sample() -> PrefixTrie<&'static str> {
        let mut t = PrefixTrie::new();
        t.insert(pfx("10.0.0.0/8"), "eight");
        t.insert(pfx("10.0.0.0/16"), "sixteen");
        t.insert(pfx("10.0.1.0/24"), "twentyfour");
        t.insert(pfx("192.0.2.0/24"), "doc");
        t
    }

    #[test]
    fn insert_get_remove() {
        let mut t = sample();
        assert_eq!(t.len(), 4);
        assert_eq!(t.get(&pfx("10.0.0.0/16")), Some(&"sixteen"));
        assert_eq!(t.get(&pfx("10.0.0.0/15")), None);
        assert_eq!(t.insert(pfx("10.0.0.0/16"), "replaced"), Some("sixteen"));
        assert_eq!(t.len(), 4);
        assert_eq!(t.remove(&pfx("10.0.0.0/16")), Some("replaced"));
        assert_eq!(t.remove(&pfx("10.0.0.0/16")), None);
        assert_eq!(t.len(), 3);
        assert!(!t.contains(&pfx("10.0.0.0/16")));
        // Deeper entries survive removal of the middle node.
        assert_eq!(t.get(&pfx("10.0.1.0/24")), Some(&"twentyfour"));
    }

    #[test]
    fn longest_match_basics() {
        let t = sample();
        let (p, v) = t
            .longest_match(crate::parse_ipv4("10.0.1.77").unwrap())
            .unwrap();
        assert_eq!((p, *v), (pfx("10.0.1.0/24"), "twentyfour"));
        let (p, v) = t
            .longest_match(crate::parse_ipv4("10.0.2.1").unwrap())
            .unwrap();
        assert_eq!((p, *v), (pfx("10.0.0.0/16"), "sixteen"));
        let (p, v) = t
            .longest_match(crate::parse_ipv4("10.9.9.9").unwrap())
            .unwrap();
        assert_eq!((p, *v), (pfx("10.0.0.0/8"), "eight"));
        assert!(t
            .longest_match(crate::parse_ipv4("11.0.0.1").unwrap())
            .is_none());
    }

    #[test]
    fn longest_match_upto_limits_depth() {
        let t = sample();
        let addr = crate::parse_ipv4("10.0.1.77").unwrap();
        let (p, _) = t.longest_match_upto(addr, 16).unwrap();
        assert_eq!(p, pfx("10.0.0.0/16"));
        let (p, _) = t.longest_match_upto(addr, 8).unwrap();
        assert_eq!(p, pfx("10.0.0.0/8"));
        assert!(t.longest_match_upto(addr, 7).is_none());
    }

    #[test]
    fn default_route_matches_all() {
        let mut t = PrefixTrie::new();
        t.insert(Prefix::DEFAULT, 0u8);
        assert_eq!(t.longest_match(0).unwrap().0, Prefix::DEFAULT);
        assert_eq!(t.longest_match(u32::MAX).unwrap().0, Prefix::DEFAULT);
    }

    #[test]
    fn default_route_edge_cases() {
        let mut t = PrefixTrie::new();
        assert_eq!(t.insert(Prefix::DEFAULT, "v0"), None);
        assert_eq!(t.len(), 1);
        // Duplicate insert replaces the value without growing the trie.
        assert_eq!(t.insert(Prefix::DEFAULT, "v1"), Some("v0"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&Prefix::DEFAULT), Some(&"v1"));
        // Nothing is strictly less specific than /0.
        assert!(t.covering(&Prefix::DEFAULT).is_empty());
        assert!(t.nearest_ancestor(&Prefix::DEFAULT).is_none());
        // /0 strictly covers every other prefix.
        t.insert(pfx("128.0.0.0/1"), "half");
        let cov: Vec<Prefix> = t
            .covering(&pfx("128.0.0.0/1"))
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        assert_eq!(cov, vec![Prefix::DEFAULT]);
        // covered(/0) enumerates the whole trie, /0 first.
        let all: Vec<Prefix> = t
            .covered(&Prefix::DEFAULT)
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        assert_eq!(all, vec![Prefix::DEFAULT, pfx("128.0.0.0/1")]);
        // Removing /0 leaves deeper entries intact.
        assert_eq!(t.remove(&Prefix::DEFAULT), Some("v1"));
        assert_eq!(t.remove(&Prefix::DEFAULT), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&pfx("128.0.0.0/1")), Some(&"half"));
    }

    #[test]
    fn duplicate_inserts_keep_len_consistent() {
        let mut t = PrefixTrie::new();
        for round in 0..3 {
            t.insert(pfx("10.0.0.0/8"), round);
            t.insert(pfx("10.0.0.0/16"), round);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&pfx("10.0.0.0/8")), Some(&2));
        // Remove-then-reinsert restores the count.
        assert_eq!(t.remove(&pfx("10.0.0.0/8")), Some(2));
        assert_eq!(t.len(), 1);
        assert_eq!(t.insert(pfx("10.0.0.0/8"), 9), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn covering_and_covered() {
        let t = sample();
        let cov = t.covering(&pfx("10.0.1.0/24"));
        let cov: Vec<Prefix> = cov.into_iter().map(|(p, _)| p).collect();
        assert_eq!(cov, vec![pfx("10.0.0.0/8"), pfx("10.0.0.0/16")]);
        assert_eq!(
            t.nearest_ancestor(&pfx("10.0.1.0/24")).unwrap().0,
            pfx("10.0.0.0/16")
        );

        let under = t.covered(&pfx("10.0.0.0/8"));
        let under: Vec<Prefix> = under.into_iter().map(|(p, _)| p).collect();
        assert_eq!(
            under,
            vec![pfx("10.0.0.0/8"), pfx("10.0.0.0/16"), pfx("10.0.1.0/24")]
        );
        // Covered includes the prefix itself only when stored.
        assert!(t
            .covered(&pfx("10.0.0.0/9"))
            .iter()
            .all(|(p, _)| *p != pfx("10.0.0.0/9")));
    }

    #[test]
    fn iteration_sorted() {
        let t = sample();
        let all: Vec<Prefix> = t.iter().into_iter().map(|(p, _)| p).collect();
        let mut sorted = all.clone();
        sorted.sort();
        assert_eq!(all, sorted);
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn slash32_entries() {
        let mut t = PrefixTrie::new();
        t.insert(pfx("1.2.3.4/32"), ());
        assert!(t.contains(&pfx("1.2.3.4/32")));
        assert_eq!(
            t.longest_match(crate::parse_ipv4("1.2.3.4").unwrap())
                .unwrap()
                .0,
            pfx("1.2.3.4/32")
        );
        assert!(t
            .longest_match(crate::parse_ipv4("1.2.3.5").unwrap())
            .is_none());
    }

    fn arbitrary_prefix() -> impl Strategy<Value = Prefix> {
        (any::<u32>(), 0u8..=32).prop_map(|(n, l)| Prefix::new_unchecked_masked(n, l))
    }

    proptest! {
        #[test]
        fn prop_matches_btreemap_reference(
            entries in proptest::collection::vec((arbitrary_prefix(), any::<u16>()), 0..60),
            probes in proptest::collection::vec(any::<u32>(), 0..20),
        ) {
            let mut reference: BTreeMap<Prefix, u16> = BTreeMap::new();
            let mut trie = PrefixTrie::new();
            for (p, v) in &entries {
                reference.insert(*p, *v);
                trie.insert(*p, *v);
            }
            prop_assert_eq!(trie.len(), reference.len());

            // Exact gets agree.
            for (p, v) in &reference {
                prop_assert_eq!(trie.get(p), Some(v));
            }

            // LPM agrees with a linear scan.
            for addr in probes {
                let expect = reference
                    .iter()
                    .filter(|(p, _)| p.contains_address(addr))
                    .max_by_key(|(p, _)| p.len())
                    .map(|(p, v)| (*p, *v));
                let got = trie.longest_match(addr).map(|(p, v)| (p, *v));
                prop_assert_eq!(got, expect);
            }

            // Iteration is sorted and complete.
            let got: Vec<(Prefix, u16)> = trie.iter().into_iter().map(|(p, v)| (p, *v)).collect();
            let expect: Vec<(Prefix, u16)> = reference.iter().map(|(p, v)| (*p, *v)).collect();
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn prop_covered_covering_duality(
            entries in proptest::collection::vec(arbitrary_prefix(), 1..40),
            q in arbitrary_prefix(),
        ) {
            let trie: PrefixTrie<()> = entries.iter().map(|p| (*p, ())).collect();
            let covered: Vec<Prefix> = trie.covered(&q).into_iter().map(|(p, _)| p).collect();
            let covering: Vec<Prefix> = trie.covering(&q).into_iter().map(|(p, _)| p).collect();
            for p in &entries {
                let in_covered = q.covers(p);
                let in_covering = p.covers_strictly(&q);
                prop_assert_eq!(covered.contains(p), in_covered);
                prop_assert_eq!(covering.contains(p), in_covering);
            }
        }
    }
}
