//! RIR address-pool bookkeeping.
//!
//! A pool holds free CIDR blocks, allocates best-fit blocks to members,
//! accepts recovered space, and quarantines recovered blocks for a
//! configurable period (most RIRs: six months, §2) before they become
//! allocatable again.

use nettypes::date::Date;
use nettypes::prefix::Prefix;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Errors from pool operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// No free block of the requested (or any less specific) size.
    Exhausted {
        /// The requested prefix length.
        requested_len: u8,
    },
    /// A block was returned that overlaps space the pool already holds.
    OverlappingReturn(Prefix),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Exhausted { requested_len } => {
                write!(f, "pool exhausted: no space for a /{requested_len}")
            }
            PoolError::OverlappingReturn(p) => {
                write!(f, "returned block {p} overlaps pool-held space")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// An RIR's IPv4 address pool with buddy-style free-block management
/// and a quarantine queue for recovered space.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct AddressPool {
    /// Free blocks by prefix length; each bucket sorted ascending.
    free: BTreeMap<u8, Vec<Prefix>>,
    /// Recovered blocks queued until their release date.
    quarantine: Vec<(Date, Prefix)>,
}

impl AddressPool {
    /// An empty pool.
    pub fn new() -> Self {
        AddressPool::default()
    }

    /// A pool seeded with the given free blocks.
    pub fn with_blocks(blocks: impl IntoIterator<Item = Prefix>) -> Self {
        let mut pool = AddressPool::new();
        for b in blocks {
            pool.add_free(b);
        }
        pool
    }

    fn add_free(&mut self, block: Prefix) {
        let bucket = self.free.entry(block.len()).or_default();
        match bucket.binary_search(&block) {
            Ok(_) => {} // duplicate; ignore
            Err(pos) => bucket.insert(pos, block),
        }
        self.coalesce(block);
    }

    /// Merge freed buddies into parents greedily.
    fn coalesce(&mut self, mut block: Prefix) {
        while block.len() > 0 {
            let sibling = block.sibling().expect("len > 0");
            let Some(bucket) = self.free.get_mut(&block.len()) else {
                return;
            };
            let (Ok(i), Ok(j)) = (bucket.binary_search(&block), bucket.binary_search(&sibling))
            else {
                return;
            };
            let (lo, hi) = if i < j { (i, j) } else { (j, i) };
            bucket.remove(hi);
            bucket.remove(lo);
            if bucket.is_empty() {
                self.free.remove(&block.len());
            }
            let parent = block.parent().expect("len > 0");
            let pbucket = self.free.entry(parent.len()).or_default();
            if let Err(pos) = pbucket.binary_search(&parent) {
                pbucket.insert(pos, parent);
            }
            block = parent;
        }
    }

    /// Total free (non-quarantined) addresses.
    pub fn free_addresses(&self) -> u64 {
        self.free
            .values()
            .flatten()
            .map(|p| p.num_addresses())
            .sum()
    }

    /// Addresses currently held in quarantine.
    pub fn quarantined_addresses(&self) -> u64 {
        self.quarantine.iter().map(|(_, p)| p.num_addresses()).sum()
    }

    /// Whether the pool can currently satisfy an allocation of the
    /// given length.
    pub fn can_allocate(&self, len: u8) -> bool {
        self.free.keys().any(|&l| l <= len)
    }

    /// Allocate a block of exactly `len`, splitting a larger free block
    /// if necessary (buddy allocation). Returns the allocated prefix.
    pub fn allocate(&mut self, len: u8) -> Result<Prefix, PoolError> {
        // Find the most specific free bucket that can satisfy the request.
        let source_len = self
            .free
            .iter()
            .filter(|(l, blocks)| **l <= len && !blocks.is_empty())
            .map(|(l, _)| *l)
            .max()
            .ok_or(PoolError::Exhausted { requested_len: len })?;
        let bucket = self.free.get_mut(&source_len).expect("bucket exists");
        let mut block = bucket.remove(0);
        if bucket.is_empty() {
            self.free.remove(&source_len);
        }
        // Split down to the requested size, returning siblings to the pool.
        while block.len() < len {
            let (lo, hi) = block.children().expect("len < 32");
            let bucket = self.free.entry(hi.len()).or_default();
            match bucket.binary_search(&hi) {
                Ok(_) => {}
                Err(pos) => bucket.insert(pos, hi),
            }
            block = lo;
        }
        Ok(block)
    }

    /// Accept recovered address space; it becomes allocatable only
    /// after `release` (the quarantine end date).
    pub fn recover(&mut self, block: Prefix, release: Date) {
        self.quarantine.push((release, block));
    }

    /// Release all quarantined blocks whose quarantine ends on or
    /// before `today` into the free pool. Returns how many addresses
    /// were released.
    pub fn tick(&mut self, today: Date) -> u64 {
        let (release_now, keep): (Vec<_>, Vec<_>) = self
            .quarantine
            .drain(..)
            .partition(|(release, _)| *release <= today);
        self.quarantine = keep;
        let mut released = 0u64;
        for (_, block) in release_now {
            released += block.num_addresses();
            self.add_free(block);
        }
        released
    }

    /// Iterate free blocks (sorted by length then address).
    pub fn free_blocks(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.free.values().flatten().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettypes::date::date;
    use nettypes::prefix::pfx;
    use proptest::prelude::*;

    #[test]
    fn allocate_exact_fit() {
        let mut pool = AddressPool::with_blocks([pfx("193.0.0.0/8")]);
        let p = pool.allocate(8).unwrap();
        assert_eq!(p, pfx("193.0.0.0/8"));
        assert!(!pool.can_allocate(8));
        assert_eq!(pool.free_addresses(), 0);
    }

    #[test]
    fn allocate_splits() {
        let mut pool = AddressPool::with_blocks([pfx("193.0.0.0/8")]);
        let p = pool.allocate(24).unwrap();
        assert_eq!(p.len(), 24);
        assert!(pfx("193.0.0.0/8").covers(&p));
        assert_eq!(pool.free_addresses(), (1 << 24) - 256);
        // Allocations never overlap.
        let q = pool.allocate(24).unwrap();
        assert!(!p.overlaps(&q));
    }

    #[test]
    fn exhaustion_error() {
        let mut pool = AddressPool::with_blocks([pfx("193.0.0.0/24")]);
        assert!(pool.allocate(22).is_err());
        assert!(pool.allocate(24).is_ok());
        assert_eq!(
            pool.allocate(24),
            Err(PoolError::Exhausted { requested_len: 24 })
        );
    }

    #[test]
    fn quarantine_release() {
        let mut pool = AddressPool::new();
        pool.recover(pfx("10.0.0.0/22"), date("2020-06-01"));
        assert_eq!(pool.free_addresses(), 0);
        assert_eq!(pool.quarantined_addresses(), 1024);
        assert!(!pool.can_allocate(22));
        assert_eq!(pool.tick(date("2020-05-31")), 0);
        assert!(!pool.can_allocate(22));
        assert_eq!(pool.tick(date("2020-06-01")), 1024);
        assert!(pool.can_allocate(22));
        assert_eq!(pool.quarantined_addresses(), 0);
    }

    #[test]
    fn coalescing_rebuilds_parent() {
        let mut pool = AddressPool::with_blocks([pfx("10.0.0.0/8")]);
        let a = pool.allocate(9).unwrap();
        let b = pool.allocate(9).unwrap();
        assert_eq!(pool.free_addresses(), 0);
        pool.recover(a, date("2020-01-01"));
        pool.recover(b, date("2020-01-01"));
        pool.tick(date("2020-01-01"));
        // The two /9s coalesce back into the /8.
        assert_eq!(
            pool.free_blocks().collect::<Vec<_>>(),
            vec![pfx("10.0.0.0/8")]
        );
    }

    #[test]
    fn allocate_prefers_tightest_fit() {
        // With a /24 and a /8 free, a /24 request must come from the /24,
        // leaving the /8 intact.
        let mut pool = AddressPool::with_blocks([pfx("10.0.0.0/8"), pfx("192.0.2.0/24")]);
        let p = pool.allocate(24).unwrap();
        assert_eq!(p, pfx("192.0.2.0/24"));
        assert!(pool.free_blocks().any(|b| b == pfx("10.0.0.0/8")));
    }

    proptest! {
        #[test]
        fn prop_allocations_disjoint_and_conserving(lens in proptest::collection::vec(10u8..=24, 1..50)) {
            let base = pfx("20.0.0.0/8");
            let mut pool = AddressPool::with_blocks([base]);
            let initial = pool.free_addresses();
            let mut allocated: Vec<Prefix> = Vec::new();
            let mut alloc_total = 0u64;
            for len in lens {
                if let Ok(p) = pool.allocate(len) {
                    prop_assert_eq!(p.len(), len);
                    prop_assert!(base.covers(&p));
                    for q in &allocated {
                        prop_assert!(!p.overlaps(q), "{} overlaps {}", p, q);
                    }
                    alloc_total += p.num_addresses();
                    allocated.push(p);
                }
            }
            prop_assert_eq!(pool.free_addresses() + alloc_total, initial);
        }

        #[test]
        fn prop_recover_all_restores_pool(lens in proptest::collection::vec(10u8..=24, 1..30)) {
            let base = pfx("20.0.0.0/8");
            let mut pool = AddressPool::with_blocks([base]);
            let mut allocated = Vec::new();
            for len in lens {
                if let Ok(p) = pool.allocate(len) {
                    allocated.push(p);
                }
            }
            let release = date("2021-01-01");
            for p in allocated {
                pool.recover(p, release);
            }
            pool.tick(release);
            prop_assert_eq!(pool.free_blocks().collect::<Vec<_>>(), vec![base]);
        }
    }
}
