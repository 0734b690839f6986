//! AS-level topology generation and valley-free path computation.
//!
//! The model is the classic three-tier hierarchy:
//!
//! * **Tier 1** — a small transit-free clique, fully peered,
//! * **Tier 2** — regional transit providers, each buying transit from
//!   2–3 tier-1s and peering with a few other tier-2s,
//! * **Stubs** — edge networks buying transit from 1–3 tier-2s.
//!
//! Organizations own 1–4 ASes each (multi-AS organizations are what
//! makes the paper's extension (iv) — intra-org delegation filtering —
//! necessary). Paths follow Gao-Rexford valley-free routing: an AS
//! path is a sequence of customer→provider hops, at most one peer
//! hop, then provider→customer hops.

use nettypes::asn::Asn;
use rand::prelude::*;
use rand_pcg::Pcg64Mcg;
use registry::org::OrgId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The role of an AS in the hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Tier {
    /// Transit-free clique member.
    Tier1,
    /// Regional transit provider.
    Tier2,
    /// Edge network.
    Stub,
}

/// One AS in the topology.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AsNode {
    /// The AS number.
    pub asn: Asn,
    /// Hierarchy role.
    pub tier: Tier,
    /// Owning organization.
    pub org: OrgId,
}

/// Configuration for topology generation.
#[derive(Clone, Debug)]
pub struct TopologyConfig {
    /// RNG seed.
    pub seed: u64,
    /// Tier-1 clique size.
    pub num_tier1: usize,
    /// Number of tier-2 transits.
    pub num_tier2: usize,
    /// Number of stub ASes.
    pub num_stubs: usize,
    /// Fraction of organizations owning more than one AS.
    pub multi_as_org_fraction: f64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            seed: 1,
            num_tier1: 8,
            num_tier2: 60,
            num_stubs: 600,
            multi_as_org_fraction: 0.12,
        }
    }
}

/// An AS-level topology with inter-AS relationships.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<AsNode>,
    /// asn → index into `nodes`.
    #[serde(skip)]
    index: BTreeMap<Asn, usize>,
    /// Customer → providers.
    providers: BTreeMap<Asn, Vec<Asn>>,
    /// Provider → customers.
    customers: BTreeMap<Asn, Vec<Asn>>,
    /// Symmetric peering.
    peers: BTreeMap<Asn, Vec<Asn>>,
    /// org → ASes (ordered so iteration is deterministic).
    org_ases: BTreeMap<OrgId, Vec<Asn>>,
    /// Dense adjacency: node index → provider node indices, in the
    /// same order as `providers` — so the BFS expansion order (and
    /// therefore every computed path) is identical to the `Asn`-keyed
    /// view.
    #[serde(skip)]
    dense_providers: Vec<Vec<usize>>,
    /// Node index → peer node indices (order-preserving).
    #[serde(skip)]
    dense_peers: Vec<Vec<usize>>,
    /// Node index → customer node indices (order-preserving).
    #[serde(skip)]
    dense_customers: Vec<Vec<usize>>,
}

/// Build the index-space adjacency for one relationship map,
/// preserving the per-AS neighbor order.
fn dense_adjacency(
    nodes: &[AsNode],
    index: &BTreeMap<Asn, usize>,
    map: &BTreeMap<Asn, Vec<Asn>>,
) -> Vec<Vec<usize>> {
    nodes
        .iter()
        .map(|n| {
            map.get(&n.asn)
                .map(|neighbors| {
                    neighbors
                        .iter()
                        .filter_map(|a| index.get(a).copied())
                        .collect()
                })
                .unwrap_or_default()
        })
        .collect()
}

impl Topology {
    /// Generate a topology from a config. ASNs are assigned densely
    /// starting at 1000 (well clear of reserved ranges).
    pub fn generate(config: &TopologyConfig) -> Topology {
        let span = obs::span!(
            "topology_build",
            ases = config.num_tier1 + config.num_tier2 + config.num_stubs,
            unit = "ases",
        );
        span.add_items((config.num_tier1 + config.num_tier2 + config.num_stubs) as u64);
        // Salted so other substrates given the same user seed do not
        // share this RNG stream.
        let mut rng = Pcg64Mcg::seed_from_u64(config.seed ^ 0x7090_10D1_0000_0001);
        let mut nodes = Vec::new();
        let mut providers: BTreeMap<Asn, Vec<Asn>> = BTreeMap::new();
        let mut customers: BTreeMap<Asn, Vec<Asn>> = BTreeMap::new();
        let mut peers: BTreeMap<Asn, Vec<Asn>> = BTreeMap::new();
        let mut org_ases: BTreeMap<OrgId, Vec<Asn>> = BTreeMap::new();

        let total = config.num_tier1 + config.num_tier2 + config.num_stubs;
        // Organization assignment: some orgs own several ASes.
        let mut org_of_as: Vec<OrgId> = Vec::with_capacity(total);
        let mut next_org = 0u32;
        let mut i = 0usize;
        while i < total {
            let org = OrgId(next_org);
            next_org += 1;
            let extra = if rng.gen::<f64>() < config.multi_as_org_fraction {
                rng.gen_range(1..=3usize)
            } else {
                0
            };
            for _ in 0..=extra {
                if i >= total {
                    break;
                }
                org_of_as.push(org);
                i += 1;
            }
        }

        let asn_at = |i: usize| Asn(1000 + i as u32);

        for (i, &org) in org_of_as.iter().enumerate().take(total) {
            let tier = if i < config.num_tier1 {
                Tier::Tier1
            } else if i < config.num_tier1 + config.num_tier2 {
                Tier::Tier2
            } else {
                Tier::Stub
            };
            let asn = asn_at(i);
            nodes.push(AsNode { asn, tier, org });
            org_ases.entry(org).or_default().push(asn);
        }

        let tier1: Vec<Asn> = (0..config.num_tier1).map(asn_at).collect();
        let tier2: Vec<Asn> = (config.num_tier1..config.num_tier1 + config.num_tier2)
            .map(asn_at)
            .collect();

        // Tier-1 full mesh peering.
        for (i, &a) in tier1.iter().enumerate() {
            for &b in &tier1[i + 1..] {
                peers.entry(a).or_default().push(b);
                peers.entry(b).or_default().push(a);
            }
        }

        // Tier-2: 2–3 tier-1 providers, a few tier-2 peers.
        for &t2 in &tier2 {
            let n_prov = rng.gen_range(2..=3usize).min(tier1.len());
            let provs: Vec<Asn> = tier1.choose_multiple(&mut rng, n_prov).copied().collect();
            for p in provs {
                providers.entry(t2).or_default().push(p);
                customers.entry(p).or_default().push(t2);
            }
        }
        for (i, &a) in tier2.iter().enumerate() {
            for &b in &tier2[i + 1..] {
                if rng.gen::<f64>() < 0.06 {
                    peers.entry(a).or_default().push(b);
                    peers.entry(b).or_default().push(a);
                }
            }
        }

        // Stubs: 1–3 tier-2 providers.
        for i in config.num_tier1 + config.num_tier2..total {
            let stub = asn_at(i);
            let n_prov = rng.gen_range(1..=3usize).min(tier2.len());
            let provs: Vec<Asn> = tier2.choose_multiple(&mut rng, n_prov).copied().collect();
            for p in provs {
                providers.entry(stub).or_default().push(p);
                customers.entry(p).or_default().push(stub);
            }
        }

        let index: BTreeMap<Asn, usize> =
            nodes.iter().enumerate().map(|(i, n)| (n.asn, i)).collect();

        let dense_providers = dense_adjacency(&nodes, &index, &providers);
        let dense_peers = dense_adjacency(&nodes, &index, &peers);
        let dense_customers = dense_adjacency(&nodes, &index, &customers);

        Topology {
            nodes,
            index,
            providers,
            customers,
            peers,
            org_ases,
            dense_providers,
            dense_peers,
            dense_customers,
        }
    }

    /// All ASes.
    pub fn nodes(&self) -> &[AsNode] {
        &self.nodes
    }

    /// Look up a node.
    pub fn node(&self, asn: Asn) -> Option<&AsNode> {
        self.index.get(&asn).map(|&i| &self.nodes[i])
    }

    /// The owning organization of an AS, if known.
    pub fn org_of(&self, asn: Asn) -> Option<OrgId> {
        self.node(asn).map(|n| n.org)
    }

    /// All ASes of an organization.
    pub fn ases_of_org(&self, org: OrgId) -> &[Asn] {
        self.org_ases.get(&org).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Organizations owning more than one AS.
    pub fn multi_as_orgs(&self) -> impl Iterator<Item = (OrgId, &[Asn])> {
        self.org_ases
            .iter()
            .filter(|(_, v)| v.len() > 1)
            .map(|(o, v)| (*o, v.as_slice()))
    }

    /// ASes of a given tier.
    pub fn ases_of_tier(&self, tier: Tier) -> impl Iterator<Item = Asn> + '_ {
        self.nodes
            .iter()
            .filter(move |n| n.tier == tier)
            .map(|n| n.asn)
    }

    /// Providers of an AS.
    pub fn providers_of(&self, asn: Asn) -> &[Asn] {
        self.providers.get(&asn).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Peers of an AS.
    pub fn peers_of(&self, asn: Asn) -> &[Asn] {
        self.peers.get(&asn).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Customers of an AS.
    pub fn customers_of(&self, asn: Asn) -> &[Asn] {
        self.customers.get(&asn).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Compute a valley-free AS path from `from` (the observing /
    /// monitor AS) to `to` (the origin AS), inclusive on both ends.
    ///
    /// Search is a BFS over states (AS, phase) where phase encodes the
    /// Gao-Rexford export restrictions. From the monitor's point of
    /// view the path to the origin must be the *reverse* of a valid
    /// propagation path from the origin, which is itself valley-free;
    /// valley-freeness is symmetric, so we search forward from `from`
    /// with phases: Up (customer→provider hops), then at most one Peer
    /// hop, then Down (provider→customer hops).
    ///
    /// Returns `None` when no valley-free path exists.
    ///
    /// The search runs over dense states `node_idx * 3 + phase` with
    /// flat seen/parent vectors — no hashing — but expands neighbors
    /// in exactly the order of the `Asn`-keyed adjacency, so the
    /// returned path is identical to the historical `(Asn, Phase)`
    /// hash-set BFS.
    pub fn path(&self, from: Asn, to: Asn) -> Option<Vec<Asn>> {
        if from == to {
            return Some(vec![from]);
        }
        let fi = *self.index.get(&from)?;
        let ti = *self.index.get(&to)?;

        const UP: usize = 0;
        const PEERED: usize = 1;
        const DOWN: usize = 2;

        let n = self.nodes.len();
        let mut seen = vec![false; n * 3];
        // Packed predecessor state per state; `usize::MAX` = unvisited.
        let mut parent = vec![usize::MAX; n * 3];
        // FIFO queue of packed states, drained by cursor.
        let mut queue: Vec<usize> = Vec::with_capacity(256);
        let start = fi * 3 + UP;
        seen[start] = true;
        queue.push(start);
        let mut head = 0usize;

        let mut found = usize::MAX;
        'bfs: while head < queue.len() {
            let state = queue[head];
            head += 1;
            let (ni, phase) = (state / 3, state % 3);
            let mut push = |next_state: usize| -> bool {
                if !seen[next_state] {
                    seen[next_state] = true;
                    parent[next_state] = state;
                    if next_state / 3 == ti {
                        return true;
                    }
                    queue.push(next_state);
                }
                false
            };

            if phase == UP {
                for &p in &self.dense_providers[ni] {
                    if push(p * 3 + UP) {
                        found = p * 3 + UP;
                        break 'bfs;
                    }
                }
                for &p in &self.dense_peers[ni] {
                    if push(p * 3 + PEERED) {
                        found = p * 3 + PEERED;
                        break 'bfs;
                    }
                }
            }
            for &c in &self.dense_customers[ni] {
                if push(c * 3 + DOWN) {
                    found = c * 3 + DOWN;
                    break 'bfs;
                }
            }
        }

        if found == usize::MAX {
            return None;
        }
        let mut state = found;
        let mut path = vec![self.nodes[state / 3].asn];
        while state != start {
            state = parent[state];
            path.push(self.nodes[state / 3].asn);
        }
        path.reverse();
        Some(path)
    }

    /// Valley-free paths from `from` to *every* topology node in one
    /// BFS: `paths_from(a)?[i]` equals `path(a, nodes()[i].asn)` for
    /// each dense index `i` (`None` where no valley-free path exists).
    ///
    /// Identical by construction: this is [`Topology::path`] without
    /// the early exit. The exit only skips queueing the found state,
    /// which cannot change the discovery order — and therefore the
    /// parent chain — of any state discovered before it; recording the
    /// *first* state at which each node is discovered captures exactly
    /// the state `path` would have stopped at for that target.
    ///
    /// One BFS instead of one per `(from, to)` pair is what makes a
    /// shared cross-day attribute table affordable for MRT encoding.
    ///
    /// Returns `None` when `from` is not in the topology.
    pub fn paths_from(&self, from: Asn) -> Option<Vec<Option<Vec<Asn>>>> {
        let fi = *self.index.get(&from)?;

        const UP: usize = 0;
        const PEERED: usize = 1;
        const DOWN: usize = 2;

        let n = self.nodes.len();
        let mut seen = vec![false; n * 3];
        let mut parent = vec![usize::MAX; n * 3];
        // The first state at which each node was discovered.
        let mut first = vec![usize::MAX; n];
        let mut queue: Vec<usize> = Vec::with_capacity(n);
        let start = fi * 3 + UP;
        seen[start] = true;
        first[fi] = start;
        queue.push(start);
        let mut head = 0usize;
        while head < queue.len() {
            let state = queue[head];
            head += 1;
            let (ni, phase) = (state / 3, state % 3);
            let mut push = |next_state: usize| {
                if !seen[next_state] {
                    seen[next_state] = true;
                    parent[next_state] = state;
                    if first[next_state / 3] == usize::MAX {
                        first[next_state / 3] = next_state;
                    }
                    queue.push(next_state);
                }
            };
            if phase == UP {
                for &p in &self.dense_providers[ni] {
                    push(p * 3 + UP);
                }
                for &p in &self.dense_peers[ni] {
                    push(p * 3 + PEERED);
                }
            }
            for &c in &self.dense_customers[ni] {
                push(c * 3 + DOWN);
            }
        }

        let mut out: Vec<Option<Vec<Asn>>> = Vec::with_capacity(n);
        for (ti, &first_state) in first.iter().enumerate() {
            if ti == fi {
                out.push(Some(vec![from]));
                continue;
            }
            if first_state == usize::MAX {
                out.push(None);
                continue;
            }
            let mut state = first_state;
            let mut path = vec![self.nodes[state / 3].asn];
            while state != start {
                state = parent[state];
                path.push(self.nodes[state / 3].asn);
            }
            path.reverse();
            out.push(Some(path));
        }
        Some(out)
    }

    /// The dense node index of an AS — the key space for flat
    /// per-node caches (e.g. the render engine's path cache).
    pub fn index_of(&self, asn: Asn) -> Option<usize> {
        self.index.get(&asn).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small() -> Topology {
        Topology::generate(&TopologyConfig {
            seed: 3,
            num_tier1: 4,
            num_tier2: 12,
            num_stubs: 80,
            multi_as_org_fraction: 0.2,
        })
    }

    #[test]
    fn generation_counts() {
        let t = small();
        assert_eq!(t.nodes().len(), 96);
        assert_eq!(t.ases_of_tier(Tier::Tier1).count(), 4);
        assert_eq!(t.ases_of_tier(Tier::Tier2).count(), 12);
        assert_eq!(t.ases_of_tier(Tier::Stub).count(), 80);
    }

    #[test]
    fn deterministic() {
        let cfg = TopologyConfig::default();
        let a = Topology::generate(&cfg);
        let b = Topology::generate(&cfg);
        assert_eq!(
            a.nodes().iter().map(|n| (n.asn, n.org)).collect::<Vec<_>>(),
            b.nodes().iter().map(|n| (n.asn, n.org)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn asns_are_routable() {
        let t = small();
        for n in t.nodes() {
            assert!(n.asn.is_routable(), "{} reserved", n.asn);
        }
    }

    #[test]
    fn every_non_tier1_has_provider() {
        let t = small();
        for n in t.nodes() {
            match n.tier {
                Tier::Tier1 => assert!(t.providers_of(n.asn).is_empty()),
                _ => assert!(
                    !t.providers_of(n.asn).is_empty(),
                    "{} lacks providers",
                    n.asn
                ),
            }
        }
    }

    #[test]
    fn multi_as_orgs_exist() {
        let t = small();
        let multi: Vec<_> = t.multi_as_orgs().collect();
        assert!(!multi.is_empty());
        for (org, ases) in multi {
            assert!(ases.len() >= 2);
            for &a in ases {
                assert_eq!(t.org_of(a), Some(org));
            }
        }
    }

    /// Validate a path is valley-free w.r.t. the topology.
    fn assert_valley_free(t: &Topology, path: &[Asn]) {
        #[derive(PartialEq, PartialOrd)]
        enum Dir {
            Up,
            Peer,
            Down,
        }
        let mut max_phase = Dir::Up;
        for w in path.windows(2) {
            let (a, b) = (w[0], w[1]);
            let dir = if t.providers_of(a).contains(&b) {
                Dir::Up
            } else if t.peers_of(a).contains(&b) {
                Dir::Peer
            } else if t.customers_of(a).contains(&b) {
                Dir::Down
            } else {
                panic!("{a} and {b} are not adjacent");
            };
            assert!(
                dir >= max_phase,
                "valley: {:?} after {:?}",
                path.iter().map(|a| a.0).collect::<Vec<_>>(),
                a
            );
            if dir == Dir::Peer {
                assert!(max_phase < Dir::Peer, "two peer hops");
            }
            max_phase = dir;
        }
    }

    #[test]
    fn paths_exist_and_are_valley_free() {
        let t = small();
        let stubs: Vec<Asn> = t.ases_of_tier(Tier::Stub).collect();
        let mut found = 0;
        for i in (0..stubs.len()).step_by(7) {
            for j in (1..stubs.len()).step_by(11) {
                if i == j {
                    continue;
                }
                if let Some(p) = t.path(stubs[i], stubs[j]) {
                    assert_eq!(p.first(), Some(&stubs[i]));
                    assert_eq!(p.last(), Some(&stubs[j]));
                    // No duplicate ASes (loop-free).
                    let set: HashSet<_> = p.iter().collect();
                    assert_eq!(set.len(), p.len(), "loop in {p:?}");
                    assert_valley_free(&t, &p);
                    found += 1;
                }
            }
        }
        assert!(found > 10, "expected many stub-stub paths, got {found}");
    }

    #[test]
    fn path_to_self_and_unknown() {
        let t = small();
        let a = t.nodes()[0].asn;
        assert_eq!(t.path(a, a), Some(vec![a]));
        assert_eq!(t.path(a, Asn(9)), None);
        assert_eq!(t.path(Asn(9), a), None);
    }

    #[test]
    fn tier1_pair_path_is_short() {
        let t = small();
        let t1: Vec<Asn> = t.ases_of_tier(Tier::Tier1).collect();
        let p = t.path(t1[0], t1[1]).unwrap();
        assert_eq!(p.len(), 2, "tier-1s peer directly: {p:?}");
    }

    #[test]
    fn paths_from_matches_pairwise_path_exactly() {
        let t = small();
        // Sources across all tiers, targets = every node: the single
        // full BFS must reproduce the early-exit BFS verbatim (the MRT
        // attribute table relies on this equality for byte-identity).
        for (si, src) in t.nodes().iter().enumerate() {
            if !si.is_multiple_of(9) {
                continue;
            }
            let all = t.paths_from(src.asn).expect("source in topology");
            assert_eq!(all.len(), t.nodes().len());
            for (ti, node) in t.nodes().iter().enumerate() {
                assert_eq!(
                    all[ti],
                    t.path(src.asn, node.asn),
                    "paths_from({}) differs from path({}, {})",
                    src.asn,
                    src.asn,
                    node.asn
                );
            }
        }
        assert_eq!(t.paths_from(Asn(9)), None);
    }
}
