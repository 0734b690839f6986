//! Ground-truth lease worlds.
//!
//! A [`LeaseWorld`] knows the *truth* the paper's measurement pipeline
//! can only estimate: which organization owns which block, which
//! sub-blocks are leased to whom and when, which of those leases are
//! ever announced in BGP, and which registry objects exist. The
//! observation layer ([`crate::observe`]) renders the world into daily
//! per-monitor route observations; inference quality can then be
//! scored against the truth.
//!
//! The generator engineers the phenomena §4 and Appendix A rest on:
//!
//! * most leases are **BGP-invisible** (reserved for future customers
//!   or simply not routed by the delegatee) — this is what makes the
//!   paper's "BGP covers only ~1.85 % of RDAP-delegated IPs" finding,
//! * a third of BGP-visible leases are **not registered** in the
//!   database (RDAP covers ~65.7 % of BGP-delegated IPs),
//! * announced leases show **on-off announcement patterns**,
//! * multi-AS organizations create **intra-org delegations** that are
//!   not leases (extension (iv) must filter them),
//! * **MOAS** and **AS_SET** origins pollute the prefix-origin set
//!   (baseline step (iii) must drop them),
//! * **more-specific hijacks** with limited propagation (step (ii)'s
//!   visibility threshold must drop them) and **scrubbing services**
//!   (a documented false-positive source),
//! * the active-delegation count **grows ~7 %** over the window while
//!   delegation sizes shrink (/24 share 66 % → 72 %, /20 7 % → 3 %).

use crate::topology::{Tier, Topology, TopologyConfig};
use nettypes::asn::Asn;
use nettypes::date::{date, Date, DateRange};
use nettypes::prefix::Prefix;
use rand::prelude::*;
use rand_pcg::Pcg64Mcg;
use registry::org::OrgId;
use registry::rir::Rir;
use serde::{Deserialize, Serialize};

/// An address block held by a delegator organization (an LIR
/// allocation in registry terms).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Allocation {
    /// The allocated block (a /16–/19).
    pub prefix: Prefix,
    /// Holding organization.
    pub org: OrgId,
    /// The AS announcing the covering prefix.
    pub asn: Asn,
    /// Maintaining RIR.
    pub rir: Rir,
    /// Bump-allocator offset (in /24 units) for carving lease blocks.
    next_free_slash24: u64,
}

impl Allocation {
    /// Carve the next free sub-block of `len` (>= the allocation's
    /// length) from this allocation, or `None` if exhausted.
    fn carve(&mut self, len: u8) -> Option<Prefix> {
        debug_assert!(len > self.prefix.len() && len <= 24);
        let slash24_per_block = 1u64 << (24 - len as u64);
        // Align the bump pointer to the block size.
        let aligned = self.next_free_slash24.div_ceil(slash24_per_block) * slash24_per_block;
        let total_slash24 = 1u64 << (24 - self.prefix.len() as u64);
        if aligned + slash24_per_block > total_slash24 {
            return None;
        }
        let block = self
            .prefix
            .subprefix(len, aligned / slash24_per_block)
            .expect("aligned block fits");
        self.next_free_slash24 = aligned + slash24_per_block;
        Some(block)
    }
}

/// A leasing agreement between two organizations.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Lease {
    /// Stable id.
    pub id: u32,
    /// The leased sub-block.
    pub prefix: Prefix,
    /// Covering allocation prefix.
    pub parent: Prefix,
    /// The delegator's announcing AS.
    pub delegator_asn: Asn,
    /// Delegator organization.
    pub delegator_org: OrgId,
    /// The delegatee's AS (used only when the lease is announced).
    pub delegatee_asn: Asn,
    /// Delegatee organization.
    pub delegatee_org: OrgId,
    /// Active period.
    pub active: DateRange,
    /// Whether the delegatee ever announces the block in BGP.
    pub announced: bool,
    /// Whether the announcement is aggregated away by the delegatee's
    /// upstream (§4 limitation (ii)): the route exists but is not
    /// globally visible, so the visibility threshold drops it.
    pub aggregated: bool,
    /// On-off announcement cycle `(on_days, off_days)`; `None` means
    /// continuously announced while active.
    pub onoff: Option<(u16, u16)>,
    /// Daily probability of a short routing flap (withdrawn for the
    /// day — session resets, maintenance). Extension (v) repairs these.
    pub flap_rate: f64,
    /// Deterministic key for the flap hash.
    pub flap_key: u64,
    /// Whether the lease is registered in the WHOIS/RDAP database.
    pub registered: bool,
}

impl Lease {
    /// Whether the lease is active on `d`.
    pub fn active_on(&self, d: Date) -> bool {
        self.active.contains(d)
    }

    /// Whether the delegatee announces the block on `d` (active,
    /// announced, in the "on" part of the on-off cycle, and not
    /// flapped away for the day).
    pub fn announced_on(&self, d: Date) -> bool {
        if !self.announced || !self.active_on(d) {
            return false;
        }
        let on_cycle = match self.onoff {
            None => true,
            Some((on, off)) => {
                let cycle = (on + off) as i64;
                let pos = (d - self.active.start).rem_euclid(cycle);
                pos < on as i64
            }
        };
        if !on_cycle {
            return false;
        }
        if self.flap_rate > 0.0 {
            let h = flap_hash(self.flap_key, d);
            let u = (h >> 11) as f64 / (1u64 << 53) as f64;
            if u < self.flap_rate {
                return false;
            }
        }
        true
    }
}

/// SplitMix64 over (key, day) for deterministic flap draws.
pub(crate) fn flap_hash(key: u64, d: Date) -> u64 {
    let mut x = key ^ (d.days_since_epoch() as u64).wrapping_mul(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// A more-specific announced by a sibling AS of the same organization —
/// *not* a lease; extension (iv) must remove it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IntraOrgDelegation {
    /// The announced sub-block.
    pub prefix: Prefix,
    /// Covering allocation prefix.
    pub parent: Prefix,
    /// AS announcing the covering prefix.
    pub parent_asn: Asn,
    /// Sibling AS announcing the sub-block.
    pub child_asn: Asn,
    /// The shared organization.
    pub org: OrgId,
    /// Announcement period.
    pub active: DateRange,
}

/// A more-specific hijack with limited propagation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HijackEvent {
    /// The hijacked (more-specific) prefix.
    pub prefix: Prefix,
    /// Covering allocation prefix.
    pub parent: Prefix,
    /// Victim origin (announces the parent).
    pub victim_asn: Asn,
    /// Hijacker origin.
    pub attacker_asn: Asn,
    /// Days the hijack is announced.
    pub active: DateRange,
    /// Fraction of monitors that see the hijack (local spread).
    pub visibility: f64,
}

/// A transient MOAS (multi-origin AS) conflict on an allocation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MoasEvent {
    /// The affected prefix.
    pub prefix: Prefix,
    /// The additional origin.
    pub second_origin: Asn,
    /// Conflict window.
    pub active: DateRange,
}

/// A prefix originated by an AS_SET during a window.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AsSetEvent {
    /// The affected sub-block.
    pub prefix: Prefix,
    /// The AS_SET members.
    pub set: Vec<Asn>,
    /// Window.
    pub active: DateRange,
}

/// A DDoS-scrubbing engagement: the scrubber announces the customer's
/// more-specific during the attack. Indistinguishable from a lease in
/// BGP — a documented limitation of the inference.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScrubbingEvent {
    /// The customer's sub-block announced by the scrubber.
    pub prefix: Prefix,
    /// Covering allocation prefix.
    pub parent: Prefix,
    /// Customer origin (announces the parent).
    pub customer_asn: Asn,
    /// Scrubbing-service origin.
    pub scrubber_asn: Asn,
    /// Engagement window.
    pub active: DateRange,
}

/// Why a route exists — ground-truth labels attached to every
/// generated route observation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum RouteClass {
    /// A delegator announcing its allocation.
    Allocation,
    /// A delegatee announcing a leased sub-block (the lease id).
    Lease(u32),
    /// A sibling AS announcing an intra-org more-specific.
    IntraOrg,
    /// A hijacker announcing a more-specific.
    Hijack,
    /// A scrubbing service announcing a customer block.
    Scrubbing,
}

/// A single announced route on some day, before monitor visibility is
/// applied.
#[derive(Clone, Debug, PartialEq)]
pub struct AnnouncedRoute {
    /// The announced prefix.
    pub prefix: Prefix,
    /// Origin AS. (AS_SET origins are carried separately in
    /// [`LeaseWorld::as_set_events_on`].)
    pub origin: Asn,
    /// Ground-truth class.
    pub class: RouteClass,
    /// Baseline fraction of monitors that see the route.
    pub visibility: f64,
}

/// Configuration for world generation.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// RNG seed.
    pub seed: u64,
    /// Observation window (paper: 2018-01-01 → 2020-06-01).
    pub span: DateRange,
    /// Topology parameters.
    pub topology: TopologyConfig,
    /// Number of delegator-held allocations.
    pub num_allocations: usize,
    /// Target number of concurrently active leases at window start.
    pub initial_active_leases: usize,
    /// Relative growth of the active-lease count across the window
    /// (the paper observes ~7 % for BGP-visible delegations).
    pub growth: f64,
    /// Fraction of leases whose delegatee announces them in BGP.
    pub bgp_visible_fraction: f64,
    /// Fraction of *announced* leases registered in WHOIS/RDAP
    /// (paper: RDAP covers ~65.7 % of BGP-delegated IPs).
    pub registered_fraction_of_announced: f64,
    /// Fraction of *unannounced* leases registered in WHOIS/RDAP
    /// (they have no other trace, so this is high).
    pub registered_fraction_of_unannounced: f64,
    /// Fraction of announced leases with on-off patterns.
    pub onoff_fraction: f64,
    /// Fraction of announced leases whose announcement is aggregated
    /// by the upstream and thus only locally visible (§4 limitation
    /// (ii) — a structural false negative no extension can recover).
    pub aggregated_fraction: f64,
    /// Daily single-day withdrawal probability for announced leases
    /// (routing flaps).
    pub flap_rate: f64,
    /// Mean lease lifetime in days (geometric hazard).
    pub mean_lease_days: f64,
    /// Number of long-lived intra-org delegations.
    pub num_intra_org: usize,
    /// Number of hijack events across the window.
    pub num_hijacks: usize,
    /// Number of MOAS events.
    pub num_moas: usize,
    /// Number of AS_SET events.
    pub num_as_sets: usize,
    /// Number of scrubbing engagements.
    pub num_scrubbing: usize,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 2020,
            span: DateRange::new(date("2018-01-01"), date("2020-06-01")),
            topology: TopologyConfig::default(),
            num_allocations: 240,
            initial_active_leases: 900,
            growth: 0.07,
            bgp_visible_fraction: 0.055,
            registered_fraction_of_announced: 0.657,
            registered_fraction_of_unannounced: 0.97,
            onoff_fraction: 0.35,
            aggregated_fraction: 0.08,
            flap_rate: 0.03,
            mean_lease_days: 420.0,
            num_intra_org: 40,
            num_hijacks: 25,
            num_moas: 20,
            num_as_sets: 12,
            num_scrubbing: 10,
        }
    }
}

/// Lease-size distribution: interpolates between the early and late
/// BGP-visible delegation mixes reported in Appendix A
/// (/24: 66 % → 72 %, /20: 7 % → 3 %).
fn sample_lease_len(rng: &mut impl Rng, progress: f64) -> u8 {
    let p = progress.clamp(0.0, 1.0);
    let w24 = 0.66 + 0.06 * p;
    let w20 = 0.07 - 0.04 * p;
    let rest = 1.0 - w24 - w20;
    // Split the remainder over /23, /22, /21 (heavier to /23).
    let w23 = rest * 0.45;
    let w22 = rest * 0.35;
    let w21 = rest * 0.20;
    let table = [(24u8, w24), (23, w23), (22, w22), (21, w21), (20, w20)];
    let mut x = rng.gen::<f64>();
    for (len, w) in table {
        if x < w {
            return len;
        }
        x -= w;
    }
    24
}

/// The generated world.
#[derive(Clone, Debug)]
pub struct LeaseWorld {
    /// The AS topology.
    pub topology: Topology,
    /// Delegator-held allocations.
    pub allocations: Vec<Allocation>,
    /// All leases (announced and not, registered and not).
    pub leases: Vec<Lease>,
    /// Intra-organization more-specifics.
    pub intra_org: Vec<IntraOrgDelegation>,
    /// Hijack events.
    pub hijacks: Vec<HijackEvent>,
    /// MOAS events.
    pub moas: Vec<MoasEvent>,
    /// AS_SET events.
    pub as_sets: Vec<AsSetEvent>,
    /// Scrubbing engagements.
    pub scrubbing: Vec<ScrubbingEvent>,
    /// The observation window.
    pub span: DateRange,
}

impl LeaseWorld {
    /// Generate a world from a config.
    pub fn generate(config: &WorldConfig) -> LeaseWorld {
        let _span = obs::span!(
            "world_generate",
            allocations = config.num_allocations,
            seed = config.seed,
        );
        let mut rng = Pcg64Mcg::seed_from_u64(config.seed ^ 0x77D5_3EE0_0000_0002);
        let topology = Topology::generate(&config.topology);

        let stubs: Vec<Asn> = topology.ases_of_tier(Tier::Stub).collect();
        let tier2: Vec<Asn> = topology.ases_of_tier(Tier::Tier2).collect();
        assert!(
            stubs.len() >= 8 && !tier2.is_empty(),
            "topology too small for a lease world"
        );

        // --- Allocations: carve /16s–/19s out of distinct /12 parents so
        // nothing overlaps. Delegators are mostly tier-2s and big stubs.
        let mut allocations = Vec::with_capacity(config.num_allocations);
        let rirs = [Rir::RipeNcc, Rir::RipeNcc, Rir::Arin, Rir::Apnic];
        for i in 0..config.num_allocations {
            // Spread allocations over 60.0.0.0/6 style space: use the
            // i-th /16 inside 64.0.0.0/4 and widen randomly.
            let len = *[16u8, 17, 18, 19].choose(&mut rng).expect("non-empty");
            let slot = Prefix::new_unchecked_masked(0x4000_0000, 4)
                .subprefix(16, i as u64)
                .expect("fits: < 4096 allocations");
            let prefix = Prefix::new_unchecked_masked(slot.network(), len);
            let asn = if rng.gen::<f64>() < 0.6 {
                *tier2.choose(&mut rng).expect("non-empty")
            } else {
                *stubs.choose(&mut rng).expect("non-empty")
            };
            let org = topology.org_of(asn).expect("known AS");
            allocations.push(Allocation {
                prefix,
                org,
                asn,
                rir: *rirs.choose(&mut rng).expect("non-empty"),
                next_free_slash24: 0,
            });
        }

        // --- Leases: day-by-day control loop targeting
        // active(t) = initial * (1 + growth * progress).
        let mut leases: Vec<Lease> = Vec::new();
        let mut active_ids: Vec<usize> = Vec::new();
        let total_days = config.span.num_days() as f64;
        let mut next_id = 0u32;
        // Warm-up: create the initial stock with starts before the window.
        let warmup_start = config.span.start - 400;
        let mut day = warmup_start;
        while day <= config.span.end {
            let in_window = day >= config.span.start;
            let progress = if in_window {
                (day - config.span.start) as f64 / total_days
            } else {
                0.0
            };
            let target =
                (config.initial_active_leases as f64 * (1.0 + config.growth * progress)) as usize;

            // Terminations: geometric hazard on each active lease.
            let hazard = 1.0 / config.mean_lease_days;
            active_ids.retain(|&idx| {
                if rng.gen::<f64>() < hazard {
                    // Close the lease today.
                    let l = &mut leases[idx];
                    l.active = DateRange::new(l.active.start, day.max(l.active.start));
                    false
                } else {
                    true
                }
            });

            // Arrivals to reach the target (bounded per day to smooth).
            let deficit = target.saturating_sub(active_ids.len());
            let arrivals = if day < config.span.start {
                // During warm-up converge quickly.
                deficit.min(50)
            } else {
                deficit.min(8)
            };
            for _ in 0..arrivals {
                let len = sample_lease_len(&mut rng, progress);
                // Find an allocation with room (a few tries, then linear).
                let mut carved = None;
                for _ in 0..8 {
                    let ai = rng.gen_range(0..allocations.len());
                    if allocations[ai].prefix.len() >= len {
                        continue;
                    }
                    if let Some(p) = allocations[ai].carve(len) {
                        carved = Some((ai, p));
                        break;
                    }
                }
                if carved.is_none() {
                    for (ai, alloc) in allocations.iter_mut().enumerate() {
                        if alloc.prefix.len() >= len {
                            continue;
                        }
                        if let Some(p) = alloc.carve(len) {
                            carved = Some((ai, p));
                            break;
                        }
                    }
                }
                let Some((ai, prefix)) = carved else {
                    break; // world space exhausted; stop adding leases
                };
                let alloc = &allocations[ai];
                let delegatee_asn = loop {
                    let a = *stubs.choose(&mut rng).expect("non-empty");
                    if a != alloc.asn && topology.org_of(a) != Some(alloc.org) {
                        break a;
                    }
                };
                let announced = rng.gen::<f64>() < config.bgp_visible_fraction;
                let aggregated = announced && rng.gen::<f64>() < config.aggregated_fraction;
                let registered = if announced {
                    rng.gen::<f64>() < config.registered_fraction_of_announced
                } else {
                    rng.gen::<f64>() < config.registered_fraction_of_unannounced
                };
                let onoff = if announced && rng.gen::<f64>() < config.onoff_fraction {
                    let on = rng.gen_range(4..=15u16);
                    let off = rng.gen_range(1..=5u16);
                    Some((on, off))
                } else {
                    None
                };
                let lease = Lease {
                    id: next_id,
                    prefix,
                    parent: alloc.prefix,
                    delegator_asn: alloc.asn,
                    delegator_org: alloc.org,
                    delegatee_asn,
                    delegatee_org: topology.org_of(delegatee_asn).expect("known AS"),
                    active: DateRange::new(day, config.span.end), // end patched on termination
                    announced,
                    aggregated,
                    onoff,
                    flap_rate: if announced { config.flap_rate } else { 0.0 },
                    flap_key: rng.gen(),
                    registered,
                };
                active_ids.push(leases.len());
                leases.push(lease);
                next_id += 1;
            }
            day = day.succ();
        }

        // --- Intra-org delegations: multi-AS orgs that also hold an
        // allocation announce a more-specific from a sibling AS.
        let mut intra_org = Vec::new();
        let multi_orgs: Vec<(OrgId, Vec<Asn>)> = topology
            .multi_as_orgs()
            .map(|(o, a)| (o, a.to_vec()))
            .collect();
        // Each allocation may be re-bound to a multi-AS org at most
        // once — re-binding twice would leave earlier intra-org records
        // pointing at a stale parent AS.
        let mut rebound: Vec<bool> = vec![false; allocations.len()];
        for _ in 0..config.num_intra_org {
            if multi_orgs.is_empty() {
                break;
            }
            // Retarget a not-yet-rebound allocation to a multi-AS org.
            let mut candidate = None;
            for _ in 0..allocations.len() {
                let i = rng.gen_range(0..allocations.len());
                if !rebound[i] {
                    candidate = Some(i);
                    break;
                }
            }
            let Some(ai) = candidate else { break };
            rebound[ai] = true;
            let (org, ases) = multi_orgs.choose(&mut rng).expect("non-empty").clone();
            let parent_asn = ases[0];
            let child_asn = ases[1 % ases.len()];
            if parent_asn == child_asn {
                continue;
            }
            // Rebind the allocation to this org so parent/child share it.
            allocations[ai].asn = parent_asn;
            allocations[ai].org = org;
            let Some(prefix) = allocations[ai].carve(24) else {
                continue;
            };
            intra_org.push(IntraOrgDelegation {
                prefix,
                parent: allocations[ai].prefix,
                parent_asn,
                child_asn,
                org,
                active: config.span,
            });
        }

        // Leases referencing re-bound allocations must keep consistent
        // delegator info, and a lease must never end up inside one
        // organization (it would not be a lease).
        for l in &mut leases {
            if let Some(a) = allocations.iter().find(|a| a.prefix == l.parent) {
                l.delegator_asn = a.asn;
                l.delegator_org = a.org;
                if l.delegatee_org == a.org {
                    let new_delegatee = loop {
                        let cand = *stubs.choose(&mut rng).expect("non-empty");
                        let cand_org = topology.org_of(cand).expect("known AS");
                        if cand != a.asn && cand_org != a.org {
                            break cand;
                        }
                    };
                    l.delegatee_asn = new_delegatee;
                    l.delegatee_org = topology.org_of(new_delegatee).expect("known AS");
                }
            }
        }

        // --- Noise events.
        let mut hijacks = Vec::new();
        for _ in 0..config.num_hijacks {
            let a = &allocations[rng.gen_range(0..allocations.len())];
            let sub = a
                .prefix
                .subprefix(24, (1u64 << (24 - a.prefix.len() as u64)) - 1)
                .expect("last /24 exists");
            let start_off = rng.gen_range(0..config.span.num_days().max(2) - 1);
            let len_days = rng.gen_range(1..=10i64);
            let start = config.span.start + start_off;
            let end = (start + len_days).min(config.span.end);
            let attacker_asn = *stubs.choose(&mut rng).expect("non-empty");
            if attacker_asn == a.asn {
                continue;
            }
            hijacks.push(HijackEvent {
                prefix: sub,
                parent: a.prefix,
                victim_asn: a.asn,
                attacker_asn,
                active: DateRange::new(start, end),
                // Mostly locally spread; a few slip past the threshold.
                visibility: if rng.gen::<f64>() < 0.85 {
                    rng.gen_range(0.05..0.35)
                } else {
                    rng.gen_range(0.6..0.9)
                },
            });
        }

        let mut moas = Vec::new();
        for _ in 0..config.num_moas {
            let a = &allocations[rng.gen_range(0..allocations.len())];
            let second = *stubs.choose(&mut rng).expect("non-empty");
            if second == a.asn {
                continue;
            }
            let start_off = rng.gen_range(0..config.span.num_days().max(2) - 1);
            let start = config.span.start + start_off;
            let end = (start + rng.gen_range(2..=30i64)).min(config.span.end);
            moas.push(MoasEvent {
                prefix: a.prefix,
                second_origin: second,
                active: DateRange::new(start, end),
            });
        }

        let mut as_sets = Vec::new();
        for _ in 0..config.num_as_sets {
            let a = &allocations[rng.gen_range(0..allocations.len())];
            let sub = a.prefix.subprefix(24, 0).expect("first /24");
            let m1 = *stubs.choose(&mut rng).expect("non-empty");
            let m2 = *stubs.choose(&mut rng).expect("non-empty");
            let start_off = rng.gen_range(0..config.span.num_days().max(2) - 1);
            let start = config.span.start + start_off;
            let end = (start + rng.gen_range(5..=60i64)).min(config.span.end);
            as_sets.push(AsSetEvent {
                prefix: sub,
                set: vec![m1, m2],
                active: DateRange::new(start, end),
            });
        }

        let mut scrubbing = Vec::new();
        for _ in 0..config.num_scrubbing {
            let a = &allocations[rng.gen_range(0..allocations.len())];
            let sub = a
                .prefix
                .subprefix(24, (1u64 << (24 - a.prefix.len() as u64)) / 2)
                .expect("middle /24");
            let scrubber_asn = *tier2.choose(&mut rng).expect("non-empty");
            if scrubber_asn == a.asn {
                continue;
            }
            let start_off = rng.gen_range(0..config.span.num_days().max(2) - 1);
            let start = config.span.start + start_off;
            let end = (start + rng.gen_range(10..=40i64)).min(config.span.end);
            scrubbing.push(ScrubbingEvent {
                prefix: sub,
                parent: a.prefix,
                customer_asn: a.asn,
                scrubber_asn,
                active: DateRange::new(start, end),
            });
        }

        LeaseWorld {
            topology,
            allocations,
            leases,
            intra_org,
            hijacks,
            moas,
            as_sets,
            scrubbing,
            span: config.span,
        }
    }

    /// All routes announced on `d` (before monitor visibility).
    pub fn announced_routes_on(&self, d: Date) -> Vec<AnnouncedRoute> {
        let mut out = Vec::new();
        for a in &self.allocations {
            out.push(AnnouncedRoute {
                prefix: a.prefix,
                origin: a.asn,
                class: RouteClass::Allocation,
                visibility: 0.992,
            });
        }
        for l in &self.leases {
            if l.announced_on(d) {
                out.push(AnnouncedRoute {
                    prefix: l.prefix,
                    origin: l.delegatee_asn,
                    class: RouteClass::Lease(l.id),
                    // Aggregated announcements stay inside the
                    // upstream's customer cone — a handful of monitors
                    // at most, below even the 10 % threshold.
                    visibility: if l.aggregated { 0.06 } else { 0.99 },
                });
            }
        }
        for i in &self.intra_org {
            if i.active.contains(d) {
                out.push(AnnouncedRoute {
                    prefix: i.prefix,
                    origin: i.child_asn,
                    class: RouteClass::IntraOrg,
                    visibility: 0.99,
                });
            }
        }
        for h in &self.hijacks {
            if h.active.contains(d) {
                out.push(AnnouncedRoute {
                    prefix: h.prefix,
                    origin: h.attacker_asn,
                    class: RouteClass::Hijack,
                    visibility: h.visibility,
                });
            }
        }
        for s in &self.scrubbing {
            if s.active.contains(d) {
                out.push(AnnouncedRoute {
                    prefix: s.prefix,
                    origin: s.scrubber_asn,
                    class: RouteClass::Scrubbing,
                    visibility: 0.99,
                });
            }
        }
        out
    }

    /// MOAS second origins active on `d` — rendered as additional
    /// routes for the same prefix by the observation layer.
    pub fn moas_events_on(&self, d: Date) -> impl Iterator<Item = &MoasEvent> {
        self.moas.iter().filter(move |m| m.active.contains(d))
    }

    /// AS_SET-originated routes active on `d`.
    pub fn as_set_events_on(&self, d: Date) -> impl Iterator<Item = &AsSetEvent> {
        self.as_sets.iter().filter(move |e| e.active.contains(d))
    }

    /// Ground truth: the set of true (leased AND globally-visible)
    /// delegations `(P', S, T)` active on day `d`, regardless of the
    /// on-off state. This is the target the inference is scored on.
    /// Aggregated announcements (§4 limitation (ii)) are excluded —
    /// no BGP-based method can see them; count them separately via
    /// [`LeaseWorld::aggregated_leases_on`].
    pub fn true_bgp_delegations_on(&self, d: Date) -> Vec<(Prefix, Asn, Asn)> {
        self.leases
            .iter()
            .filter(|l| l.announced && !l.aggregated && l.active_on(d))
            .map(|l| (l.prefix, l.delegator_asn, l.delegatee_asn))
            .collect()
    }

    /// Leases announced but aggregated away (§4 limitation (ii)) —
    /// structurally invisible to the global vantage points.
    pub fn aggregated_leases_on(&self, d: Date) -> Vec<&Lease> {
        self.leases
            .iter()
            .filter(|l| l.announced && l.aggregated && l.active_on(d))
            .collect()
    }

    /// Ground truth: all leases active on `d` (announced or not) — the
    /// full leasing-market size the paper argues neither data source
    /// captures alone.
    pub fn true_leases_on(&self, d: Date) -> Vec<&Lease> {
        self.leases.iter().filter(|l| l.active_on(d)).collect()
    }

    /// Leases registered in WHOIS/RDAP and active on `d` — the registry
    /// view generated by the `rdap` crate.
    pub fn registered_leases_on(&self, d: Date) -> Vec<&Lease> {
        self.leases
            .iter()
            .filter(|l| l.registered && l.active_on(d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> WorldConfig {
        WorldConfig {
            seed: 5,
            span: DateRange::new(date("2018-01-01"), date("2018-06-30")),
            topology: TopologyConfig {
                seed: 5,
                num_tier1: 4,
                num_tier2: 15,
                num_stubs: 120,
                multi_as_org_fraction: 0.2,
            },
            num_allocations: 60,
            initial_active_leases: 150,
            growth: 0.07,
            num_hijacks: 6,
            num_moas: 5,
            num_as_sets: 3,
            num_scrubbing: 3,
            ..Default::default()
        }
    }

    #[test]
    fn allocations_do_not_overlap() {
        let w = LeaseWorld::generate(&tiny_config());
        for (i, a) in w.allocations.iter().enumerate() {
            for b in &w.allocations[i + 1..] {
                assert!(
                    !a.prefix.overlaps(&b.prefix),
                    "{} vs {}",
                    a.prefix,
                    b.prefix
                );
            }
        }
    }

    #[test]
    fn leases_nest_in_their_parents_and_do_not_overlap() {
        let w = LeaseWorld::generate(&tiny_config());
        assert!(!w.leases.is_empty());
        for l in &w.leases {
            assert!(
                l.parent.covers_strictly(&l.prefix),
                "{} !⊂ {}",
                l.prefix,
                l.parent
            );
            assert_ne!(l.delegator_org, l.delegatee_org, "lease within one org");
        }
        for (i, a) in w.leases.iter().enumerate() {
            for b in &w.leases[i + 1..] {
                assert!(
                    !a.prefix.overlaps(&b.prefix),
                    "{} vs {}",
                    a.prefix,
                    b.prefix
                );
            }
        }
    }

    #[test]
    fn active_lease_count_grows_roughly_as_configured() {
        let cfg = WorldConfig {
            span: DateRange::new(date("2018-01-01"), date("2019-12-31")),
            ..tiny_config()
        };
        let w = LeaseWorld::generate(&cfg);
        let start_count = w.true_leases_on(cfg.span.start).len() as f64;
        let end_count = w.true_leases_on(cfg.span.end).len() as f64;
        let growth = end_count / start_count - 1.0;
        assert!(
            (0.0..=0.15).contains(&growth),
            "expected ~7 % growth, got {:.1} % ({start_count} → {end_count})",
            growth * 100.0
        );
    }

    #[test]
    fn visibility_fractions_in_band() {
        let w = LeaseWorld::generate(&WorldConfig {
            initial_active_leases: 800,
            ..tiny_config()
        });
        let total = w.leases.len() as f64;
        let announced = w.leases.iter().filter(|l| l.announced).count() as f64;
        assert!(
            (announced / total) < 0.12,
            "announced fraction too high: {}",
            announced / total
        );
        let registered_of_announced = w
            .leases
            .iter()
            .filter(|l| l.announced && l.registered)
            .count() as f64
            / announced.max(1.0);
        assert!(
            (0.45..=0.85).contains(&registered_of_announced),
            "got {registered_of_announced}"
        );
    }

    #[test]
    fn onoff_pattern_cycles() {
        let l = Lease {
            id: 0,
            prefix: "10.0.0.0/24".parse().unwrap(),
            parent: "10.0.0.0/16".parse().unwrap(),
            delegator_asn: Asn(1),
            delegator_org: OrgId(1),
            delegatee_asn: Asn(2),
            delegatee_org: OrgId(2),
            active: DateRange::new(date("2018-01-01"), date("2018-03-01")),
            announced: true,
            aggregated: false,
            onoff: Some((5, 2)),
            flap_rate: 0.0,
            flap_key: 0,
            registered: true,
        };
        // Days 0..5 on, 5..7 off, repeating.
        assert!(l.announced_on(date("2018-01-01")));
        assert!(l.announced_on(date("2018-01-05")));
        assert!(!l.announced_on(date("2018-01-06")));
        assert!(!l.announced_on(date("2018-01-07")));
        assert!(l.announced_on(date("2018-01-08")));
        // Outside the active window: never.
        assert!(!l.announced_on(date("2018-03-02")));
    }

    #[test]
    fn intra_org_delegations_share_org() {
        let w = LeaseWorld::generate(&tiny_config());
        assert!(!w.intra_org.is_empty());
        for i in &w.intra_org {
            assert_eq!(w.topology.org_of(i.parent_asn), Some(i.org));
            assert_eq!(w.topology.org_of(i.child_asn), Some(i.org));
            assert_ne!(i.parent_asn, i.child_asn);
            assert!(i.parent.covers_strictly(&i.prefix));
        }
    }

    #[test]
    fn daily_routes_contain_expected_classes() {
        let w = LeaseWorld::generate(&tiny_config());
        let d = date("2018-03-15");
        let routes = w.announced_routes_on(d);
        let has = |c: fn(&RouteClass) -> bool| routes.iter().any(|r| c(&r.class));
        assert!(has(|c| matches!(c, RouteClass::Allocation)));
        assert!(has(|c| matches!(c, RouteClass::Lease(_))));
        assert!(has(|c| matches!(c, RouteClass::IntraOrg)));
        // Every allocation announced daily.
        let alloc_routes = routes
            .iter()
            .filter(|r| r.class == RouteClass::Allocation)
            .count();
        assert_eq!(alloc_routes, w.allocations.len());
    }

    #[test]
    fn hijacks_are_more_specifics_of_victims() {
        let w = LeaseWorld::generate(&tiny_config());
        for h in &w.hijacks {
            assert!(h.parent.covers_strictly(&h.prefix));
            assert_ne!(h.victim_asn, h.attacker_asn);
            assert!(h.visibility > 0.0 && h.visibility < 1.0);
        }
    }

    #[test]
    fn deterministic_generation() {
        let cfg = tiny_config();
        let a = LeaseWorld::generate(&cfg);
        let b = LeaseWorld::generate(&cfg);
        assert_eq!(a.leases.len(), b.leases.len());
        for (x, y) in a.leases.iter().zip(&b.leases) {
            assert_eq!(x.prefix, y.prefix);
            assert_eq!(x.active, y.active);
            assert_eq!(x.announced, y.announced);
        }
    }
}
