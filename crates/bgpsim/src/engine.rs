//! The cross-day render engine: day-invariant work hoisted out of the
//! per-day loop.
//!
//! Rendering a [`LeaseWorld`] day by day repeats four expensive
//! computations that do not actually depend on the day:
//!
//! 1. **event scanning** — `announced_routes_on` walks every lease,
//!    hijack, intra-org, scrubbing, MOAS and AS_SET record per day.
//!    The engine builds an *interval index* once (start/end deltas per
//!    day, CSR layout) and sweeps it forward, applying only each day's
//!    deltas to a sorted active set;
//! 2. **stable visibility** — the structural component of the monitor
//!    visibility draw is a pure hash of `(prefix, origin, monitor)`.
//!    The engine precomputes a per-route monitor bitmask (one `u64`
//!    word per 64 monitors) plus the per-monitor hash keys, leaving
//!    only one flicker hash per *set bit* per day;
//! 3. **paths** — monitor→origin valley-free paths are interned in a
//!    per-worker arena as `Arc<[Asn]>`, handed out by reference-count
//!    bump instead of a `Vec` clone per observation; `monitor_ases`
//!    is computed once at engine construction;
//! 4. **MOAS tiebreaks** — the per-`(monitor, prefix, origin)` rank is
//!    also day-independent and precomputed.
//!
//! Determinism contract: the engine is a pure evaluation-order rewrite
//! of the same deterministic draws. [`RenderEngine`] is immutable and
//! `Sync`; all mutable state lives in a per-worker [`RenderScratch`],
//! so fan-out over the worker pool ([`crate::par`]) yields bytes
//! identical to the sequential path — at any thread count. The sweep
//! cursor only moves forward within a worker (day indices are claimed
//! in increasing order); a backward query resets and re-sweeps, so
//! arbitrary query order is still correct, just slower.

use crate::observe::{
    monitor_ases, origin_key, splitmix64, unit_f64, ObservationDay, RouteObservation,
    VisibilityModel,
};
use crate::scenario::{flap_hash, LeaseWorld, RouteClass};
use nettypes::asn::{Asn, Origin};
use nettypes::date::{Date, DateRange};
use nettypes::prefix::Prefix;
use std::sync::Arc;

/// On-off / flap parameters for lease entities; evaluated per day at
/// emit time (they are the only genuinely day-dependent inputs).
struct LeaseCycle {
    active_start: Date,
    onoff: Option<(u16, u16)>,
    flap_rate: f64,
    flap_key: u64,
}

/// One route the world can announce: the day-invariant description.
struct RouteEntity {
    prefix: Prefix,
    origin: Origin,
    vis: f64,
    class: Option<RouteClass>,
    /// `None` for always-active entities (allocations).
    active: Option<DateRange>,
    /// Lease announcement cycle, when one applies.
    cycle: Option<LeaseCycle>,
    /// Dense topology index of a `Single` origin, when it is in the
    /// topology — the key for the per-worker path arena.
    origin_node: Option<usize>,
}

/// One interval-index delta: activate or deactivate an entity.
struct EventDelta {
    entity: usize,
    add: bool,
}

/// A path-arena slot: not yet computed, computed-absent, or interned.
enum PathSlot {
    Unknown,
    Absent,
    Interned(Arc<[Asn]>),
}

/// The immutable, `Sync` engine: share one per render run, give each
/// worker its own [`RenderScratch`].
pub struct RenderEngine<'w> {
    world: &'w LeaseWorld,
    model: VisibilityModel,
    /// Hoisted monitor fleet (one AS per monitor slot).
    monitors: Vec<Asn>,
    /// Entities in the legacy emit order: allocations, announced
    /// leases, intra-org, hijacks, scrubbing, MOAS, AS_SETs.
    entities: Vec<RouteEntity>,
    /// Entities `0..num_static` are active every day.
    num_static: usize,
    /// The entities' distinct prefixes, sorted: a prefix id indexes
    /// this, so id order is prefix order.
    prefixes: Vec<Prefix>,
    /// Per entity, its prefix id.
    entity_pid: Vec<usize>,
    /// CSR index from a prefix id to its entities, in entity order:
    /// `pid_entities[pid_starts[pid]..pid_starts[pid + 1]]`.
    pid_starts: Vec<usize>,
    pid_entities: Vec<usize>,
    /// Per-entity per-monitor stable visibility keys (stride
    /// `monitors.len()`), reused by the daily flicker hash.
    keys: Vec<u64>,
    /// Per-entity per-monitor MOAS tiebreak ranks (same stride).
    ranks: Vec<u64>,
    /// Per-entity monitor bitmask (stride `mask_words`).
    masks: Vec<u64>,
    mask_words: usize,
    span: DateRange,
    /// CSR interval index: day offset → delta slice.
    event_starts: Vec<usize>,
    events: Vec<EventDelta>,
    /// The shared empty path (AS_SET origins, unreachable origins).
    empty_path: Arc<[Asn]>,
    n_nodes: usize,
}

/// Per-worker mutable state: the sweep position, the active set and
/// the path arena.
pub struct RenderScratch {
    /// Number of day event-sets applied; `active` reflects day
    /// `cursor - 1`.
    cursor: usize,
    /// Active non-static entities, sorted by entity index (= emit
    /// order).
    active: Vec<usize>,
    /// Flat path arena: `monitor_slot * n_nodes + origin_node`.
    paths: Vec<PathSlot>,
}

/// One selected-route change at one monitor, produced by
/// [`RenderEngine::advance_state`]: the best route for `prefix`
/// changed between day D and day D+1. Entity ids resolve to origins
/// through [`RenderEngine::entity_origin`]. Changes are emitted only
/// when the selected *origin* differs (a winner swap between entities
/// with equal origins is byte-invisible downstream), sorted by prefix
/// within each monitor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelChange {
    /// The touched prefix.
    pub prefix: Prefix,
    /// Previously selected entity (`None`: the prefix was absent).
    pub old: Option<usize>,
    /// Newly selected entity (`None`: the prefix is withdrawn).
    pub new: Option<usize>,
}

/// The [`MonitorState`] winner-table sentinel: no visible entity holds
/// the prefix at that monitor.
const NO_WINNER: usize = usize::MAX;

/// A winner-table slot as an entity id.
fn held(e: usize) -> Option<usize> {
    (e != NO_WINNER).then_some(e)
}

/// Persistent per-monitor route state for an incremental day sweep:
/// day D+1 is rendered as a patch of day D instead of a full
/// recompute. Seeded by one full render ([`RenderEngine::seed_state`])
/// and advanced one day at a time ([`RenderEngine::advance_state`]);
/// any out-of-sequence day takes a fresh seed.
///
/// Invariant: `winners[pid * nm + m]` is the entity of prefix `pid`
/// with the least `(rank, entity)` among those whose `vis` bit `m` is
/// set, or [`NO_WINNER`]. The order is total (entity ids are unique),
/// so a table advanced by a day is bit-equal to a fresh seed of that
/// day.
pub struct MonitorState {
    /// The day this state reflects.
    day: Date,
    /// `day - span.start`.
    day_off: usize,
    /// Active non-static entities on `day`, sorted: this state's own
    /// interval sweep (independent of any scratch).
    active: Vec<usize>,
    /// Per-entity visibility bits on `day` (stable mask ∧ announced ∧
    /// flicker pass), stride `mask_words`; zero when inactive or
    /// unannounced. XOR against the next day's bits is the
    /// touched-prefix derivation.
    vis: Vec<u64>,
    /// Prefix-major winner table, stride `nm`: each monitor's selected
    /// entity per prefix id.
    winners: Vec<usize>,
    /// Per-monitor touched prefix ids of the day being advanced.
    touched: Vec<Vec<usize>>,
}

impl MonitorState {
    /// The day this state currently reflects.
    pub fn day(&self) -> Date {
        self.day
    }
}

impl<'w> RenderEngine<'w> {
    /// Build the engine: hoist the monitor fleet, flatten the world
    /// into entities, precompute stable keys/masks/ranks, and index
    /// the activation intervals.
    pub fn new(world: &'w LeaseWorld, model: &VisibilityModel) -> RenderEngine<'w> {
        let monitors = monitor_ases(world, model);
        let span = world.span;
        let num_days = span.num_days().max(0) as usize;
        let topo = &world.topology;

        let mut entities: Vec<RouteEntity> = Vec::with_capacity(
            world.allocations.len()
                + world.leases.len()
                + world.intra_org.len()
                + world.hijacks.len()
                + world.scrubbing.len()
                + world.moas.len()
                + world.as_sets.len(),
        );
        let push = |entities: &mut Vec<RouteEntity>,
                    prefix: Prefix,
                    origin: Origin,
                    vis: f64,
                    class: Option<RouteClass>,
                    active: Option<DateRange>,
                    cycle: Option<LeaseCycle>| {
            let origin_node = match &origin {
                Origin::Single(o) => topo.index_of(*o),
                Origin::Set(_) => None,
            };
            entities.push(RouteEntity {
                prefix,
                origin,
                vis,
                class,
                active,
                cycle,
                origin_node,
            });
        };

        for a in &world.allocations {
            push(
                &mut entities,
                a.prefix,
                Origin::Single(a.asn),
                0.992,
                Some(RouteClass::Allocation),
                None,
                None,
            );
        }
        let num_static = entities.len();
        for l in &world.leases {
            // Unannounced leases never produce a route; skip them
            // entirely instead of re-checking every day.
            if !l.announced {
                continue;
            }
            let cycle = (l.onoff.is_some() || l.flap_rate > 0.0).then_some(LeaseCycle {
                active_start: l.active.start,
                onoff: l.onoff,
                flap_rate: l.flap_rate,
                flap_key: l.flap_key,
            });
            push(
                &mut entities,
                l.prefix,
                Origin::Single(l.delegatee_asn),
                if l.aggregated { 0.06 } else { 0.99 },
                Some(RouteClass::Lease(l.id)),
                Some(l.active),
                cycle,
            );
        }
        for i in &world.intra_org {
            push(
                &mut entities,
                i.prefix,
                Origin::Single(i.child_asn),
                0.99,
                Some(RouteClass::IntraOrg),
                Some(i.active),
                None,
            );
        }
        for h in &world.hijacks {
            push(
                &mut entities,
                h.prefix,
                Origin::Single(h.attacker_asn),
                h.visibility,
                Some(RouteClass::Hijack),
                Some(h.active),
                None,
            );
        }
        for s in &world.scrubbing {
            push(
                &mut entities,
                s.prefix,
                Origin::Single(s.scrubber_asn),
                0.99,
                Some(RouteClass::Scrubbing),
                Some(s.active),
                None,
            );
        }
        for m in &world.moas {
            push(
                &mut entities,
                m.prefix,
                Origin::Single(m.second_origin),
                0.9,
                None,
                Some(m.active),
                None,
            );
        }
        for e in &world.as_sets {
            push(
                &mut entities,
                e.prefix,
                Origin::Set(e.set.clone()),
                0.9,
                None,
                Some(e.active),
                None,
            );
        }

        // Dense prefix ids in prefix order, and each prefix's
        // entities in entity order.
        let mut pid_entities: Vec<usize> = (0..entities.len()).collect();
        pid_entities.sort_unstable_by_key(|&ei| (entities[ei].prefix, ei));
        let mut prefixes: Vec<Prefix> = Vec::new();
        let mut pid_starts = Vec::new();
        let mut entity_pid = vec![0; entities.len()];
        for (at, &ei) in pid_entities.iter().enumerate() {
            let p = entities[ei].prefix;
            if prefixes.last() != Some(&p) {
                pid_starts.push(at);
                prefixes.push(p);
            }
            entity_pid[ei] = pid_starts.len() - 1;
        }
        pid_starts.push(pid_entities.len());

        // Stable keys, visibility masks, tiebreak ranks.
        let nm = monitors.len();
        let mask_words = nm.div_ceil(64);
        let mut keys = Vec::with_capacity(entities.len() * nm);
        let mut ranks = Vec::with_capacity(entities.len() * nm);
        let mut masks = vec![0u64; entities.len() * mask_words];
        for (ei, e) in entities.iter().enumerate() {
            let ohash = origin_key(&e.origin);
            let net = e.prefix.network() as u64;
            let len = e.prefix.len() as u64;
            for m in 0..nm {
                let key = splitmix64(
                    model
                        .seed
                        .wrapping_mul(0x517C_C1B7_2722_0A95)
                        .wrapping_add(net << 16)
                        .wrapping_add(len)
                        .wrapping_add((ohash as u64) << 32)
                        .wrapping_add(m as u64),
                );
                keys.push(key);
                ranks.push(splitmix64(
                    model.seed ^ (net << 8) ^ ((ohash as u64) << 40) ^ m as u64,
                ));
                if unit_f64(key) < e.vis {
                    masks[ei * mask_words + m / 64] |= 1u64 << (m % 64);
                }
            }
        }

        // Interval index over non-static entities.
        let mut per_day: Vec<Vec<EventDelta>> = Vec::new();
        per_day.resize_with(num_days, Vec::new);
        for (ei, e) in entities.iter().enumerate().skip(num_static) {
            let Some(range) = e.active else { continue };
            let s_off = (range.start - span.start).max(0);
            let e_off = range.end - span.start;
            if e_off < 0 || s_off >= num_days as i64 {
                continue;
            }
            per_day[s_off as usize].push(EventDelta {
                entity: ei,
                add: true,
            });
            let rem = e_off + 1;
            if rem < num_days as i64 {
                per_day[rem as usize].push(EventDelta {
                    entity: ei,
                    add: false,
                });
            }
        }
        let mut event_starts = Vec::with_capacity(num_days + 1);
        let mut events = Vec::new();
        for day in per_day {
            event_starts.push(events.len());
            events.extend(day);
        }
        event_starts.push(events.len());

        RenderEngine {
            world,
            model: model.clone(),
            monitors,
            entities,
            num_static,
            prefixes,
            entity_pid,
            pid_starts,
            pid_entities,
            keys,
            ranks,
            masks,
            mask_words,
            span,
            event_starts,
            events,
            empty_path: Arc::from(Vec::new()),
            n_nodes: topo.nodes().len(),
        }
    }

    /// A fresh per-worker scratch for this engine.
    pub fn scratch(&self) -> RenderScratch {
        let mut paths = Vec::new();
        paths.resize_with(self.monitors.len() * self.n_nodes, || PathSlot::Unknown);
        RenderScratch {
            cursor: 0,
            active: Vec::new(),
            paths,
        }
    }

    /// Advance an interval sweep (a cursor + sorted active set) so the
    /// active set reflects `day_off`. Shared by the per-worker scratch
    /// and the seed of an incremental [`MonitorState`], which then
    /// applies each day's deltas itself.
    fn sweep_active(&self, cursor: &mut usize, active: &mut Vec<usize>, day_off: usize) {
        if day_off + 1 < *cursor {
            // Backward query (rare: only under cross-worker stealing
            // patterns that never happen with the index-ordered pool,
            // or direct out-of-order use). Re-sweep from the start.
            *cursor = 0;
            active.clear();
        }
        while *cursor <= day_off {
            let deltas = &self.events[self.event_starts[*cursor]..self.event_starts[*cursor + 1]];
            for d in deltas {
                if d.add {
                    if let Err(pos) = active.binary_search(&d.entity) {
                        active.insert(pos, d.entity);
                    }
                } else if let Ok(pos) = active.binary_search(&d.entity) {
                    active.remove(pos);
                }
            }
            *cursor += 1;
        }
    }

    /// Advance the sweep so `scratch.active` reflects `day_off`.
    fn sweep_to(&self, scratch: &mut RenderScratch, day_off: usize) {
        self.sweep_active(&mut scratch.cursor, &mut scratch.active, day_off);
    }

    /// The per-day hash multiplier feeding every flicker draw.
    #[inline]
    fn day_mul(day: Date) -> u64 {
        (day.days_since_epoch() as u64).wrapping_mul(0xA24B_AED4_963E_E407)
    }

    /// Does the daily flicker draw pass for this precomputed key?
    /// Same arithmetic as the historical `monitor_sees`, with the
    /// stable component already folded into the mask.
    #[inline]
    fn flicker_passes(&self, key: u64, day_mul: u64) -> bool {
        unit_f64(splitmix64(key ^ day_mul)) >= self.model.daily_flicker
    }

    /// Is a (swept-active) entity actually announced on `day`? Only
    /// leases carry a cycle; everything else is announced while
    /// active.
    fn entity_announced(&self, ei: usize, day: Date) -> bool {
        let Some(c) = &self.entities[ei].cycle else {
            return true;
        };
        if let Some((on, off)) = c.onoff {
            let cycle = (on + off) as i64;
            let pos = (day - c.active_start).rem_euclid(cycle);
            if pos >= on as i64 {
                return false;
            }
        }
        if c.flap_rate > 0.0 && unit_f64(flap_hash(c.flap_key, day)) < c.flap_rate {
            return false;
        }
        true
    }

    /// The interned monitor→origin path (empty when no valley-free
    /// path exists).
    fn interned_path(
        &self,
        paths: &mut [PathSlot],
        m: usize,
        origin: Asn,
        oi: usize,
    ) -> Arc<[Asn]> {
        let slot = m * self.n_nodes + oi;
        match &paths[slot] {
            PathSlot::Interned(p) => Arc::clone(p),
            PathSlot::Absent => Arc::clone(&self.empty_path),
            PathSlot::Unknown => match self.world.topology.path(self.monitors[m], origin) {
                Some(v) => {
                    let arc: Arc<[Asn]> = v.into();
                    paths[slot] = PathSlot::Interned(Arc::clone(&arc));
                    arc
                }
                None => {
                    paths[slot] = PathSlot::Absent;
                    Arc::clone(&self.empty_path)
                }
            },
        }
    }

    /// Evaluate one entity's monitor visibility for the day and append
    /// its observation (if any monitor sees it).
    fn emit(
        &self,
        paths: &mut [PathSlot],
        ei: usize,
        day_mul: u64,
        routes: &mut Vec<RouteObservation>,
    ) {
        let e = &self.entities[ei];
        let nm = self.monitors.len();
        let base = ei * nm;
        let mut seen = 0u16;
        let mut first: Option<usize> = None;
        for w in 0..self.mask_words {
            let mut bits = self.masks[ei * self.mask_words + w];
            while bits != 0 {
                let m = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.flicker_passes(self.keys[base + m], day_mul) {
                    seen += 1;
                    if first.is_none() {
                        first = Some(m);
                    }
                }
            }
        }
        if seen == 0 {
            return;
        }
        let path = match (&e.origin, first, e.origin_node) {
            (Origin::Single(o), Some(m), Some(oi)) => self.interned_path(paths, m, *o, oi),
            _ => Arc::clone(&self.empty_path),
        };
        routes.push(RouteObservation {
            prefix: e.prefix,
            origin: e.origin.clone(),
            monitors_seen: seen,
            path,
            class: e.class,
        });
    }

    /// Render one day: the same observation surface as the historical
    /// `render_day`, byte for byte.
    pub fn render_day(&self, scratch: &mut RenderScratch, day: Date) -> ObservationDay {
        let day_mul = Self::day_mul(day);
        let mut routes = Vec::new();
        if self.span.contains(day) {
            self.sweep_to(scratch, (day - self.span.start) as usize);
            for ei in 0..self.num_static {
                self.emit(&mut scratch.paths, ei, day_mul, &mut routes);
            }
            for i in 0..scratch.active.len() {
                let ei = scratch.active[i];
                if self.entity_announced(ei, day) {
                    self.emit(&mut scratch.paths, ei, day_mul, &mut routes);
                }
            }
        } else {
            // Out-of-span day: the precomputed keys/masks are still
            // valid (they are day-independent); only the sweep cannot
            // serve the active set, so scan the intervals directly.
            for ei in 0..self.entities.len() {
                if self.entity_active_on(ei, day) && self.entity_announced(ei, day) {
                    self.emit(&mut scratch.paths, ei, day_mul, &mut routes);
                }
            }
        }
        ObservationDay {
            date: day,
            num_monitors: self.model.num_monitors,
            routes,
        }
    }

    /// Interval check for the out-of-span slow path.
    fn entity_active_on(&self, ei: usize, day: Date) -> bool {
        match self.entities[ei].active {
            None => true,
            Some(range) => range.contains(day),
        }
    }

    /// The hoisted monitor fleet (one AS per slot, index-aligned with
    /// peer tables).
    pub fn monitors(&self) -> &[Asn] {
        &self.monitors
    }

    /// The origin of an entity id carried by a [`SelChange`].
    pub fn entity_origin(&self, ei: usize) -> &Origin {
        &self.entities[ei].origin
    }

    /// Every entity's origin, in entity-id order.
    pub(crate) fn entity_origins(&self) -> impl ExactSizeIterator<Item = &Origin> + '_ {
        self.entities.iter().map(|e| &e.origin)
    }

    /// Seed incremental state with one full render of `day`. Returns
    /// `None` for out-of-span days (the interval sweep cannot serve
    /// them).
    pub fn seed_state(&self, day: Date) -> Option<MonitorState> {
        if !self.span.contains(day) {
            return None;
        }
        let day_off = (day - self.span.start) as usize;
        let nm = self.monitors.len();
        let mut state = MonitorState {
            day,
            day_off,
            active: Vec::new(),
            vis: vec![0u64; self.entities.len() * self.mask_words],
            winners: vec![NO_WINNER; self.prefixes.len() * nm],
            touched: vec![Vec::new(); nm],
        };
        self.sweep_active(&mut 0, &mut state.active, day_off);
        let day_mul = Self::day_mul(day);
        for ei in (0..self.num_static).chain(state.active.iter().copied()) {
            if self.entity_announced(ei, day) {
                for w in 0..self.mask_words {
                    state.vis[ei * self.mask_words + w] = self.day_vis(ei, w, day_mul);
                }
            }
        }
        for pid in 0..self.prefixes.len() {
            for m in 0..nm {
                state.winners[pid * nm + m] = self.select(&state.vis, pid, m);
            }
        }
        Some(state)
    }

    /// Word `w` of entity `ei`'s visibility bits on the day of
    /// `day_mul`, given it is announced: its stable mask, less the
    /// monitors whose flicker draw fails.
    fn day_vis(&self, ei: usize, w: usize, day_mul: u64) -> u64 {
        let base_k = ei * self.monitors.len() + w * 64;
        let mut bits = self.masks[ei * self.mask_words + w];
        let mut vis_word = 0u64;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if self.flicker_passes(self.keys[base_k + b], day_mul) {
                vis_word |= 1u64 << b;
            }
        }
        vis_word
    }

    /// Monitor `m`'s selected entity for prefix `pid` under `vis`: the
    /// visible entity of least `(rank, entity)`, or [`NO_WINNER`].
    fn select(&self, vis: &[u64], pid: usize, m: usize) -> usize {
        let nm = self.monitors.len();
        let bit = 1u64 << (m % 64);
        let mut best = NO_WINNER;
        let mut best_rank = u64::MAX;
        // Entity order: a strict `<` keeps the lowest entity on ties.
        for &ei in &self.pid_entities[self.pid_starts[pid]..self.pid_starts[pid + 1]] {
            let rank = self.ranks[ei * nm + m];
            if vis[ei * self.mask_words + m / 64] & bit != 0
                && (best == NO_WINNER || rank < best_rank)
            {
                best = ei;
                best_rank = rank;
            }
        }
        best
    }

    /// Advance incremental state by exactly one day and report every
    /// selected-route change per monitor (`changes[m]`, sorted by
    /// prefix). Returns the new day, or `None` when the successor day
    /// leaves the span (state is then unchanged).
    ///
    /// The touched set per transition is the union of three sources:
    /// interval starts/ends from the CSR event index, announcement
    /// cycles (on-off / flap leases re-evaluated on both days), and
    /// flicker bit changes (old-vs-new visibility mask XOR). Each
    /// flipped `(entity, monitor)` bit touches the entity's prefix at
    /// that monitor, and winners are recomputed at touched prefixes
    /// only.
    pub fn advance_state(
        &self,
        state: &mut MonitorState,
        changes: &mut Vec<Vec<SelChange>>,
    ) -> Option<Date> {
        let new_day = state.day.succ();
        if !self.span.contains(new_day) {
            return None;
        }
        let new_off = state.day_off + 1;
        let day_mul = Self::day_mul(new_day);
        let nm = self.monitors.len();
        changes.resize_with(nm, Vec::new);
        for c in changes.iter_mut() {
            c.clear();
        }

        // Interval deltas scheduled at the new day: deactivations drop
        // every live bit, activations join the refresh pass below
        // (their old mask is zero, so the XOR only sets bits).
        let deltas = &self.events[self.event_starts[new_off]..self.event_starts[new_off + 1]];
        for d in deltas {
            if !d.add {
                if let Ok(pos) = state.active.binary_search(&d.entity) {
                    state.active.remove(pos);
                    for w in 0..self.mask_words {
                        self.set_vis(state, d.entity, w, 0);
                    }
                }
            }
        }
        for d in deltas {
            if d.add {
                if let Err(pos) = state.active.binary_search(&d.entity) {
                    state.active.insert(pos, d.entity);
                }
            }
        }
        let actives = std::mem::take(&mut state.active);
        for ei in (0..self.num_static).chain(actives.iter().copied()) {
            let announced = self.entity_announced(ei, new_day);
            for w in 0..self.mask_words {
                let new = if announced {
                    self.day_vis(ei, w, day_mul)
                } else {
                    0
                };
                self.set_vis(state, ei, w, new);
            }
        }
        state.active = actives;

        // Re-select each monitor's touched prefixes, in prefix order.
        let MonitorState {
            vis,
            winners,
            touched,
            ..
        } = state;
        for (m, (touched, out)) in touched.iter_mut().zip(changes.iter_mut()).enumerate() {
            touched.sort_unstable();
            touched.dedup();
            for &pid in touched.iter() {
                let slot = pid * nm + m;
                let new = self.select(vis, pid, m);
                let old = std::mem::replace(&mut winners[slot], new);
                let (old, new) = (held(old), held(new));
                let origin_changed = match (old, new) {
                    (Some(o), Some(n)) => self.entities[o].origin != self.entities[n].origin,
                    (None, None) => false,
                    _ => true,
                };
                if origin_changed {
                    out.push(SelChange {
                        prefix: self.prefixes[pid],
                        old,
                        new,
                    });
                }
            }
            touched.clear();
        }
        state.day = new_day;
        state.day_off = new_off;
        Some(new_day)
    }

    /// Store word `w` of entity `ei`'s visibility bits, touching the
    /// entity's prefix at every monitor whose bit flips.
    fn set_vis(&self, state: &mut MonitorState, ei: usize, w: usize, new: u64) {
        let old = std::mem::replace(&mut state.vis[ei * self.mask_words + w], new);
        let mut diff = old ^ new;
        while diff != 0 {
            let b = diff.trailing_zeros() as usize;
            diff &= diff - 1;
            state.touched[w * 64 + b].push(self.entity_pid[ei]);
        }
    }

    /// The selected routes of incremental state, one row per prefix in
    /// prefix order: the prefix and its `(monitor, entity)` holders in
    /// monitor order (none when no monitor holds it). Entity ids
    /// resolve to origins through [`RenderEngine::entity_origin`].
    pub(crate) fn state_rows<'s>(
        &'s self,
        state: &'s MonitorState,
    ) -> impl Iterator<Item = (Prefix, impl Iterator<Item = (usize, usize)> + 's)> + 's {
        let nm = self.monitors.len();
        self.prefixes.iter().enumerate().map(move |(pid, &p)| {
            let row = &state.winners[pid * nm..(pid + 1) * nm];
            (
                p,
                row.iter()
                    .enumerate()
                    .filter_map(|(m, &e)| held(e).map(|e| (m, e))),
            )
        })
    }

    /// Materialize the full per-monitor best-route view from
    /// incremental state: per monitor, the minimum-rank candidate of
    /// each prefix (the lowest entity index on ties), sorted by prefix.
    pub fn state_routes(&self, state: &MonitorState) -> Vec<Vec<(Prefix, Origin)>> {
        let mut routes = vec![Vec::new(); self.monitors.len()];
        for (p, row) in self.state_rows(state) {
            for (m, e) in row {
                routes[m].push((p, self.entity_origin(e).clone()));
            }
        }
        routes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::WorldConfig;
    use crate::topology::TopologyConfig;
    use nettypes::date::date;

    fn world() -> LeaseWorld {
        LeaseWorld::generate(&WorldConfig {
            seed: 21,
            span: DateRange::new(date("2018-01-01"), date("2018-03-31")),
            topology: TopologyConfig {
                seed: 21,
                num_tier1: 4,
                num_tier2: 12,
                num_stubs: 100,
                multi_as_org_fraction: 0.15,
            },
            num_allocations: 40,
            initial_active_leases: 120,
            bgp_visible_fraction: 0.3,
            num_hijacks: 5,
            num_moas: 4,
            num_as_sets: 3,
            num_scrubbing: 2,
            ..Default::default()
        })
    }

    #[test]
    fn sweep_is_order_independent() {
        let w = world();
        let model = VisibilityModel::default();
        let engine = RenderEngine::new(&w, &model);
        // Forward order…
        let mut forward = engine.scratch();
        let days: Vec<Date> = w.span.iter().collect();
        let f: Vec<ObservationDay> = days
            .iter()
            .map(|&d| engine.render_day(&mut forward, d))
            .collect();
        // …vs a scratch queried backwards (forces resets).
        let mut backward = engine.scratch();
        let b: Vec<ObservationDay> = days
            .iter()
            .rev()
            .map(|&d| engine.render_day(&mut backward, d))
            .collect();
        for (i, day) in f.iter().enumerate() {
            assert_eq!(*day, b[days.len() - 1 - i], "day {} differs", day.date);
        }
    }

    #[test]
    fn out_of_span_day_falls_back_to_interval_scan() {
        let w = world();
        let model = VisibilityModel::default();
        let engine = RenderEngine::new(&w, &model);
        let mut scratch = engine.scratch();
        // A day before the span: the sweep cannot serve it, but the
        // interval scan still renders every statically-announced
        // allocation, and nothing outside its active window.
        let day = engine.render_day(&mut scratch, date("2017-06-01"));
        let allocs = day
            .routes
            .iter()
            .filter(|r| r.class == Some(RouteClass::Allocation))
            .count();
        assert_eq!(allocs, w.allocations.len());
        assert!(day.routes.iter().all(|r| match r.class {
            Some(RouteClass::Hijack) | None => false, // events start in-span
            _ => true,
        }));
    }

    #[test]
    fn incremental_state_matches_full_render_every_day() {
        let w = world();
        let model = VisibilityModel::default();
        let engine = RenderEngine::new(&w, &model);
        // A fresh seed is a full render of its day.
        let full_render = |d: Date| engine.state_routes(&engine.seed_state(d).expect("in span"));
        let days: Vec<Date> = w.span.iter().collect();
        let mut state = engine.seed_state(days[0]).expect("day 0 is in span");
        let mut changes: Vec<Vec<SelChange>> = Vec::new();
        let mut prev = full_render(days[0]);
        for &d in &days[1..] {
            let advanced = engine.advance_state(&mut state, &mut changes);
            assert_eq!(advanced, Some(d));
            let full = full_render(d);
            assert_eq!(engine.state_routes(&state), full, "routes differ on {d}");
            // Every reported SelChange is a real origin change, and
            // the change lists fully account for the day-over-day
            // difference in selected origins.
            for (m, ch) in changes.iter().enumerate() {
                let old_map: std::collections::BTreeMap<Prefix, &Origin> =
                    prev[m].iter().map(|(p, o)| (*p, o)).collect();
                let new_map: std::collections::BTreeMap<Prefix, &Origin> =
                    full[m].iter().map(|(p, o)| (*p, o)).collect();
                let mut touched: Vec<Prefix> = ch.iter().map(|c| c.prefix).collect();
                assert!(touched.windows(2).all(|w| w[0] < w[1]), "unsorted changes");
                for c in ch {
                    assert_eq!(
                        c.old.map(|e| engine.entity_origin(e)),
                        old_map.get(&c.prefix).copied(),
                        "stale old origin for {} on {d}",
                        c.prefix
                    );
                    assert_eq!(
                        c.new.map(|e| engine.entity_origin(e)),
                        new_map.get(&c.prefix).copied(),
                        "wrong new origin for {} on {d}",
                        c.prefix
                    );
                }
                // Prefixes absent from the change list kept their
                // selected origin.
                touched.dedup();
                for (p, o) in old_map.iter() {
                    if touched.binary_search(p).is_err() {
                        assert_eq!(new_map.get(p), Some(o), "silent change at {p} on {d}");
                    }
                }
                for (p, o) in new_map.iter() {
                    if touched.binary_search(p).is_err() {
                        assert_eq!(old_map.get(p), Some(o), "silent appearance at {p} on {d}");
                    }
                }
            }
            prev = full;
        }
        // Advancing past the span end is a clean refusal.
        assert_eq!(engine.advance_state(&mut state, &mut changes), None);
        assert_eq!(state.day(), *days.last().unwrap());
    }

    #[test]
    fn seed_state_matches_full_render_mid_span() {
        let w = world();
        let model = VisibilityModel::default();
        let engine = RenderEngine::new(&w, &model);
        // One state advanced from the span start reaches each probe
        // day through patches alone.
        let mut advanced = engine.seed_state(w.span.start).expect("in span");
        let mut changes = Vec::new();
        for d in [date("2018-01-15"), date("2018-02-28"), date("2018-03-31")] {
            while advanced.day() < d {
                engine.advance_state(&mut advanced, &mut changes);
            }
            let state = engine.seed_state(d).expect("in span");
            assert_eq!(
                engine.state_routes(&state),
                engine.state_routes(&advanced),
                "seeded routes differ on {d}"
            );
        }
        assert!(engine.seed_state(date("2017-12-31")).is_none());
        assert!(engine.seed_state(date("2018-04-01")).is_none());
    }

    /// The selection every state must hold, computed without the
    /// engine's prefix index: per prefix id and monitor, the entity of
    /// least `(rank, entity)` among the prefix's entities with a set
    /// `vis` bit.
    fn brute_winners(
        engine: &RenderEngine<'_>,
        by_prefix: &[Vec<usize>],
        vis: &[u64],
    ) -> Vec<usize> {
        let nm = engine.monitors.len();
        let mut table = Vec::with_capacity(by_prefix.len() * nm);
        for members in by_prefix {
            for m in 0..nm {
                let best = members
                    .iter()
                    .filter(|&&ei| vis[ei * engine.mask_words + m / 64] >> (m % 64) & 1 == 1)
                    .min_by_key(|&&ei| (engine.ranks[ei * nm + m], ei));
                table.push(best.copied().unwrap_or(NO_WINNER));
            }
        }
        table
    }

    /// Advance a state from the span start by up to `days` days,
    /// checking after every advance that the visibility bits equal a
    /// fresh seed's, that the winner table is the brute-force
    /// selection, and that each monitor's change list is exactly the
    /// prefixes whose selected origin changed, in prefix order. Returns
    /// each day's changes.
    fn walk_checked(engine: &RenderEngine<'_>, days: usize) -> Vec<(Date, Vec<Vec<SelChange>>)> {
        let nm = engine.monitors.len();
        let mut by_prefix: std::collections::BTreeMap<Prefix, Vec<usize>> = Default::default();
        for (ei, e) in engine.entities.iter().enumerate() {
            by_prefix.entry(e.prefix).or_default().push(ei);
        }
        let prefixes: Vec<Prefix> = by_prefix.keys().copied().collect();
        assert_eq!(engine.prefixes, prefixes, "prefix ids are not prefix order");
        let by_prefix: Vec<Vec<usize>> = by_prefix.into_values().collect();
        let mut state = engine.seed_state(engine.span.start).expect("span start");
        assert_eq!(state.winners, brute_winners(engine, &by_prefix, &state.vis));
        let mut walked = Vec::new();
        let mut changes = Vec::new();
        while walked.len() < days {
            let before = state.winners.clone();
            let Some(d) = engine.advance_state(&mut state, &mut changes) else {
                break;
            };
            let fresh = engine.seed_state(d).expect("in span");
            assert_eq!(state.vis, fresh.vis, "visibility bits differ on {d}");
            assert_eq!(
                state.winners, fresh.winners,
                "advanced table differs on {d}"
            );
            assert_eq!(
                state.winners,
                brute_winners(engine, &by_prefix, &state.vis),
                "winners differ on {d}"
            );
            assert_eq!(changes.len(), nm);
            let origin = |e: Option<usize>| e.map(|e| engine.entity_origin(e));
            for (m, got) in changes.iter().enumerate() {
                let want: Vec<SelChange> = (0..engine.prefixes.len())
                    .filter_map(|pid| {
                        let old = held(before[pid * nm + m]);
                        let new = held(state.winners[pid * nm + m]);
                        (origin(old) != origin(new)).then_some(SelChange {
                            prefix: engine.prefixes[pid],
                            old,
                            new,
                        })
                    })
                    .collect();
                assert_eq!(*got, want, "changes differ at monitor {m} on {d}");
            }
            walked.push((d, changes.clone()));
        }
        walked
    }

    /// The test world with extra MOAS entities: `(prefix, origin,
    /// first day offset, last day offset)`.
    fn with_moas(mut w: LeaseWorld, extra: &[(Prefix, Asn, i64, i64)]) -> LeaseWorld {
        for &(prefix, second_origin, from, to) in extra {
            w.moas.push(crate::scenario::MoasEvent {
                prefix,
                second_origin,
                active: DateRange::new(w.span.start + from, w.span.start + to),
            });
        }
        w
    }

    proptest::proptest! {
        /// Random visibility flips (any flicker rate, masks of one or
        /// two words, MOAS entities stacked on allocated prefixes with
        /// equal or other origins and random lifetimes) never leave
        /// the winner table or the change lists off the brute-force
        /// selection.
        #[test]
        fn winner_table_matches_brute_force_under_random_flips(
            seed in 0u64..1_000_000,
            monitors in 1u16..80,
            flicker in 0.0f64..0.7,
            extra in proptest::collection::vec(
                (0usize..40, proptest::any::<bool>(), 0i64..25, 0i64..15),
                0..12,
            ),
        ) {
            let w = world();
            let extra: Vec<_> = extra
                .iter()
                .map(|&(a, same, from, len)| {
                    let alloc = &w.allocations[a % w.allocations.len()];
                    let origin = if same {
                        alloc.asn
                    } else {
                        w.allocations[(a + 1) % w.allocations.len()].asn
                    };
                    (alloc.prefix, origin, from, from + len)
                })
                .collect();
            let w = with_moas(w, &extra);
            let model = VisibilityModel {
                num_monitors: monitors,
                daily_flicker: flicker,
                seed,
            };
            walk_checked(&RenderEngine::new(&w, &model), 30);
        }
    }

    /// A prefix no entity of [`world`] announces, numbered from the
    /// 203.0.113.0/24 documentation block.
    fn fresh_prefix(w: &LeaseWorld, i: u32) -> Prefix {
        let p = Prefix::new_unchecked_masked(0xCB00_7100 + (i << 8), 24);
        let engine = RenderEngine::new(w, &VisibilityModel::default());
        assert!(engine.prefixes.binary_search(&p).is_err(), "{p} is taken");
        p
    }

    #[test]
    fn winner_swap_between_equal_origins_emits_no_change() {
        // Two entities of one prefix with one origin share every rank
        // and every visibility draw, so the lower entity id wins while
        // it lives. `retire` loses it on day 45 while the other stays;
        // `handover` loses it on day 30 as the other activates. Both
        // swap the winner at every monitor that sees both days, and
        // neither changes the selected origin.
        let w = world();
        let asn = w.allocations[0].asn;
        let (retire, handover) = (fresh_prefix(&w, 0), fresh_prefix(&w, 1));
        let w = with_moas(
            w,
            &[
                (retire, asn, 0, 44),
                (retire, asn, 0, 89),
                (handover, asn, 0, 29),
                (handover, asn, 30, 89),
            ],
        );
        let model = VisibilityModel {
            daily_flicker: 0.3,
            ..VisibilityModel::default()
        };
        let engine = RenderEngine::new(&w, &model);
        let nm = engine.monitors.len();
        let mut state = engine.seed_state(w.span.start).expect("in span");
        let mut changes = Vec::new();
        let mut swaps = 0;
        loop {
            let before = state.winners.clone();
            let Some(d) = engine.advance_state(&mut state, &mut changes) else {
                break;
            };
            for p in [retire, handover] {
                let pid = engine.prefixes.binary_search(&p).expect("indexed");
                for m in 0..nm {
                    let (old, new) = (before[pid * nm + m], state.winners[pid * nm + m]);
                    if old != new && old != NO_WINNER && new != NO_WINNER {
                        swaps += 1;
                        assert!(
                            changes[m].iter().all(|c| c.prefix != p),
                            "swap at {p} reported on {d}"
                        );
                    }
                }
            }
        }
        assert!(swaps > nm / 2, "only {swaps} swaps");
        walk_checked(&engine, usize::MAX);
    }

    #[test]
    fn two_entities_of_one_prefix_retire_and_activate_on_one_day() {
        // `both` carries two entities of distinct origins live on days
        // 10..=20: both activate on day 10 and both retire on day 21.
        // `handover` moves from one origin to the other on day 30, the
        // day the first entity retires and the second activates.
        let w = world();
        let (a, b) = (w.allocations[0].asn, w.allocations[1].asn);
        assert_ne!(a, b);
        let (both, handover) = (fresh_prefix(&w, 0), fresh_prefix(&w, 1));
        let w = with_moas(
            w,
            &[
                (both, a, 10, 20),
                (both, b, 10, 20),
                (handover, a, 0, 29),
                (handover, b, 30, 89),
            ],
        );
        // No flicker: the interval events are the only changes.
        let model = VisibilityModel {
            daily_flicker: 0.0,
            ..VisibilityModel::default()
        };
        let engine = RenderEngine::new(&w, &model);
        let walked = walk_checked(&engine, usize::MAX);
        // `walked[i]` is the advance onto day offset `i + 1`.
        let at = |off: usize, p: Prefix| -> Vec<SelChange> {
            walked[off - 1]
                .1
                .iter()
                .flat_map(|ch| ch.iter().filter(|c| c.prefix == p).copied())
                .collect()
        };
        let origin = |e: Option<usize>| e.map(|e| engine.entity_origin(e).clone());
        let (a, b) = (Some(Origin::Single(a)), Some(Origin::Single(b)));
        let on = at(10, both);
        assert!(!on.is_empty());
        assert!(on.iter().all(|c| c.old.is_none() && c.new.is_some()));
        let off = at(21, both);
        assert!(!off.is_empty());
        assert!(off.iter().all(|c| c.old.is_some() && c.new.is_none()));
        for off in (11..=20).chain(22..90) {
            assert!(at(off, both).is_empty(), "{both} changed on day {off}");
        }
        let moved = at(30, handover);
        assert!(moved
            .iter()
            .any(|c| origin(c.old) == a && origin(c.new) == b));
        assert!(moved
            .iter()
            .all(|c| origin(c.old) != b && origin(c.new) != a));
    }

    #[test]
    fn a_world_without_monitors_selects_nothing() {
        let w = world();
        let model = VisibilityModel {
            num_monitors: 0,
            ..VisibilityModel::default()
        };
        let engine = RenderEngine::new(&w, &model);
        let walked = walk_checked(&engine, usize::MAX);
        assert_eq!(walked.len(), w.span.iter().count() - 1);
        assert!(walked.iter().all(|(_, changes)| changes.is_empty()));
        let state = engine.seed_state(w.span.start).expect("in span");
        assert!(engine.state_routes(&state).is_empty());
        assert!(engine
            .state_rows(&state)
            .all(|(_, mut holders)| holders.next().is_none()));
    }

    #[test]
    fn scratches_are_independent() {
        let w = world();
        let model = VisibilityModel::default();
        let engine = RenderEngine::new(&w, &model);
        let d = date("2018-02-10");
        let mut a = engine.scratch();
        let mut b = engine.scratch();
        // Warm `a` with other days first; `b` goes straight there.
        let _ = engine.render_day(&mut a, date("2018-01-05"));
        let _ = engine.render_day(&mut a, date("2018-01-20"));
        assert_eq!(engine.render_day(&mut a, d), engine.render_day(&mut b, d));
    }
}
