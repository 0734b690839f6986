//! The MRT-based collector archive: daily RIB dumps plus update
//! streams, and the paper's reconstruction procedure.
//!
//! §4: *"We aggregated the data daily; i.e., we use the RIB snapshot
//! at 0:00 UTC+0 and all update files for that day. If an update file
//! is missing, we additionally download the first available rib
//! snapshot afterward."*
//!
//! [`CollectorArchiveV2`] stores genuine RFC 6396 bytes:
//! `TABLE_DUMP_V2` files for the periodic RIB snapshots and `BGP4MP`
//! files carrying real BGP UPDATE messages for the daily diffs.
//! [`ObservationSweep`] is the one reconstruction: it serves each day
//! from the most recent RIB plus the update files since, implementing
//! the missing-file fallback verbatim, and keeps the per-peer routing
//! state and its per-`(prefix, origin)` monitor counts alive across
//! the days of a walk.

use crate::bgp::{self, AsPathView, MessageView, Segment};
use crate::engine::{MonitorState, RenderEngine, SelChange};
use crate::mrt2::{
    Bgp4mpSession, Mrt2Error, MrtRecordView, MrtWriter, PeerEntry, RecordReader, RecordView,
    RibEntryView,
};
use crate::observe::{ObservationDay, RouteObservation, VisibilityModel};
use crate::query::{parse_file_name, FileKind};
use crate::scenario::LeaseWorld;
use crate::topology::Topology;
use bytes::Bytes;
use nettypes::asn::{Asn, Origin};
use nettypes::date::{Date, DateRange};
use nettypes::prefix::Prefix;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;

/// Errors from archive reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchiveError {
    /// No RIB snapshot exists at or before (or after) the requested day.
    NoRibAvailable(Date),
    /// The requested day precedes the archive entirely.
    OutOfRange(Date),
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::NoRibAvailable(d) => write!(f, "no RIB available around {d}"),
            ArchiveError::OutOfRange(d) => write!(f, "{d} outside the archived window"),
        }
    }
}

impl std::error::Error for ArchiveError {}

/// How a day's state was obtained.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Provenance {
    /// RIB of the same day (possibly plus that day's updates).
    Exact,
    /// Reconstructed from an earlier RIB plus complete update files.
    Reconstructed {
        /// The RIB's date.
        rib_date: Date,
    },
    /// An update file was missing; the state is the first available
    /// later RIB (the paper's fallback).
    FallbackRib {
        /// The later RIB's date.
        rib_date: Date,
    },
}

/// Archive configuration.
#[derive(Clone, Debug)]
pub struct ArchiveV2Config {
    /// Store a full RIB every this many days (RIS: every 8 hours; we
    /// archive daily state, so 1 = every day, 7 = weekly).
    pub rib_every_days: usize,
    /// Collector ASN (route collectors peer from a reserved AS).
    pub collector_asn: Asn,
    /// Collector BGP identifier.
    pub collector_bgp_id: u32,
}

impl Default for ArchiveV2Config {
    fn default() -> Self {
        ArchiveV2Config {
            rib_every_days: 7,
            collector_asn: Asn(12654), // RIS's AS, as a nod
            collector_bgp_id: 0xC012_0001,
        }
    }
}

/// The MRT archive: RIB files + update files, all as wire bytes.
#[derive(Clone, Debug, Default)]
pub struct CollectorArchiveV2 {
    ribs: BTreeMap<Date, Bytes>,
    updates: BTreeMap<Date, Bytes>,
    peers: Vec<PeerEntry>,
}

/// 00:00 UTC of `d` as a Unix timestamp. MRT timestamps are 32-bit:
/// days from 2106-02-08 on are refused with
/// [`Mrt2Error::TimestampOverflow`].
fn midnight(d: Date) -> Result<u32, Mrt2Error> {
    let secs = d.days_since_epoch().max(0) as u64 * 86_400;
    u32::try_from(secs).map_err(|_| Mrt2Error::TimestampOverflow(d))
}

/// The NEXT_HOP of every simulated route.
const NEXT_HOP: u32 = 0x0A00_0001;

/// The collector's address in every BGP4MP record.
const LOCAL_IP: u32 = 0x0A00_00FE;

/// The shared attribute table for the encode passes, keyed by the
/// render engine's route entities.
///
/// The monitor→origin valley-free path and its encoded attribute blob
/// are day-invariant, so the table computes every `(peer, origin)`
/// pair up front — one whole-topology BFS per peer
/// ([`Topology::paths_from`]) instead of a pairwise search per pair —
/// and eagerly encodes the attribute blob for each, which RIB entries
/// and UPDATEs alike copy. Each entity's origin is looked up in the
/// topology once, here. The table is immutable afterwards, so one
/// instance is shared by every worker and every day. Keys are flat
/// `peer_slot * n_nodes + origin_index`; AS_SET origins, and origins
/// outside the topology (none today), are encoded on the fly, which is
/// still deterministic.
struct AttrTable<'w> {
    topology: &'w Topology,
    n_nodes: usize,
    encoded: Vec<Vec<u8>>,
    /// Per entity, its origin and the origin's topology index when it
    /// is a single AS of the topology.
    entities: Vec<(&'w Origin, Option<usize>)>,
}

impl<'w> AttrTable<'w> {
    fn new(
        topology: &'w Topology,
        peers: &[PeerEntry],
        origins: impl Iterator<Item = &'w Origin>,
    ) -> Result<AttrTable<'w>, Mrt2Error> {
        let nodes = topology.nodes();
        let n_nodes = nodes.len();
        let mut encoded = Vec::with_capacity(peers.len() * n_nodes);
        for peer in peers {
            let all = topology.paths_from(peer.asn);
            for (oi, node) in nodes.iter().enumerate() {
                // Fallback `[peer, o]` when no valley-free path exists
                // — same as the uncached encoder.
                let path = match &all {
                    Some(v) => v[oi].clone(),
                    None => topology.path(peer.asn, node.asn),
                }
                .unwrap_or_else(|| vec![peer.asn, node.asn]);
                encoded.push(bgp::encode_path_attributes(
                    &[Segment::Sequence(&path)],
                    NEXT_HOP,
                )?);
            }
        }
        let entities = origins
            .map(|o| (o, o.as_single().and_then(|a| topology.index_of(a))))
            .collect();
        Ok(AttrTable {
            topology,
            n_nodes,
            encoded,
            entities,
        })
    }

    /// The attribute blob of `peer`'s route to entity `e`'s origin;
    /// table hits cost no copy at all.
    fn blob(&self, peer_slot: usize, peer: Asn, e: usize) -> Result<Cow<'_, [u8]>, Mrt2Error> {
        let encoded = match self.entities[e] {
            (_, Some(oi)) => {
                return Ok(Cow::Borrowed(&self.encoded[peer_slot * self.n_nodes + oi]))
            }
            (Origin::Single(o), None) => {
                let path = self
                    .topology
                    .path(peer, *o)
                    .unwrap_or_else(|| vec![peer, *o]);
                bgp::encode_path_attributes(&[Segment::Sequence(&path)], NEXT_HOP)
            }
            (Origin::Set(set), None) => bgp::encode_path_attributes(
                &[Segment::Sequence(&[peer]), Segment::Set(set)],
                NEXT_HOP,
            ),
        };
        encoded.map(Cow::Owned)
    }
}

/// The peer table for a monitor fleet. Peer tables are u16-counted on
/// the wire; oversized monitor sets are rejected here so every
/// per-peer index downstream fits.
fn build_peers(monitor_asns: &[Asn]) -> Result<Vec<PeerEntry>, Mrt2Error> {
    if u16::try_from(monitor_asns.len()).is_err() {
        return Err(Mrt2Error::TooLong {
            field: "peer table",
            len: monitor_asns.len(),
        });
    }
    Ok(monitor_asns
        .iter()
        .enumerate()
        .map(|(i, &asn)| PeerEntry {
            bgp_id: 0x0A00_0100 + i as u32, // lint:allow(L1): i ≤ u16::MAX, checked above
            ip: 0x0A00_0200 + i as u32,     // lint:allow(L1): i ≤ u16::MAX, checked above
            asn,
        })
        .collect())
}

/// One day's encoded files: its RIB (on RIB days) and its update file
/// (after the first day), or the first error encoding them.
type Encoded = Result<(Option<Bytes>, Option<Bytes>), Mrt2Error>;

/// The order update files announce origins in: per entity, the rank of
/// its origin's rendering (`format!("{o}")`) among the sorted distinct
/// renderings of every entity's origin. Renderings sort as strings, so
/// `AS10` comes before `AS9`, and an AS_SET `{…}` after every `AS…`.
fn rendering_ranks<'e>(origins: impl Iterator<Item = &'e Origin>) -> Vec<usize> {
    let rendered: Vec<String> = origins.map(Origin::to_string).collect();
    let mut sorted: Vec<&str> = rendered.iter().map(String::as_str).collect();
    sorted.sort_unstable();
    sorted.dedup();
    rendered
        .iter()
        .map(|r| sorted.binary_search(&r.as_str()).unwrap_or_else(|at| at))
        .collect()
}

impl CollectorArchiveV2 {
    /// Generate the archive for a world over `span` at the default
    /// thread count.
    pub fn generate(
        world: &LeaseWorld,
        model: &VisibilityModel,
        span: DateRange,
        config: &ArchiveV2Config,
    ) -> Result<CollectorArchiveV2, Mrt2Error> {
        Self::generate_with_threads(world, model, span, config, crate::par::num_threads())
    }

    /// Generate the archive on `threads` workers, incrementally.
    ///
    /// The span is split into one contiguous day range per worker;
    /// each worker seeds one full render at its chunk start
    /// ([`RenderEngine::seed_state`]) and then advances day by day
    /// ([`RenderEngine::advance_state`]), so each day transition costs
    /// only its touched prefixes. RIB files snapshot the maintained
    /// state; update files are encoded straight from the per-monitor
    /// [`SelChange`] lists instead of merge-joining two full states.
    /// Chunk results merge in date order, so the archive bytes are
    /// identical for any thread count.
    pub fn generate_with_threads(
        world: &LeaseWorld,
        model: &VisibilityModel,
        span: DateRange,
        config: &ArchiveV2Config,
        threads: usize,
    ) -> Result<CollectorArchiveV2, Mrt2Error> {
        let n = span.iter().count();
        let ranges = crate::par::chunk_ranges(n, threads);
        Self::generate_with_chunks(world, model, span, config, &ranges)
    }

    /// Incremental generation over caller-chosen chunk boundaries.
    ///
    /// `ranges` must partition `0..span_days` contiguously in order
    /// (what [`crate::par::chunk_ranges`] produces, but any split
    /// works); otherwise [`Mrt2Error::UntiledChunk`] names the first
    /// range out of place. Exposed so the determinism suite can prove
    /// that chunk boundaries never change the archive bytes.
    #[doc(hidden)]
    pub fn generate_with_chunks(
        world: &LeaseWorld,
        model: &VisibilityModel,
        span: DateRange,
        config: &ArchiveV2Config,
        ranges: &[std::ops::Range<usize>],
    ) -> Result<CollectorArchiveV2, Mrt2Error> {
        let engine = RenderEngine::new(world, model);
        let peers = build_peers(engine.monitors())?;

        let days: Vec<Date> = span.iter().collect();
        let n = days.len();
        let mut covered = 0;
        for r in ranges {
            if r.start != covered || r.end < r.start {
                return Err(Mrt2Error::UntiledChunk(r.clone()));
            }
            covered = r.end;
        }
        if covered != n {
            return Err(Mrt2Error::UntiledChunk(covered.min(n)..covered.max(n)));
        }
        let span_obs = obs::span!(
            "mrt_encode",
            days = n,
            threads = ranges.len(),
            unit = "days"
        );
        span_obs.add_items(n as u64);
        let attrs = {
            let _t = obs::span!("mrt_attr_table");
            AttrTable::new(&world.topology, &peers, engine.entity_origins())?
        };
        let ranks = rendering_ranks(engine.entity_origins());
        let rib_every = config.rib_every_days.max(1);
        // Day `i`'s files from the state of day `i` and the changes
        // that led to it.
        let encode_day = |i: usize, state: &MonitorState, changes: &[Vec<SelChange>]| -> Encoded {
            let rib = i
                .is_multiple_of(rib_every)
                .then(|| encode_rib(&attrs, config, &peers, days[i], engine.state_rows(state)))
                .transpose()?;
            let upd = (i > 0)
                .then(|| encode_updates_delta(&attrs, &ranks, config, &peers, days[i], changes))
                .transpose()?;
            Ok((rib, upd))
        };
        let encoded: Vec<Encoded> = {
            let _pass = obs::span!("mrt_delta_pass");
            crate::par::map_chunked_with(
                ranges,
                // Seed at the chunk's predecessor day so the first
                // in-chunk transition yields that day's update file; a
                // day the world cannot serve is kept as `Err(index)`.
                |first| {
                    let seed = first.saturating_sub(1);
                    (engine.seed_state(days[seed]).ok_or(seed), Vec::new())
                },
                |(walk, changes), i| {
                    // Every day past the first is one transition from
                    // the walk's day.
                    if let Ok(state) = walk {
                        if i > 0 && engine.advance_state(state, changes).is_none() {
                            *walk = Err(i);
                        }
                    }
                    match walk {
                        Ok(state) => encode_day(i, state, changes),
                        Err(at) => Err(Mrt2Error::DayOutsideWorld(days[*at])),
                    }
                },
            )
        };
        Self::assemble(peers, days, encoded)
    }

    /// Deterministic date-ordered store; the first encode error (if
    /// any) surfaces here, after the parallel pass drains.
    fn assemble(
        peers: Vec<PeerEntry>,
        days: Vec<Date>,
        encoded: Vec<Encoded>,
    ) -> Result<CollectorArchiveV2, Mrt2Error> {
        let mut archive = CollectorArchiveV2 {
            ribs: BTreeMap::new(),
            updates: BTreeMap::new(),
            peers,
        };
        for (&day, files) in days.iter().zip(encoded) {
            let (rib, upd) = files?;
            if let Some(bytes) = rib {
                archive.ribs.insert(day, bytes);
            }
            if let Some(bytes) = upd {
                archive.updates.insert(day, bytes);
            }
        }
        obs::event!(
            obs::Level::Info,
            "archive_built",
            ribs = archive.ribs.len(),
            updates = archive.updates.len(),
        );
        Ok(archive)
    }

    /// The collector's peer table.
    pub fn peers(&self) -> &[PeerEntry] {
        &self.peers
    }

    /// Dates with RIB files.
    pub fn rib_dates(&self) -> impl Iterator<Item = Date> + '_ {
        self.ribs.keys().copied()
    }

    /// Dates with update files.
    pub fn update_dates(&self) -> impl Iterator<Item = Date> + '_ {
        self.updates.keys().copied()
    }

    /// Raw RIB bytes (for fault injection and size accounting).
    pub fn rib_bytes(&self, d: Date) -> Option<&Bytes> {
        self.ribs.get(&d)
    }

    /// Raw update bytes.
    pub fn update_bytes(&self, d: Date) -> Option<&Bytes> {
        self.updates.get(&d)
    }

    /// Total archive size in bytes.
    pub fn total_bytes(&self) -> usize {
        self.ribs.values().map(|b| b.len()).sum::<usize>()
            + self.updates.values().map(|b| b.len()).sum::<usize>()
    }

    /// Write the archive to a directory, one file per day, using the
    /// collector-style naming `rib-YYYY-MM-DD.mrt` /
    /// `updates-YYYY-MM-DD.mrt` that [`crate::query::files_from_dir`]
    /// reads back. Returns the number of files written.
    ///
    /// [`crate::query::files_from_dir`] reads every archive-named file
    /// it finds, so a directory holding files of another archive would
    /// mix two worlds. If `dir` already holds an archive-named file for
    /// a date this archive does not write, nothing is written and the
    /// error names the first such file (in name order).
    ///
    /// Each file is written to `<name>.tmp`, synced, and then renamed
    /// into place, so a reader never sees a half-written archive file: a
    /// write cut short leaves a `.tmp` file, which neither
    /// [`crate::query::files_from_dir`] nor the stray check above treats
    /// as an archive file.
    pub fn write_dir(&self, dir: &std::path::Path) -> std::io::Result<usize> {
        std::fs::create_dir_all(dir)?;
        let mut stray: Vec<String> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let ours = match parse_file_name(name) {
                Some((FileKind::Rib, d)) => self.ribs.contains_key(&d),
                Some((FileKind::Updates, d)) => self.updates.contains_key(&d),
                None => true,
            };
            if !ours {
                stray.push(name.to_string());
            }
        }
        if let Some(name) = stray.iter().min() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!(
                    "{} already holds {name}, which this archive does not write; \
                     refusing to mix two archives in one directory",
                    dir.display()
                ),
            ));
        }
        let ribs = self.ribs.iter().map(|(d, b)| (format!("rib-{d}.mrt"), b));
        let updates = self
            .updates
            .iter()
            .map(|(d, b)| (format!("updates-{d}.mrt"), b));
        let mut written = 0usize;
        for (name, bytes) in ribs.chain(updates) {
            let tmp = dir.join(format!("{name}.tmp"));
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            file.sync_all()?;
            std::fs::rename(&tmp, dir.join(name))?;
            written += 1;
        }
        // The renames are directory entries: sync those too.
        std::fs::File::open(dir)?.sync_all()?;
        Ok(written)
    }

    /// Delete an update file (simulates an archive gap).
    pub fn drop_update_file(&mut self, d: Date) -> bool {
        self.updates.remove(&d).is_some()
    }

    /// Delete a RIB file.
    pub fn drop_rib(&mut self, d: Date) -> bool {
        self.ribs.remove(&d).is_some()
    }

    /// Overwrite an update file with corrupted bytes.
    pub fn corrupt_update_file(&mut self, d: Date, bytes: Bytes) {
        self.updates.insert(d, bytes);
    }

    /// Overwrite a RIB file with corrupted bytes.
    pub fn corrupt_rib(&mut self, d: Date, bytes: Bytes) {
        self.ribs.insert(d, bytes);
    }

    /// Start a day-by-day walk over this archive.
    pub fn sweep(&self) -> ObservationSweep<'_> {
        ObservationSweep {
            archive: self,
            state: State::default(),
            anchor: None,
            full_rebuilds: 0,
        }
    }
}

/// The outcome of one [`ObservationSweep::advance`] step.
#[derive(Clone, Debug)]
pub struct DayDelta {
    /// How the day's state was obtained.
    pub provenance: Provenance,
    /// Prefixes whose observation surface (the per-prefix origin/count
    /// rows) may have changed since the previous served day, sorted.
    /// The first day served from the empty state reports every prefix,
    /// and a peer-table change reports every prefix held before or
    /// after it.
    pub changed: Vec<Prefix>,
}

/// How the sweep's state relates to the last day it stepped.
#[derive(Clone, Copy)]
enum Anchor {
    /// The RIB at `rib_date` with every update file through `day`
    /// applied.
    Day { day: Date, rib_date: Date },
    /// An update file at or before `day` is missing: the state is the
    /// first RIB after the gap, at `rib` (> `day`).
    Fallback { day: Date, rib: Date },
    /// The update file for `missing` is gone and no RIB exists at or
    /// after it: every later day fails the same way.
    Dead { day: Date, missing: Date },
}

impl Anchor {
    fn day(self) -> Date {
        match self {
            Anchor::Day { day, .. } | Anchor::Fallback { day, .. } | Anchor::Dead { day, .. } => {
                day
            }
        }
    }
}

/// The empty slot of a peer row: no route.
const NONE: u32 = u32::MAX;

/// The per-peer routing state and its aggregation, on dense ids.
///
/// Prefixes and origins are interned per sweep, in first-seen order,
/// to `u32` ids. Each peer holds a row indexed by prefix id whose slots
/// hold origin ids; each prefix holds its `(origin id, peers)` counts
/// in `Origin` order. Every change goes through one recount
/// ([`Surface::recount`]): route writes from update files
/// ([`State::announce`], [`State::withdraw`]) and RIB loads
/// ([`State::load`]) alike. No output depends on id order: the served
/// surface is read back in `(Prefix, Origin)` order.
#[derive(Default)]
struct State {
    peers: Vec<PeerEntry>,
    /// `(ip, asn) → peer index`, built once per peer table.
    index_of: HashMap<(u32, Asn), usize>,
    prefixes: Vec<Prefix>,
    prefix_ids: HashMap<Prefix, u32>,
    origins: Vec<Origin>,
    origin_ids: HashMap<Origin, u32>,
    /// Per peer, prefix id → origin id (or [`NONE`]); a row may be
    /// shorter than `prefixes`, the slots past its end being `NONE`.
    rows: Vec<Vec<u32>>,
    surface: Surface,
    /// The rows a RIB decodes into, kept to reuse their buffers.
    decoded: Vec<Vec<u32>>,
}

/// The observation surface and the prefixes recounted since the last
/// served day, indexed by prefix id.
#[derive(Default)]
struct Surface {
    /// `(origin id, peers holding it)` in `Origin` order.
    counts: Vec<Vec<(u32, u16)>>,
    touched: Vec<u32>,
    marked: Vec<bool>,
}

impl Surface {
    /// Move one peer's route to prefix `pid` from origin `old` to
    /// `new` (either may be [`NONE`]) in the counts and mark the prefix
    /// touched. Nothing happens when the origin is unchanged.
    fn recount(&mut self, origins: &[Origin], pid: u32, old: u32, new: u32) {
        if old == new {
            return;
        }
        let p = pid as usize;
        let rows = &mut self.counts[p];
        if let Some(i) = rows.iter().position(|&(o, _)| o == old) {
            rows[i].1 -= 1;
            if rows[i].1 == 0 {
                rows.remove(i);
            }
        }
        if new != NONE {
            match rows.iter().position(|&(o, _)| o == new) {
                Some(i) => rows[i].1 += 1,
                None => {
                    let origin = &origins[new as usize];
                    let at = rows.partition_point(|&(o, _)| origins[o as usize] < *origin);
                    rows.insert(at, (new, 1));
                }
            }
        }
        if !self.marked[p] {
            self.marked[p] = true;
            self.touched.push(pid);
        }
    }
}

/// The id after `len` interned ones; `None` once ids run out.
fn next_id(len: usize) -> Option<u32> {
    u32::try_from(len).ok().filter(|&id| id != NONE)
}

impl State {
    /// The id of `p`, interning it; `None` once ids run out.
    fn prefix_id(&mut self, p: Prefix) -> Option<u32> {
        if let Some(&id) = self.prefix_ids.get(&p) {
            return Some(id);
        }
        let id = next_id(self.prefixes.len())?;
        self.prefixes.push(p);
        self.prefix_ids.insert(p, id);
        self.surface.counts.push(Vec::new());
        self.surface.marked.push(false);
        Some(id)
    }

    /// The id of `o`, interning it; `None` once ids run out.
    fn origin_id(&mut self, o: Origin) -> Option<u32> {
        if let Some(&id) = self.origin_ids.get(&o) {
            return Some(id);
        }
        let id = next_id(self.origins.len())?;
        self.origins.push(o.clone());
        self.origin_ids.insert(o, id);
        Some(id)
    }

    /// Set peer `pi`'s route to `p` to the origin `oid`.
    fn announce(&mut self, pi: usize, p: Prefix, oid: u32) {
        let Some(pid) = self.prefix_id(p) else {
            return;
        };
        let row = &mut self.rows[pi];
        let at = pid as usize;
        if row.len() <= at {
            row.resize(at + 1, NONE);
        }
        let old = std::mem::replace(&mut row[at], oid);
        self.surface.recount(&self.origins, pid, old, oid);
    }

    /// Withdraw peer `pi`'s route to `p`. A prefix never seen interns
    /// nothing and touches nothing.
    fn withdraw(&mut self, pi: usize, p: Prefix) {
        let Some(&pid) = self.prefix_ids.get(&p) else {
            return;
        };
        let Some(old) = self.rows[pi].get_mut(pid as usize) else {
            return;
        };
        let old = std::mem::replace(old, NONE);
        self.surface.recount(&self.origins, pid, old, NONE);
    }

    /// Make the state equal the RIB in `bytes`: decode it into the
    /// decode rows, then diff each peer's row against the one held, so
    /// only the routes that differ are recounted. Undecodable records
    /// and entries are skipped, as are entries past the peer table, and
    /// a later entry for a peer and prefix wins (lossy, like real
    /// pipelines); a later peer table starts the rows afresh. A RIB
    /// with no peer table leaves the state as it was (`None`), and a
    /// peer table other than the held one withdraws every route first.
    fn load(&mut self, bytes: &[u8]) -> Option<()> {
        let mut reader = RecordReader::new(bytes);
        let mut peers: Vec<PeerEntry> = Vec::new();
        let mut decoded = std::mem::take(&mut self.decoded);
        for rec in reader.by_ref() {
            match rec.record {
                MrtRecordView::PeerIndexTable(t) => {
                    peers = t.peers().collect();
                    if decoded.len() < peers.len() {
                        decoded.resize_with(peers.len(), Vec::new);
                    }
                    for row in &mut decoded[..peers.len()] {
                        row.clear();
                    }
                }
                MrtRecordView::RibIpv4Unicast(r) => {
                    let mut pid = None;
                    for e in r.entries() {
                        let pi = usize::from(e.peer_index);
                        if pi >= peers.len() {
                            continue;
                        }
                        let origin = bgp::as_path(e.attributes).ok().and_then(AsPathView::origin);
                        let Some(oid) = origin.and_then(|o| self.origin_id(o)) else {
                            continue;
                        };
                        let Some(id) = pid.or_else(|| self.prefix_id(r.prefix)) else {
                            continue;
                        };
                        pid = Some(id);
                        let row = &mut decoded[pi];
                        let at = id as usize;
                        if row.len() <= at {
                            row.resize(at + 1, NONE);
                        }
                        row[at] = oid;
                    }
                }
                _ => {}
            }
        }
        reader.stats().emit();
        if peers.is_empty() {
            self.decoded = decoded;
            return None;
        }
        let State {
            rows,
            origins,
            surface,
            ..
        } = self;
        if self.peers != peers {
            for row in rows.iter_mut() {
                for (pid, &old) in (0u32..).zip(row.iter()) {
                    surface.recount(origins, pid, old, NONE);
                }
            }
            rows.clear();
            rows.resize_with(peers.len(), Vec::new);
            self.index_of = peers
                .iter()
                .enumerate()
                .map(|(i, p)| ((p.ip, p.asn), i))
                .collect();
            self.peers = peers;
        }
        for (held, new) in rows.iter_mut().zip(&mut decoded) {
            let len = held.len().max(new.len());
            held.resize(len, NONE);
            new.resize(len, NONE);
            for (pid, (&old, &now)) in (0u32..).zip(held.iter().zip(new.iter())) {
                surface.recount(origins, pid, old, now);
            }
            std::mem::swap(held, new);
        }
        self.decoded = decoded;
        Some(())
    }

    /// Replay one update file, in timestamp order: a withdrawal for
    /// each withdrawn prefix, then a write of the origin for each NLRI
    /// of an announcement whose AS_PATH has one. The sort is stable, so
    /// records with one timestamp keep file order. Peers are identified
    /// by (IP, ASN): multiple collector peers may share an ASN
    /// (multi-session setups), but never an IP. Unknown peers and
    /// undecodable records are skipped (lossy, like real pipelines).
    fn replay_updates(&mut self, bytes: &[u8]) {
        let mut reader = RecordReader::new(bytes);
        let mut records: Vec<RecordView<'_>> = reader.by_ref().collect();
        reader.stats().emit();
        records.sort_by_key(|r| r.timestamp);
        for rec in records {
            let MrtRecordView::Bgp4mpMessage(m) = rec.record else {
                continue;
            };
            let Some(&pi) = self.index_of.get(&(m.peer_ip, m.peer_as)) else {
                continue;
            };
            let MessageView::Update(u) = m.message else {
                continue;
            };
            for w in u.withdrawn() {
                self.withdraw(pi, w);
            }
            let Some(oid) = u.as_path().origin().and_then(|o| self.origin_id(o)) else {
                continue;
            };
            for p in u.nlri() {
                self.announce(pi, p, oid);
            }
        }
    }

    /// The prefixes recounted since the last call, sorted.
    fn drain_touched(&mut self) -> Vec<Prefix> {
        let Surface {
            touched, marked, ..
        } = &mut self.surface;
        let mut changed: Vec<Prefix> = touched
            .drain(..)
            .map(|pid| {
                marked[pid as usize] = false;
                self.prefixes[pid as usize]
            })
            .collect();
        changed.sort_unstable();
        changed
    }
}

/// The archive's one reconstruction: the paper's §4 procedure over a
/// walk of days.
///
/// The sweep keeps one per-peer routing state and its observation
/// surface (monitor counts per `(prefix, origin)`) alive across days.
/// Serving the day after the last one served costs that day's update
/// file, or one RIB decode on a RIB day; consecutive days served by
/// the same forward-fallback RIB share one decode. Any other day
/// reanchors: the latest RIB at or before it is loaded, and the days
/// up to it are stepped one at a time with the same step. Every
/// successful advance reports which prefixes changed since the last
/// day served, for incremental consumers.
pub struct ObservationSweep<'a> {
    archive: &'a CollectorArchiveV2,
    state: State,
    /// `None` before the first day and after a RIB failed to decode.
    anchor: Option<Anchor>,
    full_rebuilds: usize,
}

impl<'a> ObservationSweep<'a> {
    /// Serve `d`. The day after the last one stepped costs one step;
    /// any other day reanchors.
    pub fn advance(&mut self, d: Date) -> Result<DayDelta, ArchiveError> {
        let provenance = match self.anchor {
            Some(from) if d == from.day().succ() => self.step(d, from),
            _ => self.reanchor(d),
        }?;
        Ok(DayDelta {
            provenance,
            changed: self.state.drain_touched(),
        })
    }

    /// The current peer table (for the day last served).
    pub fn peers(&self) -> &[PeerEntry] {
        &self.state.peers
    }

    /// Number of monitors in the current peer table.
    pub fn num_monitors(&self) -> u16 {
        // lint:allow(L1): peer tables are u16-counted on the wire, so ≤ 65535
        self.state.peers.len() as u16
    }

    /// One prefix's observation rows, in origin order.
    pub fn routes_for(&self, p: Prefix) -> impl Iterator<Item = (&Origin, u16)> + '_ {
        let State {
            prefix_ids,
            origins,
            surface,
            ..
        } = &self.state;
        let rows = prefix_ids
            .get(&p)
            .map_or(&[][..], |&pid| &surface.counts[pid as usize]);
        rows.iter().map(|&(o, n)| (&origins[o as usize], n))
    }

    /// Materialize the current surface as an [`ObservationDay`]: the
    /// distinct `(prefix, origin)` pairs in that order, each with the
    /// number of peers holding it.
    pub fn observation_day(&self, date: Date) -> ObservationDay {
        let State {
            prefixes,
            origins,
            surface,
            ..
        } = &self.state;
        let mut ids: Vec<usize> = (0..prefixes.len()).collect();
        ids.sort_unstable_by_key(|&pid| prefixes[pid]);
        ObservationDay {
            date,
            num_monitors: self.num_monitors(),
            routes: ids
                .into_iter()
                .flat_map(|pid| {
                    surface.counts[pid]
                        .iter()
                        .map(move |&(o, monitors_seen)| RouteObservation {
                            prefix: prefixes[pid],
                            origin: origins[o as usize].clone(),
                            monitors_seen,
                            path: Vec::new().into(), // real archives carry no ground truth
                            class: None,
                        })
                })
                .collect(),
        }
    }

    /// How many RIB files the sweep decoded — the work the steps
    /// between RIB days avoid. Exposed for tests and diagnostics.
    pub fn full_rebuilds(&self) -> usize {
        self.full_rebuilds
    }

    /// Decode the RIB at `rib` and load it into the state.
    fn load(&mut self, rib: Date) -> Option<()> {
        self.state.load(self.archive.ribs.get(&rib)?)?;
        self.full_rebuilds += 1;
        Some(())
    }

    /// Serve `d` from the latest RIB at or before it, stepping one day
    /// at a time through the days after that RIB.
    fn reanchor(&mut self, d: Date) -> Result<Provenance, ArchiveError> {
        self.anchor = None;
        let ribs = &self.archive.ribs;
        let Some((&rib, _)) = ribs.range(..=d).next_back() else {
            return Err(if ribs.is_empty() {
                ArchiveError::NoRibAvailable(d)
            } else {
                ArchiveError::OutOfRange(d)
            });
        };
        self.load(rib).ok_or(ArchiveError::NoRibAvailable(d))?;
        self.anchor = Some(Anchor::Day {
            day: rib,
            rib_date: rib,
        });
        let mut served = Ok(Provenance::Exact);
        while let Some(from) = self.anchor.filter(|a| a.day() < d) {
            served = self.step(from.day().succ(), from);
        }
        served
    }

    /// Serve `d`, the day after `from`'s: a same-day RIB wins over that
    /// day's updates, and a missing update file falls forward to the
    /// first RIB after it, which serves every day up to its own.
    fn step(&mut self, d: Date, from: Anchor) -> Result<Provenance, ArchiveError> {
        self.anchor = None;
        let archive = self.archive;
        let (anchor, provenance) = match from {
            Anchor::Dead { missing, .. } => {
                self.anchor = Some(Anchor::Dead { day: d, missing });
                return Err(ArchiveError::NoRibAvailable(missing));
            }
            Anchor::Fallback { rib, .. } if d < rib => (
                Anchor::Fallback { day: d, rib },
                Provenance::FallbackRib { rib_date: rib },
            ),
            // The state already is the RIB of `d`.
            Anchor::Fallback { .. } => (
                Anchor::Day {
                    day: d,
                    rib_date: d,
                },
                Provenance::Exact,
            ),
            Anchor::Day { .. } if archive.ribs.contains_key(&d) => {
                self.load(d).ok_or(ArchiveError::NoRibAvailable(d))?;
                (
                    Anchor::Day {
                        day: d,
                        rib_date: d,
                    },
                    Provenance::Exact,
                )
            }
            Anchor::Day { rib_date, .. } => match archive.updates.get(&d) {
                Some(bytes) => {
                    self.state.replay_updates(bytes);
                    (
                        Anchor::Day { day: d, rib_date },
                        Provenance::Reconstructed { rib_date },
                    )
                }
                // "download the first available rib snapshot afterward"
                None => {
                    let Some((&rib, _)) = archive.ribs.range(d..).next() else {
                        self.anchor = Some(Anchor::Dead { day: d, missing: d });
                        return Err(ArchiveError::NoRibAvailable(d));
                    };
                    self.load(rib).ok_or(ArchiveError::NoRibAvailable(rib))?;
                    (
                        Anchor::Fallback { day: d, rib },
                        Provenance::FallbackRib { rib_date: rib },
                    )
                }
            },
        };
        self.anchor = Some(anchor);
        Ok(provenance)
    }
}

/// A RIB file: the peer table, then one record per prefix with an
/// entry per peer holding a route to it, peers in index order.
/// `rows` yields, in prefix order, each prefix and its `(peer,
/// entity)` holders in peer order; a prefix without holders gets no
/// record.
fn encode_rib<R>(
    attrs: &AttrTable<'_>,
    config: &ArchiveV2Config,
    peers: &[PeerEntry],
    day: Date,
    rows: impl Iterator<Item = (Prefix, R)>,
) -> Result<Bytes, Mrt2Error>
where
    R: Iterator<Item = (usize, usize)>,
{
    let ts = midnight(day)?;
    let mut w = MrtWriter::new();
    w.peer_table(ts, config.collector_bgp_id, "drywells", peers)?;
    let mut holders: Vec<u16> = Vec::new();
    let mut blobs = Vec::new();
    let mut seq = 0usize;
    for (prefix, row) in rows {
        holders.clear();
        blobs.clear();
        for (pi, e) in row {
            holders.push(u16::try_from(pi).map_err(|_| Mrt2Error::TooLong {
                field: "peer index",
                len: pi,
            })?);
            blobs.push(attrs.blob(pi, peers[pi].asn, e)?);
        }
        if holders.is_empty() {
            continue;
        }
        let sequence = u32::try_from(seq).map_err(|_| Mrt2Error::TooLong {
            field: "RIB sequence",
            len: seq,
        })?;
        seq += 1;
        let entries = holders.iter().zip(&blobs).map(|(&pi, blob)| RibEntryView {
            peer_index: pi,
            originated_time: ts.saturating_sub(86_400),
            attributes: blob,
        });
        w.rib(ts, sequence, prefix, entries)?;
    }
    Ok(w.finish())
}

/// One UPDATE of an update file, waiting for the file's timestamp
/// order.
struct PendingUpdate {
    timestamp: u32,
    peer: usize,
    /// The entity whose origin the prefixes are announced with; `None`
    /// for a withdrawal.
    entity: Option<usize>,
    /// The withdrawn or announced prefixes, in the file's prefix
    /// buffer.
    prefixes: std::ops::Range<usize>,
}

/// Update-file encoding: the per-monitor [`SelChange`] lists from one
/// [`RenderEngine::advance_state`] call already *are* the day-over-day
/// diff (prefix-sorted, origin-change-only), so no merge-join over two
/// full states is needed.
///
/// Each peer sends one withdrawal of its prefix-ordered withdrawn
/// routes, then one announcement per origin, in the order of
/// [`rendering_ranks`] (implicit withdraws are expressed as
/// re-announcements, as in real BGP): one sort of the peer's announced
/// prefixes by `(rank, prefix)` groups them. A peer's messages are
/// 13 s apart from a peer-index offset past 00:01; the file holds every
/// peer's messages in stable timestamp order.
fn encode_updates_delta(
    attrs: &AttrTable<'_>,
    ranks: &[usize],
    config: &ArchiveV2Config,
    peers: &[PeerEntry],
    day: Date,
    changes: &[Vec<SelChange>],
) -> Result<Bytes, Mrt2Error> {
    let base_ts = midnight(day)?;
    let mut pending: Vec<PendingUpdate> = Vec::new();
    let mut prefixes: Vec<Prefix> = Vec::new();
    let mut announced: Vec<(usize, Prefix, usize)> = Vec::new();
    for (pi, peer_changes) in changes.iter().enumerate().take(peers.len()) {
        let pi32 = u32::try_from(pi).map_err(|_| Mrt2Error::TooLong {
            field: "peer index",
            len: pi,
        })?;
        // A message is refused only if its own timestamp overflows.
        let mut next = base_ts.checked_add(60).and_then(|t| t.checked_add(pi32));
        let mut message = |entity: Option<usize>, prefixes: std::ops::Range<usize>| {
            let timestamp = next.ok_or(Mrt2Error::TimestampOverflow(day))?;
            pending.push(PendingUpdate {
                timestamp,
                peer: pi,
                entity,
                prefixes,
            });
            next = timestamp.checked_add(13);
            Ok::<(), Mrt2Error>(())
        };
        let start = prefixes.len();
        announced.clear();
        for c in peer_changes {
            match c.new {
                Some(e) => announced.push((ranks[e], c.prefix, e)),
                None => prefixes.push(c.prefix),
            }
        }
        if prefixes.len() > start {
            message(None, start..prefixes.len())?;
        }
        // A peer's changed prefixes are distinct, so the key is unique.
        announced.sort_unstable_by_key(|&(rank, prefix, _)| (rank, prefix));
        for group in announced.chunk_by(|a, b| a.0 == b.0) {
            let start = prefixes.len();
            prefixes.extend(group.iter().map(|&(_, prefix, _)| prefix));
            message(Some(group[0].2), start..prefixes.len())?;
        }
    }
    pending.sort_by_key(|u| u.timestamp);
    let mut w = MrtWriter::new();
    for u in &pending {
        let peer = &peers[u.peer];
        let listed = &prefixes[u.prefixes.clone()];
        let (attributes, withdrawn, nlri) = match u.entity {
            Some(e) => (attrs.blob(u.peer, peer.asn, e)?, &[][..], listed),
            None => (Cow::Borrowed(&[][..]), listed, &[][..]),
        };
        let session = Bgp4mpSession {
            peer_as: peer.asn,
            local_as: config.collector_asn,
            interface: 0,
            peer_ip: peer.ip,
            local_ip: LOCAL_IP,
        };
        w.update(u.timestamp, &session, withdrawn, &attributes, nlri)?;
    }
    Ok(w.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mrt2::records;
    use crate::scenario::WorldConfig;
    use crate::topology::TopologyConfig;
    use nettypes::date::date;
    use std::collections::BTreeSet;

    fn world() -> LeaseWorld {
        world_over(DateRange::new(date("2018-01-01"), date("2018-01-31")))
    }

    fn world_over(span: DateRange) -> LeaseWorld {
        LeaseWorld::generate(&WorldConfig {
            seed: 33,
            span,
            topology: TopologyConfig {
                seed: 33,
                num_tier1: 4,
                num_tier2: 10,
                num_stubs: 80,
                multi_as_org_fraction: 0.15,
            },
            num_allocations: 30,
            initial_active_leases: 80,
            bgp_visible_fraction: 0.4,
            onoff_fraction: 0.5,
            num_hijacks: 3,
            num_moas: 3,
            num_as_sets: 2,
            num_scrubbing: 1,
            ..Default::default()
        })
    }

    fn setup() -> (LeaseWorld, VisibilityModel, CollectorArchiveV2) {
        let w = world();
        let model = VisibilityModel {
            num_monitors: 12,
            daily_flicker: 0.01,
            seed: 33,
        };
        let archive = CollectorArchiveV2::generate(
            &w,
            &model,
            w.span,
            &ArchiveV2Config {
                rib_every_days: 7,
                ..Default::default()
            },
        )
        .expect("archive encodes");
        (w, model, archive)
    }

    /// The directly rendered per-monitor routes of `day`, aggregated
    /// into the sweep's observation surface.
    fn direct_day(w: &LeaseWorld, model: &VisibilityModel, day: Date) -> ObservationDay {
        let engine = RenderEngine::new(w, model);
        let routes = engine.state_routes(&engine.seed_state(day).expect("day in span"));
        let mut counts: BTreeMap<(Prefix, Origin), u16> = BTreeMap::new();
        for (p, o) in routes.iter().flatten() {
            *counts.entry((*p, o.clone())).or_default() += 1;
        }
        ObservationDay {
            date: day,
            num_monitors: routes.len() as u16,
            routes: counts
                .into_iter()
                .map(|((prefix, origin), monitors_seen)| RouteObservation {
                    prefix,
                    origin,
                    monitors_seen,
                    path: Vec::new().into(),
                    class: None,
                })
                .collect(),
        }
    }

    /// `d` served by a fresh sweep, which reanchors: provenance and
    /// observation surface.
    fn served(
        archive: &CollectorArchiveV2,
        d: Date,
    ) -> Result<(Provenance, ObservationDay), ArchiveError> {
        let mut sweep = archive.sweep();
        let delta = sweep.advance(d)?;
        Ok((delta.provenance, sweep.observation_day(d)))
    }

    #[test]
    fn archive_layout() {
        let (w, _, archive) = setup();
        // RIBs every 7 days over a 31-day span: days 0,7,14,21,28.
        assert_eq!(archive.rib_dates().count(), 5);
        // Updates for every day but the first.
        assert_eq!(archive.update_dates().count() as i64, w.span.num_days() - 1);
        assert!(archive.total_bytes() > 10_000);
    }

    #[test]
    fn a_world_without_monitors_archives_empty_days() {
        let w = world();
        let model = VisibilityModel {
            num_monitors: 0,
            ..VisibilityModel::default()
        };
        let archive = CollectorArchiveV2::generate_with_chunks(
            &w,
            &model,
            w.span,
            &ArchiveV2Config::default(),
            &crate::par::chunk_ranges(w.span.iter().count(), 3),
        )
        .expect("archive encodes");
        // Each RIB holds its (empty) peer table and no route; every
        // update file is empty.
        assert!(archive.peers().is_empty());
        assert_eq!(
            archive.rib_dates().count(),
            w.span.iter().count().div_ceil(7)
        );
        for d in archive.rib_dates() {
            let rib = archive.rib_bytes(d).expect("listed");
            assert_eq!(records(rib).count(), 1, "routes in the {d} RIB");
        }
        for d in archive.update_dates() {
            assert!(archive.update_bytes(d).expect("listed").is_empty());
        }
    }

    #[test]
    fn generate_with_chunks_rejects_ranges_that_do_not_tile() {
        let (w, model, _) = setup();
        let n = w.span.iter().count();
        let generate = |ranges: &[std::ops::Range<usize>]| {
            CollectorArchiveV2::generate_with_chunks(
                &w,
                &model,
                w.span,
                &ArchiveV2Config::default(),
                ranges,
            )
            .map(|_| ())
        };
        assert_eq!(
            generate(&[0..10, 12..n]),
            Err(Mrt2Error::UntiledChunk(12..n)),
            "gap"
        );
        assert_eq!(
            generate(&[0..10, 8..n]),
            Err(Mrt2Error::UntiledChunk(8..n)),
            "overlap"
        );
        assert_eq!(
            generate(&[0..10, 10..20]),
            Err(Mrt2Error::UntiledChunk(20..n)),
            "short"
        );
        assert_eq!(
            generate(&[0..10, 10..n + 2]),
            Err(Mrt2Error::UntiledChunk(n..n + 2)),
            "long"
        );
        assert_eq!(generate(&[0..10, 10..n]), Ok(()));
    }

    #[test]
    fn provenance_reporting() {
        let (_, _, archive) = setup();
        let provenance = |d: &str| served(&archive, date(d)).expect("day serves").0;
        assert_eq!(provenance("2018-01-01"), Provenance::Exact);
        assert_eq!(
            provenance("2018-01-05"),
            Provenance::Reconstructed {
                rib_date: date("2018-01-01")
            }
        );
        assert_eq!(provenance("2018-01-08"), Provenance::Exact);
    }

    #[test]
    fn missing_update_file_falls_to_next_rib() {
        let (w, model, mut archive) = setup();
        // Kill the update file for Jan 3.
        assert!(archive.drop_update_file(date("2018-01-03")));
        // Jan 5 can no longer be reconstructed from Jan 1; the paper
        // fallback continues from the Jan 8 RIB — which is *after* the
        // target, so the state is the Jan 8 RIB itself.
        let (provenance, day) = served(&archive, date("2018-01-05")).expect("day serves");
        assert_eq!(
            provenance,
            Provenance::FallbackRib {
                rib_date: date("2018-01-08")
            }
        );
        // The fallback state equals the direct rendering of Jan 8.
        assert_eq!(
            day.routes,
            direct_day(&w, &model, date("2018-01-08")).routes
        );
        // A later day that passes through the next RIB reconstructs fine.
        let (provenance, later) = served(&archive, date("2018-01-10")).expect("day serves");
        assert_eq!(
            provenance,
            Provenance::Reconstructed {
                rib_date: date("2018-01-08")
            }
        );
        assert_eq!(later, direct_day(&w, &model, date("2018-01-10")));
    }

    #[test]
    fn corrupted_update_file_skips_bad_records() {
        let (w, model, mut archive) = setup();
        // Corrupt half of the Jan 4 update file.
        let bytes = archive.update_bytes(date("2018-01-04")).unwrap().clone();
        let mut v = bytes.to_vec();
        let cut = v.len() / 2;
        v.truncate(cut);
        archive.corrupt_update_file(date("2018-01-04"), Bytes::from(v));
        // Reconstruction still works (lossy decode) but Jan 4+ may
        // drift; the Jan 8 RIB resynchronizes Jan 8 onwards, whether
        // the sweep steps there or reanchors.
        let probe = date("2018-01-09");
        let mut sweep = archive.sweep();
        for d in DateRange::new(date("2018-01-01"), probe).iter() {
            sweep.advance(d).expect("day serves");
        }
        let direct = direct_day(&w, &model, probe);
        assert_eq!(sweep.observation_day(probe), direct);
        assert_eq!(served(&archive, probe).expect("day serves").1, direct);
    }

    #[test]
    fn out_of_range_and_empty() {
        let (_, _, archive) = setup();
        assert_eq!(
            served(&archive, date("2017-12-25")).map(|_| ()),
            Err(ArchiveError::OutOfRange(date("2017-12-25")))
        );
        let empty = CollectorArchiveV2::default();
        assert_eq!(
            served(&empty, date("2018-01-01")).map(|_| ()),
            Err(ArchiveError::NoRibAvailable(date("2018-01-01")))
        );
    }

    #[test]
    fn observation_day_counts_match() {
        let (w, model, archive) = setup();
        let probe = date("2018-01-20");
        let (_, obs) = served(&archive, probe).expect("day serves");
        assert_eq!(obs.num_monitors, 12);
        // Aggregate counts agree with the direct per-monitor rendering.
        assert_eq!(obs, direct_day(&w, &model, probe));
    }

    #[test]
    fn parallel_generation_is_byte_identical() {
        let (w, model, _) = setup();
        let cfg = ArchiveV2Config {
            rib_every_days: 7,
            ..Default::default()
        };
        let seq = CollectorArchiveV2::generate_with_threads(&w, &model, w.span, &cfg, 1)
            .expect("archive encodes");
        for threads in [2, 4] {
            let par = CollectorArchiveV2::generate_with_threads(&w, &model, w.span, &cfg, threads)
                .expect("archive encodes");
            assert_eq!(par.peers(), seq.peers());
            assert_eq!(
                par.rib_dates().collect::<Vec<_>>(),
                seq.rib_dates().collect::<Vec<_>>()
            );
            assert_eq!(
                par.update_dates().collect::<Vec<_>>(),
                seq.update_dates().collect::<Vec<_>>()
            );
            for d in seq.rib_dates() {
                assert_eq!(
                    par.rib_bytes(d),
                    seq.rib_bytes(d),
                    "RIB bytes differ on {d}"
                );
            }
            for d in seq.update_dates() {
                assert_eq!(
                    par.update_bytes(d),
                    seq.update_bytes(d),
                    "update bytes differ on {d}"
                );
            }
        }
    }

    #[test]
    fn sweep_steps_match_fresh_sweeps_every_day() {
        // A step from the day before serves what a reanchor serves,
        // and on a clean archive both equal the direct rendering.
        let (w, model, archive) = setup();
        let mut sweep = archive.sweep();
        for d in w.span.iter() {
            let delta = sweep.advance(d).expect("day serves");
            let (provenance, fresh) = served(&archive, d).expect("day serves");
            assert_eq!(delta.provenance, provenance, "provenance differs on {d}");
            assert_eq!(
                sweep.observation_day(d),
                fresh,
                "observation surface differs on {d}"
            );
            assert_eq!(
                fresh,
                direct_day(&w, &model, d),
                "surface differs from rendering on {d}"
            );
        }
    }

    #[test]
    fn sweep_changed_prefixes_cover_all_surface_changes() {
        let (_, _, archive) = setup();
        let mut sweep = archive.sweep();
        let mut prev = ObservationDay {
            date: date("2017-12-31"),
            num_monitors: 0,
            routes: Vec::new(),
        };
        for d in DateRange::new(date("2018-01-01"), date("2018-01-31")).iter() {
            let delta = sweep.advance(d).expect("day serves");
            let today = sweep.observation_day(d);
            // Rows of untouched prefixes are identical day-over-day;
            // the first day, served from the empty state, touches all.
            let rows = |o: &ObservationDay, p: Prefix| -> Vec<(Prefix, Origin, u16)> {
                o.routes
                    .iter()
                    .filter(|r| r.prefix == p)
                    .map(|r| (r.prefix, r.origin.clone(), r.monitors_seen))
                    .collect()
            };
            let all: BTreeSet<Prefix> = prev
                .routes
                .iter()
                .chain(&today.routes)
                .map(|r| r.prefix)
                .collect();
            for p in all {
                if !delta.changed.contains(&p) {
                    assert_eq!(
                        rows(&prev, p),
                        rows(&today, p),
                        "silent change at {p} on {d}"
                    );
                }
            }
            prev = today;
        }
    }

    #[test]
    fn sweep_memoizes_fallback_rib() {
        let (_, _, mut archive) = setup();
        // Kill Jan 3's update file: Jan 3–7 fall forward to the Jan 8
        // RIB, which must be decoded exactly once.
        assert!(archive.drop_update_file(date("2018-01-03")));
        let mut sweep = archive.sweep();
        let mut rebuilds_at_fallback_start = None;
        for d in DateRange::new(date("2018-01-01"), date("2018-01-31")).iter() {
            let delta = sweep.advance(d).expect("day serves");
            let (provenance, fresh) = served(&archive, d).expect("day serves");
            assert_eq!(delta.provenance, provenance, "provenance differs on {d}");
            assert_eq!(
                sweep.observation_day(d),
                fresh,
                "observation surface differs on {d}"
            );
            if d == date("2018-01-03") {
                rebuilds_at_fallback_start = Some(sweep.full_rebuilds());
            }
            if d > date("2018-01-03") && d <= date("2018-01-08") {
                // Consecutive fallback days (and the RIB day the
                // fallback anchors to) cost no further rebuilds.
                assert_eq!(
                    Some(sweep.full_rebuilds()),
                    rebuilds_at_fallback_start,
                    "{d}"
                );
            }
        }
        // 31 fresh sweeps would have paid 31 rebuilds; the walk pays
        // one per RIB decode: Jan 1, the fallback, and the later RIB
        // days (15, 22, 29).
        assert_eq!(sweep.full_rebuilds(), 5);
    }

    #[test]
    fn sweep_trailing_gap_errors_every_day() {
        let (_, _, mut archive) = setup();
        // Remove the last RIB and every update file after Jan 25: days
        // 26+ have no data at all.
        assert!(archive.drop_rib(date("2018-01-29")));
        for d in DateRange::new(date("2018-01-26"), date("2018-01-31")).iter() {
            archive.drop_update_file(d);
        }
        let mut sweep = archive.sweep();
        for d in DateRange::new(date("2018-01-01"), date("2018-01-31")).iter() {
            let got = sweep.advance(d);
            let want = served(&archive, d);
            match (got, want) {
                (Ok(delta), Ok((provenance, fresh))) => {
                    assert!(d < date("2018-01-26"), "{d} served");
                    assert_eq!(delta.provenance, provenance, "{d}");
                    assert_eq!(sweep.observation_day(d), fresh, "{d}");
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a, ArchiveError::NoRibAvailable(date("2018-01-26")), "{d}");
                    assert_eq!(a, b, "{d}");
                }
                (a, b) => panic!("stepped/fresh sweeps disagree on {d}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn write_dir_refuses_a_directory_holding_another_archive() {
        let (w, model, _) = setup();
        let cfg = ArchiveV2Config::default();
        let first = |n: i64| DateRange::new(w.span.start, w.span.start + (n - 1));
        let long = CollectorArchiveV2::generate(&w, &model, first(20), &cfg).expect("encodes");
        let short = CollectorArchiveV2::generate(&w, &model, first(10), &cfg).expect("encodes");
        let dir = std::env::temp_dir().join(format!("drywells-write-dir-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let listing = || -> BTreeMap<String, Vec<u8>> {
            std::fs::read_dir(&dir)
                .expect("dir lists")
                .map(|e| {
                    let e = e.expect("entry");
                    let name = e.file_name().to_string_lossy().into_owned();
                    (name, std::fs::read(e.path()).expect("file reads"))
                })
                .collect()
        };

        let written = long.write_dir(&dir).expect("empty dir accepts the archive");
        assert_eq!(
            written,
            long.rib_dates().count() + long.update_dates().count()
        );
        let before = listing();
        // Rewriting the same archive is fine: every file is its own.
        assert_eq!(
            long.write_dir(&dir).expect("same archive rewrites"),
            written
        );

        // Days 11–20 (RIB on day 15, updates on 11–20) are strays for
        // the 10-day archive; the RIB name sorts first.
        let err = short
            .write_dir(&dir)
            .expect_err("stray files must be refused");
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        assert!(
            err.to_string().contains("rib-2018-01-15.mrt"),
            "error should name the first stray file: {err}"
        );
        assert_eq!(
            listing(),
            before,
            "a refused write must leave the directory unchanged"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_dir_renames_temp_files_into_place_and_ignores_leftovers() {
        let (_, _, archive) = setup();
        let dir = std::env::temp_dir().join(format!("drywells-write-tmp-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        // Leftovers of writes cut short before their rename: one for a
        // file this archive writes, one for a date it does not.
        let first = archive.rib_dates().next().expect("a RIB");
        std::fs::write(dir.join(format!("rib-{first}.mrt.tmp")), b"half a").expect("write");
        std::fs::write(dir.join("rib-1999-01-01.mrt.tmp"), b"half a").expect("write");
        assert!(crate::query::files_from_dir(&dir)
            .expect("dir reads")
            .is_empty());

        let written = archive
            .write_dir(&dir)
            .expect("a leftover temp file is not another archive's file");
        let files = crate::query::files_from_dir(&dir).expect("dir reads");
        assert_eq!(files.len(), written);
        let key = |f: &crate::query::QueryFile| (f.day, f.kind, f.bytes.clone());
        let want = crate::query::files_from_archive_v2(&archive);
        assert!(
            files.iter().map(key).eq(want.iter().map(key)),
            "files differ"
        );
        let mut temps: Vec<String> = std::fs::read_dir(&dir)
            .expect("dir lists")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        temps.sort();
        assert_eq!(
            temps,
            ["rib-1999-01-01.mrt.tmp"],
            "only the foreign leftover stays"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn update_files_contain_real_bgp_messages() {
        let (_, _, archive) = setup();
        let bytes = archive.update_bytes(date("2018-01-02")).unwrap();
        let records: Vec<RecordView<'_>> =
            records(bytes).collect::<Result<_, _>>().expect("parses");
        assert!(!records.is_empty());
        let mut updates = 0;
        for r in &records {
            if let MrtRecordView::Bgp4mpMessage(m) = r.record {
                assert!(matches!(m.message, MessageView::Update(_)));
                updates += 1;
            }
        }
        assert!(updates > 0, "no BGP4MP updates in the file");
        // Timestamps are sorted within the file.
        assert!(records.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
    }

    /// A peer's announcements are grouped by origin and ordered by the
    /// origin's rendering, not by `Origin` order: `AS10` before `AS9`,
    /// and an AS_SET `{…}` after every `AS…`; the withdrawal comes
    /// first.
    #[test]
    fn announcements_follow_the_rendering_order_of_their_origins() {
        let w = world();
        let peers = build_peers(&[Asn(64_500)]).expect("one peer");
        let single = |a: u32| Origin::Single(Asn(a));
        let origins = [
            single(9),
            single(10),
            Origin::Set(vec![Asn(2), Asn(1)]),
            single(100),
            single(1),
        ];
        let attrs = AttrTable::new(&w.topology, &peers, origins.iter()).expect("attribute table");
        let ranks = rendering_ranks(origins.iter());
        let p = |i: u32| Prefix::new_unchecked_masked(0x0A00_0000 + (i << 16), 16);
        let change = |i: u32, new: Option<usize>| SelChange {
            prefix: p(i),
            old: Some(4),
            new,
        };
        let changes = vec![vec![
            change(0, Some(0)),
            change(1, Some(2)),
            change(2, Some(1)),
            change(3, None),
            change(4, Some(0)),
            change(5, Some(3)),
            change(6, Some(4)),
        ]];
        let bytes = encode_updates_delta(
            &attrs,
            &ranks,
            &ArchiveV2Config::default(),
            &peers,
            date("2018-01-02"),
            &changes,
        )
        .expect("update file encodes");
        let messages: Vec<(Option<Origin>, Vec<Prefix>, Vec<Prefix>)> = records(&bytes)
            .map(|r| match r.expect("record parses").record {
                MrtRecordView::Bgp4mpMessage(m) => match m.message {
                    MessageView::Update(u) => (
                        u.as_path().origin(),
                        u.withdrawn().collect(),
                        u.nlri().collect(),
                    ),
                    other => panic!("not an UPDATE: {other:?}"),
                },
                other => panic!("not a BGP4MP message: {other:?}"),
            })
            .collect();
        assert_eq!(
            messages,
            [
                (None, vec![p(3)], vec![]),
                (Some(single(1)), vec![], vec![p(6)]),
                (Some(single(10)), vec![], vec![p(2)]),
                (Some(single(100)), vec![], vec![p(5)]),
                (Some(single(9)), vec![], vec![p(0), p(4)]),
                (Some(origins[2].clone()), vec![], vec![p(1)]),
            ]
        );
    }

    /// An archive span that leaves the world's span is refused with
    /// the first day outside it, for any chunking.
    #[test]
    fn days_outside_the_world_are_refused() {
        let (w, model, _) = setup();
        let cfg = ArchiveV2Config::default();
        // The span split at `cuts`.
        let generate = |span: DateRange, cuts: &[usize]| {
            let n = span.iter().count();
            let bounds: Vec<usize> = [0].iter().chain(cuts).chain([n].iter()).copied().collect();
            let ranges: Vec<_> = bounds.windows(2).map(|b| b[0]..b[1]).collect();
            CollectorArchiveV2::generate_with_chunks(&w, &model, span, &cfg, &ranges).map(|_| ())
        };
        let late = DateRange::new(date("2018-01-25"), date("2018-02-05"));
        let early = DateRange::new(date("2017-12-30"), date("2018-01-05"));
        for cuts in [&[][..], &[3], &[8], &[10], &[7, 8]] {
            assert_eq!(
                generate(late, cuts),
                Err(Mrt2Error::DayOutsideWorld(date("2018-02-01"))),
                "{cuts:?}"
            );
        }
        for cuts in [&[][..], &[1], &[4]] {
            assert_eq!(
                generate(early, cuts),
                Err(Mrt2Error::DayOutsideWorld(date("2017-12-30"))),
                "{cuts:?}"
            );
        }
    }

    /// The last second a 32-bit MRT timestamp holds is 2106-02-07
    /// 06:28:15 UTC. An archive whose update file falls on that day
    /// encodes with its real timestamps; one that reaches the next
    /// day is refused instead of saturating or wrapping to 1970.
    #[test]
    fn timestamps_past_2106_are_refused() {
        let model = VisibilityModel {
            num_monitors: 12,
            daily_flicker: 0.01,
            seed: 33,
        };
        let archive_over = |start: &str, end: &str| {
            let w = world_over(DateRange::new(date(start), date(end)));
            CollectorArchiveV2::generate(&w, &model, w.span, &ArchiveV2Config::default())
        };
        let archive = archive_over("2106-02-06", "2106-02-07").expect("2106-02-07 encodes");
        let last = midnight(date("2106-02-07")).expect("fits");
        assert_eq!(last, 49_710 * 86_400);
        let rib = archive.rib_bytes(date("2106-02-06")).expect("RIB on day 0");
        let bytes = archive
            .update_bytes(date("2106-02-07"))
            .expect("update file");
        let rib_ts: Vec<u32> = records(rib).map(|r| r.expect("parses").timestamp).collect();
        let update_ts: Vec<u32> = records(bytes)
            .map(|r| r.expect("parses").timestamp)
            .collect();
        assert!(rib_ts.iter().all(|&t| t == last - 86_400), "{rib_ts:?}");
        assert!(!update_ts.is_empty(), "no messages on 2106-02-07");
        assert!(update_ts.iter().all(|&t| t > last), "{update_ts:?}");
        assert_eq!(
            archive_over("2106-02-07", "2106-02-08").err(),
            Some(Mrt2Error::TimestampOverflow(date("2106-02-08")))
        );
        assert_eq!(
            midnight(date("2106-02-08")),
            Err(Mrt2Error::TimestampOverflow(date("2106-02-08")))
        );
    }
}
