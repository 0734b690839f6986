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
//! [`CollectorArchiveV2::day_view`] reconstructs any day's per-peer
//! routing state by applying update files to the most recent RIB,
//! implementing the missing-file fallback verbatim.

use crate::bgp::{self, AsPathView, BgpMessage, MessageView, PathAttribute, UpdateMessage};
use crate::mrt2::{
    encode_file, Bgp4mpMessage, Mrt2Error, MrtRecord, MrtRecordView, PeerEntry, PeerIndexTable,
    RecordReader, RecordView, RibEntry, RibIpv4Unicast, TimestampedRecord,
};
use crate::engine::{RenderEngine, SelChange};
use crate::observe::{ObservationDay, RouteObservation, VisibilityModel};
use crate::query::{parse_file_name, FileKind};
use crate::scenario::LeaseWorld;
use crate::topology::Topology;
use bytes::Bytes;
use nettypes::asn::{Asn, Origin};
use nettypes::date::{Date, DateRange};
use nettypes::prefix::Prefix;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::Write as _;
use std::sync::Arc;

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

/// The per-peer routing state: for each peer (index-aligned with the
/// peer table), prefix → chosen origin. Ordered maps so every
/// iteration over a peer's table is deterministic.
pub type PeerRoutes = Vec<BTreeMap<Prefix, Origin>>;

/// A reconstructed day: per-peer routing state.
#[derive(Clone, Debug)]
pub struct DayView {
    /// The requested date.
    pub date: Date,
    /// How the state was obtained.
    pub provenance: Provenance,
    /// Peer table (index-aligned with `peer_routes`).
    pub peers: Vec<PeerEntry>,
    /// For each peer, prefix → origin.
    pub peer_routes: PeerRoutes,
}

impl DayView {
    /// Collapse the per-peer state into the paper's observation
    /// surface: distinct (prefix, origin) pairs with the number of
    /// peers holding each.
    pub fn to_observation_day(&self) -> ObservationDay {
        let mut counts: BTreeMap<(Prefix, String), (Origin, u16)> = BTreeMap::new();
        for routes in &self.peer_routes {
            for (p, o) in routes {
                let e = counts
                    .entry((*p, format!("{o}")))
                    .or_insert_with(|| (o.clone(), 0));
                e.1 += 1;
            }
        }
        ObservationDay {
            date: self.date,
            // lint:allow(L1): peer tables are u16-counted on the wire, so ≤ 65535
            num_monitors: self.peers.len() as u16,
            routes: counts
                .into_iter()
                .map(|((prefix, _), (origin, monitors_seen))| RouteObservation {
                    prefix,
                    origin,
                    monitors_seen,
                    path: Vec::new().into(), // real archives carry no ground truth
                    class: None,
                })
                .collect(),
        }
    }
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

/// 00:00 UTC of `d` as a Unix timestamp. MRT timestamps are 32-bit;
/// dates past 2106 saturate rather than wrap.
fn midnight(d: Date) -> u32 {
    let secs = d.days_since_epoch().max(0) as u64 * 86_400;
    u32::try_from(secs).unwrap_or(u32::MAX)
}

/// The shared attribute table for the encode passes.
///
/// The monitor→origin valley-free path and its encoded attribute blob
/// are day-invariant, so the table computes every `(peer, origin)`
/// pair up front — one whole-topology BFS per peer
/// ([`Topology::paths_from`]) instead of a pairwise search per pair —
/// and eagerly encodes the RIB-entry blob for each. The table is
/// immutable afterwards, so one instance is shared by every worker
/// and every day: blobs are interned across the archive's whole
/// lifetime (`Bytes` clones are refcount bumps). Keys are flat
/// `peer_slot * n_nodes + origin_index`; origins outside the topology
/// (none today) fall back to an uncached path, which is still
/// deterministic.
struct AttrTable<'w> {
    topology: &'w Topology,
    n_nodes: usize,
    paths: Vec<Vec<Asn>>,
    encoded: Vec<Bytes>,
}

impl<'w> AttrTable<'w> {
    fn new(topology: &'w Topology, peers: &[PeerEntry]) -> AttrTable<'w> {
        use crate::bgp::{AsPathSegment, OriginType};
        let nodes = topology.nodes();
        let n_nodes = nodes.len();
        let mut paths = Vec::with_capacity(peers.len() * n_nodes);
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
                encoded.push(bgp::encode_attributes(&[
                    PathAttribute::Origin(OriginType::Igp),
                    PathAttribute::AsPath(vec![AsPathSegment::Sequence(path.clone())]),
                    PathAttribute::NextHop(0x0A00_0001),
                ]));
                paths.push(path);
            }
        }
        AttrTable {
            topology,
            n_nodes,
            paths,
            encoded,
        }
    }

    /// The AS path from `peer` to `o`.
    fn path_for(&self, peer_slot: usize, peer: Asn, o: Asn) -> Vec<Asn> {
        match self.topology.index_of(o) {
            Some(oi) => self.paths[peer_slot * self.n_nodes + oi].clone(),
            None => self.topology.path(peer, o).unwrap_or_else(|| vec![peer, o]),
        }
    }

    /// Decoded path attributes (for UPDATE messages, which carry owned
    /// attribute structs).
    fn attributes(&self, peer_slot: usize, peer: Asn, origin: &Origin) -> Vec<PathAttribute> {
        use crate::bgp::{AsPathSegment, OriginType};
        let segs = match origin {
            Origin::Single(o) => vec![AsPathSegment::Sequence(self.path_for(peer_slot, peer, *o))],
            Origin::Set(set) => vec![
                AsPathSegment::Sequence(vec![peer]),
                AsPathSegment::Set(set.clone()),
            ],
        };
        vec![
            PathAttribute::Origin(OriginType::Igp),
            PathAttribute::AsPath(segs),
            PathAttribute::NextHop(0x0A00_0001),
        ]
    }

    /// Encoded attribute blob (for RIB entries, which carry wire
    /// bytes); table hits cost no copy at all.
    fn encoded_attributes(&self, peer_slot: usize, peer: Asn, origin: &Origin) -> Bytes {
        if let Origin::Single(o) = origin {
            if let Some(oi) = self.topology.index_of(*o) {
                return self.encoded[peer_slot * self.n_nodes + oi].clone();
            }
        }
        bgp::encode_attributes(&self.attributes(peer_slot, peer, origin))
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

type Encoded = (Option<Result<Bytes, Mrt2Error>>, Option<Result<Bytes, Mrt2Error>>);

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
    /// works). Exposed so the determinism suite can prove that chunk
    /// boundaries never change the archive bytes.
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
            assert_eq!(r.start, covered, "chunk ranges must tile the span in order");
            covered = r.end;
        }
        assert_eq!(covered, n, "chunk ranges must cover every day");
        let span_obs = obs::span!("mrt_encode", days = n, threads = ranges.len(), unit = "days");
        span_obs.add_items(n as u64);
        let attrs = {
            let _t = obs::span!("mrt_attr_table");
            AttrTable::new(&world.topology, &peers)
        };
        let rib_every = config.rib_every_days.max(1);
        let encoded: Vec<Encoded> = {
            let _pass = obs::span!("mrt_delta_pass");
            crate::par::map_chunked_with(ranges, |r| {
                let mut out: Vec<Encoded> = Vec::with_capacity(r.len());
                // Seed at the chunk's predecessor day so the first
                // in-chunk transition yields that day's update file.
                let seed_day = days[r.start.saturating_sub(1)];
                let mut state = engine
                    .seed_state(seed_day)
                    // lint:allow(L2): seed day comes from the span itself
                    .expect("archive days are inside the engine span");
                let mut changes: Vec<Vec<SelChange>> = Vec::new();
                if r.start > 0 {
                    engine
                        .advance_state(&mut state, &mut changes)
                        // lint:allow(L2): r.start indexes into the span
                        .expect("chunk start day is inside the engine span");
                }
                for i in r.clone() {
                    let rib = (i % rib_every == 0).then(|| {
                        encode_rib(&attrs, config, &peers, days[i], &engine.state_routes(&state))
                    });
                    let upd = (i > 0).then(|| {
                        encode_updates_delta(&attrs, &engine, config, &peers, days[i], &changes)
                    });
                    out.push((rib, upd));
                    if i + 1 < r.end {
                        engine
                            .advance_state(&mut state, &mut changes)
                            // lint:allow(L2): i + 1 < r.end stays inside the span
                            .expect("next chunk day is inside the engine span");
                    }
                }
                out
            })
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
        for (i, (rib, upd)) in encoded.into_iter().enumerate() {
            if let Some(bytes) = rib.transpose()? {
                archive.ribs.insert(days[i], bytes);
            }
            if let Some(bytes) = upd.transpose()? {
                archive.updates.insert(days[i], bytes);
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
        let updates = self.updates.iter().map(|(d, b)| (format!("updates-{d}.mrt"), b));
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

    /// Load a RIB file into per-peer state. Undecodable records and
    /// entries are skipped (lossy, like real pipelines).
    fn load_rib(&self, d: Date) -> Option<(Vec<PeerEntry>, PeerRoutes)> {
        let bytes = self.ribs.get(&d)?;
        let mut reader = RecordReader::new(bytes);
        let mut peers: Vec<PeerEntry> = Vec::new();
        let mut routes: PeerRoutes = Vec::new();
        for rec in reader.by_ref() {
            match rec.record {
                MrtRecordView::PeerIndexTable(t) => {
                    peers = t.peers().collect();
                    routes = vec![BTreeMap::new(); peers.len()];
                }
                MrtRecordView::RibIpv4Unicast(r) => {
                    for e in r.entries() {
                        let Some(slot) = routes.get_mut(usize::from(e.peer_index)) else {
                            continue;
                        };
                        let origin = bgp::as_path(e.attributes).ok().and_then(AsPathView::origin);
                        if let Some(origin) = origin {
                            slot.insert(r.prefix, origin);
                        }
                    }
                }
                _ => {}
            }
        }
        reader.stats().emit();
        if peers.is_empty() {
            return None;
        }
        Some((peers, routes))
    }

    /// Apply one update file to per-peer state.
    fn apply_updates(bytes: &Bytes, peers: &[PeerEntry], routes: &mut [BTreeMap<Prefix, Origin>]) {
        replay_updates(bytes, peers, |pi, p, origin| {
            let Some(table) = routes.get_mut(pi) else {
                return;
            };
            match origin {
                None => {
                    table.remove(&p);
                }
                Some(o) => {
                    table.insert(p, o.clone());
                }
            }
        });
    }

    /// Reconstruct the routing state of `date` per the paper's rules.
    pub fn day_view(&self, date: Date) -> Result<DayView, ArchiveError> {
        // The RIB at or before the date…
        let Some((&rib_date, _)) = self.ribs.range(..=date).next_back() else {
            // …or, if the day precedes all RIBs, it is out of range.
            return Err(if self.ribs.is_empty() {
                ArchiveError::NoRibAvailable(date)
            } else {
                ArchiveError::OutOfRange(date)
            });
        };
        let (peers, mut routes) = self
            .load_rib(rib_date)
            .ok_or(ArchiveError::NoRibAvailable(date))?;

        let mut provenance = if rib_date == date {
            Provenance::Exact
        } else {
            Provenance::Reconstructed { rib_date }
        };

        let mut d = rib_date.succ();
        while d <= date {
            match self.updates.get(&d) {
                Some(bytes) => {
                    Self::apply_updates(bytes, &peers, &mut routes);
                    d = d.succ();
                }
                None => {
                    // Missing update file: "download the first
                    // available rib snapshot afterward".
                    let Some((&next_rib, _)) = self.ribs.range(d..).next() else {
                        return Err(ArchiveError::NoRibAvailable(d));
                    };
                    let (p2, r2) = self
                        .load_rib(next_rib)
                        .ok_or(ArchiveError::NoRibAvailable(next_rib))?;
                    if next_rib <= date {
                        // Resume reconstruction from the later RIB.
                        routes = r2;
                        debug_assert_eq!(p2.len(), peers.len());
                        d = next_rib.succ();
                        provenance = Provenance::Reconstructed { rib_date: next_rib };
                        if next_rib == date {
                            provenance = Provenance::Exact;
                        }
                    } else {
                        // The only data is *after* the requested day.
                        return Ok(DayView {
                            date,
                            provenance: Provenance::FallbackRib { rib_date: next_rib },
                            peers: p2,
                            peer_routes: r2,
                        });
                    }
                }
            }
        }
        Ok(DayView {
            date,
            provenance,
            peers,
            peer_routes: routes,
        })
    }

    /// Start an incremental day-by-day walk over this archive.
    pub fn sweep(&self) -> ObservationSweep<'_> {
        ObservationSweep {
            archive: self,
            peers: Vec::new(),
            routes: Vec::new(),
            counts: BTreeMap::new(),
            fmt: HashMap::new(),
            empty_key: Arc::from(""),
            anchor: Anchor::None,
            full_rebuilds: 0,
        }
    }
}

/// The outcome of one [`ObservationSweep::advance`] step.
#[derive(Clone, Debug)]
pub struct DayDelta {
    /// How the day's state was obtained (same meaning as
    /// [`DayView::provenance`]).
    pub provenance: Provenance,
    /// Prefixes whose observation surface (the per-prefix origin/count
    /// rows) may have changed since the previous served day, sorted.
    /// `None` means the state was rebuilt from scratch — treat every
    /// prefix as changed.
    pub changed: Option<Vec<Prefix>>,
}

/// How the sweep's maintained state relates to the last served day.
enum Anchor {
    /// No usable state (fresh sweep, or the last day errored).
    None,
    /// State equals `day_view(day)` with Exact/Reconstructed
    /// provenance: anchored at `rib_date` with every update file
    /// through `day` applied.
    Day { day: Date, rib_date: Date },
    /// State equals the decoded forward-fallback RIB at `rib`, served
    /// for `day` (< `rib`). Consecutive fallback days reuse it without
    /// re-decoding.
    Fallback { day: Date, rib: Date },
    /// An update file for `missing` is gone and no RIB exists at or
    /// after it: every later consecutive day fails identically.
    Dead { day: Date, missing: Date },
}

/// An incremental replacement for calling
/// [`CollectorArchiveV2::day_view`] + [`DayView::to_observation_day`]
/// on every day of an ascending walk.
///
/// The sweep keeps the per-peer routing state *and* the aggregated
/// observation surface (per `(prefix, origin)` monitor counts) alive
/// across days. A day whose update file is present costs one update
/// decode instead of a RIB decode plus every update since; the decoded
/// forward-fallback RIB is memoized so N consecutive fallback days
/// cost one decode. Every step reports which prefixes changed, feeding
/// incremental consumers; results are identical to the per-day
/// reconstruction (the anchored state is exactly what `day_view`
/// recomputes from the same RIB, and the sweep reanchors through
/// `day_view` itself whenever the fast path doesn't apply).
pub struct ObservationSweep<'a> {
    archive: &'a CollectorArchiveV2,
    peers: Vec<PeerEntry>,
    routes: PeerRoutes,
    /// `(prefix, origin rendering) → (origin, peers holding it)` — the
    /// same aggregation [`DayView::to_observation_day`] builds, kept
    /// incrementally. Keyed by the rendering because [`Origin`] is not
    /// `Ord`; `Arc<str>` keys are interned via `fmt`.
    counts: BTreeMap<(Prefix, Arc<str>), (Origin, u16)>,
    fmt: HashMap<Origin, Arc<str>>,
    empty_key: Arc<str>,
    anchor: Anchor,
    full_rebuilds: usize,
}

fn okey(fmt: &mut HashMap<Origin, Arc<str>>, o: &Origin) -> Arc<str> {
    if let Some(s) = fmt.get(o) {
        return s.clone();
    }
    let s: Arc<str> = format!("{o}").into();
    fmt.insert(o.clone(), s.clone());
    s
}

fn count_inc(
    counts: &mut BTreeMap<(Prefix, Arc<str>), (Origin, u16)>,
    fmt: &mut HashMap<Origin, Arc<str>>,
    p: Prefix,
    o: &Origin,
) {
    let k = okey(fmt, o);
    let e = counts.entry((p, k)).or_insert_with(|| (o.clone(), 0));
    e.1 += 1;
}

fn count_dec(
    counts: &mut BTreeMap<(Prefix, Arc<str>), (Origin, u16)>,
    fmt: &mut HashMap<Origin, Arc<str>>,
    p: Prefix,
    o: &Origin,
) {
    let k = okey(fmt, o);
    if let Some(e) = counts.get_mut(&(p, k.clone())) {
        e.1 -= 1;
        if e.1 == 0 {
            counts.remove(&(p, k));
        }
    }
}

impl<'a> ObservationSweep<'a> {
    /// Serve `d`, which should be the successor of the last served day
    /// (any other day falls back to a full reconstruction).
    pub fn advance(&mut self, d: Date) -> Result<DayDelta, ArchiveError> {
        match self.anchor {
            Anchor::Day { day, rib_date } if d == day.succ() => {
                if self.archive.ribs.contains_key(&d) {
                    // `day_view` prefers a same-day RIB over applying
                    // updates; mirror it by reanchoring.
                    return self.reanchor(d);
                }
                let Some(bytes) = self.archive.updates.get(&d) else {
                    return self.enter_fallback(d);
                };
                let bytes = bytes.clone();
                let changed = self.apply_updates_tracked(&bytes);
                self.anchor = Anchor::Day { day: d, rib_date };
                Ok(DayDelta {
                    provenance: Provenance::Reconstructed { rib_date },
                    changed: Some(changed),
                })
            }
            Anchor::Fallback { day, rib } if d == day.succ() => {
                if d < rib {
                    self.anchor = Anchor::Fallback { day: d, rib };
                    Ok(DayDelta {
                        provenance: Provenance::FallbackRib { rib_date: rib },
                        changed: Some(Vec::new()),
                    })
                } else {
                    // d == rib: the memoized fallback state *is* this
                    // RIB, which `day_view(d)` would serve as Exact.
                    self.anchor = Anchor::Day { day: d, rib_date: rib };
                    Ok(DayDelta {
                        provenance: Provenance::Exact,
                        changed: Some(Vec::new()),
                    })
                }
            }
            Anchor::Dead { day, missing } if d == day.succ() => {
                self.anchor = Anchor::Dead { day: d, missing };
                Err(ArchiveError::NoRibAvailable(missing))
            }
            _ => self.reanchor(d),
        }
    }

    /// The current peer table (for the day last served).
    pub fn peers(&self) -> &[PeerEntry] {
        &self.peers
    }

    /// Number of monitors in the current peer table.
    pub fn num_monitors(&self) -> u16 {
        // lint:allow(L1): peer tables are u16-counted on the wire, so ≤ 65535
        self.peers.len() as u16
    }

    /// The aggregated observation surface for the day last served.
    pub fn counts(&self) -> &BTreeMap<(Prefix, Arc<str>), (Origin, u16)> {
        &self.counts
    }

    /// One prefix's observation rows, in origin-rendering order — the
    /// same order the rows appear in
    /// [`DayView::to_observation_day`]'s output.
    pub fn routes_for(&self, p: Prefix) -> impl Iterator<Item = (&Origin, u16)> + '_ {
        self.counts
            .range((p, self.empty_key.clone())..)
            .take_while(move |((q, _), _)| *q == p)
            .map(|(_, (o, n))| (o, *n))
    }

    /// Materialize the current surface as an [`ObservationDay`] —
    /// identical to `day_view(date)?.to_observation_day()`.
    pub fn observation_day(&self, date: Date) -> ObservationDay {
        ObservationDay {
            date,
            num_monitors: self.num_monitors(),
            routes: self
                .counts
                .iter()
                .map(|((prefix, _), (origin, monitors_seen))| RouteObservation {
                    prefix: *prefix,
                    origin: origin.clone(),
                    monitors_seen: *monitors_seen,
                    path: Vec::new().into(),
                    class: None,
                })
                .collect(),
        }
    }

    /// How many times the sweep paid for a full state rebuild (RIB
    /// decode + count aggregation) — the work the incremental paths
    /// avoid. Exposed for tests and diagnostics.
    pub fn full_rebuilds(&self) -> usize {
        self.full_rebuilds
    }

    /// Full reconstruction through `day_view` (first day, rib days,
    /// out-of-sequence queries, recovery after errors).
    fn reanchor(&mut self, d: Date) -> Result<DayDelta, ArchiveError> {
        match self.archive.day_view(d) {
            Ok(view) => {
                self.full_rebuilds += 1;
                self.peers = view.peers;
                self.routes = view.peer_routes;
                self.rebuild_counts();
                self.anchor = match view.provenance {
                    Provenance::Exact => Anchor::Day { day: d, rib_date: d },
                    Provenance::Reconstructed { rib_date } => Anchor::Day { day: d, rib_date },
                    Provenance::FallbackRib { rib_date } => Anchor::Fallback { day: d, rib: rib_date },
                };
                Ok(DayDelta {
                    provenance: view.provenance,
                    changed: None,
                })
            }
            Err(e) => {
                self.anchor = Anchor::None;
                self.peers.clear();
                self.routes.clear();
                self.counts.clear();
                Err(e)
            }
        }
    }

    /// Anchored at `d - 1` but `d`'s update file is missing: serve the
    /// first RIB after `d` (the paper's fallback), memoized for the
    /// following days.
    fn enter_fallback(&mut self, d: Date) -> Result<DayDelta, ArchiveError> {
        let Some((&rib, _)) = self.archive.ribs.range(d..).next() else {
            // No data at or after the gap: this and every later
            // consecutive day fail the same way.
            self.anchor = Anchor::Dead { day: d, missing: d };
            return Err(ArchiveError::NoRibAvailable(d));
        };
        let Some((peers, routes)) = self.archive.load_rib(rib) else {
            self.anchor = Anchor::None;
            return Err(ArchiveError::NoRibAvailable(rib));
        };
        self.full_rebuilds += 1;
        self.peers = peers;
        self.routes = routes;
        self.rebuild_counts();
        self.anchor = Anchor::Fallback { day: d, rib };
        Ok(DayDelta {
            provenance: Provenance::FallbackRib { rib_date: rib },
            changed: None,
        })
    }

    fn rebuild_counts(&mut self) {
        let Self {
            ref routes,
            ref mut counts,
            ref mut fmt,
            ..
        } = *self;
        counts.clear();
        for peer in routes {
            for (p, o) in peer {
                count_inc(counts, fmt, *p, o);
            }
        }
    }

    /// [`CollectorArchiveV2::apply_updates`], with count maintenance
    /// and changed-prefix tracking bolted on. A route write that does
    /// not change the stored origin touches nothing.
    fn apply_updates_tracked(&mut self, bytes: &Bytes) -> Vec<Prefix> {
        let mut touched: BTreeSet<Prefix> = BTreeSet::new();
        let Self {
            ref peers,
            ref mut routes,
            ref mut counts,
            ref mut fmt,
            ..
        } = *self;
        replay_updates(bytes, peers, |pi, p, origin| {
            let Some(table) = routes.get_mut(pi) else {
                return;
            };
            match origin {
                None => {
                    if let Some(old) = table.remove(&p) {
                        count_dec(counts, fmt, p, &old);
                        touched.insert(p);
                    }
                }
                Some(origin) => match table.insert(p, origin.clone()) {
                    Some(old) if old == *origin => {}
                    old => {
                        if let Some(o) = &old {
                            count_dec(counts, fmt, p, o);
                        }
                        count_inc(counts, fmt, p, origin);
                        touched.insert(p);
                    }
                },
            }
        });
        touched.into_iter().collect()
    }
}

/// Replay one update file, in timestamp order, onto per-peer state:
/// `apply(peer, prefix, None)` for each withdrawn prefix, then
/// `apply(peer, prefix, Some(origin))` for each NLRI of an announcement
/// whose AS_PATH has an origin. The sort is stable, so records with one
/// timestamp keep file order. Peers are identified by (IP, ASN):
/// multiple collector peers may share an ASN (multi-session setups),
/// but never an IP. Unknown peers and undecodable records are skipped
/// (lossy, like real pipelines).
fn replay_updates(
    bytes: &[u8],
    peers: &[PeerEntry],
    mut apply: impl FnMut(usize, Prefix, Option<&Origin>),
) {
    let mut reader = RecordReader::new(bytes);
    let mut records: Vec<RecordView<'_>> = reader.by_ref().collect();
    reader.stats().emit();
    records.sort_by_key(|r| r.timestamp);
    let index_of: HashMap<(u32, Asn), usize> = peers
        .iter()
        .enumerate()
        .map(|(i, p)| ((p.ip, p.asn), i))
        .collect();
    for rec in records {
        let MrtRecordView::Bgp4mpMessage(m) = rec.record else {
            continue;
        };
        let Some(&pi) = index_of.get(&(m.peer_ip, m.peer_as)) else {
            continue;
        };
        let MessageView::Update(u) = m.message else {
            continue;
        };
        for w in u.withdrawn() {
            apply(pi, w, None);
        }
        if let Some(origin) = u.as_path().origin() {
            for p in u.nlri() {
                apply(pi, p, Some(&origin));
            }
        }
    }
}

fn encode_rib(
    attrs: &AttrTable<'_>,
    config: &ArchiveV2Config,
    peers: &[PeerEntry],
    day: Date,
    state: &[Vec<(Prefix, Origin)>],
) -> Result<Bytes, Mrt2Error> {
    let ts = midnight(day);
    let mut records = vec![TimestampedRecord {
        timestamp: ts,
        record: MrtRecord::PeerIndexTable(PeerIndexTable {
            collector_bgp_id: config.collector_bgp_id,
            view_name: "drywells".into(),
            peers: peers.to_vec(),
        }),
    }];
    // Group by (prefix, origin-rendering) → entries.
    let mut by_prefix: BTreeMap<Prefix, Vec<(u16, Origin)>> = BTreeMap::new();
    for (pi, routes) in state.iter().enumerate() {
        let pi = u16::try_from(pi).map_err(|_| Mrt2Error::TooLong {
            field: "peer index",
            len: pi,
        })?;
        for (prefix, origin) in routes {
            by_prefix.entry(*prefix).or_default().push((pi, origin.clone()));
        }
    }
    for (seq, (prefix, holders)) in by_prefix.into_iter().enumerate() {
        let sequence = u32::try_from(seq).map_err(|_| Mrt2Error::TooLong {
            field: "RIB sequence",
            len: seq,
        })?;
        let entries: Vec<RibEntry> = holders
            .into_iter()
            .map(|(pi, origin)| RibEntry {
                peer_index: pi,
                originated_time: ts.saturating_sub(86_400),
                attributes: attrs.encoded_attributes(
                    pi as usize,
                    peers[pi as usize].asn,
                    &origin,
                ),
            })
            .collect();
        records.push(TimestampedRecord {
            timestamp: ts,
            record: MrtRecord::RibIpv4Unicast(RibIpv4Unicast {
                sequence,
                prefix,
                entries,
            }),
        });
    }
    encode_file(&records)
}

/// Per-peer diff accumulators: prefix-ordered withdraws plus
/// announcements grouped by origin rendering (implicit withdraws are
/// expressed as re-announcements, as in real BGP).
#[derive(Default)]
struct PeerDiff {
    withdrawn: Vec<Prefix>,
    announced: BTreeMap<String, (Origin, Vec<Prefix>)>,
}

impl PeerDiff {
    fn announce(&mut self, p: Prefix, o: &Origin) {
        let e = self
            .announced
            .entry(format!("{o}"))
            .or_insert_with(|| (o.clone(), Vec::new()));
        e.1.push(p);
    }

    /// Emit this peer's BGP4MP records, spreading messages 13 s apart
    /// from `first_ts` on.
    fn emit(
        self,
        attrs: &AttrTable<'_>,
        config: &ArchiveV2Config,
        peer: &PeerEntry,
        pi: usize,
        first_ts: u32,
        records: &mut Vec<TimestampedRecord>,
    ) {
        let mut seq = 0u32;
        let mut ts = || {
            let t = first_ts + seq * 13;
            seq += 1;
            t
        };
        if !self.withdrawn.is_empty() {
            records.push(TimestampedRecord {
                timestamp: ts(),
                record: MrtRecord::Bgp4mpMessage(Bgp4mpMessage {
                    peer_as: peer.asn,
                    local_as: config.collector_asn,
                    interface: 0,
                    peer_ip: peer.ip,
                    local_ip: 0x0A00_00FE,
                    message: BgpMessage::Update(UpdateMessage::withdraw(self.withdrawn)),
                }),
            });
        }
        for (_, (origin, mut prefixes)) in self.announced {
            prefixes.sort();
            records.push(TimestampedRecord {
                timestamp: ts(),
                record: MrtRecord::Bgp4mpMessage(Bgp4mpMessage {
                    peer_as: peer.asn,
                    local_as: config.collector_asn,
                    interface: 0,
                    peer_ip: peer.ip,
                    local_ip: 0x0A00_00FE,
                    message: BgpMessage::Update(UpdateMessage {
                        withdrawn: Vec::new(),
                        attributes: attrs.attributes(pi, peer.asn, &origin),
                        nlri: prefixes,
                    }),
                }),
            });
        }
    }
}

/// Update-file encoding: the per-monitor [`SelChange`] lists from one
/// [`RenderEngine::advance_state`] call already *are* the day-over-day
/// diff (prefix-sorted, origin-change-only), so no merge-join over two
/// full states is needed.
fn encode_updates_delta(
    attrs: &AttrTable<'_>,
    engine: &RenderEngine,
    config: &ArchiveV2Config,
    peers: &[PeerEntry],
    day: Date,
    changes: &[Vec<SelChange>],
) -> Result<Bytes, Mrt2Error> {
    let base_ts = midnight(day);
    let mut records = Vec::new();
    for (pi, peer) in peers.iter().enumerate() {
        let pi32 = u32::try_from(pi).map_err(|_| Mrt2Error::TooLong {
            field: "peer index",
            len: pi,
        })?;
        let mut diff = PeerDiff::default();
        for c in &changes[pi] {
            match c.new {
                Some(e) => diff.announce(c.prefix, engine.entity_origin(e)),
                None => diff.withdrawn.push(c.prefix),
            }
        }
        // Each peer's messages start a peer-index offset past 00:01.
        diff.emit(attrs, config, peer, pi, base_ts + 60 + pi32, &mut records);
    }
    records.sort_by_key(|r| r.timestamp);
    encode_file(&records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mrt2::decode_file_lossy;
    use crate::scenario::WorldConfig;
    use crate::topology::TopologyConfig;
    use nettypes::date::date;

    fn world() -> LeaseWorld {
        LeaseWorld::generate(&WorldConfig {
            seed: 33,
            span: DateRange::new(date("2018-01-01"), date("2018-01-31")),
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

    fn per_monitor_routes(
        w: &LeaseWorld,
        model: &VisibilityModel,
        day: Date,
    ) -> Vec<Vec<(Prefix, Origin)>> {
        let engine = RenderEngine::new(w, model);
        engine.per_monitor_routes(&mut engine.scratch(), day)
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
    fn reconstruction_matches_direct_rendering() {
        let (w, model, archive) = setup();
        for probe in [date("2018-01-01"), date("2018-01-06"), date("2018-01-13"), date("2018-01-31")] {
            let view = archive.day_view(probe).expect("view");
            let direct = per_monitor_routes(&w, &model, probe);
            assert_eq!(view.peer_routes.len(), direct.len());
            for (pi, routes) in direct.iter().enumerate() {
                let got = &view.peer_routes[pi];
                assert_eq!(
                    got.len(),
                    routes.len(),
                    "peer {pi} on {probe}: {} vs {} routes",
                    got.len(),
                    routes.len()
                );
                for (p, o) in routes {
                    assert_eq!(got.get(p), Some(o), "peer {pi} {p} on {probe}");
                }
            }
        }
    }

    #[test]
    fn provenance_reporting() {
        let (_, _, archive) = setup();
        assert_eq!(
            archive.day_view(date("2018-01-01")).unwrap().provenance,
            Provenance::Exact
        );
        assert_eq!(
            archive.day_view(date("2018-01-05")).unwrap().provenance,
            Provenance::Reconstructed {
                rib_date: date("2018-01-01")
            }
        );
        assert_eq!(
            archive.day_view(date("2018-01-08")).unwrap().provenance,
            Provenance::Exact
        );
    }

    #[test]
    fn missing_update_file_falls_to_next_rib() {
        let (w, model, mut archive) = setup();
        // Kill the update file for Jan 3.
        assert!(archive.drop_update_file(date("2018-01-03")));
        // Jan 5 can no longer be reconstructed from Jan 1; the paper
        // fallback continues from the Jan 8 RIB — which is *after* the
        // target, so the state is the Jan 8 RIB itself.
        let view = archive.day_view(date("2018-01-05")).unwrap();
        assert_eq!(
            view.provenance,
            Provenance::FallbackRib {
                rib_date: date("2018-01-08")
            }
        );
        // The fallback state equals the direct rendering of Jan 8.
        let direct = per_monitor_routes(&w, &model, date("2018-01-08"));
        for (pi, routes) in direct.iter().enumerate() {
            assert_eq!(view.peer_routes[pi].len(), routes.len());
        }
        // A later day that passes through the next RIB reconstructs fine.
        let later = archive.day_view(date("2018-01-10")).unwrap();
        assert_eq!(
            later.provenance,
            Provenance::Reconstructed {
                rib_date: date("2018-01-08")
            }
        );
        let direct10 = per_monitor_routes(&w, &model, date("2018-01-10"));
        for (pi, routes) in direct10.iter().enumerate() {
            assert_eq!(later.peer_routes[pi].len(), routes.len());
        }
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
        // drift; the Jan 8 RIB resynchronizes Jan 8 onwards.
        let view = archive.day_view(date("2018-01-09")).unwrap();
        let direct = per_monitor_routes(&w, &model, date("2018-01-09"));
        for (pi, routes) in direct.iter().enumerate() {
            let got = &view.peer_routes[pi];
            for (p, o) in routes {
                assert_eq!(got.get(p), Some(o));
            }
        }
    }

    #[test]
    fn out_of_range_and_empty() {
        let (_, _, archive) = setup();
        assert!(matches!(
            archive.day_view(date("2017-12-25")),
            Err(ArchiveError::OutOfRange(_))
        ));
        let empty = CollectorArchiveV2::default();
        assert!(matches!(
            empty.day_view(date("2018-01-01")),
            Err(ArchiveError::NoRibAvailable(_))
        ));
    }

    #[test]
    fn observation_day_counts_match() {
        let (w, model, archive) = setup();
        let probe = date("2018-01-20");
        let view = archive.day_view(probe).unwrap();
        let obs = view.to_observation_day();
        assert_eq!(obs.num_monitors, 12);
        // Aggregate counts agree with the direct per-monitor rendering.
        let direct = per_monitor_routes(&w, &model, probe);
        let mut expect: HashMap<(Prefix, String), u16> = HashMap::new();
        for routes in &direct {
            for (p, o) in routes {
                *expect.entry((*p, format!("{o}"))).or_default() += 1;
            }
        }
        assert_eq!(obs.routes.len(), expect.len());
        for r in &obs.routes {
            let key = (r.prefix, format!("{}", r.origin));
            assert_eq!(expect.get(&key), Some(&r.monitors_seen), "{key:?}");
        }
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
            let par =
                CollectorArchiveV2::generate_with_threads(&w, &model, w.span, &cfg, threads)
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
                assert_eq!(par.rib_bytes(d), seq.rib_bytes(d), "RIB bytes differ on {d}");
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
    fn sweep_matches_day_view_every_day() {
        let (_, _, archive) = setup();
        let mut sweep = archive.sweep();
        for d in DateRange::new(date("2018-01-01"), date("2018-01-31")).iter() {
            let delta = sweep.advance(d).expect("day serves");
            let view = archive.day_view(d).expect("view");
            assert_eq!(delta.provenance, view.provenance, "provenance differs on {d}");
            assert_eq!(
                sweep.observation_day(d),
                view.to_observation_day(),
                "observation surface differs on {d}"
            );
        }
    }

    #[test]
    fn sweep_changed_prefixes_cover_all_surface_changes() {
        let (_, _, archive) = setup();
        let mut sweep = archive.sweep();
        let mut prev: Option<ObservationDay> = None;
        for d in DateRange::new(date("2018-01-01"), date("2018-01-31")).iter() {
            let delta = sweep.advance(d).expect("day serves");
            let today = sweep.observation_day(d);
            if let (Some(prev), Some(changed)) = (&prev, &delta.changed) {
                // Rows of untouched prefixes are identical day-over-day.
                let rows =
                    |o: &ObservationDay, p: Prefix| -> Vec<(Prefix, Origin, u16)> {
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
                    if !changed.contains(&p) {
                        assert_eq!(rows(prev, p), rows(&today, p), "silent change at {p} on {d}");
                    }
                }
            }
            prev = Some(today);
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
            let view = archive.day_view(d).expect("view");
            assert_eq!(delta.provenance, view.provenance, "provenance differs on {d}");
            assert_eq!(
                sweep.observation_day(d),
                view.to_observation_day(),
                "observation surface differs on {d}"
            );
            if d == date("2018-01-03") {
                rebuilds_at_fallback_start = Some(sweep.full_rebuilds());
            }
            if d > date("2018-01-03") && d <= date("2018-01-08") {
                // Consecutive fallback days (and the RIB day the
                // fallback anchors to) cost no further rebuilds.
                assert_eq!(Some(sweep.full_rebuilds()), rebuilds_at_fallback_start, "{d}");
            }
        }
        // 31 day_view calls would have paid 31 rebuilds; the sweep
        // pays one per anchor: Jan 1, the fallback, and the later RIB
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
            let want = archive.day_view(d);
            match (got, want) {
                (Ok(delta), Ok(view)) => {
                    assert_eq!(delta.provenance, view.provenance, "{d}");
                    assert_eq!(sweep.observation_day(d), view.to_observation_day(), "{d}");
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{d}"),
                (a, b) => panic!("sweep/day_view disagree on {d}: {a:?} vs {b:?}"),
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
        assert_eq!(written, long.rib_dates().count() + long.update_dates().count());
        let before = listing();
        // Rewriting the same archive is fine: every file is its own.
        assert_eq!(long.write_dir(&dir).expect("same archive rewrites"), written);

        // Days 11–20 (RIB on day 15, updates on 11–20) are strays for
        // the 10-day archive; the RIB name sorts first.
        let err = short.write_dir(&dir).expect_err("stray files must be refused");
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        assert!(
            err.to_string().contains("rib-2018-01-15.mrt"),
            "error should name the first stray file: {err}"
        );
        assert_eq!(listing(), before, "a refused write must leave the directory unchanged");
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
        assert!(crate::query::files_from_dir(&dir).expect("dir reads").is_empty());

        let written = archive
            .write_dir(&dir)
            .expect("a leftover temp file is not another archive's file");
        let files = crate::query::files_from_dir(&dir).expect("dir reads");
        assert_eq!(files.len(), written);
        let key = |f: &crate::query::QueryFile| (f.day, f.kind, f.bytes.clone());
        let want = crate::query::files_from_archive_v2(&archive);
        assert!(files.iter().map(key).eq(want.iter().map(key)), "files differ");
        let mut temps: Vec<String> = std::fs::read_dir(&dir)
            .expect("dir lists")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        temps.sort();
        assert_eq!(temps, ["rib-1999-01-01.mrt.tmp"], "only the foreign leftover stays");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn update_files_contain_real_bgp_messages() {
        let (_, _, archive) = setup();
        let bytes = archive.update_bytes(date("2018-01-02")).unwrap();
        let (records, stats) = decode_file_lossy(bytes);
        assert!(stats.is_clean());
        assert!(!records.is_empty());
        let mut updates = 0;
        for r in &records {
            if let MrtRecord::Bgp4mpMessage(m) = &r.record {
                assert!(matches!(m.message, BgpMessage::Update(_)));
                updates += 1;
            }
        }
        assert!(updates > 0, "no BGP4MP updates in the file");
        // Timestamps are sorted within the file.
        assert!(records.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
    }
}
