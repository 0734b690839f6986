//! The from-scratch archive reconstruction, kept as a test oracle for
//! `bgpsim::updates::ObservationSweep`.
//!
//! It rebuilds each day on its own, the way §4 of the paper states the
//! procedure: decode the latest RIB at or before the day, apply every
//! update file since in order, and when an update file is missing,
//! serve the first RIB after it instead. Nothing carries over from one
//! day to the next. Files are decoded whole into owned records
//! (`mrt_oracle::decode_file_lossy`), and origins are read from the
//! owned `PathAttribute::AsPath` segments.

use crate::mrt_oracle::{self, AsPathSegment, BgpMessage, MrtRecord, PathAttribute};
use bgpsim::mrt2::PeerEntry;
use bgpsim::observe::{ObservationDay, RouteObservation};
use bgpsim::updates::{ArchiveError, CollectorArchiveV2, Provenance};
use nettypes::asn::{Asn, Origin};
use nettypes::date::Date;
use nettypes::prefix::Prefix;
use std::collections::{BTreeMap, HashMap};

/// For each peer (index-aligned with the peer table), prefix → origin.
pub type PeerRoutes = Vec<BTreeMap<Prefix, Origin>>;

/// One day's reconstructed per-peer routing state.
pub struct OracleDay {
    /// How the state was obtained.
    pub provenance: Provenance,
    /// The peer table.
    pub peers: Vec<PeerEntry>,
    /// For each peer, prefix → origin.
    pub routes: PeerRoutes,
}

impl OracleDay {
    /// The observation surface: distinct `(prefix, origin)` pairs in
    /// that order, each with the number of peers holding it.
    pub fn observation_day(&self, date: Date) -> ObservationDay {
        let mut counts: BTreeMap<(Prefix, Origin), u16> = BTreeMap::new();
        for (p, o) in self.routes.iter().flatten() {
            *counts.entry((*p, o.clone())).or_default() += 1;
        }
        ObservationDay {
            date,
            num_monitors: u16::try_from(self.peers.len()).expect("u16-counted peer table"),
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
}

/// The origin of the first AS_PATH attribute: the last AS of a final
/// sequence, or the whole final set.
fn origin(attrs: &[PathAttribute]) -> Option<Origin> {
    let segments = attrs.iter().find_map(|a| match a {
        PathAttribute::AsPath(segments) => Some(segments),
        _ => None,
    })?;
    match segments.last()? {
        AsPathSegment::Sequence(asns) => asns.last().copied().map(Origin::Single),
        AsPathSegment::Set(asns) => Some(Origin::Set(asns.clone())),
    }
}

/// Decode a RIB file; `None` when it has no peer table.
fn load_rib(archive: &CollectorArchiveV2, d: Date) -> Option<(Vec<PeerEntry>, PeerRoutes)> {
    let (records, _) = mrt_oracle::decode_file_lossy(archive.rib_bytes(d)?);
    let mut peers = Vec::new();
    let mut routes: PeerRoutes = Vec::new();
    for rec in records {
        match rec.record {
            MrtRecord::PeerIndexTable(t) => {
                routes = vec![BTreeMap::new(); t.peers.len()];
                peers = t.peers;
            }
            MrtRecord::RibIpv4Unicast(r) => {
                for e in r.entries {
                    let Some(table) = routes.get_mut(usize::from(e.peer_index)) else {
                        continue;
                    };
                    let attrs = mrt_oracle::decode_attributes(&e.attributes).unwrap_or_default();
                    if let Some(o) = origin(&attrs) {
                        table.insert(r.prefix, o);
                    }
                }
            }
            _ => {}
        }
    }
    (!peers.is_empty()).then_some((peers, routes))
}

/// Apply one update file: records in timestamp order (stable), each
/// UPDATE's withdrawals first, then its announcements.
fn apply_updates(bytes: &[u8], peers: &[PeerEntry], routes: &mut PeerRoutes) {
    let (mut records, _) = mrt_oracle::decode_file_lossy(bytes);
    records.sort_by_key(|r| r.timestamp);
    let index_of: HashMap<(u32, Asn), usize> = peers
        .iter()
        .enumerate()
        .map(|(i, p)| ((p.ip, p.asn), i))
        .collect();
    for rec in records {
        let MrtRecord::Bgp4mpMessage(m) = rec.record else {
            continue;
        };
        let (Some(&pi), BgpMessage::Update(u)) = (index_of.get(&(m.peer_ip, m.peer_as)), m.message)
        else {
            continue;
        };
        let table = &mut routes[pi];
        for p in &u.withdrawn {
            table.remove(p);
        }
        if let Some(o) = origin(&u.attributes) {
            for p in u.nlri {
                table.insert(p, o.clone());
            }
        }
    }
}

/// Reconstruct `date` from scratch.
pub fn day(archive: &CollectorArchiveV2, date: Date) -> Result<OracleDay, ArchiveError> {
    let Some(rib_date) = archive.rib_dates().take_while(|&r| r <= date).last() else {
        return Err(match archive.rib_dates().next() {
            None => ArchiveError::NoRibAvailable(date),
            Some(_) => ArchiveError::OutOfRange(date),
        });
    };
    let (peers, mut routes) =
        load_rib(archive, rib_date).ok_or(ArchiveError::NoRibAvailable(date))?;
    let mut d = rib_date;
    while d < date {
        d = d.succ();
        let Some(bytes) = archive.update_bytes(d) else {
            // No RIB lies in (rib_date, date], so the first RIB after
            // the gap is after `date` too: it serves `date` as it is.
            let next = archive
                .rib_dates()
                .find(|&r| r >= d)
                .ok_or(ArchiveError::NoRibAvailable(d))?;
            let (peers, routes) =
                load_rib(archive, next).ok_or(ArchiveError::NoRibAvailable(next))?;
            return Ok(OracleDay {
                provenance: Provenance::FallbackRib { rib_date: next },
                peers,
                routes,
            });
        };
        apply_updates(bytes, &peers, &mut routes);
    }
    Ok(OracleDay {
        provenance: if rib_date == date {
            Provenance::Exact
        } else {
            Provenance::Reconstructed { rib_date }
        },
        peers,
        routes,
    })
}
