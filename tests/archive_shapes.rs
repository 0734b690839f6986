//! Archive shapes the generator never writes, replayed by
//! `ObservationSweep` and by the from-scratch oracle
//! (`tests/replay_oracle`).
//!
//! Each archive is written record by record with `MrtWriter` and put in
//! place with `corrupt_rib` / `corrupt_update_file`. Every day of its
//! span is served by one stepping sweep and by a fresh sweep, and both
//! must match the oracle: provenance or error, the observation surface,
//! `routes_for` of every prefix held that day or the day before, and a
//! `changed` list that names every prefix whose rows moved since the
//! last day served.

mod mrt_oracle;
mod replay_oracle;

use bgpsim::bgp::{encode_path_attributes, Segment};
use bgpsim::mrt2::{Bgp4mpSession, MrtWriter, PeerEntry, RibEntryView};
use bgpsim::observe::ObservationDay;
use bgpsim::updates::{CollectorArchiveV2, Provenance};
use bytes::Bytes;
use nettypes::asn::{Asn, Origin};
use nettypes::date::{date, Date, DateRange};
use nettypes::prefix::Prefix;
use std::collections::BTreeSet;

const D0: &str = "2020-01-01";
const D1: &str = "2020-01-02";
const D2: &str = "2020-01-03";
const D3: &str = "2020-01-04";
const D4: &str = "2020-01-05";
const NEXT_HOP: u32 = 0x0A00_0001;

fn peer(i: u32) -> PeerEntry {
    PeerEntry {
        bgp_id: 0x0A00_0100 + i,
        ip: 0x0A00_0200 + i,
        asn: Asn(64_500 + i),
    }
}

fn single(a: u32) -> Origin {
    Origin::Single(Asn(a))
}

fn set(asns: &[u32]) -> Origin {
    Origin::Set(asns.iter().copied().map(Asn).collect())
}

fn prefix(p: &str) -> Prefix {
    p.parse().expect("prefix parses")
}

/// The attribute blob of a route to `origin` through AS 65000.
fn attributes(origin: &Origin) -> Vec<u8> {
    let via = Asn(65_000);
    let encoded = match origin {
        Origin::Single(a) => encode_path_attributes(&[Segment::Sequence(&[via, *a])], NEXT_HOP),
        Origin::Set(asns) => {
            encode_path_attributes(&[Segment::Sequence(&[via]), Segment::Set(asns)], NEXT_HOP)
        }
    };
    encoded.expect("attributes encode")
}

/// One record of a hand-written RIB file.
enum Rec<'a> {
    Peers(&'a [PeerEntry]),
    /// A RIB record: the prefix and its `(peer index, origin)` entries.
    Rib(&'a str, Vec<(u16, Origin)>),
}

fn rib_file(records: &[Rec<'_>]) -> Bytes {
    let mut w = MrtWriter::new();
    let ts = 1_577_836_800;
    for (seq, rec) in (0u32..).zip(records) {
        match rec {
            Rec::Peers(peers) => w
                .peer_table(ts, 0xC012_0001, "shapes", peers)
                .expect("peer table encodes"),
            Rec::Rib(p, entries) => {
                let blobs: Vec<Vec<u8>> = entries.iter().map(|(_, o)| attributes(o)).collect();
                let views = entries
                    .iter()
                    .zip(&blobs)
                    .map(|((pi, _), blob)| RibEntryView {
                        peer_index: *pi,
                        originated_time: ts,
                        attributes: blob,
                    });
                w.rib(ts, seq, prefix(p), views)
                    .expect("RIB record encodes");
            }
        }
    }
    w.finish()
}

/// One UPDATE of a hand-written update file.
struct Upd<'a> {
    peer: PeerEntry,
    withdrawn: &'a [&'a str],
    announce: Option<(Origin, &'a [&'a str])>,
}

fn update_file(messages: &[Upd<'_>]) -> Bytes {
    let mut w = MrtWriter::new();
    for (ts, m) in (1_577_836_860u32..).zip(messages) {
        let session = Bgp4mpSession {
            peer_as: m.peer.asn,
            local_as: Asn(12_654),
            interface: 0,
            peer_ip: m.peer.ip,
            local_ip: 0x0A00_00FE,
        };
        let withdrawn: Vec<Prefix> = m.withdrawn.iter().map(|p| prefix(p)).collect();
        let (attrs, nlri) = match &m.announce {
            Some((origin, nlri)) => (attributes(origin), nlri.iter().map(|p| prefix(p)).collect()),
            None => (Vec::new(), Vec::new()),
        };
        w.update(ts, &session, &withdrawn, &attrs, &nlri)
            .expect("UPDATE encodes");
    }
    w.finish()
}

fn archive(ribs: Vec<(&str, Bytes)>, updates: Vec<(&str, Bytes)>) -> CollectorArchiveV2 {
    let mut archive = CollectorArchiveV2::default();
    for (d, bytes) in ribs {
        archive.corrupt_rib(date(d), bytes);
    }
    for (d, bytes) in updates {
        archive.corrupt_update_file(date(d), bytes);
    }
    archive
}

fn rows(day: &ObservationDay, p: Prefix) -> Vec<(Origin, u16)> {
    day.routes
        .iter()
        .filter(|r| r.prefix == p)
        .map(|r| (r.origin.clone(), r.monitors_seen))
        .collect()
}

/// Serve `D0..=D4` and check every day against the oracle; returns each
/// served day's `changed` list.
fn check(archive: &CollectorArchiveV2) -> Vec<(Date, Vec<Prefix>)> {
    let mut sweep = archive.sweep();
    let mut prev = ObservationDay {
        date: date(D0),
        num_monitors: 0,
        routes: Vec::new(),
    };
    let mut changed = Vec::new();
    for d in DateRange::new(date(D0), date(D4)).iter() {
        let want = replay_oracle::day(archive, d).map(|v| (v.provenance, v.observation_day(d)));
        let mut fresh = archive.sweep();
        let fresh = fresh
            .advance(d)
            .map(|delta| (delta.provenance, fresh.observation_day(d)));
        assert_eq!(fresh, want, "a fresh sweep differs from the oracle on {d}");
        match (sweep.advance(d), want) {
            (Ok(delta), Ok((provenance, day))) => {
                assert_eq!(delta.provenance, provenance, "provenance on {d}");
                assert_eq!(sweep.observation_day(d), day, "surface on {d}");
                assert!(
                    delta.changed.windows(2).all(|w| w[0] < w[1]),
                    "changed is not sorted on {d}"
                );
                let held: BTreeSet<Prefix> = prev
                    .routes
                    .iter()
                    .chain(&day.routes)
                    .map(|r| r.prefix)
                    .collect();
                for p in held {
                    let now = rows(&day, p);
                    let served: Vec<_> = sweep.routes_for(p).map(|(o, n)| (o.clone(), n)).collect();
                    assert_eq!(served, now, "routes_for({p}) on {d}");
                    if now != rows(&prev, p) {
                        assert!(delta.changed.contains(&p), "{p} changed silently on {d}");
                    }
                }
                changed.push((d, delta.changed));
                prev = day;
            }
            (Err(got), Err(want)) => assert_eq!(got, want, "error on {d}"),
            (got, want) => panic!(
                "sweep and oracle disagree on {d}: {:?} vs {:?}",
                got.map(|delta| delta.provenance),
                want.map(|(provenance, _)| provenance)
            ),
        }
    }
    changed
}

#[test]
fn rib_records_out_of_prefix_order() {
    let peers = [peer(0), peer(1)];
    let archive = archive(
        vec![
            (
                D0,
                rib_file(&[
                    Rec::Peers(&peers),
                    Rec::Rib("10.2.0.0/16", vec![(0, single(1)), (1, single(1))]),
                    Rec::Rib("10.0.0.0/16", vec![(1, single(2))]),
                    Rec::Rib("10.1.0.0/16", vec![(0, single(3)), (1, single(4))]),
                    Rec::Rib("10.0.0.0/8", vec![(0, single(5))]),
                ]),
            ),
            (
                D2,
                rib_file(&[
                    Rec::Peers(&peers),
                    Rec::Rib("10.3.0.0/16", vec![(1, single(6))]),
                    Rec::Rib("10.1.0.0/16", vec![(0, single(4))]),
                    Rec::Rib("10.0.0.0/16", vec![(1, single(6)), (0, single(2))]),
                ]),
            ),
        ],
        vec![
            (
                D1,
                update_file(&[
                    Upd {
                        peer: peers[0],
                        withdrawn: &["10.2.0.0/16"],
                        announce: None,
                    },
                    Upd {
                        peer: peers[1],
                        withdrawn: &[],
                        announce: Some((single(6), &["10.3.0.0/16", "10.0.0.0/16"])),
                    },
                ]),
            ),
            (
                D3,
                update_file(&[Upd {
                    peer: peers[0],
                    withdrawn: &[],
                    announce: Some((single(7), &["10.9.0.0/16"])),
                }]),
            ),
        ],
    );
    let changed = check(&archive);
    assert_eq!(changed.len(), 4, "D4 has no update file and no later RIB");
}

#[test]
fn one_prefix_twice_for_one_peer_keeps_the_last_entry() {
    let peers = [peer(0), peer(1)];
    let archive = archive(
        vec![
            (
                D0,
                rib_file(&[
                    Rec::Peers(&peers),
                    // Twice in one record, and in two records.
                    Rec::Rib(
                        "10.0.0.0/16",
                        vec![(0, single(1)), (1, single(1)), (0, single(2))],
                    ),
                    Rec::Rib("10.1.0.0/16", vec![(0, single(3))]),
                    Rec::Rib("10.1.0.0/16", vec![(0, single(4)), (1, single(3))]),
                ]),
            ),
            (
                D2,
                rib_file(&[
                    Rec::Peers(&peers),
                    Rec::Rib("10.0.0.0/16", vec![(0, single(2)), (0, single(1))]),
                    Rec::Rib("10.1.0.0/16", vec![(1, single(3)), (1, single(4))]),
                    Rec::Rib("10.1.0.0/16", vec![(1, single(3))]),
                ]),
            ),
        ],
        vec![
            (
                D1,
                update_file(&[
                    Upd {
                        peer: peers[0],
                        withdrawn: &[],
                        announce: Some((single(8), &["10.0.0.0/16", "10.0.0.0/16"])),
                    },
                    Upd {
                        peer: peers[0],
                        withdrawn: &[],
                        announce: Some((single(1), &["10.0.0.0/16"])),
                    },
                ]),
            ),
            (
                D3,
                update_file(&[Upd {
                    peer: peers[1],
                    withdrawn: &["10.1.0.0/16"],
                    announce: Some((single(9), &["10.1.0.0/16"])),
                }]),
            ),
        ],
    );
    check(&archive);
}

#[test]
fn peer_index_past_the_peer_table_is_skipped() {
    let peers = [peer(0), peer(1)];
    let archive = archive(
        vec![
            (
                D0,
                rib_file(&[
                    Rec::Peers(&peers),
                    Rec::Rib(
                        "10.0.0.0/16",
                        vec![(0, single(1)), (2, single(9)), (7, single(9))],
                    ),
                    Rec::Rib("10.5.0.0/16", vec![(3, single(9))]),
                ]),
            ),
            (
                D2,
                rib_file(&[
                    Rec::Peers(&peers),
                    Rec::Rib("10.0.0.0/16", vec![(5, single(2)), (1, single(2))]),
                ]),
            ),
        ],
        vec![
            (
                D1,
                update_file(&[Upd {
                    peer: peers[1],
                    withdrawn: &[],
                    announce: Some((single(4), &["10.5.0.0/16"])),
                }]),
            ),
            (
                D3,
                update_file(&[Upd {
                    peer: peer(2),
                    withdrawn: &[],
                    announce: Some((single(4), &["10.6.0.0/16"])),
                }]),
            ),
        ],
    );
    let changed = check(&archive);
    assert_eq!(changed[0].1, [prefix("10.0.0.0/16")]);
}

#[test]
fn two_peer_tables_in_one_rib_keep_the_later_one() {
    let (first, later) = ([peer(0), peer(1)], [peer(2)]);
    let archive = archive(
        vec![
            (
                D0,
                rib_file(&[
                    Rec::Rib("10.9.0.0/16", vec![(0, single(9))]),
                    Rec::Peers(&first),
                    Rec::Rib("10.0.0.0/16", vec![(0, single(1)), (1, single(1))]),
                    Rec::Peers(&later),
                    Rec::Rib("10.1.0.0/16", vec![(0, single(2))]),
                ]),
            ),
            (
                D2,
                rib_file(&[
                    Rec::Peers(&first[..1]),
                    Rec::Rib("10.0.0.0/16", vec![(0, single(1))]),
                    Rec::Peers(&later),
                    Rec::Rib("10.2.0.0/16", vec![(0, single(3))]),
                ]),
            ),
        ],
        vec![
            (
                D1,
                update_file(&[
                    Upd {
                        peer: first[0],
                        withdrawn: &[],
                        announce: Some((single(5), &["10.0.0.0/16"])),
                    },
                    Upd {
                        peer: later[0],
                        withdrawn: &[],
                        announce: Some((single(3), &["10.2.0.0/16"])),
                    },
                ]),
            ),
            (
                D3,
                update_file(&[Upd {
                    peer: later[0],
                    withdrawn: &["10.1.0.0/16"],
                    announce: None,
                }]),
            ),
        ],
    );
    check(&archive);
}

#[test]
fn peer_table_that_differs_from_the_held_one_replaces_every_route() {
    let (before, after) = ([peer(0), peer(1)], [peer(1), peer(2)]);
    let archive = archive(
        vec![
            (
                D0,
                rib_file(&[
                    Rec::Peers(&before),
                    Rec::Rib("10.0.0.0/16", vec![(0, single(1)), (1, single(1))]),
                    Rec::Rib("10.1.0.0/16", vec![(1, single(2))]),
                ]),
            ),
            (
                D2,
                rib_file(&[
                    Rec::Peers(&after),
                    // The same routes as the held state, under other peers.
                    Rec::Rib("10.0.0.0/16", vec![(0, single(1)), (1, single(1))]),
                    Rec::Rib("10.2.0.0/16", vec![(1, single(3))]),
                ]),
            ),
        ],
        vec![
            (
                D1,
                update_file(&[Upd {
                    peer: before[0],
                    withdrawn: &["10.0.0.0/16"],
                    announce: Some((single(4), &["10.1.0.0/16"])),
                }]),
            ),
            (
                D3,
                update_file(&[
                    Upd {
                        peer: before[0],
                        withdrawn: &["10.0.0.0/16"],
                        announce: None,
                    },
                    Upd {
                        peer: after[1],
                        withdrawn: &[],
                        announce: Some((single(5), &["10.0.0.0/16"])),
                    },
                ]),
            ),
        ],
    );
    let changed = check(&archive);
    // The peer-table change reports every prefix held before or after.
    let d2 = &changed
        .iter()
        .find(|(d, _)| *d == date(D2))
        .expect("D2 served")
        .1;
    assert_eq!(
        *d2,
        ["10.0.0.0/16", "10.1.0.0/16", "10.2.0.0/16"].map(prefix)
    );
}

#[test]
fn withdrawal_of_a_prefix_never_announced_touches_nothing() {
    let peers = [peer(0), peer(1)];
    let archive = archive(
        vec![(
            D0,
            rib_file(&[
                Rec::Peers(&peers),
                Rec::Rib("10.0.0.0/16", vec![(0, single(1))]),
                Rec::Rib("10.1.0.0/16", vec![(1, single(2))]),
            ]),
        )],
        vec![
            (
                D1,
                update_file(&[
                    Upd {
                        peer: peers[0],
                        withdrawn: &["192.0.2.0/24"],
                        announce: None,
                    },
                    // Held by the other peer only.
                    Upd {
                        peer: peers[0],
                        withdrawn: &["10.1.0.0/16"],
                        announce: None,
                    },
                ]),
            ),
            (
                D2,
                update_file(&[Upd {
                    peer: peers[0],
                    withdrawn: &["192.0.2.0/24", "10.0.0.0/16"],
                    announce: Some((single(3), &["192.0.2.0/24"])),
                }]),
            ),
            (
                D3,
                update_file(&[Upd {
                    peer: peers[1],
                    withdrawn: &["198.51.100.0/24", "192.0.2.0/24"],
                    announce: None,
                }]),
            ),
            (
                D4,
                update_file(&[Upd {
                    peer: peers[0],
                    withdrawn: &["198.51.100.0/24", "192.0.2.0/24"],
                    announce: None,
                }]),
            ),
        ],
    );
    let changed = check(&archive);
    let on = |d: &str| {
        &changed
            .iter()
            .find(|(day, _)| *day == date(d))
            .expect("served")
            .1
    };
    assert!(on(D1).is_empty(), "{:?}", on(D1));
    assert_eq!(*on(D2), ["10.0.0.0/16", "192.0.2.0/24"].map(prefix));
    assert!(on(D3).is_empty(), "{:?}", on(D3));
    assert_eq!(*on(D4), [prefix("192.0.2.0/24")]);
}

#[test]
fn as_set_origins_sort_after_single_origins() {
    let peers = [peer(0), peer(1), peer(2), peer(3)];
    let archive = archive(
        vec![
            (
                D0,
                rib_file(&[
                    Rec::Peers(&peers),
                    Rec::Rib(
                        "10.0.0.0/16",
                        vec![
                            (0, set(&[3, 1, 2])),
                            (1, single(7)),
                            (2, set(&[1, 2])),
                            (3, set(&[])),
                        ],
                    ),
                    Rec::Rib("10.1.0.0/16", vec![(0, set(&[5])), (1, single(5))]),
                ]),
            ),
            (
                D3,
                rib_file(&[
                    Rec::Peers(&peers),
                    Rec::Rib("10.0.0.0/16", vec![(0, set(&[1, 2])), (1, set(&[3, 1, 2]))]),
                ]),
            ),
        ],
        vec![
            (
                D1,
                update_file(&[
                    Upd {
                        peer: peers[1],
                        withdrawn: &[],
                        announce: Some((set(&[9, 8]), &["10.0.0.0/16", "10.1.0.0/16"])),
                    },
                    Upd {
                        peer: peers[0],
                        withdrawn: &[],
                        announce: Some((single(3), &["10.1.0.0/16"])),
                    },
                ]),
            ),
            (
                D2,
                update_file(&[Upd {
                    peer: peers[2],
                    withdrawn: &["10.0.0.0/16"],
                    announce: Some((set(&[3, 1, 2]), &["10.1.0.0/16"])),
                }]),
            ),
            (
                D4,
                update_file(&[Upd {
                    peer: peers[3],
                    withdrawn: &[],
                    announce: Some((set(&[1]), &["10.0.0.0/16"])),
                }]),
            ),
        ],
    );
    check(&archive);
    let mut sweep = archive.sweep();
    sweep.advance(date(D0)).expect("D0 serves");
    let rows: Vec<_> = sweep
        .routes_for(prefix("10.0.0.0/16"))
        .map(|(o, n)| (o.clone(), n))
        .collect();
    assert_eq!(
        rows,
        [
            (single(7), 1),
            (set(&[]), 1),
            (set(&[1, 2]), 1),
            (set(&[3, 1, 2]), 1)
        ]
    );
}

#[test]
fn rib_without_a_peer_table_serves_no_day() {
    let peers = [peer(0)];
    let archive = archive(
        vec![
            (
                D0,
                rib_file(&[
                    Rec::Peers(&peers),
                    Rec::Rib("10.0.0.0/16", vec![(0, single(1))]),
                ]),
            ),
            (
                D2,
                rib_file(&[Rec::Rib("10.0.0.0/16", vec![(0, single(2))])]),
            ),
            (
                D4,
                rib_file(&[
                    Rec::Peers(&peers),
                    Rec::Rib("10.1.0.0/16", vec![(0, single(3))]),
                ]),
            ),
        ],
        vec![
            (
                D1,
                update_file(&[Upd {
                    peer: peers[0],
                    withdrawn: &[],
                    announce: Some((single(4), &["10.0.0.0/16"])),
                }]),
            ),
            (
                D3,
                update_file(&[Upd {
                    peer: peers[0],
                    withdrawn: &[],
                    announce: Some((single(5), &["10.0.0.0/16"])),
                }]),
            ),
        ],
    );
    let changed = check(&archive);
    let served: Vec<Date> = changed.iter().map(|&(d, _)| d).collect();
    assert_eq!(served, [date(D0), date(D1), date(D4)]);
    let mut sweep = archive.sweep();
    assert_eq!(
        sweep.advance(date(D4)).map(|delta| delta.provenance),
        Ok(Provenance::Exact)
    );
}

#[test]
fn empty_peer_table_serves_a_day_without_monitors() {
    let peers = [peer(0)];
    let archive = archive(
        vec![
            (
                D0,
                rib_file(&[
                    Rec::Peers(&peers),
                    Rec::Rib("10.0.0.0/16", vec![(0, single(1))]),
                ]),
            ),
            // A table that lists no peer, and an entry past it.
            (
                D2,
                rib_file(&[
                    Rec::Peers(&[]),
                    Rec::Rib("10.0.0.0/16", vec![(0, single(2))]),
                ]),
            ),
            (
                D4,
                rib_file(&[
                    Rec::Peers(&peers),
                    Rec::Rib("10.1.0.0/16", vec![(0, single(3))]),
                ]),
            ),
        ],
        vec![
            (
                D1,
                update_file(&[Upd {
                    peer: peers[0],
                    withdrawn: &[],
                    announce: Some((single(4), &["10.0.0.0/16"])),
                }]),
            ),
            // A message from a peer the empty table does not list.
            (
                D3,
                update_file(&[Upd {
                    peer: peers[0],
                    withdrawn: &[],
                    announce: Some((single(5), &["10.0.0.0/16"])),
                }]),
            ),
        ],
    );
    let changed = check(&archive);
    let served: Vec<Date> = changed.iter().map(|&(d, _)| d).collect();
    assert_eq!(served, [date(D0), date(D1), date(D2), date(D3), date(D4)]);
    let p = prefix("10.0.0.0/16");
    assert_eq!(
        changed[2].1,
        [p],
        "the empty table withdraws the held route"
    );
    assert!(changed[3].1.is_empty(), "{:?}", changed[3]);
    let mut sweep = archive.sweep();
    sweep.advance(date(D3)).expect("D3 serves");
    assert_eq!(sweep.num_monitors(), 0);
    assert_eq!(sweep.routes_for(p).count(), 0);
}
