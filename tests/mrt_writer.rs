//! `bgpsim::mrt2::MrtWriter` against the owned encoder in
//! `tests/mrt_oracle`: for any sequence of the records the simulation
//! emits, the writer's bytes are the oracle's bytes, and the oracle's
//! owned decoders read them back as the records the oracle encoded.

mod mrt_oracle;

use bgpsim::bgp::{self, Segment};
use bgpsim::mrt2::{Bgp4mpSession, MrtWriter, PeerEntry, RibEntryView};
use bytes::Bytes;
use mrt_oracle::{
    decode_file, encode_attributes, encode_file, AsPathSegment, Bgp4mpMessage, BgpMessage,
    MrtRecord, OriginType, PathAttribute, PeerIndexTable, RibEntry, RibIpv4Unicast,
    TimestampedRecord, UpdateMessage,
};
use nettypes::asn::Asn;
use nettypes::prefix::Prefix;
use proptest::prelude::*;

const NEXT_HOP: u32 = 0x0A00_0001;

/// A route's AS path as the archive generator writes it: the path to a
/// single origin, or the peer followed by an AS_SET origin.
#[derive(Clone, Debug)]
enum Route {
    Path(Vec<Asn>),
    Set { peer: Asn, members: Vec<Asn> },
}

impl Route {
    fn blob(&self) -> Vec<u8> {
        let segments = match self {
            Route::Path(path) => vec![Segment::Sequence(path)],
            Route::Set { peer, members } => {
                vec![
                    Segment::Sequence(std::slice::from_ref(peer)),
                    Segment::Set(members),
                ]
            }
        };
        bgp::encode_path_attributes(&segments, NEXT_HOP).expect("fits")
    }

    fn attributes(&self) -> Vec<PathAttribute> {
        let segments = match self {
            Route::Path(path) => vec![AsPathSegment::Sequence(path.clone())],
            Route::Set { peer, members } => vec![
                AsPathSegment::Sequence(vec![*peer]),
                AsPathSegment::Set(members.clone()),
            ],
        };
        vec![
            PathAttribute::Origin(OriginType::Igp),
            PathAttribute::AsPath(segments),
            PathAttribute::NextHop(NEXT_HOP),
        ]
    }
}

/// One record of the kinds the simulation writes.
#[derive(Clone, Debug)]
enum Spec {
    PeerTable(Vec<PeerEntry>),
    Rib {
        sequence: u32,
        prefix: Prefix,
        entries: Vec<(u16, u32, Route)>,
    },
    Withdraw(Bgp4mpSession, Vec<Prefix>),
    Announce(Bgp4mpSession, Route, Vec<Prefix>),
}

/// The records through the writer.
fn written(file: &[(u32, Spec)]) -> Bytes {
    let mut w = MrtWriter::new();
    for (ts, spec) in file {
        match spec {
            Spec::PeerTable(peers) => w.peer_table(*ts, 0xC012_0001, "drywells", peers),
            Spec::Rib {
                sequence,
                prefix,
                entries,
            } => {
                let blobs: Vec<Vec<u8>> = entries.iter().map(|(_, _, r)| r.blob()).collect();
                let views = entries
                    .iter()
                    .zip(&blobs)
                    .map(|((pi, t, _), blob)| RibEntryView {
                        peer_index: *pi,
                        originated_time: *t,
                        attributes: blob,
                    });
                w.rib(*ts, *sequence, *prefix, views)
            }
            Spec::Withdraw(session, withdrawn) => w.update(*ts, session, withdrawn, &[], &[]),
            Spec::Announce(session, route, nlri) => {
                w.update(*ts, session, &[], &route.blob(), nlri)
            }
        }
        .expect("the record fits");
    }
    w.finish()
}

fn bgp4mp(session: &Bgp4mpSession, message: UpdateMessage) -> MrtRecord {
    MrtRecord::Bgp4mpMessage(Bgp4mpMessage {
        peer_as: session.peer_as,
        local_as: session.local_as,
        interface: session.interface,
        peer_ip: session.peer_ip,
        local_ip: session.local_ip,
        message: BgpMessage::Update(message),
    })
}

/// The records as the oracle's owned model.
fn owned(file: &[(u32, Spec)]) -> Vec<TimestampedRecord> {
    file.iter()
        .map(|(ts, spec)| {
            let record = match spec {
                Spec::PeerTable(peers) => MrtRecord::PeerIndexTable(PeerIndexTable {
                    collector_bgp_id: 0xC012_0001,
                    view_name: "drywells".into(),
                    peers: peers.clone(),
                }),
                Spec::Rib {
                    sequence,
                    prefix,
                    entries,
                } => MrtRecord::RibIpv4Unicast(RibIpv4Unicast {
                    sequence: *sequence,
                    prefix: *prefix,
                    entries: entries
                        .iter()
                        .map(|(pi, t, route)| RibEntry {
                            peer_index: *pi,
                            originated_time: *t,
                            attributes: encode_attributes(&route.attributes()),
                        })
                        .collect(),
                }),
                Spec::Withdraw(session, withdrawn) => {
                    bgp4mp(session, UpdateMessage::withdraw(withdrawn.clone()))
                }
                Spec::Announce(session, route, nlri) => bgp4mp(
                    session,
                    UpdateMessage {
                        withdrawn: Vec::new(),
                        attributes: route.attributes(),
                        nlri: nlri.clone(),
                    },
                ),
            };
            TimestampedRecord {
                timestamp: *ts,
                record,
            }
        })
        .collect()
}

/// Writer bytes equal oracle bytes, and the oracle decodes them back.
fn check(file: &[(u32, Spec)]) -> Result<(), String> {
    let records = owned(file);
    let want = encode_file(&records).map_err(|e| format!("oracle refuses: {e}"))?;
    let got = written(file);
    if got != want {
        return Err(format!("writer and oracle bytes differ for {file:?}"));
    }
    let back = decode_file(&got).map_err(|e| format!("written file does not decode: {e}"))?;
    if back != records {
        return Err(format!("decoded records differ for {file:?}"));
    }
    Ok(())
}

fn peers(n: u32) -> Vec<PeerEntry> {
    (0..n)
        .map(|i| PeerEntry {
            bgp_id: 0x0A00_0100 + i,
            ip: 0x0A00_0200 + i,
            asn: Asn(64_500 + i),
        })
        .collect()
}

fn session(i: u32) -> Bgp4mpSession {
    Bgp4mpSession {
        peer_as: Asn(64_500 + i),
        local_as: Asn(12_654),
        interface: 0,
        peer_ip: 0x0A00_0200 + i,
        local_ip: 0x0A00_00FE,
    }
}

fn members(n: u32) -> Vec<Asn> {
    (0..n).map(|i| Asn(65_000 + i)).collect()
}

#[test]
fn writer_matches_the_oracle_on_edge_cases() {
    let p = |s: &str| nettypes::prefix::pfx(s);
    // An empty update file.
    check(&[]).unwrap();
    // Peer tables of 0, 1 and many peers.
    for n in [0, 1, 300] {
        check(&[(7, Spec::PeerTable(peers(n)))]).unwrap();
    }
    // A 64-member AS_SET needs the extended length: 6 + 2 + 256 bytes.
    let set = Route::Set {
        peer: Asn(64_500),
        members: members(64),
    };
    assert_eq!(set.blob()[4], 0x50, "extended-length AS_PATH flags");
    let rib = Spec::Rib {
        sequence: 3,
        prefix: p("193.0.0.0/21"),
        entries: vec![
            (0, 1, set.clone()),
            (1, 1, Route::Path(vec![Asn(3333), Asn(64_501)])),
        ],
    };
    check(&[(7, Spec::PeerTable(peers(2))), (7, rib)]).unwrap();
    // A withdraw-only peer and an announce-only peer.
    check(&[
        (
            60,
            Spec::Withdraw(session(0), vec![p("10.0.0.0/8"), Prefix::DEFAULT]),
        ),
        (
            61,
            Spec::Announce(session(1), set, vec![p("198.51.100.0/24")]),
        ),
    ])
    .unwrap();
}

#[test]
fn oracle_keeps_a_malformed_as_path_as_unknown() {
    // Segment type 3 is malformed: the owned decoder keeps it as
    // `Unknown`, and the first well-formed AS_PATH is the route's.
    let malformed = PathAttribute::Unknown {
        flags: 0x40,
        type_code: 2,
        value: Bytes::from_static(&[3, 1, 0, 0, 0, 9]),
    };
    let good = PathAttribute::AsPath(vec![
        AsPathSegment::Sequence(vec![Asn(1), Asn(2)]),
        AsPathSegment::Set(vec![Asn(7), Asn(8)]),
    ]);
    let later = PathAttribute::AsPath(vec![AsPathSegment::Sequence(vec![Asn(5)])]);
    let blob = encode_attributes(&[malformed.clone(), good.clone(), later.clone()]);
    assert_eq!(
        mrt_oracle::decode_attributes(&blob),
        Ok(vec![malformed, good, later])
    );
    let path = bgp::as_path(&blob).expect("framing holds");
    assert!(path.asns().eq([1, 2, 7, 8].map(Asn)));
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(n, l)| Prefix::new_unchecked_masked(n, l))
}

/// A single-origin path, or an AS_SET of up to 80 members (past 62 the
/// AS_PATH needs the extended length).
fn arb_route() -> impl Strategy<Value = Route> {
    (
        any::<bool>(),
        proptest::collection::vec(any::<u32>(), 1..8),
        0u32..=80,
    )
        .prop_map(|(set, path, n)| {
            let path: Vec<Asn> = path.into_iter().map(Asn).collect();
            if set {
                Route::Set {
                    peer: path[0],
                    members: members(n),
                }
            } else {
                Route::Path(path)
            }
        })
}

/// One record of any kind; peer tables of 0, 1 or many peers.
fn arb_record() -> impl Strategy<Value = (u32, Spec)> {
    (
        0u8..4,
        any::<u32>(),
        0u32..3,
        proptest::collection::vec(arb_prefix(), 1..12),
        proptest::collection::vec((any::<u16>(), any::<u32>(), arb_route()), 0..5),
        arb_route(),
    )
        .prop_map(|(kind, ts, size, prefixes, entries, route)| {
            let spec = match kind {
                0 => Spec::PeerTable(peers([0, 1, 40][size as usize])),
                1 => Spec::Rib {
                    sequence: ts / 7,
                    prefix: prefixes[0],
                    entries,
                },
                2 => Spec::Withdraw(session(size), prefixes),
                _ => Spec::Announce(session(size), route, prefixes),
            };
            (ts, spec)
        })
}

proptest! {
    #[test]
    fn prop_writer_bytes_match_the_oracle(
        file in proptest::collection::vec(arb_record(), 0..6),
    ) {
        if let Err(e) = check(&file) {
            return Err(TestCaseError::Fail(e));
        }
    }
}
