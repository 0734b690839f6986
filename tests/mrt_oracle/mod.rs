//! The owned RFC 6396 / BGP-4 record model, kept as a test oracle for
//! `bgpsim::mrt2::MrtWriter` and the borrowed readers.
//!
//! This is the encoder that produced every pinned archive digest: each
//! record is built as an owned [`TimestampedRecord`], its body encoded
//! into one buffer ([`encode_record`]) and the records concatenated
//! into another ([`encode_file`]). The owned decoders convert the
//! library's borrowed views (`bgpsim::mrt2::parse_record`,
//! `bgpsim::bgp::parse_message`) with free functions ([`to_record`],
//! [`to_message`], [`to_update`], [`to_attribute`], [`to_segments`]):
//! a malformed attribute becomes [`PathAttribute::Unknown`], and an
//! UPDATE's origin is read from its owned AS_PATH segments.
//!
//! Each test crate that includes this module uses a different part of
//! it, hence the `dead_code` allowance.

#![allow(dead_code)]

use bgpsim::bgp::{
    self, AsPathView, MessageView, RawAttribute, UpdateView, MAX_MESSAGE, TYPE_KEEPALIVE,
    TYPE_UPDATE,
};
use bgpsim::mrt2::{
    self, LossyStats, Mrt2Error, MrtRecordView, PeerEntry, RecordReader, RecordView,
    SUBTYPE_BGP4MP_MESSAGE_AS4, SUBTYPE_PEER_INDEX_TABLE, SUBTYPE_RIB_IPV4_UNICAST, TYPE_BGP4MP,
    TYPE_TABLE_DUMP_V2,
};
use bytes::{BufMut, Bytes, BytesMut};
use nettypes::asn::Asn;
use nettypes::prefix::Prefix;

// --- the BGP message model -------------------------------------------

/// The ORIGIN attribute value (RFC 4271 §5.1.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OriginType {
    /// Interior (IGP).
    Igp,
    /// Exterior (EGP).
    Egp,
    /// Incomplete.
    Incomplete,
}

impl OriginType {
    fn code(self) -> u8 {
        match self {
            OriginType::Igp => 0,
            OriginType::Egp => 1,
            OriginType::Incomplete => 2,
        }
    }

    fn from_code(c: u8) -> Option<OriginType> {
        Some(match c {
            0 => OriginType::Igp,
            1 => OriginType::Egp,
            2 => OriginType::Incomplete,
            _ => return None,
        })
    }
}

/// One AS_PATH segment (RFC 4271 §4.3; 4-octet ASNs per RFC 6793).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AsPathSegment {
    /// Ordered sequence of ASes.
    Sequence(Vec<Asn>),
    /// Unordered set (aggregation artifact).
    Set(Vec<Asn>),
}

/// A BGP path attribute.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PathAttribute {
    /// ORIGIN (type 1).
    Origin(OriginType),
    /// AS_PATH (type 2).
    AsPath(Vec<AsPathSegment>),
    /// NEXT_HOP (type 3), IPv4 in host order.
    NextHop(u32),
    /// MULTI_EXIT_DISC (type 4).
    Med(u32),
    /// LOCAL_PREF (type 5).
    LocalPref(u32),
    /// COMMUNITIES (type 8, RFC 1997).
    Communities(Vec<u32>),
    /// Any attribute this library does not interpret; round-trips
    /// byte-exactly.
    Unknown {
        /// Attribute flags byte.
        flags: u8,
        /// Attribute type code.
        type_code: u8,
        /// Raw value bytes.
        value: Bytes,
    },
}

impl PathAttribute {
    /// The attribute's type code.
    pub fn type_code(&self) -> u8 {
        match self {
            PathAttribute::Origin(_) => 1,
            PathAttribute::AsPath(_) => 2,
            PathAttribute::NextHop(_) => 3,
            PathAttribute::Med(_) => 4,
            PathAttribute::LocalPref(_) => 5,
            PathAttribute::Communities(_) => 8,
            PathAttribute::Unknown { type_code, .. } => *type_code,
        }
    }
}

/// A BGP UPDATE message.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct UpdateMessage {
    /// Withdrawn routes.
    pub withdrawn: Vec<Prefix>,
    /// Path attributes (apply to all NLRI).
    pub attributes: Vec<PathAttribute>,
    /// Announced prefixes.
    pub nlri: Vec<Prefix>,
}

impl UpdateMessage {
    /// Convenience: build a plain announcement with ORIGIN IGP, the
    /// given AS_PATH sequence and next hop.
    pub fn announce(nlri: Vec<Prefix>, path: Vec<Asn>, next_hop: u32) -> UpdateMessage {
        UpdateMessage {
            withdrawn: Vec::new(),
            attributes: vec![
                PathAttribute::Origin(OriginType::Igp),
                PathAttribute::AsPath(vec![AsPathSegment::Sequence(path)]),
                PathAttribute::NextHop(next_hop),
            ],
            nlri,
        }
    }

    /// Convenience: build a withdrawal.
    pub fn withdraw(withdrawn: Vec<Prefix>) -> UpdateMessage {
        UpdateMessage {
            withdrawn,
            attributes: Vec::new(),
            nlri: Vec::new(),
        }
    }

    /// The flattened AS path (sequence segments in order; set members
    /// appended), or empty when no AS_PATH attribute is present.
    pub fn as_path(&self) -> Vec<Asn> {
        for a in &self.attributes {
            if let PathAttribute::AsPath(segs) = a {
                let mut out = Vec::new();
                for s in segs {
                    match s {
                        AsPathSegment::Sequence(v) | AsPathSegment::Set(v) => {
                            out.extend_from_slice(v)
                        }
                    }
                }
                return out;
            }
        }
        Vec::new()
    }

    /// The origin AS (last AS of the path), if a non-empty AS_PATH
    /// sequence exists.
    pub fn origin_as(&self) -> Option<Asn> {
        self.as_path().last().copied()
    }
}

/// A decoded BGP message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BgpMessage {
    /// An UPDATE.
    Update(UpdateMessage),
    /// A KEEPALIVE (no body).
    Keepalive,
    /// Any other message type, body preserved raw.
    Other {
        /// Message type byte.
        msg_type: u8,
        /// Raw body.
        body: Bytes,
    },
}

// --- BGP encoding ----------------------------------------------------

fn put_wire_prefix(buf: &mut BytesMut, p: &Prefix) {
    buf.put_u8(p.len());
    let nbytes = p.len().div_ceil(8) as usize;
    let net = p.network().to_be_bytes();
    buf.put_slice(&net[..nbytes]);
}

fn wire_prefix_size(p: &Prefix) -> usize {
    1 + p.len().div_ceil(8) as usize
}

fn encode_attribute(buf: &mut BytesMut, attr: &PathAttribute) {
    // flags: optional(0x80) transitive(0x40) partial(0x20) extended(0x10)
    let (flags, type_code, value): (u8, u8, BytesMut) = match attr {
        PathAttribute::Origin(o) => {
            let mut v = BytesMut::with_capacity(1);
            v.put_u8(o.code());
            (0x40, 1, v)
        }
        PathAttribute::AsPath(segs) => {
            let mut v = BytesMut::new();
            for s in segs {
                let (seg_type, asns) = match s {
                    AsPathSegment::Set(a) => (1u8, a),
                    AsPathSegment::Sequence(a) => (2u8, a),
                };
                v.put_u8(seg_type);
                v.put_u8(asns.len() as u8);
                for a in asns {
                    v.put_u32(a.0);
                }
            }
            (0x40, 2, v)
        }
        PathAttribute::NextHop(ip) => {
            let mut v = BytesMut::with_capacity(4);
            v.put_u32(*ip);
            (0x40, 3, v)
        }
        PathAttribute::Med(m) => {
            let mut v = BytesMut::with_capacity(4);
            v.put_u32(*m);
            (0x80, 4, v)
        }
        PathAttribute::LocalPref(l) => {
            let mut v = BytesMut::with_capacity(4);
            v.put_u32(*l);
            (0x40, 5, v)
        }
        PathAttribute::Communities(cs) => {
            let mut v = BytesMut::with_capacity(cs.len() * 4);
            for c in cs {
                v.put_u32(*c);
            }
            (0xC0, 8, v)
        }
        PathAttribute::Unknown {
            flags,
            type_code,
            value,
        } => {
            let mut v = BytesMut::with_capacity(value.len());
            v.put_slice(value);
            (*flags, *type_code, v)
        }
    };
    let extended = value.len() > 255;
    let flags = if extended {
        flags | 0x10
    } else {
        flags & !0x10
    };
    buf.put_u8(flags);
    buf.put_u8(type_code);
    if extended {
        buf.put_u16(value.len() as u16);
    } else {
        buf.put_u8(value.len() as u8);
    }
    buf.put_slice(&value);
}

/// Encode a bare path-attribute blob (the wire form embedded in
/// `TABLE_DUMP_V2` RIB entries).
pub fn encode_attributes(attrs: &[PathAttribute]) -> Bytes {
    let mut buf = BytesMut::new();
    for a in attrs {
        encode_attribute(&mut buf, a);
    }
    buf.freeze()
}

/// Encode a message with the standard 19-byte header.
pub fn encode_message(msg: &BgpMessage) -> Bytes {
    let mut body = BytesMut::new();
    let msg_type = match msg {
        BgpMessage::Keepalive => TYPE_KEEPALIVE,
        BgpMessage::Other { msg_type, body: b } => {
            body.put_slice(b);
            *msg_type
        }
        BgpMessage::Update(u) => {
            // Withdrawn routes.
            let wsize: usize = u.withdrawn.iter().map(wire_prefix_size).sum();
            body.put_u16(wsize as u16);
            for p in &u.withdrawn {
                put_wire_prefix(&mut body, p);
            }
            // Path attributes.
            let mut attrs = BytesMut::new();
            for a in &u.attributes {
                encode_attribute(&mut attrs, a);
            }
            body.put_u16(attrs.len() as u16);
            body.put_slice(&attrs);
            // NLRI.
            for p in &u.nlri {
                put_wire_prefix(&mut body, p);
            }
            TYPE_UPDATE
        }
    };
    let total = 19 + body.len();
    debug_assert!(total <= MAX_MESSAGE, "BGP message too large: {total}");
    let mut out = BytesMut::with_capacity(total);
    out.put_slice(&[0xFF; 16]);
    out.put_u16(total as u16);
    out.put_u8(msg_type);
    out.put_slice(&body);
    out.freeze()
}

// --- BGP decoding: the library's views, converted --------------------

/// A big-endian u32 from an attribute value, `None` unless it is
/// exactly four bytes.
fn be_u32(value: &[u8]) -> Option<u32> {
    Some(u32::from_be_bytes(value.try_into().ok()?))
}

/// The owned attribute. A value a known type cannot hold (wrong width,
/// malformed AS_PATH) becomes [`PathAttribute::Unknown`].
pub fn to_attribute(raw: RawAttribute<'_>) -> PathAttribute {
    let value = raw.value;
    let parsed = match raw.type_code {
        1 => match value {
            [code] => OriginType::from_code(*code).map(PathAttribute::Origin),
            _ => None,
        },
        2 => AsPathView::parse(value).map(|p| PathAttribute::AsPath(to_segments(p))),
        3 => be_u32(value).map(PathAttribute::NextHop),
        4 => be_u32(value).map(PathAttribute::Med),
        5 => be_u32(value).map(PathAttribute::LocalPref),
        8 if value.len().is_multiple_of(4) => Some(PathAttribute::Communities(
            value.chunks_exact(4).filter_map(be_u32).collect(),
        )),
        _ => None,
    };
    parsed.unwrap_or_else(|| PathAttribute::Unknown {
        flags: raw.flags & !0x10,
        type_code: raw.type_code,
        value: Bytes::copy_from_slice(value),
    })
}

/// The owned segments of an AS_PATH.
pub fn to_segments(path: AsPathView<'_>) -> Vec<AsPathSegment> {
    path.segments()
        .map(|s| {
            let asns = s.asns().collect();
            if s.set {
                AsPathSegment::Set(asns)
            } else {
                AsPathSegment::Sequence(asns)
            }
        })
        .collect()
}

/// The owned UPDATE.
pub fn to_update(u: UpdateView<'_>) -> UpdateMessage {
    UpdateMessage {
        withdrawn: u.withdrawn().collect(),
        attributes: u
            .attributes()
            .filter_map(Result::ok)
            .map(to_attribute)
            .collect(),
        nlri: u.nlri().collect(),
    }
}

/// The owned message.
pub fn to_message(m: MessageView<'_>) -> BgpMessage {
    match m {
        MessageView::Update(u) => BgpMessage::Update(to_update(u)),
        MessageView::Keepalive => BgpMessage::Keepalive,
        MessageView::Other { msg_type, body } => BgpMessage::Other {
            msg_type,
            body: Bytes::copy_from_slice(body),
        },
    }
}

/// Decode a bare path-attribute blob.
pub fn decode_attributes(buf: &[u8]) -> Result<Vec<PathAttribute>, bgp::BgpError> {
    bgp::attributes(buf).map(|a| a.map(to_attribute)).collect()
}

/// Decode the body of an UPDATE message (after the 19-byte header).
pub fn decode_update_body(buf: &[u8]) -> Result<UpdateMessage, bgp::BgpError> {
    UpdateView::parse(buf).map(to_update)
}

/// Decode one message from the front of `buf`, returning it and the
/// number of bytes consumed.
pub fn decode_message(buf: &[u8]) -> Result<(BgpMessage, usize), bgp::BgpError> {
    bgp::parse_message(buf).map(|(m, used)| (to_message(m), used))
}

// --- the MRT record model --------------------------------------------

/// The `PEER_INDEX_TABLE` record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PeerIndexTable {
    /// The collector's BGP identifier.
    pub collector_bgp_id: u32,
    /// Optional view name.
    pub view_name: String,
    /// Indexed peers (RIB entries refer to these by position).
    pub peers: Vec<PeerEntry>,
}

/// One RIB entry: which peer had the route and with what attributes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RibEntry {
    /// Index into the peer table.
    pub peer_index: u16,
    /// When the route was received (Unix seconds).
    pub originated_time: u32,
    /// Raw BGP path attributes (same wire format as in UPDATEs).
    pub attributes: Bytes,
}

/// A `RIB_IPV4_UNICAST` record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RibIpv4Unicast {
    /// Dump-wide sequence number.
    pub sequence: u32,
    /// The prefix.
    pub prefix: Prefix,
    /// Per-peer entries.
    pub entries: Vec<RibEntry>,
}

/// A `BGP4MP_MESSAGE_AS4` record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Bgp4mpMessage {
    /// Sender ASN.
    pub peer_as: Asn,
    /// Receiver (collector) ASN.
    pub local_as: Asn,
    /// Interface index (0 in archives).
    pub interface: u16,
    /// Sender IPv4 address.
    pub peer_ip: u32,
    /// Receiver IPv4 address.
    pub local_ip: u32,
    /// The embedded BGP message.
    pub message: BgpMessage,
}

/// A decoded MRT record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MrtRecord {
    /// `TABLE_DUMP_V2` / `PEER_INDEX_TABLE`.
    PeerIndexTable(PeerIndexTable),
    /// `TABLE_DUMP_V2` / `RIB_IPV4_UNICAST`.
    RibIpv4Unicast(RibIpv4Unicast),
    /// `BGP4MP` / `BGP4MP_MESSAGE_AS4`.
    Bgp4mpMessage(Bgp4mpMessage),
    /// Anything else (preserved raw so archives can be re-emitted).
    Unknown {
        /// MRT type.
        mrt_type: u16,
        /// MRT subtype.
        mrt_subtype: u16,
        /// Raw record body.
        body: Bytes,
    },
}

/// An MRT record with its header timestamp.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TimestampedRecord {
    /// Unix seconds.
    pub timestamp: u32,
    /// The record.
    pub record: MrtRecord,
}

// --- MRT encoding ----------------------------------------------------

/// A value destined for a u16 wire length field, or [`Mrt2Error::TooLong`].
fn wire_u16(field: &'static str, len: usize) -> Result<u16, Mrt2Error> {
    u16::try_from(len).map_err(|_| Mrt2Error::TooLong { field, len })
}

fn encode_body(record: &MrtRecord) -> Result<(u16, u16, BytesMut), Mrt2Error> {
    Ok(match record {
        MrtRecord::PeerIndexTable(t) => {
            let mut b = BytesMut::new();
            b.put_u32(t.collector_bgp_id);
            b.put_u16(wire_u16("view name", t.view_name.len())?);
            b.put_slice(t.view_name.as_bytes());
            b.put_u16(wire_u16("peer table", t.peers.len())?);
            for p in &t.peers {
                // peer type: bit 0 = IPv6 (0 here), bit 1 = AS4 (set).
                b.put_u8(0x02);
                b.put_u32(p.bgp_id);
                b.put_u32(p.ip);
                b.put_u32(p.asn.0);
            }
            (TYPE_TABLE_DUMP_V2, SUBTYPE_PEER_INDEX_TABLE, b)
        }
        MrtRecord::RibIpv4Unicast(r) => {
            let mut b = BytesMut::new();
            b.put_u32(r.sequence);
            put_wire_prefix(&mut b, &r.prefix);
            b.put_u16(wire_u16("RIB entry list", r.entries.len())?);
            for e in &r.entries {
                b.put_u16(e.peer_index);
                b.put_u32(e.originated_time);
                b.put_u16(wire_u16("attribute bytes", e.attributes.len())?);
                b.put_slice(&e.attributes);
            }
            (TYPE_TABLE_DUMP_V2, SUBTYPE_RIB_IPV4_UNICAST, b)
        }
        MrtRecord::Bgp4mpMessage(m) => {
            let mut b = BytesMut::new();
            b.put_u32(m.peer_as.0);
            b.put_u32(m.local_as.0);
            b.put_u16(m.interface);
            b.put_u16(1); // AFI IPv4
            b.put_u32(m.peer_ip);
            b.put_u32(m.local_ip);
            b.put_slice(&encode_message(&m.message));
            (TYPE_BGP4MP, SUBTYPE_BGP4MP_MESSAGE_AS4, b)
        }
        MrtRecord::Unknown {
            mrt_type,
            mrt_subtype,
            body,
        } => {
            let mut b = BytesMut::with_capacity(body.len());
            b.put_slice(body);
            (*mrt_type, *mrt_subtype, b)
        }
    })
}

/// Encode one record with its MRT common header.
///
/// Fails with [`Mrt2Error::TooLong`] if any length (view name, peer
/// table, RIB entries, attributes, or the whole body) overflows its
/// wire-format field — truncating would corrupt the archive.
pub fn encode_record(timestamp: u32, record: &MrtRecord) -> Result<Bytes, Mrt2Error> {
    let (t, st, body) = encode_body(record)?;
    let body_len = u32::try_from(body.len()).map_err(|_| Mrt2Error::TooLong {
        field: "record body",
        len: body.len(),
    })?;
    let mut out = BytesMut::with_capacity(12 + body.len());
    out.put_u32(timestamp);
    out.put_u16(t);
    out.put_u16(st);
    out.put_u32(body_len);
    out.put_slice(&body);
    Ok(out.freeze())
}

/// Encode a whole file (concatenated records).
pub fn encode_file<'a>(
    records: impl IntoIterator<Item = &'a TimestampedRecord>,
) -> Result<Bytes, Mrt2Error> {
    let mut out = BytesMut::new();
    for r in records {
        out.put_slice(&encode_record(r.timestamp, &r.record)?);
    }
    Ok(out.freeze())
}

// --- MRT decoding: the library's views, converted --------------------

/// The owned record (RIB entry attributes and unknown bodies are
/// copied out).
pub fn to_record(view: RecordView<'_>) -> TimestampedRecord {
    let record = match view.record {
        MrtRecordView::PeerIndexTable(t) => MrtRecord::PeerIndexTable(PeerIndexTable {
            collector_bgp_id: t.collector_bgp_id,
            view_name: t.view_name.to_string(),
            peers: t.peers().collect(),
        }),
        MrtRecordView::RibIpv4Unicast(r) => MrtRecord::RibIpv4Unicast(RibIpv4Unicast {
            sequence: r.sequence,
            prefix: r.prefix,
            entries: r
                .entries()
                .map(|e| RibEntry {
                    peer_index: e.peer_index,
                    originated_time: e.originated_time,
                    attributes: Bytes::copy_from_slice(e.attributes),
                })
                .collect(),
        }),
        MrtRecordView::Bgp4mpMessage(m) => MrtRecord::Bgp4mpMessage(Bgp4mpMessage {
            peer_as: m.peer_as,
            local_as: m.local_as,
            interface: m.interface,
            peer_ip: m.peer_ip,
            local_ip: m.local_ip,
            message: to_message(m.message),
        }),
        MrtRecordView::Unknown {
            mrt_type,
            mrt_subtype,
            body,
        } => MrtRecord::Unknown {
            mrt_type,
            mrt_subtype,
            body: Bytes::copy_from_slice(body),
        },
    };
    TimestampedRecord {
        timestamp: view.timestamp,
        record,
    }
}

/// Decode one record from the front of `buf`; returns it and the bytes
/// consumed.
pub fn decode_record(buf: &[u8]) -> Result<(TimestampedRecord, usize), Mrt2Error> {
    mrt2::parse_record(buf).map(|(rec, used)| (to_record(rec), used))
}

/// Decode a whole file into records. Fails on the first structural
/// error; use [`decode_file_lossy`] for damaged archives.
pub fn decode_file(buf: &[u8]) -> Result<Vec<TimestampedRecord>, Mrt2Error> {
    mrt2::records(buf).map(|r| r.map(to_record)).collect()
}

/// Decode a file, skipping undecodable records by scanning to the next
/// header boundary via the declared length. Records with corrupted
/// *bodies* are skipped and counted per reason; a corrupted *length*
/// aborts the scan with the abandoned tail accounted in
/// [`LossyStats::bytes_unscanned`] (and a distinct `mrt_scan_aborted`
/// warn event/counter) instead of being silently dropped.
pub fn decode_file_lossy(buf: &[u8]) -> (Vec<TimestampedRecord>, LossyStats) {
    let mut reader = RecordReader::new(buf);
    let out: Vec<TimestampedRecord> = reader.by_ref().map(to_record).collect();
    let stats = reader.stats();
    stats.emit();
    (out, stats)
}
