//! RFC 6396 MRT format: `TABLE_DUMP_V2` RIB dumps and `BGP4MP`
//! update records.
//!
//! This is the on-disk format the real collector projects (RIPE RIS,
//! Route Views) archive and that tools like `bgpkit` parse. The
//! simulation writes its daily RIBs as `PEER_INDEX_TABLE` +
//! `RIB_IPV4_UNICAST` records and its daily update streams as
//! `BGP4MP_MESSAGE_AS4` records wrapping real BGP UPDATE messages
//! (see [`crate::bgp`]).
//!
//! Implemented subset (IPv4, 4-octet ASNs):
//!
//! | type | subtype | record |
//! |---|---|---|
//! | 13 (`TABLE_DUMP_V2`) | 1 | `PEER_INDEX_TABLE` |
//! | 13 (`TABLE_DUMP_V2`) | 2 | `RIB_IPV4_UNICAST` |
//! | 16 (`BGP4MP`) | 4 | `BGP4MP_MESSAGE_AS4` |
//!
//! Unknown record types are surfaced as [`MrtRecord::Unknown`] and
//! skipped gracefully — archives in the wild interleave many record
//! kinds.
//!
//! Reading has one parser. [`parse_record`] checks a record's whole
//! structure (header, peer entries, every RIB entry's framing, the
//! embedded BGP message — see [`crate::bgp::parse_message`]) and
//! returns a [`RecordView`] that borrows the file bytes: RIB entries
//! and UPDATE withdrawn/attribute/NLRI sections stay slices. Two
//! cursors walk a file with it: [`records`] (strict, ends at the first
//! error) and [`RecordReader`] (lossy, with [`LossyStats`]). The owned
//! decoders — [`decode_record`], [`decode_file`], [`decode_file_lossy`]
//! — convert the views it returns; library readers (the query engine,
//! the collector replay) use the views directly and copy nothing.

use crate::bgp::{self, BgpMessage};
use bytes::{BufMut, Bytes, BytesMut};
use nettypes::asn::Asn;
use nettypes::prefix::Prefix;

/// MRT type `TABLE_DUMP_V2`.
pub const TYPE_TABLE_DUMP_V2: u16 = 13;
/// MRT type `BGP4MP`.
pub const TYPE_BGP4MP: u16 = 16;
/// Subtype `PEER_INDEX_TABLE`.
pub const SUBTYPE_PEER_INDEX_TABLE: u16 = 1;
/// Subtype `RIB_IPV4_UNICAST`.
pub const SUBTYPE_RIB_IPV4_UNICAST: u16 = 2;
/// Subtype `BGP4MP_MESSAGE_AS4`.
pub const SUBTYPE_BGP4MP_MESSAGE_AS4: u16 = 4;

/// Decode and encode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mrt2Error {
    /// Buffer shorter than the structure requires.
    Truncated,
    /// A structurally invalid field.
    Malformed(&'static str),
    /// An embedded BGP message failed to decode.
    Bgp(bgp::BgpError),
    /// Encode-side: a value does not fit its wire-format length field.
    /// Refusing beats silently truncating and corrupting the archive.
    TooLong {
        /// Which field overflowed.
        field: &'static str,
        /// The offending length.
        len: usize,
    },
    /// Encode-side: the day ranges handed to the archive generator do
    /// not tile the span in order. The range is the first one out of
    /// place (a gap or an overlap before it), or the days left
    /// uncovered, or covered past the span's end.
    UntiledChunk(std::ops::Range<usize>),
}

impl std::fmt::Display for Mrt2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mrt2Error::Truncated => write!(f, "truncated MRT record"),
            Mrt2Error::Malformed(w) => write!(f, "malformed MRT record: {w}"),
            Mrt2Error::Bgp(e) => write!(f, "embedded BGP message: {e}"),
            Mrt2Error::TooLong { field, len } => {
                write!(f, "{field} of {len} entries overflows its wire length field")
            }
            Mrt2Error::UntiledChunk(r) => {
                write!(f, "day range {r:?} breaks the tiling of the archive span")
            }
        }
    }
}

impl std::error::Error for Mrt2Error {}

impl From<bgp::BgpError> for Mrt2Error {
    fn from(e: bgp::BgpError) -> Self {
        Mrt2Error::Bgp(e)
    }
}

/// One peer of the `PEER_INDEX_TABLE` (IPv4, AS4 flavor).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PeerEntry {
    /// The peer's BGP identifier.
    pub bgp_id: u32,
    /// The peer's IPv4 address.
    pub ip: u32,
    /// The peer's ASN.
    pub asn: Asn,
}

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

// --- encoding ---------------------------------------------------------

fn put_wire_prefix(buf: &mut BytesMut, p: &Prefix) {
    buf.put_u8(p.len());
    let nbytes = p.len().div_ceil(8) as usize;
    buf.put_slice(&p.network().to_be_bytes()[..nbytes]);
}

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
            b.put_slice(&bgp::encode_message(&m.message));
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

// --- decoding (one parser: `parse_record`; see the module docs) -------

/// A `PEER_INDEX_TABLE`, borrowed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PeerTableView<'a> {
    /// The collector's BGP identifier.
    pub collector_bgp_id: u32,
    /// Optional view name.
    pub view_name: &'a str,
    count: u16,
    peers: &'a [u8],
}

fn next_peer(buf: &mut &[u8]) -> Result<PeerEntry, Mrt2Error> {
    let ptype = bgp::take_u8(buf).ok_or(Mrt2Error::Truncated)?;
    if ptype & 0x01 != 0 {
        return Err(Mrt2Error::Malformed("IPv6 peers unsupported"));
    }
    let bgp_id = bgp::take_u32(buf).ok_or(Mrt2Error::Truncated)?;
    let ip = bgp::take_u32(buf).ok_or(Mrt2Error::Truncated)?;
    let asn = if ptype & 0x02 != 0 {
        bgp::take_u32(buf)
    } else {
        bgp::take_u16(buf).map(u32::from)
    }
    .ok_or(Mrt2Error::Truncated)?;
    Ok(PeerEntry {
        bgp_id,
        ip,
        asn: Asn(asn),
    })
}

impl<'a> PeerTableView<'a> {
    /// The indexed peers, in index order.
    pub fn peers(self) -> impl Iterator<Item = PeerEntry> + 'a {
        let mut rest = self.peers;
        (0..self.count).map_while(move |_| next_peer(&mut rest).ok())
    }
}

/// One RIB entry, borrowed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RibEntryView<'a> {
    /// Index into the peer table.
    pub peer_index: u16,
    /// When the route was received (Unix seconds).
    pub originated_time: u32,
    /// Raw BGP path attributes; walk them with [`bgp::attributes`].
    pub attributes: &'a [u8],
}

fn next_rib_entry<'a>(buf: &mut &'a [u8]) -> Result<RibEntryView<'a>, Mrt2Error> {
    let [p0, p1, t0, t1, t2, t3, l0, l1] = bgp::take_array(buf).ok_or(Mrt2Error::Truncated)?;
    let alen = usize::from(u16::from_be_bytes([l0, l1]));
    let attributes = bgp::take(buf, alen).ok_or(Mrt2Error::Truncated)?;
    Ok(RibEntryView {
        peer_index: u16::from_be_bytes([p0, p1]),
        originated_time: u32::from_be_bytes([t0, t1, t2, t3]),
        attributes,
    })
}

/// A `RIB_IPV4_UNICAST` record, borrowed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RibView<'a> {
    /// Dump-wide sequence number.
    pub sequence: u32,
    /// The prefix.
    pub prefix: Prefix,
    count: u16,
    entries: &'a [u8],
}

impl<'a> RibView<'a> {
    /// The per-peer entries.
    pub fn entries(self) -> impl Iterator<Item = RibEntryView<'a>> + 'a {
        let mut rest = self.entries;
        (0..self.count).map_while(move |_| next_rib_entry(&mut rest).ok())
    }
}

/// A `BGP4MP_MESSAGE_AS4` record, borrowed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Bgp4mpView<'a> {
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
    /// The embedded BGP message, already checked.
    pub message: bgp::MessageView<'a>,
}

/// A record body, borrowed: [`MrtRecord`] without the copies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MrtRecordView<'a> {
    /// `TABLE_DUMP_V2` / `PEER_INDEX_TABLE`.
    PeerIndexTable(PeerTableView<'a>),
    /// `TABLE_DUMP_V2` / `RIB_IPV4_UNICAST`.
    RibIpv4Unicast(RibView<'a>),
    /// `BGP4MP` / `BGP4MP_MESSAGE_AS4`.
    Bgp4mpMessage(Bgp4mpView<'a>),
    /// Anything else.
    Unknown {
        /// MRT type.
        mrt_type: u16,
        /// MRT subtype.
        mrt_subtype: u16,
        /// Raw record body.
        body: &'a [u8],
    },
}

/// A checked MRT record with its header timestamp, borrowing the file
/// bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecordView<'a> {
    /// Unix seconds.
    pub timestamp: u32,
    /// The record.
    pub record: MrtRecordView<'a>,
}

impl RecordView<'_> {
    /// The owned record (RIB entry attributes and unknown bodies are
    /// copied out).
    pub fn to_record(self) -> TimestampedRecord {
        let record = match self.record {
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
                message: m.message.to_message(),
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
            timestamp: self.timestamp,
            record,
        }
    }
}

fn parse_body(t: u16, st: u16, mut body: &[u8]) -> Result<MrtRecordView<'_>, Mrt2Error> {
    let b = &mut body;
    match (t, st) {
        (TYPE_TABLE_DUMP_V2, SUBTYPE_PEER_INDEX_TABLE) => {
            let collector_bgp_id = bgp::take_u32(b).ok_or(Mrt2Error::Truncated)?;
            let name_len = bgp::take_u16(b).ok_or(Mrt2Error::Truncated)?;
            let name = bgp::take(b, usize::from(name_len)).ok_or(Mrt2Error::Truncated)?;
            let view_name = std::str::from_utf8(name)
                .map_err(|_| Mrt2Error::Malformed("view name utf8"))?;
            let count = bgp::take_u16(b).ok_or(Mrt2Error::Truncated)?;
            let peers = *b;
            for _ in 0..count {
                next_peer(b)?;
            }
            Ok(MrtRecordView::PeerIndexTable(PeerTableView {
                collector_bgp_id,
                view_name,
                count,
                peers,
            }))
        }
        (TYPE_TABLE_DUMP_V2, SUBTYPE_RIB_IPV4_UNICAST) => {
            let sequence = bgp::take_u32(b).ok_or(Mrt2Error::Truncated)?;
            let prefix = bgp::get_wire_prefix(b).map_err(|e| match e {
                bgp::BgpError::BadPrefixLen(_) => Mrt2Error::Malformed("prefix length"),
                _ => Mrt2Error::Truncated,
            })?;
            let count = bgp::take_u16(b).ok_or(Mrt2Error::Truncated)?;
            let entries = *b;
            for _ in 0..count {
                next_rib_entry(b)?;
            }
            Ok(MrtRecordView::RibIpv4Unicast(RibView {
                sequence,
                prefix,
                count,
                entries,
            }))
        }
        (TYPE_BGP4MP, SUBTYPE_BGP4MP_MESSAGE_AS4) => {
            let [p0, p1, p2, p3, a0, a1, a2, a3, i0, i1, f0, f1] =
                bgp::take_array(b).ok_or(Mrt2Error::Truncated)?;
            if [f0, f1] != [0, 1] {
                return Err(Mrt2Error::Malformed("non-IPv4 AFI"));
            }
            let [ip0, ip1, ip2, ip3, lip0, lip1, lip2, lip3] =
                bgp::take_array(b).ok_or(Mrt2Error::Truncated)?;
            let (message, used) = bgp::parse_message(b)?;
            if used != b.len() {
                return Err(Mrt2Error::Malformed("trailing bytes after BGP message"));
            }
            Ok(MrtRecordView::Bgp4mpMessage(Bgp4mpView {
                peer_as: Asn(u32::from_be_bytes([p0, p1, p2, p3])),
                local_as: Asn(u32::from_be_bytes([a0, a1, a2, a3])),
                interface: u16::from_be_bytes([i0, i1]),
                peer_ip: u32::from_be_bytes([ip0, ip1, ip2, ip3]),
                local_ip: u32::from_be_bytes([lip0, lip1, lip2, lip3]),
                message,
            }))
        }
        _ => Ok(MrtRecordView::Unknown {
            mrt_type: t,
            mrt_subtype: st,
            body,
        }),
    }
}

/// Parse one record from the front of `buf` after checking its whole
/// structure; returns its view and the bytes it spans.
pub fn parse_record(mut buf: &[u8]) -> Result<(RecordView<'_>, usize), Mrt2Error> {
    let b = &mut buf;
    let [s0, s1, s2, s3, t0, t1, st0, st1, l0, l1, l2, l3] =
        bgp::take_array(b).ok_or(Mrt2Error::Truncated)?;
    let len = u32::from_be_bytes([l0, l1, l2, l3]);
    let len = usize::try_from(len).map_err(|_| Mrt2Error::Truncated)?;
    let body = bgp::take(b, len).ok_or(Mrt2Error::Truncated)?;
    let t = u16::from_be_bytes([t0, t1]);
    let st = u16::from_be_bytes([st0, st1]);
    let record = parse_body(t, st, body)?;
    let timestamp = u32::from_be_bytes([s0, s1, s2, s3]);
    Ok((RecordView { timestamp, record }, 12 + len))
}

/// Decode one record from the front of `buf`; returns it and the bytes
/// consumed.
pub fn decode_record(buf: &[u8]) -> Result<(TimestampedRecord, usize), Mrt2Error> {
    parse_record(buf).map(|(rec, used)| (rec.to_record(), used))
}

/// The strict cursor over a whole file: each record in order, ending
/// after the first structural error.
pub fn records(mut buf: &[u8]) -> impl Iterator<Item = Result<RecordView<'_>, Mrt2Error>> {
    std::iter::from_fn(move || {
        if buf.is_empty() {
            return None;
        }
        let next = parse_record(buf);
        buf = match &next {
            Ok((_, used)) => buf.get(*used..).unwrap_or_default(),
            Err(_) => &[],
        };
        Some(next.map(|(rec, _)| rec))
    })
}

/// Decode a whole file into records. Fails on the first structural
/// error; use [`decode_file_lossy`] for damaged archives.
pub fn decode_file(buf: &[u8]) -> Result<Vec<TimestampedRecord>, Mrt2Error> {
    records(buf).map(|r| r.map(RecordView::to_record)).collect()
}

/// Accounting from a lossy scan: how many records decoded, how many
/// were skipped and why, and whether the scan had to abandon the tail
/// of the file. `bytes_scanned + bytes_unscanned` always equals the
/// input length, so no byte goes unaccounted for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LossyStats {
    /// Records that decoded successfully.
    pub decoded: usize,
    /// Skipped: body shorter than its internal structure claims (the
    /// record boundary itself was still trustworthy).
    pub skipped_truncated: usize,
    /// Skipped: structurally malformed body.
    pub skipped_malformed: usize,
    /// Skipped: the embedded BGP message failed to decode.
    pub skipped_bgp: usize,
    /// True when a corrupt length field (or a file cut mid-record)
    /// made every later offset meaningless and the scan stopped.
    pub aborted: bool,
    /// Bytes the scan examined, including skipped records.
    pub bytes_scanned: usize,
    /// Bytes abandoned unexamined after an abort (0 on a full scan).
    pub bytes_unscanned: usize,
}

impl LossyStats {
    /// Total skipped records across all reasons (the abandoned tail is
    /// bytes, not records, and is reported via `bytes_unscanned`).
    pub fn skipped(&self) -> usize {
        self.skipped_truncated + self.skipped_malformed + self.skipped_bgp
    }

    /// True when every byte decoded cleanly.
    pub fn is_clean(&self) -> bool {
        self.skipped() == 0 && !self.aborted
    }

    /// Fold another scan's accounting into this one (multi-file scans).
    pub fn merge(&mut self, other: &LossyStats) {
        self.decoded += other.decoded;
        self.skipped_truncated += other.skipped_truncated;
        self.skipped_malformed += other.skipped_malformed;
        self.skipped_bgp += other.skipped_bgp;
        self.aborted |= other.aborted;
        self.bytes_scanned += other.bytes_scanned;
        self.bytes_unscanned += other.bytes_unscanned;
    }

    fn count_skip(&mut self, e: &Mrt2Error) {
        match e {
            Mrt2Error::Truncated => self.skipped_truncated += 1,
            Mrt2Error::Bgp(_) => self.skipped_bgp += 1,
            Mrt2Error::Malformed(_) | Mrt2Error::TooLong { .. } | Mrt2Error::UntiledChunk(_) => {
                self.skipped_malformed += 1
            }
        }
    }

    /// Emit the warn events and counters for a finished scan. Distinct
    /// signals: `mrt_records_skipped` for per-record damage,
    /// `mrt_scan_aborted` for an abandoned tail.
    pub fn emit(&self) {
        let skipped = self.skipped();
        if skipped > 0 {
            obs::metrics::counter("mrt_records_skipped_total").add(skipped as u64);
            obs::event!(obs::Level::Warn, "mrt_records_skipped", skipped = skipped);
        }
        if self.aborted {
            obs::metrics::counter("mrt_scan_aborted_total").inc();
            obs::event!(
                obs::Level::Warn,
                "mrt_scan_aborted",
                bytes_unscanned = self.bytes_unscanned
            );
        }
    }
}

/// The lossy cursor: yields one checked record view at a time,
/// resynchronizing on the declared record length and accumulating
/// [`LossyStats`] as it goes. When a length field overruns the rest of
/// the buffer (corrupt length, or a file cut mid-record) there is no
/// framing magic to resync on, so the scan aborts and the abandoned
/// tail is accounted in `bytes_unscanned` instead of being silently
/// dropped.
pub struct RecordReader<'a> {
    buf: &'a [u8],
    offset: usize,
    stats: LossyStats,
}

impl<'a> RecordReader<'a> {
    /// A reader over a whole file's bytes.
    pub fn new(buf: &'a [u8]) -> RecordReader<'a> {
        RecordReader {
            buf,
            offset: 0,
            stats: LossyStats::default(),
        }
    }

    /// Accounting so far; complete once `next()` has returned `None`.
    pub fn stats(&self) -> LossyStats {
        self.stats
    }

    fn abort(&mut self) {
        self.stats.aborted = true;
        self.stats.bytes_unscanned = self.buf.len() - self.offset;
        self.offset = self.buf.len();
    }
}

impl<'a> Iterator for RecordReader<'a> {
    type Item = RecordView<'a>;

    fn next(&mut self) -> Option<RecordView<'a>> {
        let buf = self.buf;
        loop {
            let rest = buf.get(self.offset..).unwrap_or_default();
            if rest.is_empty() {
                return None;
            }
            // A fragment too short to be a header means the file was
            // cut mid-header; a length past the end means a corrupt
            // length or a file cut mid-record. Either way nothing
            // further can be framed.
            let declared = rest
                .get(8..12)
                .and_then(|l| l.try_into().ok())
                .map(u32::from_be_bytes)
                .and_then(|l| usize::try_from(l).ok());
            let Some(record) = declared.and_then(|l| rest.get(..12usize.saturating_add(l)))
            else {
                self.abort();
                return None;
            };
            self.offset += record.len();
            self.stats.bytes_scanned += record.len();
            match parse_record(record) {
                Ok((rec, _)) => {
                    self.stats.decoded += 1;
                    return Some(rec);
                }
                Err(e) => self.stats.count_skip(&e),
            }
        }
    }
}

/// Decode a file, skipping undecodable records by scanning to the next
/// header boundary via the declared length. Records with corrupted
/// *bodies* are skipped and counted per reason; a corrupted *length*
/// aborts the scan with the abandoned tail accounted in
/// [`LossyStats::bytes_unscanned`] (and a distinct `mrt_scan_aborted`
/// warn event/counter) instead of being silently dropped.
pub fn decode_file_lossy(buf: &[u8]) -> (Vec<TimestampedRecord>, LossyStats) {
    let mut reader = RecordReader::new(buf);
    let out: Vec<TimestampedRecord> = reader.by_ref().map(RecordView::to_record).collect();
    let stats = reader.stats();
    stats.emit();
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::UpdateMessage;
    use nettypes::prefix::pfx;
    use proptest::prelude::*;

    fn sample_records() -> Vec<TimestampedRecord> {
        vec![
            TimestampedRecord {
                timestamp: 1_577_836_800,
                record: MrtRecord::PeerIndexTable(PeerIndexTable {
                    collector_bgp_id: 0xC0A80001,
                    view_name: "sim-view".into(),
                    peers: vec![
                        PeerEntry {
                            bgp_id: 1,
                            ip: 0x0A000001,
                            asn: Asn(64500),
                        },
                        PeerEntry {
                            bgp_id: 2,
                            ip: 0x0A000002,
                            asn: Asn(3333),
                        },
                    ],
                }),
            },
            TimestampedRecord {
                timestamp: 1_577_836_800,
                record: MrtRecord::RibIpv4Unicast(RibIpv4Unicast {
                    sequence: 0,
                    prefix: pfx("193.0.0.0/21"),
                    entries: vec![RibEntry {
                        peer_index: 1,
                        originated_time: 1_577_000_000,
                        attributes: Bytes::from_static(&[0x40, 0x01, 0x01, 0x00]),
                    }],
                }),
            },
            TimestampedRecord {
                timestamp: 1_577_840_400,
                record: MrtRecord::Bgp4mpMessage(Bgp4mpMessage {
                    peer_as: Asn(64500),
                    local_as: Asn(12654),
                    interface: 0,
                    peer_ip: 0x0A000001,
                    local_ip: 0x0A0000FE,
                    message: BgpMessage::Update(UpdateMessage::announce(
                        vec![pfx("193.0.0.0/21")],
                        vec![Asn(64500), Asn(3333)],
                        0x0A000001,
                    )),
                }),
            },
        ]
    }

    #[test]
    fn file_roundtrip() {
        let records = sample_records();
        let bytes = encode_file(&records).expect("encodes");
        let decoded = decode_file(&bytes).unwrap();
        assert_eq!(decoded, records);
    }

    #[test]
    fn single_record_roundtrip_reports_length() {
        let records = sample_records();
        for r in &records {
            let bytes = encode_record(r.timestamp, &r.record).expect("encodes");
            let (decoded, used) = decode_record(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(&decoded, r);
        }
    }

    #[test]
    fn unknown_records_roundtrip_raw() {
        let r = TimestampedRecord {
            timestamp: 42,
            record: MrtRecord::Unknown {
                mrt_type: 48,
                mrt_subtype: 7,
                body: Bytes::from_static(b"opaque-bytes"),
            },
        };
        let bytes = encode_record(r.timestamp, &r.record).expect("encodes");
        let (decoded, _) = decode_record(&bytes).unwrap();
        assert_eq!(decoded, r);
    }

    #[test]
    fn views_borrow_the_file_and_convert_to_the_owned_records() {
        let sample = sample_records();
        let bytes = encode_file(&sample).expect("encodes");
        let views: Vec<RecordView<'_>> = records(&bytes).collect::<Result<_, _>>().expect("parses");
        let owned: Vec<TimestampedRecord> = views.iter().map(|v| v.to_record()).collect();
        assert_eq!(owned, sample);
        let MrtRecordView::RibIpv4Unicast(rib) = views[1].record else {
            panic!("record 1 is a RIB record");
        };
        let entry = rib.entries().next().expect("one entry");
        // The entry's attributes are a slice of the file, not a copy.
        let file = bytes.as_ptr_range();
        assert!(file.contains(&entry.attributes.as_ptr()));
        // The lossy cursor yields the same views.
        let lossy: Vec<RecordView<'_>> = RecordReader::new(&bytes).collect();
        assert_eq!(lossy, views);
    }

    #[test]
    fn rejects_ipv6_peers_and_bad_afi() {
        // Flip the peer-type byte of the PEER_INDEX_TABLE to IPv6.
        let records = sample_records();
        let mut bytes = encode_record(records[0].timestamp, &records[0].record).expect("encodes").to_vec();
        // header 12 + bgp_id 4 + name_len 2 + "sim-view" 8 + count 2 = offset 28.
        bytes[28] |= 0x01;
        assert!(matches!(
            decode_record(&bytes),
            Err(Mrt2Error::Malformed("IPv6 peers unsupported"))
        ));
    }

    #[test]
    fn truncation_never_panics() {
        let bytes = encode_file(&sample_records()).expect("encodes");
        for cut in 0..bytes.len() {
            let _ = decode_file(&bytes[..cut]);
            let _ = decode_file_lossy(&bytes[..cut]);
        }
    }

    #[test]
    fn lossy_decoding_skips_damaged_record() {
        let records = sample_records();
        let mut bytes = encode_file(&records).expect("encodes").to_vec();
        // Damage the middle record's body (the RIB prefix length).
        let first_len = {
            let l = u32::from_be_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
            12 + l
        };
        bytes[first_len + 12 + 4] = 77; // prefix length byte of record 2
        let (decoded, stats) = decode_file_lossy(&bytes);
        assert_eq!(stats.skipped(), 1);
        assert_eq!(stats.skipped_malformed, 1);
        assert!(!stats.aborted);
        assert_eq!(stats.bytes_unscanned, 0);
        assert_eq!(stats.bytes_scanned, bytes.len());
        assert_eq!(decoded.len(), 2);
        assert_eq!(stats.decoded, 2);
        assert!(matches!(decoded[0].record, MrtRecord::PeerIndexTable(_)));
        assert!(matches!(decoded[1].record, MrtRecord::Bgp4mpMessage(_)));
        // Strict decoding fails outright.
        assert!(decode_file(&bytes).is_err());
    }

    #[test]
    fn corrupt_length_field_aborts_with_tail_accounted() {
        let bytes = encode_file(&sample_records()).expect("encodes").to_vec();
        let mut damaged = bytes.clone();
        // Blow up the first record's length field: the scan cannot
        // resync, but the tail must be accounted, not silently lost.
        damaged[8] = 0xFF;
        let (decoded, stats) = decode_file_lossy(&damaged);
        assert!(decoded.is_empty());
        assert!(stats.aborted, "corrupt length must abort the scan");
        assert_eq!(stats.bytes_scanned, 0);
        assert_eq!(stats.bytes_unscanned, damaged.len());
        assert_eq!(stats.skipped(), 0);

        // A file cut mid-record aborts the same way, with everything
        // before the cut scanned and the fragment accounted.
        let cut = bytes.len() - 5;
        let (decoded, stats) = decode_file_lossy(&bytes[..cut]);
        assert_eq!(decoded.len(), 2);
        assert!(stats.aborted);
        assert_eq!(stats.bytes_scanned + stats.bytes_unscanned, cut);
        assert!(stats.bytes_unscanned > 0);
    }

    #[test]
    fn two_byte_as_peers_decode() {
        // Hand-encode a peer entry without the AS4 bit.
        let mut b = BytesMut::new();
        b.put_u32(1); // collector id
        b.put_u16(0); // empty view name
        b.put_u16(1); // one peer
        b.put_u8(0x00); // IPv4, 2-byte AS
        b.put_u32(9); // bgp id
        b.put_u32(0x7F000001); // ip
        b.put_u16(65000); // asn16
        let mut rec = BytesMut::new();
        rec.put_u32(0);
        rec.put_u16(TYPE_TABLE_DUMP_V2);
        rec.put_u16(SUBTYPE_PEER_INDEX_TABLE);
        rec.put_u32(b.len() as u32);
        rec.put_slice(&b);
        let (decoded, _) = decode_record(&rec).unwrap();
        match decoded.record {
            MrtRecord::PeerIndexTable(t) => {
                assert_eq!(t.peers[0].asn, Asn(65000));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    proptest! {
        #[test]
        fn prop_rib_roundtrip(
            seq in any::<u32>(),
            net in any::<u32>(),
            len in 0u8..=32,
            entries in proptest::collection::vec(
                (any::<u16>(), any::<u32>(), proptest::collection::vec(any::<u8>(), 0..40)),
                0..6
            ),
        ) {
            let rec = TimestampedRecord {
                timestamp: 7,
                record: MrtRecord::RibIpv4Unicast(RibIpv4Unicast {
                    sequence: seq,
                    prefix: Prefix::new_unchecked_masked(net, len),
                    entries: entries
                        .into_iter()
                        .map(|(pi, ot, attrs)| RibEntry {
                            peer_index: pi,
                            originated_time: ot,
                            attributes: Bytes::from(attrs),
                        })
                        .collect(),
                }),
            };
            let bytes = encode_record(rec.timestamp, &rec.record).expect("encodes");
            let (decoded, used) = decode_record(&bytes).unwrap();
            prop_assert_eq!(used, bytes.len());
            prop_assert_eq!(decoded, rec);
        }

        #[test]
        fn prop_corruption_never_panics(flip in 0usize..400, xor in 1u8..=255) {
            let mut bytes = encode_file(&sample_records()).expect("encodes").to_vec();
            if flip < bytes.len() {
                bytes[flip] ^= xor;
            }
            let _ = decode_file(&bytes);
            let (decoded, stats) = decode_file_lossy(&bytes);
            // Lossy accounting must balance no matter what was hit:
            // every byte is either scanned or reported unscanned, every
            // record either decoded or counted under one skip reason.
            prop_assert_eq!(stats.bytes_scanned + stats.bytes_unscanned, bytes.len());
            prop_assert_eq!(stats.decoded, decoded.len());
            prop_assert_eq!(
                stats.skipped(),
                stats.skipped_truncated + stats.skipped_malformed + stats.skipped_bgp
            );
            prop_assert!(stats.aborted || stats.bytes_unscanned == 0);
        }
    }
}
