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
//! Unknown record types are surfaced as [`MrtRecordView::Unknown`] and
//! skipped gracefully — archives in the wild interleave many record
//! kinds.
//!
//! Writing has one encoder, [`MrtWriter`]: one buffer per file, one
//! method per record kind the simulation emits, every length field
//! checked. Reading has one parser. [`parse_record`] checks a record's
//! whole structure (header, peer entries, every RIB entry's framing,
//! the embedded BGP message — see [`crate::bgp::parse_message`]) and
//! returns a [`RecordView`] that borrows the file bytes: RIB entries
//! and UPDATE withdrawn/attribute/NLRI sections stay slices. Two
//! cursors walk a file with it: [`records`] (strict, ends at the first
//! error) and [`RecordReader`] (lossy, with [`LossyStats`]). Library
//! readers (the query engine, the collector replay) use the views
//! directly and copy nothing.

use crate::bgp;
use bytes::{BufMut, Bytes};
use nettypes::asn::Asn;
use nettypes::date::Date;
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
    /// Encode-side: a record of this day would be stamped past the
    /// last second a 32-bit MRT timestamp holds (2106-02-07 06:28:15
    /// UTC). Refused rather than saturated or wrapped to 1970.
    TimestampOverflow(Date),
    /// Encode-side: the archive span reaches this day, which lies
    /// outside the world's span, so the world has no routes to render
    /// for it.
    DayOutsideWorld(Date),
}

impl std::fmt::Display for Mrt2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mrt2Error::Truncated => write!(f, "truncated MRT record"),
            Mrt2Error::Malformed(w) => write!(f, "malformed MRT record: {w}"),
            Mrt2Error::Bgp(e) => write!(f, "embedded BGP message: {e}"),
            Mrt2Error::TooLong { field, len } => {
                write!(f, "{field} of length {len} overflows its wire length field")
            }
            Mrt2Error::UntiledChunk(r) => {
                write!(f, "day range {r:?} breaks the tiling of the archive span")
            }
            Mrt2Error::TimestampOverflow(d) => {
                write!(f, "a record of {d} overflows the 32-bit MRT timestamp")
            }
            Mrt2Error::DayOutsideWorld(d) => {
                write!(f, "archive day {d} lies outside the world's span")
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

// --- encoding (one writer: `MrtWriter`; see the module docs) ---------

/// A value destined for a u16 wire length field, or [`Mrt2Error::TooLong`].
fn wire_u16(field: &'static str, len: usize) -> Result<u16, Mrt2Error> {
    u16::try_from(len).map_err(|_| Mrt2Error::TooLong { field, len })
}

/// Overwrite the field reserved at `at` in `buf`.
fn patch(buf: &mut [u8], at: usize, bytes: &[u8]) {
    buf[at..at + bytes.len()].copy_from_slice(bytes);
}

/// The BGP session a `BGP4MP_MESSAGE_AS4` record was received on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Bgp4mpSession {
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
}

/// The one RFC 6396 encoder: writes a file's records, in call order,
/// into one buffer, with one method per record kind.
///
/// Each method reserves the record's 12-byte header, writes the body
/// behind it and back-patches the length. A length that overflows its
/// wire field — view name, peer table, RIB entry list, attribute
/// bytes, withdrawn routes, a BGP message over 4096 bytes, the record
/// body — is refused with [`Mrt2Error::TooLong`], and the buffer is
/// left as it was before the call.
#[derive(Debug, Default)]
pub struct MrtWriter {
    buf: Vec<u8>,
}

impl MrtWriter {
    /// An empty file.
    pub fn new() -> MrtWriter {
        MrtWriter::default()
    }

    /// The file written so far.
    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// A `PEER_INDEX_TABLE` of IPv4 peers with 4-octet ASNs.
    pub fn peer_table(
        &mut self,
        timestamp: u32,
        collector_bgp_id: u32,
        view_name: &str,
        peers: &[PeerEntry],
    ) -> Result<(), Mrt2Error> {
        self.record(
            timestamp,
            TYPE_TABLE_DUMP_V2,
            SUBTYPE_PEER_INDEX_TABLE,
            |b| {
                b.put_u32(collector_bgp_id);
                b.put_u16(wire_u16("view name", view_name.len())?);
                b.put_slice(view_name.as_bytes());
                b.put_u16(wire_u16("peer table", peers.len())?);
                for p in peers {
                    // peer type: bit 0 = IPv6 (0 here), bit 1 = AS4 (set).
                    b.put_u8(0x02);
                    b.put_u32(p.bgp_id);
                    b.put_u32(p.ip);
                    b.put_u32(p.asn.0);
                }
                Ok(())
            },
        )
    }

    /// A `RIB_IPV4_UNICAST` record with `entries` in order.
    pub fn rib<'a>(
        &mut self,
        timestamp: u32,
        sequence: u32,
        prefix: Prefix,
        entries: impl IntoIterator<Item = RibEntryView<'a>>,
    ) -> Result<(), Mrt2Error> {
        self.record(
            timestamp,
            TYPE_TABLE_DUMP_V2,
            SUBTYPE_RIB_IPV4_UNICAST,
            |b| {
                b.put_u32(sequence);
                bgp::put_wire_prefix(b, prefix);
                let count_at = b.len();
                b.put_u16(0);
                let mut count = 0;
                for e in entries {
                    b.put_u16(e.peer_index);
                    b.put_u32(e.originated_time);
                    b.put_u16(wire_u16("attribute bytes", e.attributes.len())?);
                    b.put_slice(e.attributes);
                    count += 1;
                }
                patch(
                    b,
                    count_at,
                    &wire_u16("RIB entry list", count)?.to_be_bytes(),
                );
                Ok(())
            },
        )
    }

    /// A `BGP4MP_MESSAGE_AS4` record wrapping one BGP UPDATE: the
    /// `withdrawn` prefixes, the path-attribute blob `attributes` (see
    /// [`bgp::encode_path_attributes`]) and the announced `nlri`.
    pub fn update(
        &mut self,
        timestamp: u32,
        session: &Bgp4mpSession,
        withdrawn: &[Prefix],
        attributes: &[u8],
        nlri: &[Prefix],
    ) -> Result<(), Mrt2Error> {
        self.record(timestamp, TYPE_BGP4MP, SUBTYPE_BGP4MP_MESSAGE_AS4, |b| {
            b.put_u32(session.peer_as.0);
            b.put_u32(session.local_as.0);
            b.put_u16(session.interface);
            b.put_u16(1); // AFI IPv4
            b.put_u32(session.peer_ip);
            b.put_u32(session.local_ip);
            let message = b.len();
            b.put_slice(&[0xFF; 16]);
            b.put_u16(0); // the message length, patched below
            b.put_u8(bgp::TYPE_UPDATE);
            let withdrawn_at = b.len();
            b.put_u16(0);
            for &p in withdrawn {
                bgp::put_wire_prefix(b, p);
            }
            let withdrawn_len = b.len() - withdrawn_at - 2;
            patch(
                b,
                withdrawn_at,
                &wire_u16("withdrawn routes", withdrawn_len)?.to_be_bytes(),
            );
            b.put_u16(wire_u16("path attributes", attributes.len())?);
            b.put_slice(attributes);
            for &p in nlri {
                bgp::put_wire_prefix(b, p);
            }
            let len = b.len() - message;
            if len > bgp::MAX_MESSAGE {
                return Err(Mrt2Error::TooLong {
                    field: "BGP message",
                    len,
                });
            }
            patch(
                b,
                message + 16,
                &wire_u16("BGP message", len)?.to_be_bytes(),
            );
            Ok(())
        })
    }

    /// Write one record: the header, the body `write` appends, then the
    /// body length; on error, drop whatever the call wrote.
    fn record(
        &mut self,
        timestamp: u32,
        mrt_type: u16,
        mrt_subtype: u16,
        write: impl FnOnce(&mut Vec<u8>) -> Result<(), Mrt2Error>,
    ) -> Result<(), Mrt2Error> {
        let start = self.buf.len();
        self.buf.put_u32(timestamp);
        self.buf.put_u16(mrt_type);
        self.buf.put_u16(mrt_subtype);
        self.buf.put_u32(0); // the body length, patched below
        let written = write(&mut self.buf).and_then(|()| {
            let len = self.buf.len() - start - 12;
            let len = u32::try_from(len).map_err(|_| Mrt2Error::TooLong {
                field: "record body",
                len,
            })?;
            patch(&mut self.buf, start + 8, &len.to_be_bytes());
            Ok(())
        });
        if written.is_err() {
            self.buf.truncate(start);
        }
        written
    }
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

/// A record body, borrowed.
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

fn parse_body(t: u16, st: u16, mut body: &[u8]) -> Result<MrtRecordView<'_>, Mrt2Error> {
    let b = &mut body;
    match (t, st) {
        (TYPE_TABLE_DUMP_V2, SUBTYPE_PEER_INDEX_TABLE) => {
            let collector_bgp_id = bgp::take_u32(b).ok_or(Mrt2Error::Truncated)?;
            let name_len = bgp::take_u16(b).ok_or(Mrt2Error::Truncated)?;
            let name = bgp::take(b, usize::from(name_len)).ok_or(Mrt2Error::Truncated)?;
            let view_name =
                std::str::from_utf8(name).map_err(|_| Mrt2Error::Malformed("view name utf8"))?;
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
            Mrt2Error::Malformed(_)
            | Mrt2Error::TooLong { .. }
            | Mrt2Error::UntiledChunk(_)
            | Mrt2Error::TimestampOverflow(_)
            | Mrt2Error::DayOutsideWorld(_) => self.skipped_malformed += 1,
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
            let Some(record) = declared.and_then(|l| rest.get(..12usize.saturating_add(l))) else {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::{MessageView, Segment};
    use nettypes::prefix::pfx;
    use proptest::prelude::*;

    const PEERS: [PeerEntry; 2] = [
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
    ];

    const SESSION: Bgp4mpSession = Bgp4mpSession {
        peer_as: Asn(64500),
        local_as: Asn(12654),
        interface: 0,
        peer_ip: 0x0A000001,
        local_ip: 0x0A0000FE,
    };

    const RIB_ATTRIBUTES: [u8; 4] = [0x40, 0x01, 0x01, 0x00];

    /// A peer table, one RIB record and one announcement.
    fn sample_file() -> Bytes {
        let mut w = MrtWriter::new();
        w.peer_table(1_577_836_800, 0xC0A80001, "sim-view", &PEERS)
            .expect("fits");
        let entry = RibEntryView {
            peer_index: 1,
            originated_time: 1_577_000_000,
            attributes: &RIB_ATTRIBUTES,
        };
        w.rib(1_577_836_800, 0, pfx("193.0.0.0/21"), [entry])
            .expect("fits");
        let attrs =
            bgp::encode_path_attributes(&[Segment::Sequence(&[Asn(64500), Asn(3333)])], 0x0A000001)
                .expect("fits");
        w.update(1_577_840_400, &SESSION, &[], &attrs, &[pfx("193.0.0.0/21")])
            .expect("fits");
        w.finish()
    }

    /// Check that `views` are the three records of [`sample_file`].
    fn check_sample(views: &[RecordView<'_>]) {
        assert_eq!(views.len(), 3);
        let MrtRecordView::PeerIndexTable(t) = views[0].record else {
            panic!("record 0 is a peer table");
        };
        assert_eq!(views[0].timestamp, 1_577_836_800);
        assert_eq!((t.collector_bgp_id, t.view_name), (0xC0A80001, "sim-view"));
        assert!(t.peers().eq(PEERS));
        let MrtRecordView::RibIpv4Unicast(r) = views[1].record else {
            panic!("record 1 is a RIB record");
        };
        assert_eq!((r.sequence, r.prefix), (0, pfx("193.0.0.0/21")));
        let entries: Vec<_> = r.entries().collect();
        assert_eq!(entries.len(), 1);
        assert_eq!(
            (
                entries[0].peer_index,
                entries[0].originated_time,
                entries[0].attributes
            ),
            (1, 1_577_000_000, &RIB_ATTRIBUTES[..])
        );
        let MrtRecordView::Bgp4mpMessage(m) = views[2].record else {
            panic!("record 2 is a BGP4MP record");
        };
        assert_eq!(views[2].timestamp, 1_577_840_400);
        let session = Bgp4mpSession {
            peer_as: m.peer_as,
            local_as: m.local_as,
            interface: m.interface,
            peer_ip: m.peer_ip,
            local_ip: m.local_ip,
        };
        assert_eq!(session, SESSION);
        let MessageView::Update(u) = m.message else {
            panic!("the message is an UPDATE");
        };
        assert!(u.nlri().eq([pfx("193.0.0.0/21")]));
        assert!(u.as_path().asns().eq([Asn(64500), Asn(3333)]));
    }

    /// The byte offset of each record in `bytes`.
    fn record_starts(bytes: &[u8]) -> Vec<usize> {
        let mut starts = vec![0];
        while let Ok((_, used)) = parse_record(&bytes[*starts.last().unwrap()..]) {
            starts.push(starts.last().unwrap() + used);
        }
        starts.pop();
        starts
    }

    #[test]
    fn file_roundtrip() {
        let bytes = sample_file();
        let views: Vec<RecordView<'_>> = records(&bytes).collect::<Result<_, _>>().expect("parses");
        check_sample(&views);
    }

    #[test]
    fn single_record_roundtrip_reports_length() {
        let bytes = sample_file();
        let starts = record_starts(&bytes);
        assert_eq!(starts.len(), 3);
        let mut views = Vec::new();
        for (i, &at) in starts.iter().enumerate() {
            let end = starts.get(i + 1).copied().unwrap_or(bytes.len());
            let (view, used) = parse_record(&bytes[at..end]).unwrap();
            assert_eq!(used, end - at);
            views.push(view);
        }
        check_sample(&views);
    }

    #[test]
    fn unknown_records_roundtrip_raw() {
        // An unknown record built from raw header bytes: timestamp 42,
        // type 48, subtype 7, a 12-byte body.
        let mut bytes = vec![0, 0, 0, 42, 0, 48, 0, 7, 0, 0, 0, 12];
        bytes.extend_from_slice(b"opaque-bytes");
        let (view, used) = parse_record(&bytes).unwrap();
        assert_eq!(used, 24);
        assert_eq!(view.timestamp, 42);
        assert_eq!(
            view.record,
            MrtRecordView::Unknown {
                mrt_type: 48,
                mrt_subtype: 7,
                body: b"opaque-bytes",
            }
        );
        // Both cursors step over it to the records behind.
        let file = [&bytes[..], &sample_file()].concat();
        let strict: Vec<RecordView<'_>> = records(&file).collect::<Result<_, _>>().expect("parses");
        assert_eq!(strict[0], view);
        check_sample(&strict[1..]);
        let lossy: Vec<RecordView<'_>> = RecordReader::new(&file).collect();
        assert_eq!(lossy, strict);
    }

    #[test]
    fn views_borrow_the_file() {
        let bytes = sample_file();
        let views: Vec<RecordView<'_>> = records(&bytes).collect::<Result<_, _>>().expect("parses");
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
    fn update_of_4096_bytes_is_written_and_4097_refused() {
        // 19 header + 2 + 2 length bytes + the attributes: one unknown
        // attribute with a 4-byte extended header.
        let blob = |value_len: usize| {
            let mut a = vec![0xD0, 99];
            a.extend_from_slice(&u16::try_from(value_len).unwrap().to_be_bytes());
            a.resize(4 + value_len, 7);
            a
        };
        let mut w = MrtWriter::new();
        w.update(5, &SESSION, &[], &blob(4069), &[])
            .expect("4096 bytes fit");
        let bytes = w.finish();
        let (view, used) = parse_record(&bytes).expect("parses");
        assert_eq!(used, bytes.len());
        assert_eq!(bytes.len(), 12 + 20 + 4096);
        let MrtRecordView::Bgp4mpMessage(m) = view.record else {
            panic!("a BGP4MP record");
        };
        assert!(matches!(m.message, MessageView::Update(_)));

        // One byte more is refused, and the file keeps what it had.
        let mut w = MrtWriter::new();
        w.peer_table(1, 2, "", &PEERS).expect("fits");
        let before = w.buf.clone();
        assert_eq!(
            w.update(5, &SESSION, &[], &blob(4070), &[]),
            Err(Mrt2Error::TooLong {
                field: "BGP message",
                len: 4097
            })
        );
        assert_eq!(w.finish()[..], before[..]);
    }

    #[test]
    fn oversized_fields_are_refused() {
        let mut w = MrtWriter::new();
        let name = "x".repeat(65_536);
        assert_eq!(
            w.peer_table(1, 2, &name, &[]),
            Err(Mrt2Error::TooLong {
                field: "view name",
                len: 65_536
            })
        );
        let attributes = vec![0; 65_536];
        let entry = RibEntryView {
            peer_index: 0,
            originated_time: 0,
            attributes: &attributes,
        };
        assert_eq!(
            w.rib(1, 0, Prefix::DEFAULT, [entry]),
            Err(Mrt2Error::TooLong {
                field: "attribute bytes",
                len: 65_536
            })
        );
        assert!(w.finish().is_empty());
    }

    #[test]
    fn rejects_ipv6_peers_and_bad_afi() {
        // Flip the peer-type byte of the PEER_INDEX_TABLE to IPv6.
        let mut bytes = sample_file().to_vec();
        // header 12 + bgp_id 4 + name_len 2 + "sim-view" 8 + count 2 = offset 28.
        bytes[28] |= 0x01;
        assert!(matches!(
            parse_record(&bytes),
            Err(Mrt2Error::Malformed("IPv6 peers unsupported"))
        ));
        // Any AFI but IPv4 (1) in a BGP4MP record is refused.
        let bytes = sample_file();
        let at = record_starts(&bytes)[2];
        let mut update = bytes[at..].to_vec();
        update[12 + 11] = 2;
        assert_eq!(
            parse_record(&update).map(|_| ()),
            Err(Mrt2Error::Malformed("non-IPv4 AFI"))
        );
    }

    /// Every view of a lossy scan, and the scan's accounting.
    fn scan_lossy(bytes: &[u8]) -> (Vec<RecordView<'_>>, LossyStats) {
        let mut reader = RecordReader::new(bytes);
        let views: Vec<RecordView<'_>> = reader.by_ref().collect();
        (views, reader.stats())
    }

    #[test]
    fn truncation_never_panics() {
        let bytes = sample_file();
        for cut in 0..bytes.len() {
            let _ = records(&bytes[..cut]).count();
            let _ = scan_lossy(&bytes[..cut]);
        }
    }

    #[test]
    fn lossy_decoding_skips_damaged_record() {
        let mut bytes = sample_file().to_vec();
        // Damage the middle record's body (the RIB prefix length).
        let second = record_starts(&bytes)[1];
        bytes[second + 12 + 4] = 77;
        let (views, stats) = scan_lossy(&bytes);
        assert_eq!(stats.skipped(), 1);
        assert_eq!(stats.skipped_malformed, 1);
        assert!(!stats.aborted);
        assert_eq!(stats.bytes_unscanned, 0);
        assert_eq!(stats.bytes_scanned, bytes.len());
        assert_eq!(views.len(), 2);
        assert_eq!(stats.decoded, 2);
        assert!(matches!(views[0].record, MrtRecordView::PeerIndexTable(_)));
        assert!(matches!(views[1].record, MrtRecordView::Bgp4mpMessage(_)));
        // Strict decoding fails outright.
        assert!(records(&bytes).any(|r| r.is_err()));
    }

    #[test]
    fn corrupt_length_field_aborts_with_tail_accounted() {
        let bytes = sample_file().to_vec();
        let mut damaged = bytes.clone();
        // Blow up the first record's length field: the scan cannot
        // resync, but the tail must be accounted, not silently lost.
        damaged[8] = 0xFF;
        let (views, stats) = scan_lossy(&damaged);
        assert!(views.is_empty());
        assert!(stats.aborted, "corrupt length must abort the scan");
        assert_eq!(stats.bytes_scanned, 0);
        assert_eq!(stats.bytes_unscanned, damaged.len());
        assert_eq!(stats.skipped(), 0);

        // A file cut mid-record aborts the same way, with everything
        // before the cut scanned and the fragment accounted.
        let cut = bytes.len() - 5;
        let (views, stats) = scan_lossy(&bytes[..cut]);
        assert_eq!(views.len(), 2);
        assert!(stats.aborted);
        assert_eq!(stats.bytes_scanned + stats.bytes_unscanned, cut);
        assert!(stats.bytes_unscanned > 0);
    }

    #[test]
    fn two_byte_as_peers_decode() {
        // Hand-encode a peer entry without the AS4 bit.
        let mut b = Vec::new();
        b.put_u32(1); // collector id
        b.put_u16(0); // empty view name
        b.put_u16(1); // one peer
        b.put_u8(0x00); // IPv4, 2-byte AS
        b.put_u32(9); // bgp id
        b.put_u32(0x7F000001); // ip
        b.put_u16(65000); // asn16
        let mut rec = Vec::new();
        rec.put_u32(0);
        rec.put_u16(TYPE_TABLE_DUMP_V2);
        rec.put_u16(SUBTYPE_PEER_INDEX_TABLE);
        rec.put_u32(b.len() as u32);
        rec.put_slice(&b);
        let (view, _) = parse_record(&rec).unwrap();
        match view.record {
            MrtRecordView::PeerIndexTable(t) => {
                assert!(t.peers().map(|p| p.asn).eq([Asn(65000)]));
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
            let prefix = Prefix::new_unchecked_masked(net, len);
            let views = entries.iter().map(|(pi, ot, attrs)| RibEntryView {
                peer_index: *pi,
                originated_time: *ot,
                attributes: attrs,
            });
            let mut w = MrtWriter::new();
            w.rib(7, seq, prefix, views.clone()).expect("fits");
            let bytes = w.finish();
            let (view, used) = parse_record(&bytes).unwrap();
            prop_assert_eq!(used, bytes.len());
            prop_assert_eq!(view.timestamp, 7);
            let MrtRecordView::RibIpv4Unicast(r) = view.record else {
                return Err(TestCaseError::Fail("not a RIB record".into()));
            };
            prop_assert_eq!((r.sequence, r.prefix), (seq, prefix));
            prop_assert!(r.entries().eq(views));
        }

        #[test]
        fn prop_corruption_never_panics(flip in 0usize..400, xor in 1u8..=255) {
            let mut bytes = sample_file().to_vec();
            if flip < bytes.len() {
                bytes[flip] ^= xor;
            }
            let _ = records(&bytes).count();
            let (views, stats) = scan_lossy(&bytes);
            // Lossy accounting must balance no matter what was hit:
            // every byte is either scanned or reported unscanned, every
            // record either decoded or counted under one skip reason.
            prop_assert_eq!(stats.bytes_scanned + stats.bytes_unscanned, bytes.len());
            prop_assert_eq!(stats.decoded, views.len());
            prop_assert_eq!(
                stats.skipped(),
                stats.skipped_truncated + stats.skipped_malformed + stats.skipped_bgp
            );
            prop_assert!(stats.aborted || stats.bytes_unscanned == 0);
        }
    }
}
