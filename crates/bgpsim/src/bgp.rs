//! BGP-4 messages (RFC 4271, with 4-octet AS numbers per RFC 6793).
//!
//! The collector substrate stores update files as MRT `BGP4MP`
//! records, each of which wraps a raw BGP message; this module is the
//! message layer.
//!
//! Reading goes through borrowed views: [`parse_message`] checks a
//! message and returns a [`MessageView`], [`attributes()`] frames an
//! attribute blob without interpreting it, and [`AsPathView`] reads an
//! AS_PATH's ASNs and origin without allocating. [`as_path`] is the one
//! walk of an attribute blob that both archive readers use: it checks
//! the framing, finds the first well-formed AS_PATH and, in the same
//! pass over that path's segments, its origin. Attributes this library
//! does not interpret stay [`RawAttribute`]s.
//!
//! Writing has one attribute encoder, [`encode_path_attributes`]: the
//! ORIGIN, AS_PATH and NEXT_HOP blob every simulated route carries, in
//! RIB entries and UPDATEs alike. The message around an UPDATE is
//! written by [`crate::mrt2::MrtWriter`].

use crate::mrt2::Mrt2Error;
use bytes::BufMut;
use nettypes::asn::{Asn, Origin};
use nettypes::prefix::Prefix;

/// BGP message types (RFC 4271 §4.1).
pub const TYPE_OPEN: u8 = 1;
/// UPDATE message type.
pub const TYPE_UPDATE: u8 = 2;
/// NOTIFICATION message type.
pub const TYPE_NOTIFICATION: u8 = 3;
/// KEEPALIVE message type.
pub const TYPE_KEEPALIVE: u8 = 4;

/// Maximum BGP message size (RFC 4271 §4).
pub const MAX_MESSAGE: usize = 4096;

/// Decode errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BgpError {
    /// Fewer bytes than the fixed header requires.
    Truncated,
    /// The 16-byte marker was not all-ones.
    BadMarker,
    /// Header length field out of `[19, 4096]` or inconsistent with
    /// the buffer.
    BadLength(u16),
    /// Unknown message type.
    BadType(u8),
    /// A prefix field had length > 32 bits.
    BadPrefixLen(u8),
    /// Attribute section inconsistent (lengths overflow the message).
    BadAttributes(&'static str),
}

impl std::fmt::Display for BgpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BgpError::Truncated => write!(f, "truncated BGP message"),
            BgpError::BadMarker => write!(f, "bad BGP marker"),
            BgpError::BadLength(l) => write!(f, "bad BGP length {l}"),
            BgpError::BadType(t) => write!(f, "unknown BGP type {t}"),
            BgpError::BadPrefixLen(l) => write!(f, "bad NLRI prefix length {l}"),
            BgpError::BadAttributes(w) => write!(f, "bad path attributes: {w}"),
        }
    }
}

impl std::error::Error for BgpError {}

// --- encoding (one attribute encoder; see the module docs) -----------

/// Append one wire-format prefix: a length byte, then the fewest
/// network bytes that hold it.
pub(crate) fn put_wire_prefix(buf: &mut Vec<u8>, p: Prefix) {
    buf.put_u8(p.len());
    let nbytes = usize::from(p.len().div_ceil(8));
    buf.put_slice(&p.network().to_be_bytes()[..nbytes]);
}

/// One AS_PATH segment to encode (RFC 4271 §4.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Segment<'a> {
    /// An ordered AS_SEQUENCE (type 2).
    Sequence(&'a [Asn]),
    /// An unordered AS_SET (type 1).
    Set(&'a [Asn]),
}

/// The path-attribute blob of a simulated route: ORIGIN IGP, an
/// AS_PATH of `segments` (4-octet ASNs) and NEXT_HOP `next_hop`, each
/// flagged well-known transitive; a value over 255 bytes gets the
/// extended-length flag. A segment of more than 255 ASNs, or an AS_PATH
/// over 65535 bytes, is refused with [`Mrt2Error::TooLong`].
pub fn encode_path_attributes(
    segments: &[Segment<'_>],
    next_hop: u32,
) -> Result<Vec<u8>, Mrt2Error> {
    let mut path = Vec::new();
    for s in segments {
        let (code, asns) = match *s {
            Segment::Set(asns) => (1, asns),
            Segment::Sequence(asns) => (2, asns),
        };
        let count = u8::try_from(asns.len()).map_err(|_| Mrt2Error::TooLong {
            field: "AS_PATH segment",
            len: asns.len(),
        })?;
        path.put_u8(code);
        path.put_u8(count);
        for a in asns {
            path.put_u32(a.0);
        }
    }
    // ORIGIN 4 bytes, the AS_PATH header at most 4, NEXT_HOP 7.
    let mut out = Vec::with_capacity(path.len() + 15);
    out.put_slice(&[0x40, 1, 1, 0]); // ORIGIN: IGP
    match u8::try_from(path.len()) {
        Ok(len) => out.put_slice(&[0x40, 2, len]),
        Err(_) => {
            let len = u16::try_from(path.len()).map_err(|_| Mrt2Error::TooLong {
                field: "AS_PATH",
                len: path.len(),
            })?;
            out.put_slice(&[0x50, 2]);
            out.put_u16(len);
        }
    }
    out.put_slice(&path);
    out.put_slice(&[0x40, 3, 4]);
    out.put_u32(next_hop);
    Ok(out)
}

// --- decoding (one parser: the views; see the module docs) ------------

/// Split `n` bytes off the front of `buf`; `None` when fewer remain.
pub(crate) fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, rest) = buf.split_at_checked(n)?;
    *buf = rest;
    Some(head)
}

/// Split a fixed-size array off the front of `buf`.
pub(crate) fn take_array<const N: usize>(buf: &mut &[u8]) -> Option<[u8; N]> {
    take(buf, N)?.try_into().ok()
}

pub(crate) fn take_u8(buf: &mut &[u8]) -> Option<u8> {
    take_array::<1>(buf).map(|[b]| b)
}

pub(crate) fn take_u16(buf: &mut &[u8]) -> Option<u16> {
    take_array(buf).map(u16::from_be_bytes)
}

pub(crate) fn take_u32(buf: &mut &[u8]) -> Option<u32> {
    take_array(buf).map(u32::from_be_bytes)
}

/// One wire-format prefix: a length byte, then the fewest network
/// bytes that hold it. Trailing host bits are masked silently (senders
/// may leave them set).
pub(crate) fn get_wire_prefix(buf: &mut &[u8]) -> Result<Prefix, BgpError> {
    let len = take_u8(buf).ok_or(BgpError::Truncated)?;
    if len > 32 {
        return Err(BgpError::BadPrefixLen(len));
    }
    let net = take(buf, usize::from(len.div_ceil(8))).ok_or(BgpError::Truncated)?;
    let mut net_bytes = [0u8; 4];
    for (b, n) in net_bytes.iter_mut().zip(net) {
        *b = *n;
    }
    Ok(Prefix::new_unchecked_masked(
        u32::from_be_bytes(net_bytes),
        len,
    ))
}

/// Check that `buf` is a whole number of wire-format prefixes.
fn check_prefixes(mut buf: &[u8]) -> Result<(), BgpError> {
    while !buf.is_empty() {
        get_wire_prefix(&mut buf)?;
    }
    Ok(())
}

/// The prefixes of a checked withdrawn-routes or NLRI section.
#[derive(Clone, Debug, Default)]
pub struct Prefixes<'a>(&'a [u8]);

impl Iterator for Prefixes<'_> {
    type Item = Prefix;

    fn next(&mut self) -> Option<Prefix> {
        if self.0.is_empty() {
            return None;
        }
        match get_wire_prefix(&mut self.0) {
            Ok(p) => Some(p),
            // A checked section never fails here; a failure ends the walk.
            Err(_) => {
                self.0 = &[];
                None
            }
        }
    }
}

/// A big-endian u32 from four bytes, `None` for any other width.
fn be_u32(value: &[u8]) -> Option<u32> {
    Some(u32::from_be_bytes(value.try_into().ok()?))
}

/// One path attribute, framed but not interpreted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RawAttribute<'a> {
    /// Attribute flags byte, as on the wire.
    pub flags: u8,
    /// Attribute type code.
    pub type_code: u8,
    /// The value bytes.
    pub value: &'a [u8],
}

/// Frame the next attribute off the front of `buf`.
#[inline]
fn next_attribute<'a>(buf: &mut &'a [u8]) -> Result<RawAttribute<'a>, BgpError> {
    let [flags, type_code, l0] = take_array(buf).ok_or(BgpError::Truncated)?;
    let len = if flags & 0x10 != 0 {
        let l1 = take_u8(buf).ok_or(BgpError::Truncated)?;
        u16::from_be_bytes([l0, l1])
    } else {
        u16::from(l0)
    };
    let value = take(buf, usize::from(len)).ok_or(BgpError::Truncated)?;
    Ok(RawAttribute {
        flags,
        type_code,
        value,
    })
}

/// Walk the attributes of a bare path-attribute blob (the wire form in
/// UPDATEs and in `TABLE_DUMP_V2` RIB entries): each attribute in
/// order, framed but not interpreted, or the framing error that ends
/// the walk.
pub fn attributes(
    mut buf: &[u8],
) -> impl Iterator<Item = Result<RawAttribute<'_>, BgpError>> + Clone {
    std::iter::from_fn(move || {
        if buf.is_empty() {
            return None;
        }
        let a = next_attribute(&mut buf);
        if a.is_err() {
            buf = &[];
        }
        Some(a)
    })
}

/// One walk of a path-attribute blob: the framing of every attribute is
/// checked (the first framing error is returned), and the AS_PATH is
/// the first well-formed type-2 attribute (a malformed one is skipped),
/// or the empty path when there is none. The view holds the path's
/// origin, found while its segments were checked.
#[inline]
pub fn as_path(mut buf: &[u8]) -> Result<AsPathView<'_>, BgpError> {
    let mut found = None;
    while !buf.is_empty() {
        let a = next_attribute(&mut buf)?;
        if found.is_none() && a.type_code == 2 {
            found = AsPathView::parse(a.value);
        }
    }
    Ok(found.unwrap_or_default())
}

/// One AS_PATH segment, borrowed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SegmentView<'a> {
    /// An AS_SET (type 1) rather than an AS_SEQUENCE (type 2).
    pub set: bool,
    asns: &'a [u8],
}

impl<'a> SegmentView<'a> {
    /// The segment's ASNs in wire order.
    pub fn asns(self) -> impl Iterator<Item = Asn> + Clone + 'a {
        self.asns.chunks_exact(4).filter_map(be_u32).map(Asn)
    }
}

/// Split the next segment off a non-empty AS_PATH value; `None` when
/// the value is malformed here.
#[inline]
fn split_segment<'a>(v: &mut &'a [u8]) -> Option<SegmentView<'a>> {
    let set = match take_u8(v)? {
        1 => true,
        2 => false,
        _ => return None,
    };
    let count = take_u8(v)?;
    let asns = take(v, 4 * usize::from(count))?;
    Some(SegmentView { set, asns })
}

/// A well-formed AS_PATH value (4-octet ASNs), borrowed. The default is
/// the empty path, which has no origin.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct AsPathView<'a> {
    value: &'a [u8],
    /// The length of the origin's ASNs, a suffix of `value`: the whole
    /// final set, or the last AS of a final sequence (`None` for no
    /// segment or an empty final sequence).
    origin_len: Option<u16>,
    /// Whether the final segment is a set.
    set: bool,
}

impl<'a> AsPathView<'a> {
    /// The view of an AS_PATH value, `None` unless every segment is a
    /// set or sequence whose ASNs fit and no byte is left over. The
    /// walk that checks the segments also keeps the origin.
    #[inline]
    pub fn parse(value: &'a [u8]) -> Option<AsPathView<'a>> {
        let mut v = value;
        let mut last = None;
        while !v.is_empty() {
            last = Some(split_segment(&mut v)?);
        }
        let (origin_len, set) = match last {
            Some(s) if s.set => (u16::try_from(s.asns.len()).ok(), true),
            Some(s) if !s.asns.is_empty() => (Some(4), false),
            _ => (None, false),
        };
        Some(AsPathView {
            value,
            origin_len,
            set,
        })
    }

    /// The origin's ASNs as one segment view.
    fn origin_segment(self) -> Option<SegmentView<'a>> {
        let at = self
            .value
            .len()
            .checked_sub(usize::from(self.origin_len?))?;
        Some(SegmentView {
            set: self.set,
            asns: self.value.get(at..)?,
        })
    }

    /// The segments in order.
    pub fn segments(self) -> impl Iterator<Item = SegmentView<'a>> + Clone {
        let mut v = self.value;
        std::iter::from_fn(move || {
            if v.is_empty() {
                None
            } else {
                split_segment(&mut v)
            }
        })
    }

    /// The flattened path: sequence members in order, set members
    /// appended where their segment sits.
    pub fn asns(self) -> impl Iterator<Item = Asn> + Clone + 'a {
        self.segments().flat_map(SegmentView::asns)
    }

    /// The origin: the last AS of a final sequence, or the whole final
    /// set; `None` for the empty path or an empty final sequence.
    pub fn origin(self) -> Option<Origin> {
        let o = self.origin_segment()?;
        if o.set {
            Some(Origin::Set(o.asns().collect()))
        } else {
            be_u32(o.asns).map(|a| Origin::Single(Asn(a)))
        }
    }

    /// The origin's ASNs without collecting them: every member of a
    /// final set, or the last AS of a final sequence. `None` exactly
    /// when [`AsPathView::origin`] is.
    pub fn origin_asns(self) -> Option<impl Iterator<Item = Asn> + 'a> {
        self.origin_segment().map(SegmentView::asns)
    }
}

/// A BGP UPDATE, borrowed: its three sections, each already checked,
/// and the AS_PATH found while its attributes were checked.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UpdateView<'a> {
    withdrawn: &'a [u8],
    attributes: &'a [u8],
    path: AsPathView<'a>,
    nlri: &'a [u8],
}

impl<'a> UpdateView<'a> {
    /// Check an UPDATE body (after the 19-byte header): the withdrawn
    /// prefixes, the attribute framing (one [`as_path`] walk) and the
    /// NLRI prefixes.
    pub fn parse(mut buf: &'a [u8]) -> Result<UpdateView<'a>, BgpError> {
        let wlen = take_u16(&mut buf).ok_or(BgpError::Truncated)?;
        let withdrawn =
            take(&mut buf, usize::from(wlen)).ok_or(BgpError::BadAttributes("withdrawn length"))?;
        check_prefixes(withdrawn)?;
        let alen = take_u16(&mut buf).ok_or(BgpError::Truncated)?;
        let attrs =
            take(&mut buf, usize::from(alen)).ok_or(BgpError::BadAttributes("attribute length"))?;
        let path = as_path(attrs)?;
        check_prefixes(buf)?;
        Ok(UpdateView {
            withdrawn,
            attributes: attrs,
            path,
            nlri: buf,
        })
    }

    /// Withdrawn prefixes.
    pub fn withdrawn(self) -> Prefixes<'a> {
        Prefixes(self.withdrawn)
    }

    /// Announced prefixes.
    pub fn nlri(self) -> Prefixes<'a> {
        Prefixes(self.nlri)
    }

    /// The path attributes (framing already checked).
    pub fn attributes(self) -> impl Iterator<Item = Result<RawAttribute<'a>, BgpError>> + Clone {
        attributes(self.attributes)
    }

    /// The AS_PATH the NLRI are announced with (see [`as_path`]).
    pub fn as_path(self) -> AsPathView<'a> {
        self.path
    }
}

/// A BGP message, borrowed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MessageView<'a> {
    /// An UPDATE.
    Update(UpdateView<'a>),
    /// A KEEPALIVE (no body).
    Keepalive,
    /// An OPEN or NOTIFICATION, body unparsed.
    Other {
        /// Message type byte.
        msg_type: u8,
        /// Raw body.
        body: &'a [u8],
    },
}

/// Parse one message from the front of `buf`, returning its view and
/// the number of bytes it spans.
pub fn parse_message(buf: &[u8]) -> Result<(MessageView<'_>, usize), BgpError> {
    let header: [u8; 19] = buf
        .get(..19)
        .and_then(|h| h.try_into().ok())
        .ok_or(BgpError::Truncated)?;
    let [marker @ .., l0, l1, msg_type] = header;
    if marker != [0xFF; 16] {
        return Err(BgpError::BadMarker);
    }
    let total_u16 = u16::from_be_bytes([l0, l1]);
    let total = usize::from(total_u16);
    if !(19..=MAX_MESSAGE).contains(&total) {
        return Err(BgpError::BadLength(total_u16));
    }
    let body = buf.get(19..total).ok_or(BgpError::Truncated)?;
    let msg = match msg_type {
        TYPE_UPDATE => MessageView::Update(UpdateView::parse(body)?),
        TYPE_KEEPALIVE => {
            if !body.is_empty() {
                return Err(BgpError::BadLength(total_u16));
            }
            MessageView::Keepalive
        }
        TYPE_OPEN | TYPE_NOTIFICATION => MessageView::Other { msg_type, body },
        other => return Err(BgpError::BadType(other)),
    };
    Ok((msg, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mrt2::{Bgp4mpSession, MrtWriter};
    use nettypes::prefix::pfx;
    use proptest::prelude::*;

    /// The BGP message of one UPDATE written by [`MrtWriter`] (behind
    /// the 12-byte MRT header and the 20-byte BGP4MP header).
    fn update(withdrawn: &[Prefix], attributes: &[u8], nlri: &[Prefix]) -> Vec<u8> {
        let mut w = MrtWriter::new();
        let session = Bgp4mpSession {
            peer_as: Asn(64500),
            local_as: Asn(12654),
            interface: 0,
            peer_ip: 1,
            local_ip: 2,
        };
        w.update(0, &session, withdrawn, attributes, nlri)
            .expect("fits");
        w.finish()[32..].to_vec()
    }

    fn parse_update(bytes: &[u8]) -> UpdateView<'_> {
        let (msg, used) = parse_message(bytes).expect("parses");
        assert_eq!(used, bytes.len());
        match msg {
            MessageView::Update(u) => u,
            other => panic!("not an UPDATE: {other:?}"),
        }
    }

    fn announce(path: &[Asn], next_hop: u32) -> Vec<u8> {
        encode_path_attributes(&[Segment::Sequence(path)], next_hop).expect("fits")
    }

    /// `(flags, type code, value)` of each attribute.
    fn framed(u: UpdateView<'_>) -> Vec<(u8, u8, Vec<u8>)> {
        u.attributes()
            .map(|a| a.expect("framing holds"))
            .map(|a| (a.flags, a.type_code, a.value.to_vec()))
            .collect()
    }

    /// A KEEPALIVE: the marker, length 19 and the type.
    fn keepalive() -> Vec<u8> {
        let mut m = vec![0xFF; 16];
        m.extend_from_slice(&[0, 19, TYPE_KEEPALIVE]);
        m
    }

    #[test]
    fn keepalive_roundtrip() {
        assert_eq!(
            parse_message(&keepalive()),
            Ok((MessageView::Keepalive, 19))
        );
    }

    #[test]
    fn announce_roundtrip() {
        let nlri = [pfx("193.0.0.0/21"), pfx("10.0.0.0/8"), pfx("0.0.0.0/0")];
        let next_hop = nettypes::parse_ipv4("192.0.2.1").unwrap();
        let attrs = announce(&[Asn(64500), Asn(3333)], next_hop);
        let bytes = update(&[], &attrs, &nlri);
        let u = parse_update(&bytes);
        assert_eq!(u.withdrawn().count(), 0);
        assert!(u.nlri().eq(nlri));
        assert!(u.as_path().asns().eq([Asn(64500), Asn(3333)]));
        assert_eq!(
            framed(u),
            [
                (0x40, 1, vec![0]),
                (0x40, 2, vec![2, 2, 0, 0, 0xFB, 0xF4, 0, 0, 0x0D, 0x05]),
                (0x40, 3, next_hop.to_be_bytes().to_vec()),
            ]
        );
    }

    #[test]
    fn withdraw_roundtrip() {
        let withdrawn = [pfx("1.2.3.0/24"), pfx("128.0.0.0/1")];
        let bytes = update(&withdrawn, &[], &[]);
        let u = parse_update(&bytes);
        assert!(u.withdrawn().eq(withdrawn));
        assert_eq!(u.nlri().count(), 0);
        assert_eq!(u.attributes().count(), 0);
    }

    #[test]
    fn prefix_wire_encoding_is_minimal() {
        // A /8 occupies 1 length byte + 1 network byte:
        // header 19 + wlen 2 + (1+1) + attrlen 2 = 25.
        assert_eq!(update(&[pfx("10.0.0.0/8")], &[], &[]).len(), 25);
        // /0 occupies only the length byte.
        assert_eq!(update(&[Prefix::DEFAULT], &[], &[]).len(), 24);
    }

    #[test]
    fn as_path_accessors() {
        let attrs = announce(&[Asn(1), Asn(2), Asn(3)], 0);
        let bytes = update(&[], &attrs, &[pfx("193.0.0.0/21")]);
        let u = parse_update(&bytes);
        assert!(u.as_path().asns().eq([Asn(1), Asn(2), Asn(3)]));
        assert_eq!(u.as_path().origin(), Some(Origin::Single(Asn(3))));
        let bytes = update(&[pfx("1.2.3.0/24")], &[], &[]);
        assert_eq!(parse_update(&bytes).as_path().origin(), None);
    }

    #[test]
    fn unknown_attribute_preserved() {
        // LARGE_COMMUNITY (type 32) is not interpreted; it stays raw.
        let value = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];
        let mut attrs = vec![0xC0, 32, 12];
        attrs.extend_from_slice(&value);
        let bytes = update(&[], &attrs, &[pfx("203.0.112.0/24")]);
        assert_eq!(framed(parse_update(&bytes)), [(0xC0, 32, value.to_vec())]);
    }

    #[test]
    fn communities_and_med() {
        let mut attrs = encode_path_attributes(
            &[
                Segment::Sequence(&[Asn(1), Asn(2)]),
                Segment::Set(&[Asn(7), Asn(8)]),
            ],
            0x0A000001,
        )
        .expect("fits");
        attrs.extend_from_slice(&[0x80, 4, 4, 0, 0, 0, 50]); // MED 50
        attrs.extend_from_slice(&[0x40, 5, 4, 0, 0, 0, 100]); // LOCAL_PREF 100
        attrs.extend_from_slice(&[0xC0, 8, 8, 0, 1, 0, 2, 0xFF, 0xFF, 0xFF, 0x01]);
        let bytes = update(&[], &attrs, &[pfx("198.51.100.0/24")]);
        let u = parse_update(&bytes);
        let codes: Vec<u8> = framed(u).iter().map(|a| a.1).collect();
        assert_eq!(codes, [1, 2, 3, 4, 5, 8]);
        assert!(u.as_path().asns().eq([1, 2, 7, 8].map(Asn)));
        assert_eq!(
            u.as_path().origin(),
            Some(Origin::Set(vec![Asn(7), Asn(8)]))
        );
    }

    #[test]
    fn as_path_view_takes_the_first_well_formed_as_path() {
        // Segment type 3 is malformed; the next AS_PATH is well formed
        // and wins over a third one.
        let mut blob = vec![0x40, 2, 6, 3, 1, 0, 0, 0, 9];
        blob.extend(
            encode_path_attributes(
                &[
                    Segment::Sequence(&[Asn(1), Asn(2)]),
                    Segment::Set(&[Asn(7), Asn(8)]),
                ],
                0,
            )
            .expect("fits"),
        );
        blob.extend_from_slice(&[0x40, 2, 6, 2, 1, 0, 0, 0, 5]);
        let path = as_path(&blob).expect("framing holds");
        assert_eq!(path.asns().collect::<Vec<_>>(), [1, 2, 7, 8].map(Asn));
        assert_eq!(path.origin(), Some(Origin::Set(vec![Asn(7), Asn(8)])));
        assert_eq!(
            path.origin_asns().map(Iterator::collect),
            Some(vec![Asn(7), Asn(8)])
        );
        // A framing error anywhere in the blob fails the walk.
        let mut cut = blob.clone();
        cut.pop();
        assert_eq!(as_path(&cut), Err(BgpError::Truncated));
    }

    #[test]
    fn as_path_view_origins_of_empty_segments() {
        let view = |v: &'static [u8]| AsPathView::parse(v).expect("well-formed");
        // No AS_PATH, no segments, or an empty final sequence: no origin.
        for v in [&[][..], &[2, 0][..], &[2, 1, 0, 0, 0, 9, 2, 0][..]] {
            assert_eq!(view(v).origin(), None, "{v:?}");
            assert!(view(v).origin_asns().is_none(), "{v:?}");
        }
        // An empty final set is an origin with no members.
        assert_eq!(view(&[1, 0]).origin(), Some(Origin::Set(Vec::new())));
        assert_eq!(view(&[1, 0]).origin_asns().map(Iterator::count), Some(0));
        // A leftover byte or a short segment is malformed.
        assert!(AsPathView::parse(&[2, 0, 2]).is_none());
        assert!(AsPathView::parse(&[2, 2, 0, 0, 0, 1]).is_none());
    }

    #[test]
    fn attribute_values_over_255_bytes_use_extended_length() {
        // 63 ASNs: 2 + 252 = 254 value bytes, one length byte.
        let asns: Vec<Asn> = (1..=64).map(Asn).collect();
        let short = announce(&asns[..63], 0);
        assert_eq!(short[4..7], [0x40, 2, 254]);
        // 64 ASNs: 258 value bytes, the extended flag and two bytes.
        let long = announce(&asns, 0);
        assert_eq!(long[4..8], [0x50, 2, 1, 2]);
        assert!(as_path(&long).expect("framing holds").asns().eq(asns));
    }

    #[test]
    fn segments_over_255_asns_are_refused() {
        let asns: Vec<Asn> = (1..=256).map(Asn).collect();
        let full = encode_path_attributes(&[Segment::Set(&asns[..255])], 0).expect("fits");
        let path = as_path(&full).expect("framing holds");
        assert_eq!(path.origin_asns().map(Iterator::count), Some(255));
        assert_eq!(
            encode_path_attributes(&[Segment::Set(&asns)], 0),
            Err(Mrt2Error::TooLong {
                field: "AS_PATH segment",
                len: 256
            })
        );
    }

    #[test]
    fn rejects_bad_marker_and_length() {
        let mut bad = keepalive();
        bad[0] = 0;
        assert_eq!(parse_message(&bad), Err(BgpError::BadMarker));
        let mut short = keepalive();
        short[17] = 18; // length < 19
        assert_eq!(parse_message(&short), Err(BgpError::BadLength(18)));
        assert_eq!(parse_message(&keepalive()[..10]), Err(BgpError::Truncated));
    }

    #[test]
    fn rejects_nonzero_keepalive_body() {
        let mut bytes = keepalive();
        bytes[17] = 20;
        bytes.push(0);
        assert!(matches!(parse_message(&bytes), Err(BgpError::BadLength(_))));
    }

    #[test]
    fn rejects_bad_nlri_prefix_len() {
        // An UPDATE whose NLRI prefix length is 60.
        let mut bytes = update(&[], &[], &[]);
        bytes[17] += 1;
        bytes.push(60);
        assert_eq!(parse_message(&bytes), Err(BgpError::BadPrefixLen(60)));
    }

    #[test]
    fn truncation_never_panics() {
        let attrs = announce(&[Asn(64500), Asn(3333)], 1);
        let bytes = update(&[], &attrs, &[pfx("193.0.0.0/21")]);
        for cut in 0..bytes.len() {
            let _ = parse_message(&bytes[..cut]);
        }
    }

    fn arb_prefix() -> impl Strategy<Value = Prefix> {
        (any::<u32>(), 0u8..=32).prop_map(|(n, l)| Prefix::new_unchecked_masked(n, l))
    }

    proptest! {
        #[test]
        fn prop_update_roundtrip(
            withdrawn in proptest::collection::vec(arb_prefix(), 0..8),
            nlri in proptest::collection::vec(arb_prefix(), 0..8),
            path in proptest::collection::vec(any::<u32>(), 0..6),
            next_hop in any::<u32>(),
            med in proptest::option::of(any::<u32>()),
        ) {
            let path: Vec<Asn> = path.into_iter().map(Asn).collect();
            let mut attrs = announce(&path, next_hop);
            if let Some(m) = med {
                attrs.extend_from_slice(&[0x80, 4, 4]);
                attrs.extend_from_slice(&m.to_be_bytes());
            }
            let bytes = update(&withdrawn, &attrs, &nlri);
            let (msg, used) = parse_message(&bytes).unwrap();
            prop_assert_eq!(used, bytes.len());
            let MessageView::Update(u) = msg else {
                return Err(TestCaseError::Fail("not an UPDATE".into()));
            };
            prop_assert!(u.withdrawn().eq(withdrawn));
            prop_assert!(u.nlri().eq(nlri));
            prop_assert!(u.as_path().asns().eq(path));
            let next = u.attributes().filter_map(Result::ok).find(|a| a.type_code == 3);
            prop_assert_eq!(next.map(|a| a.value), Some(&next_hop.to_be_bytes()[..]));
            let found = u.attributes().filter_map(Result::ok).find(|a| a.type_code == 4);
            prop_assert_eq!(found.map(|a| a.value.to_vec()), med.map(|m| m.to_be_bytes().to_vec()));
        }

        #[test]
        fn prop_bitflips_never_panic(flip in 0usize..100, xor in 1u8..=255) {
            let attrs = announce(&[Asn(64500), Asn(3333)], 7);
            let mut bytes = update(&[], &attrs, &[pfx("193.0.0.0/21"), pfx("10.0.0.0/8")]);
            if flip < bytes.len() {
                bytes[flip] ^= xor;
            }
            let _ = parse_message(&bytes);
        }
    }
}
