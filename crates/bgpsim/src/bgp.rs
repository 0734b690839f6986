//! BGP-4 message encoding and decoding (RFC 4271, with 4-octet AS
//! numbers per RFC 6793).
//!
//! The collector substrate stores update files as MRT `BGP4MP`
//! records, each of which wraps a raw BGP message; this module is the
//! message layer. Only the message types and path attributes the
//! simulation produces are modelled richly — everything else is
//! preserved as [`PathAttribute::Unknown`] so decode→encode is
//! lossless for third-party attributes.
//!
//! Decoding goes through borrowed views: [`parse_message`] checks a
//! message and returns a [`MessageView`], [`attributes()`] frames an
//! attribute blob without interpreting it, and [`AsPathView`] reads an
//! AS_PATH's ASNs and origin without allocating. The owned decoders
//! convert those views.

use bytes::{BufMut, Bytes, BytesMut};
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
#[derive(Debug, Clone, PartialEq, Eq)]
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

// --- encoding ---------------------------------------------------------

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
    let flags = if extended { flags | 0x10 } else { flags & !0x10 };
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
    Ok(Prefix::new_unchecked_masked(u32::from_be_bytes(net_bytes), len))
}

/// Check that `buf` is a whole number of wire-format prefixes.
fn check_prefixes(mut buf: &[u8]) -> Result<(), BgpError> {
    while !buf.is_empty() {
        get_wire_prefix(&mut buf)?;
    }
    Ok(())
}

/// The prefixes of a checked withdrawn-routes or NLRI section.
fn prefixes(mut buf: &[u8]) -> impl Iterator<Item = Prefix> + Clone + '_ {
    std::iter::from_fn(move || {
        if buf.is_empty() {
            return None;
        }
        // A checked section never fails here; a failure ends the walk.
        get_wire_prefix(&mut buf).ok()
    })
}

/// A big-endian u32 from an attribute value, `None` unless it is
/// exactly four bytes (malformed fixed-width attributes fall back to
/// [`PathAttribute::Unknown`] rather than erroring).
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

impl RawAttribute<'_> {
    /// The owned attribute. A value a known type cannot hold (wrong
    /// width, malformed AS_PATH) becomes [`PathAttribute::Unknown`].
    pub fn to_attribute(self) -> PathAttribute {
        let value = self.value;
        let parsed = match self.type_code {
            1 => match value {
                [code] => OriginType::from_code(*code).map(PathAttribute::Origin),
                _ => None,
            },
            2 => AsPathView::parse(value).map(|p| PathAttribute::AsPath(p.to_segments())),
            3 => be_u32(value).map(PathAttribute::NextHop),
            4 => be_u32(value).map(PathAttribute::Med),
            5 => be_u32(value).map(PathAttribute::LocalPref),
            8 if value.len().is_multiple_of(4) => Some(PathAttribute::Communities(
                value.chunks_exact(4).filter_map(be_u32).collect(),
            )),
            _ => None,
        };
        parsed.unwrap_or_else(|| PathAttribute::Unknown {
            flags: self.flags & !0x10,
            type_code: self.type_code,
            value: Bytes::copy_from_slice(value),
        })
    }
}

/// Frame the next attribute off the front of `buf`.
fn next_attribute<'a>(buf: &mut &'a [u8]) -> Result<RawAttribute<'a>, BgpError> {
    let flags = take_u8(buf).ok_or(BgpError::Truncated)?;
    let type_code = take_u8(buf).ok_or(BgpError::Truncated)?;
    let len = if flags & 0x10 != 0 {
        take_u16(buf).map(usize::from)
    } else {
        take_u8(buf).map(usize::from)
    }
    .ok_or(BgpError::Truncated)?;
    let value = take(buf, len).ok_or(BgpError::Truncated)?;
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

/// Decode a bare path-attribute blob.
pub fn decode_attributes(buf: &[u8]) -> Result<Vec<PathAttribute>, BgpError> {
    attributes(buf)
        .map(|a| a.map(RawAttribute::to_attribute))
        .collect()
}

/// Check the framing of a whole path-attribute blob.
pub fn check_attributes(buf: &[u8]) -> Result<(), BgpError> {
    attributes(buf).try_for_each(|a| a.map(drop))
}

/// The AS_PATH of a path-attribute blob after checking the framing of
/// the whole blob: the first well-formed type-2 attribute (a malformed
/// one is skipped, as [`decode_attributes`] turns it into
/// [`PathAttribute::Unknown`]), or the empty path when there is none.
pub fn as_path(buf: &[u8]) -> Result<AsPathView<'_>, BgpError> {
    let mut found = None;
    for a in attributes(buf) {
        let a = a?;
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
}

impl<'a> AsPathView<'a> {
    /// The view of an AS_PATH value, `None` unless every segment is a
    /// set or sequence whose ASNs fit and no byte is left over.
    pub fn parse(value: &'a [u8]) -> Option<AsPathView<'a>> {
        let mut v = value;
        while !v.is_empty() {
            split_segment(&mut v)?;
        }
        Some(AsPathView { value })
    }

    /// The segments in order.
    pub fn segments(self) -> impl Iterator<Item = SegmentView<'a>> + Clone {
        let mut v = self.value;
        std::iter::from_fn(move || if v.is_empty() { None } else { split_segment(&mut v) })
    }

    /// The flattened path: sequence members in order, set members
    /// appended where their segment sits.
    pub fn asns(self) -> impl Iterator<Item = Asn> + Clone + 'a {
        self.segments().flat_map(SegmentView::asns)
    }

    /// The origin: the last AS of a final sequence, or the whole final
    /// set; `None` for the empty path or an empty final sequence.
    pub fn origin(self) -> Option<Origin> {
        let last = self.segments().last()?;
        if last.set {
            Some(Origin::Set(last.asns().collect()))
        } else {
            last.asns().last().map(Origin::Single)
        }
    }

    /// The origin's ASNs without collecting them: every member of a
    /// final set, or the last AS of a final sequence. `None` exactly
    /// when [`AsPathView::origin`] is.
    pub fn origin_asns(self) -> Option<impl Iterator<Item = Asn> + 'a> {
        let last = self.segments().last()?;
        let skip = if last.set {
            0
        } else {
            (last.asns.len() / 4).checked_sub(1)?
        };
        Some(last.asns().skip(skip))
    }

    /// The owned segments.
    pub fn to_segments(self) -> Vec<AsPathSegment> {
        self.segments()
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
}

/// A BGP UPDATE, borrowed: its three sections, each already checked.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UpdateView<'a> {
    withdrawn: &'a [u8],
    attributes: &'a [u8],
    nlri: &'a [u8],
}

impl<'a> UpdateView<'a> {
    /// Check an UPDATE body (after the 19-byte header): the withdrawn
    /// prefixes, the attribute framing and the NLRI prefixes.
    pub fn parse(mut buf: &'a [u8]) -> Result<UpdateView<'a>, BgpError> {
        let wlen = take_u16(&mut buf).ok_or(BgpError::Truncated)?;
        let withdrawn = take(&mut buf, usize::from(wlen))
            .ok_or(BgpError::BadAttributes("withdrawn length"))?;
        check_prefixes(withdrawn)?;
        let alen = take_u16(&mut buf).ok_or(BgpError::Truncated)?;
        let attrs = take(&mut buf, usize::from(alen))
            .ok_or(BgpError::BadAttributes("attribute length"))?;
        check_attributes(attrs)?;
        check_prefixes(buf)?;
        Ok(UpdateView {
            withdrawn,
            attributes: attrs,
            nlri: buf,
        })
    }

    /// Withdrawn prefixes.
    pub fn withdrawn(self) -> impl Iterator<Item = Prefix> + Clone + 'a {
        prefixes(self.withdrawn)
    }

    /// Announced prefixes.
    pub fn nlri(self) -> impl Iterator<Item = Prefix> + Clone + 'a {
        prefixes(self.nlri)
    }

    /// The path attributes (framing already checked).
    pub fn attributes(self) -> impl Iterator<Item = Result<RawAttribute<'a>, BgpError>> + Clone {
        attributes(self.attributes)
    }

    /// The AS_PATH the NLRI are announced with (see [`as_path`]).
    pub fn as_path(self) -> AsPathView<'a> {
        as_path(self.attributes).unwrap_or_default()
    }

    /// The owned message.
    pub fn to_update(self) -> UpdateMessage {
        UpdateMessage {
            withdrawn: self.withdrawn().collect(),
            attributes: self
                .attributes()
                .filter_map(Result::ok)
                .map(RawAttribute::to_attribute)
                .collect(),
            nlri: self.nlri().collect(),
        }
    }
}

/// Decode the body of an UPDATE message (after the 19-byte header).
pub fn decode_update_body(buf: &[u8]) -> Result<UpdateMessage, BgpError> {
    UpdateView::parse(buf).map(UpdateView::to_update)
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

impl MessageView<'_> {
    /// The owned message.
    pub fn to_message(self) -> BgpMessage {
        match self {
            MessageView::Update(u) => BgpMessage::Update(u.to_update()),
            MessageView::Keepalive => BgpMessage::Keepalive,
            MessageView::Other { msg_type, body } => BgpMessage::Other {
                msg_type,
                body: Bytes::copy_from_slice(body),
            },
        }
    }
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

/// Decode one message from the front of `buf`, returning it and the
/// number of bytes consumed.
pub fn decode_message(buf: &[u8]) -> Result<(BgpMessage, usize), BgpError> {
    parse_message(buf).map(|(m, used)| (m.to_message(), used))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettypes::prefix::pfx;
    use proptest::prelude::*;

    fn roundtrip(msg: &BgpMessage) -> BgpMessage {
        let bytes = encode_message(msg);
        let (decoded, used) = decode_message(&bytes).expect("decodes");
        assert_eq!(used, bytes.len());
        decoded
    }

    #[test]
    fn keepalive_roundtrip() {
        let m = BgpMessage::Keepalive;
        assert_eq!(roundtrip(&m), m);
        assert_eq!(encode_message(&m).len(), 19);
    }

    #[test]
    fn announce_roundtrip() {
        let m = BgpMessage::Update(UpdateMessage::announce(
            vec![pfx("193.0.0.0/21"), pfx("10.0.0.0/8"), pfx("0.0.0.0/0")],
            vec![Asn(64500), Asn(3333)],
            nettypes::parse_ipv4("192.0.2.1").unwrap(),
        ));
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn withdraw_roundtrip() {
        let m = BgpMessage::Update(UpdateMessage::withdraw(vec![
            pfx("1.2.3.0/24"),
            pfx("128.0.0.0/1"),
        ]));
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn prefix_wire_encoding_is_minimal() {
        // A /8 occupies 1 length byte + 1 network byte.
        let m = BgpMessage::Update(UpdateMessage::withdraw(vec![pfx("10.0.0.0/8")]));
        let bytes = encode_message(&m);
        // header 19 + wlen 2 + (1+1) + attrlen 2 = 25.
        assert_eq!(bytes.len(), 25);
        // /0 occupies only the length byte.
        let m0 = BgpMessage::Update(UpdateMessage::withdraw(vec![Prefix::DEFAULT]));
        assert_eq!(encode_message(&m0).len(), 24);
    }

    #[test]
    fn as_path_accessors() {
        let u = UpdateMessage::announce(
            vec![pfx("193.0.0.0/21")],
            vec![Asn(1), Asn(2), Asn(3)],
            0,
        );
        assert_eq!(u.as_path(), vec![Asn(1), Asn(2), Asn(3)]);
        assert_eq!(u.origin_as(), Some(Asn(3)));
        let w = UpdateMessage::withdraw(vec![pfx("1.2.3.0/24")]);
        assert_eq!(w.origin_as(), None);
    }

    #[test]
    fn unknown_attribute_preserved() {
        let m = BgpMessage::Update(UpdateMessage {
            withdrawn: vec![],
            attributes: vec![PathAttribute::Unknown {
                flags: 0xC0,
                type_code: 32, // LARGE_COMMUNITY — not interpreted
                value: Bytes::from_static(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]),
            }],
            nlri: vec![pfx("203.0.112.0/24")],
        });
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn communities_and_med() {
        let m = BgpMessage::Update(UpdateMessage {
            withdrawn: vec![],
            attributes: vec![
                PathAttribute::Origin(OriginType::Incomplete),
                PathAttribute::AsPath(vec![
                    AsPathSegment::Sequence(vec![Asn(1), Asn(2)]),
                    AsPathSegment::Set(vec![Asn(7), Asn(8)]),
                ]),
                PathAttribute::NextHop(0x0A000001),
                PathAttribute::Med(50),
                PathAttribute::LocalPref(100),
                PathAttribute::Communities(vec![0x0001_0002, 0xFFFF_FF01]),
            ],
            nlri: vec![pfx("198.51.100.0/24")],
        });
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn as_path_view_takes_the_first_well_formed_as_path() {
        let malformed = PathAttribute::Unknown {
            flags: 0x40,
            type_code: 2,
            value: Bytes::from_static(&[3, 1, 0, 0, 0, 9]), // segment type 3
        };
        let good = PathAttribute::AsPath(vec![
            AsPathSegment::Sequence(vec![Asn(1), Asn(2)]),
            AsPathSegment::Set(vec![Asn(7), Asn(8)]),
        ]);
        let later = PathAttribute::AsPath(vec![AsPathSegment::Sequence(vec![Asn(5)])]);
        let blob = encode_attributes(&[malformed.clone(), good.clone(), later.clone()]);
        // The owned decoder keeps the malformed one as Unknown.
        assert_eq!(decode_attributes(&blob), Ok(vec![malformed, good, later]));
        let path = as_path(&blob).expect("framing holds");
        assert_eq!(path.asns().collect::<Vec<_>>(), [1, 2, 7, 8].map(Asn));
        assert_eq!(path.origin(), Some(Origin::Set(vec![Asn(7), Asn(8)])));
        assert_eq!(path.origin_asns().map(Iterator::collect), Some(vec![Asn(7), Asn(8)]));
        // A framing error anywhere in the blob fails the walk.
        let mut cut = blob.to_vec();
        cut.pop();
        assert_eq!(as_path(&cut), Err(BgpError::Truncated));
        assert_eq!(check_attributes(&cut), Err(BgpError::Truncated));
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
    fn rejects_bad_marker_and_length() {
        let m = encode_message(&BgpMessage::Keepalive);
        let mut bad = m.to_vec();
        bad[0] = 0;
        assert_eq!(decode_message(&bad), Err(BgpError::BadMarker));
        let mut short = m.to_vec();
        short[17] = 18; // length < 19
        assert_eq!(decode_message(&short), Err(BgpError::BadLength(18)));
        assert_eq!(decode_message(&m[..10]), Err(BgpError::Truncated));
    }

    #[test]
    fn rejects_nonzero_keepalive_body() {
        let mut bytes = BytesMut::new();
        bytes.put_slice(&[0xFF; 16]);
        bytes.put_u16(20);
        bytes.put_u8(TYPE_KEEPALIVE);
        bytes.put_u8(0);
        assert!(matches!(
            decode_message(&bytes),
            Err(BgpError::BadLength(_))
        ));
    }

    #[test]
    fn rejects_bad_nlri_prefix_len() {
        // Hand-craft an update whose NLRI prefix length is 60.
        let mut body = BytesMut::new();
        body.put_u16(0); // withdrawn len
        body.put_u16(0); // attr len
        body.put_u8(60); // bogus prefix length
        let mut msg = BytesMut::new();
        msg.put_slice(&[0xFF; 16]);
        msg.put_u16(19 + body.len() as u16);
        msg.put_u8(TYPE_UPDATE);
        msg.put_slice(&body);
        assert_eq!(decode_message(&msg), Err(BgpError::BadPrefixLen(60)));
    }

    #[test]
    fn truncation_never_panics() {
        let m = BgpMessage::Update(UpdateMessage::announce(
            vec![pfx("193.0.0.0/21")],
            vec![Asn(64500), Asn(3333)],
            1,
        ));
        let bytes = encode_message(&m);
        for cut in 0..bytes.len() {
            let _ = decode_message(&bytes[..cut]);
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
            let mut attributes = vec![
                PathAttribute::Origin(OriginType::Igp),
                PathAttribute::AsPath(vec![AsPathSegment::Sequence(
                    path.into_iter().map(Asn).collect(),
                )]),
                PathAttribute::NextHop(next_hop),
            ];
            if let Some(m) = med {
                attributes.push(PathAttribute::Med(m));
            }
            let msg = BgpMessage::Update(UpdateMessage { withdrawn, attributes, nlri });
            let bytes = encode_message(&msg);
            let (decoded, used) = decode_message(&bytes).unwrap();
            prop_assert_eq!(used, bytes.len());
            prop_assert_eq!(decoded, msg);
        }

        #[test]
        fn prop_bitflips_never_panic(flip in 0usize..100, xor in 1u8..=255) {
            let m = BgpMessage::Update(UpdateMessage::announce(
                vec![pfx("193.0.0.0/21"), pfx("10.0.0.0/8")],
                vec![Asn(64500), Asn(3333)],
                7,
            ));
            let mut bytes = encode_message(&m).to_vec();
            if flip < bytes.len() {
                bytes[flip] ^= xor;
            }
            let _ = decode_message(&bytes);
        }
    }
}
