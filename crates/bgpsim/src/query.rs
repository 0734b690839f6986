//! The archive query engine: a flattened per-prefix element stream
//! over RFC 6396 archive files, a composable filter language, and a
//! deterministic parallel scan.
//!
//! Real-world analogues (`bgpkit-parser`, `bgpdump`) flatten MRT's
//! nested records — peer tables, per-peer RIB entries, multi-NLRI
//! UPDATEs — into one element per `(prefix, peer)`: the shape every
//! downstream analysis wants. The flattening is [`crate::mrt2`]'s
//! element cursor; [`ElemView`] is its element with the file's day and
//! the peer resolved by the query's rule, for the archive's two file
//! kinds:
//!
//! * RFC 6396 RIB files ([`crate::mrt2`]): each `RIB_IPV4_UNICAST`
//!   entry becomes one [`ElemKind::Rib`] element, with the peer
//!   resolved through the file's `PEER_INDEX_TABLE` and origin/path
//!   read from the entry's BGP attributes,
//! * RFC 6396 update files: each announced NLRI becomes an
//!   [`ElemKind::Announce`], each withdrawn prefix an
//!   [`ElemKind::Withdraw`].
//!
//! The scan reads files through the borrowed record cursors of
//! [`crate::mrt2`] and flattens each record with its element cursor
//! ([`crate::mrt2::RecordView::elems`]). Its contract is: *validate
//! every byte, materialize only survivors*. Every record of every file
//! the day clause keeps is checked in full, and every RIB entry's
//! attribute framing is walked, whether or not a row of it can match;
//! the same walk finds the entry's AS path. Elements stay borrowed, and
//! only a row that passes every clause is formatted. The query names a
//! RIB entry's peer by the peer table's ASN and an update's by its
//! `peer_as`.
//!
//! Scans run in one of two parse modes. *Strict* fails the query on
//! the first error the owned decoders would report: a structural error
//! anywhere in the file, else the first RIB entry whose attributes fail
//! their framing. *Lossy* skips damaged records and entries and
//! accounts for every byte and record through
//! [`crate::mrt2::LossyStats`] — per-reason skip counters plus the
//! abandoned-tail bytes when a corrupt length field aborts a file's
//! scan.
//!
//! Scans split the kept files into contiguous ranges of about equal
//! bytes: one range at one worker, a few per worker otherwise, fanned
//! out through [`crate::par`]. Each range writes its rows into one
//! buffer, and formats at most `limit` rows while it still validates
//! and counts every element. The merge moves the first range's buffer
//! in as the body and appends the others in order, so a one-worker
//! scan allocates its rows once, and output is byte-identical at any
//! worker count.

use crate::bgp::AsPathView;
use crate::mrt2::{self, Elem, LossyStats, MrtRecordView, PeerRef, RecordReader, RecordView};
use crate::par;
use crate::updates::CollectorArchiveV2;
use bytes::Bytes;
use nettypes::asn::{Asn, Origin};
use nettypes::date::Date;
use nettypes::prefix::Prefix;
use std::fmt;

// --- elements ---------------------------------------------------------

pub use crate::mrt2::ElemKind;

impl std::str::FromStr for ElemKind {
    type Err = FilterError;

    fn from_str(s: &str) -> Result<ElemKind, FilterError> {
        ElemKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| FilterError(format!("unknown element kind {s:?}")))
    }
}

/// One flattened per-prefix element, borrowing the archive bytes: the
/// unit every filter and output row operates on. Origin and path stay
/// a borrowed [`AsPathView`] until a clause or an output row reads
/// them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ElemView<'a> {
    /// The archive day the element came from.
    pub day: Date,
    /// Record timestamp (Unix seconds).
    pub timestamp: u32,
    /// Record kind.
    pub kind: ElemKind,
    /// The prefix.
    pub prefix: Prefix,
    /// The collector peer that contributed the element.
    pub peer: Option<Asn>,
    /// The AS path; empty for withdrawals and for routes without a
    /// well-formed AS_PATH, and then the element has no origin.
    pub path: AsPathView<'a>,
}

impl ElemView<'_> {
    /// Origin AS (or AS_SET); absent for withdrawals.
    pub fn origin(&self) -> Option<Origin> {
        self.path.origin()
    }
}

// --- filter language --------------------------------------------------

/// A filter string failed to parse.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FilterError(pub String);

impl fmt::Display for FilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad filter: {}", self.0)
    }
}

impl std::error::Error for FilterError {}

/// How a prefix clause matches an element's prefix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PrefixMatch {
    /// Exactly this prefix.
    Exact(Prefix),
    /// The element's prefix is contained in (or equals) this one.
    SubnetOf(Prefix),
    /// The element's prefix contains (or equals) this one.
    SupernetOf(Prefix),
}

impl PrefixMatch {
    fn matches(&self, p: &Prefix) -> bool {
        match self {
            PrefixMatch::Exact(q) => p == q,
            PrefixMatch::SubnetOf(q) => q.covers(p),
            PrefixMatch::SupernetOf(q) => p.covers(q),
        }
    }
}

/// One token of an AS-path pattern.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PathToken {
    /// A literal ASN.
    Literal(Asn),
    /// Any single ASN (`?`).
    One,
    /// Any (possibly empty) run of ASNs (`*`).
    Star,
}

/// An anchored AS-path pattern: comma-separated tokens where `*`
/// matches any run of ASNs, `?` matches exactly one, and a number
/// matches that ASN. `64500,*` is "originated-or-transited first by
/// 64500"; `*,3333` is "origin 3333"; `*` alone matches everything.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PathPattern {
    tokens: Vec<PathToken>,
}

impl PathPattern {
    /// Parse a comma-separated pattern; empty strings are rejected.
    pub fn parse(s: &str) -> Result<PathPattern, FilterError> {
        if s.is_empty() {
            return Err(FilterError("empty path pattern".into()));
        }
        let tokens = s
            .split(',')
            .map(|t| match t {
                "*" => Ok(PathToken::Star),
                "?" => Ok(PathToken::One),
                n => n
                    .parse::<Asn>()
                    .map(PathToken::Literal)
                    .map_err(|_| FilterError(format!("bad path token {t:?}"))),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PathPattern { tokens })
    }

    /// Anchored match over the whole path (greedy two-pointer glob).
    pub fn matches(&self, path: &[Asn]) -> bool {
        self.matches_iter(path.iter().copied())
    }

    /// [`PathPattern::matches`] over a path walked by a cloneable
    /// iterator: a clone marks where the last `*` may resume.
    fn matches_iter<I: Iterator<Item = Asn> + Clone>(&self, mut rest: I) -> bool {
        let toks = &self.tokens;
        let mut p = 0usize;
        let mut star: Option<(usize, I)> = None;
        loop {
            let mut ahead = rest.clone();
            let Some(a) = ahead.next() else { break };
            match toks.get(p) {
                Some(PathToken::Literal(l)) if *l == a => {
                    p += 1;
                    rest = ahead;
                }
                Some(PathToken::One) => {
                    p += 1;
                    rest = ahead;
                }
                Some(PathToken::Star) => {
                    star = Some((p, rest.clone()));
                    p += 1;
                }
                _ => match &mut star {
                    Some((sp, resume)) => {
                        resume.next();
                        p = *sp + 1;
                        rest = resume.clone();
                    }
                    None => return false,
                },
            }
        }
        while toks.get(p) == Some(&PathToken::Star) {
            p += 1;
        }
        p == toks.len()
    }
}

impl fmt::Display for PathPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.tokens.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            match t {
                PathToken::Literal(a) => write!(f, "{}", a.0)?,
                PathToken::One => f.write_str("?")?,
                PathToken::Star => f.write_str("*")?,
            }
        }
        Ok(())
    }
}

/// A composable element filter. Parsed from whitespace-separated
/// `key=value` clauses; [`fmt::Display`] renders the canonical form,
/// and `parse(display(f)) == f` (round-trip) always holds.
///
/// | clause | meaning |
/// |---|---|
/// | `prefix=P` | exact prefix |
/// | `subnet-of=P` | element prefix inside `P` (inclusive) |
/// | `supernet-of=P` | element prefix covering `P` (inclusive) |
/// | `origin=A\|B\|…` | origin AS intersects the set |
/// | `peer=A` | collector peer AS |
/// | `days=D`, `days=D1..D2`, `days=D1..`, `days=..D2` | day range (inclusive) |
/// | `path=64500,*,3333` | anchored AS-path glob (`*` any run, `?` one hop) |
/// | `kind=rib\|announce\|withdraw` | record kinds |
///
/// An empty string parses to the match-everything filter.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Filter {
    /// Prefix clause.
    pub prefix: Option<PrefixMatch>,
    /// Origin ASNs (an element matches when its origin intersects).
    pub origins: Option<Vec<Asn>>,
    /// Collector peer ASN.
    pub peer: Option<Asn>,
    /// Inclusive day range; open ends allowed.
    pub days: Option<(Option<Date>, Option<Date>)>,
    /// AS-path pattern.
    pub path: Option<PathPattern>,
    /// Record kinds to keep.
    pub kinds: Option<Vec<ElemKind>>,
}

fn parse_prefix(v: &str) -> Result<Prefix, FilterError> {
    v.parse::<Prefix>()
        .map_err(|e| FilterError(format!("bad prefix {v:?}: {e}")))
}

fn parse_asn(v: &str) -> Result<Asn, FilterError> {
    v.parse::<Asn>()
        .map_err(|_| FilterError(format!("bad ASN {v:?}")))
}

fn parse_date(v: &str) -> Result<Date, FilterError> {
    v.parse::<Date>()
        .map_err(|_| FilterError(format!("bad date {v:?} (want YYYY-MM-DD)")))
}

fn parse_days(v: &str) -> Result<(Option<Date>, Option<Date>), FilterError> {
    match v.split_once("..") {
        None => {
            let d = parse_date(v)?;
            Ok((Some(d), Some(d)))
        }
        Some(("", "")) => Err(FilterError("empty day range \"..\"".into())),
        Some((a, "")) => Ok((Some(parse_date(a)?), None)),
        Some(("", b)) => Ok((None, Some(parse_date(b)?))),
        Some((a, b)) => {
            let (start, end) = (parse_date(a)?, parse_date(b)?);
            if start > end {
                return Err(FilterError(format!("day range {v:?} runs backwards")));
            }
            Ok((Some(start), Some(end)))
        }
    }
}

impl Filter {
    /// Parse a filter string. Unknown or duplicate keys are errors
    /// (silently ignoring a typoed clause would silently widen the
    /// result set).
    pub fn parse(s: &str) -> Result<Filter, FilterError> {
        let mut f = Filter::default();
        for clause in s.split_whitespace() {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| FilterError(format!("clause {clause:?} is not key=value")))?;
            let dup = match key {
                "prefix" | "subnet-of" | "supernet-of" => {
                    let p = parse_prefix(value)?;
                    let m = match key {
                        "prefix" => PrefixMatch::Exact(p),
                        "subnet-of" => PrefixMatch::SubnetOf(p),
                        _ => PrefixMatch::SupernetOf(p),
                    };
                    f.prefix.replace(m).is_some()
                }
                "origin" => {
                    let asns = value
                        .split('|')
                        .map(parse_asn)
                        .collect::<Result<Vec<_>, _>>()?;
                    if asns.is_empty() {
                        return Err(FilterError("empty origin set".into()));
                    }
                    f.origins.replace(asns).is_some()
                }
                "peer" => f.peer.replace(parse_asn(value)?).is_some(),
                "days" => f.days.replace(parse_days(value)?).is_some(),
                "path" => f.path.replace(PathPattern::parse(value)?).is_some(),
                "kind" => {
                    let kinds = value
                        .split('|')
                        .map(str::parse::<ElemKind>)
                        .collect::<Result<Vec<_>, _>>()?;
                    f.kinds.replace(kinds).is_some()
                }
                _ => return Err(FilterError(format!("unknown filter key {key:?}"))),
            };
            if dup {
                return Err(FilterError(format!(
                    "duplicate or conflicting clause for {key:?}"
                )));
            }
        }
        Ok(f)
    }

    /// True when `elem` passes every clause.
    pub fn matches(&self, elem: &ElemView<'_>) -> bool {
        self.admits_kind(elem.kind)
            && self.admits_prefix(&elem.prefix)
            && self.admits_peer(elem.peer)
            && self.day_in_range(elem.day)
            && self.admits_path(elem.path)
    }

    fn admits_kind(&self, kind: ElemKind) -> bool {
        self.kinds.as_ref().is_none_or(|k| k.contains(&kind))
    }

    fn admits_prefix(&self, prefix: &Prefix) -> bool {
        self.prefix.as_ref().is_none_or(|pm| pm.matches(prefix))
    }

    fn admits_peer(&self, peer: Option<Asn>) -> bool {
        self.peer.is_none_or(|want| peer == Some(want))
    }

    /// The clauses on the AS path: origin and path.
    fn admits_path(&self, path: AsPathView<'_>) -> bool {
        self.origins.as_ref().is_none_or(|origins| {
            path.origin_asns()
                .is_some_and(|mut asns| asns.any(|a| origins.contains(&a)))
        }) && self
            .path
            .as_ref()
            .is_none_or(|pat| pat.matches_iter(path.asns()))
    }

    /// True when `d` passes the day clause (used to prune whole files
    /// before decoding a byte of them).
    pub fn day_in_range(&self, d: Date) -> bool {
        match self.days {
            None => true,
            Some((start, end)) => start.is_none_or(|s| d >= s) && end.is_none_or(|e| d <= e),
        }
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        let mut clause = |f: &mut fmt::Formatter<'_>, text: String| {
            let r = write!(f, "{sep}{text}");
            sep = " ";
            r
        };
        match &self.prefix {
            Some(PrefixMatch::Exact(p)) => clause(f, format!("prefix={p}"))?,
            Some(PrefixMatch::SubnetOf(p)) => clause(f, format!("subnet-of={p}"))?,
            Some(PrefixMatch::SupernetOf(p)) => clause(f, format!("supernet-of={p}"))?,
            None => {}
        }
        if let Some(origins) = &self.origins {
            let joined = origins
                .iter()
                .map(|a| a.0.to_string())
                .collect::<Vec<_>>()
                .join("|");
            clause(f, format!("origin={joined}"))?;
        }
        if let Some(peer) = self.peer {
            clause(f, format!("peer={}", peer.0))?;
        }
        match self.days {
            Some((Some(a), Some(b))) if a == b => clause(f, format!("days={a}"))?,
            Some((Some(a), Some(b))) => clause(f, format!("days={a}..{b}"))?,
            Some((Some(a), None)) => clause(f, format!("days={a}.."))?,
            Some((None, Some(b))) => clause(f, format!("days=..{b}"))?,
            Some((None, None)) | None => {}
        }
        if let Some(pat) = &self.path {
            clause(f, format!("path={pat}"))?;
        }
        if let Some(kinds) = &self.kinds {
            let joined = kinds.iter().map(|k| k.name()).collect::<Vec<_>>().join("|");
            clause(f, format!("kind={joined}"))?;
        }
        Ok(())
    }
}

// --- scanning ---------------------------------------------------------

/// Which archive file kind a query input file is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FileKind {
    /// RFC 6396 `TABLE_DUMP_V2` RIB file.
    Rib,
    /// RFC 6396 `BGP4MP` update file.
    Updates,
}

/// One input file for a query: a day's worth of archive bytes.
#[derive(Clone, Debug)]
pub struct QueryFile {
    /// The day the file covers.
    pub day: Date,
    /// Whether it is a RIB or an update file.
    pub kind: FileKind,
    /// The file's bytes (refcounted; cloning is cheap).
    pub bytes: Bytes,
}

/// Output encoding for query rows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OutputFormat {
    /// Comma-separated values, with a header row.
    Csv,
    /// One JSON object per line.
    Jsonl,
}

impl OutputFormat {
    /// The HTTP content type for this format.
    pub fn content_type(&self) -> &'static str {
        match self {
            OutputFormat::Csv => "text/csv",
            OutputFormat::Jsonl => "application/x-ndjson",
        }
    }
}

impl std::str::FromStr for OutputFormat {
    type Err = FilterError;

    fn from_str(s: &str) -> Result<OutputFormat, FilterError> {
        match s {
            "csv" => Ok(OutputFormat::Csv),
            "jsonl" => Ok(OutputFormat::Jsonl),
            _ => Err(FilterError(format!(
                "unknown format {s:?} (want csv or jsonl)"
            ))),
        }
    }
}

/// How a query scan went wrong.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum QueryError {
    /// A file failed to decode in strict mode.
    Decode {
        /// The file's day.
        day: Date,
        /// Human-readable decode error.
        detail: String,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Decode { day, detail } => {
                write!(f, "archive file for {day} failed to decode: {detail}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Query knobs: what to keep, how to print it, how to parse, how wide
/// to fan out.
#[derive(Clone, Debug)]
pub struct QueryOptions {
    /// The element filter.
    pub filter: Filter,
    /// Output encoding.
    pub format: OutputFormat,
    /// Skip damaged records (with accounting) instead of failing.
    pub lossy: bool,
    /// Keep at most this many rows: the first ones in file order, so the
    /// same rows survive at any worker count. A range stops formatting
    /// rows once it holds this many, and still counts every match.
    pub limit: Option<usize>,
    /// Worker threads for the multi-file fan-out.
    pub threads: usize,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            filter: Filter::default(),
            format: OutputFormat::Csv,
            lossy: false,
            limit: None,
            threads: par::num_threads(),
        }
    }
}

/// Scan accounting, aggregated across all files of a query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Files actually decoded.
    pub files_scanned: usize,
    /// Files pruned by the day clause without decoding.
    pub files_pruned: usize,
    /// Elements framed and offered to the filter.
    pub elems_scanned: usize,
    /// Rows that passed the filter (before the row limit).
    pub rows_matched: usize,
    /// Rows actually emitted (after the row limit).
    pub rows_emitted: usize,
    /// Lossy-parse accounting (all zeros in strict mode).
    pub lossy: LossyStats,
}

/// A finished query: the formatted body plus its accounting.
#[derive(Clone, Debug)]
pub struct QueryOutput {
    /// The full response body (header line included for CSV).
    pub body: String,
    /// Scan accounting.
    pub stats: QueryStats,
}

/// The CSV header row.
pub const CSV_HEADER: &str = "day,kind,prefix,origin,peer,path\n";

/// Append `v` in decimal.
fn push_u32(out: &mut String, mut v: u32) {
    const DIGITS: &[u8; 10] = b"0123456789";
    let mut buf = [0u8; 10];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = DIGITS[(v % 10) as usize];
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &buf[at..] {
        out.push(char::from(d));
    }
}

fn push_asns(out: &mut String, asns: impl Iterator<Item = Asn>, sep: char) {
    for (i, a) in asns.enumerate() {
        if i > 0 {
            out.push(sep);
        }
        push_u32(out, a.0);
    }
}

/// Append `p` the way its `Display` renders it.
fn push_prefix(out: &mut String, p: Prefix) {
    for (i, octet) in p.network().to_be_bytes().into_iter().enumerate() {
        if i > 0 {
            out.push('.');
        }
        push_u32(out, u32::from(octet));
    }
    out.push('/');
    push_u32(out, u32::from(p.len()));
}

/// Append one output row. `day` is the element's day, formatted once
/// per file. Every value is a date, a keyword, or numeric, so nothing
/// needs CSV quoting or JSON string escaping.
fn write_row(out: &mut String, format: OutputFormat, day: &str, e: &ElemView<'_>) {
    let origin = e.path.origin_asns();
    match format {
        OutputFormat::Csv => {
            out.push_str(day);
            out.push(',');
            out.push_str(e.kind.name());
            out.push(',');
            push_prefix(out, e.prefix);
            out.push(',');
            if let Some(asns) = origin {
                push_asns(out, asns, '|');
            }
            out.push(',');
            if let Some(p) = e.peer {
                push_u32(out, p.0);
            }
            out.push(',');
            push_asns(out, e.path.asns(), ' ');
            out.push('\n');
        }
        OutputFormat::Jsonl => {
            out.push_str("{\"day\":\"");
            out.push_str(day);
            out.push_str("\",\"kind\":\"");
            out.push_str(e.kind.name());
            out.push_str("\",\"prefix\":\"");
            push_prefix(out, e.prefix);
            out.push_str("\",\"origin\":");
            match origin {
                None => out.push_str("null"),
                Some(asns) => {
                    out.push('[');
                    push_asns(out, asns, ',');
                    out.push(']');
                }
            }
            out.push_str(",\"peer\":");
            match e.peer {
                None => out.push_str("null"),
                Some(p) => push_u32(out, p.0),
            }
            out.push_str(",\"path\":[");
            push_asns(out, e.path.asns(), ',');
            out.push_str("]}\n");
        }
    }
}

fn decode_error(day: Date, detail: impl fmt::Display) -> QueryError {
    QueryError::Decode {
        day,
        detail: detail.to_string(),
    }
}

/// One range's scan: the rows of its files in one buffer, and its
/// accounting.
struct RangeScan<'q> {
    opts: &'q QueryOptions,
    /// Whether the kind clause admits each [`ElemKind`], by its index.
    kinds: [bool; 3],
    /// The rows, behind the CSV header in the first range.
    rows: String,
    /// Rows that passed the filter.
    matched: usize,
    /// Rows formatted into `rows`: at most the row limit.
    written: usize,
    files: usize,
    elems: usize,
    stats: LossyStats,
}

/// What one file's scan needs besides the range it belongs to.
struct FileScan {
    day: Date,
    /// The file's day as rows print it, formatted once.
    day_text: String,
    /// Peer ASNs by peer index; the file's `PEER_INDEX_TABLE` sets it.
    peers: Vec<Asn>,
    /// Strict mode: the first RIB entry attribute blob that failed its
    /// framing. It fails the file unless a structural error in a later
    /// record does first.
    bad_attributes: Option<crate::bgp::BgpError>,
    /// Lossy mode: the file's accounting.
    stats: LossyStats,
}

impl<'q> RangeScan<'q> {
    fn new(opts: &'q QueryOptions, header: bool) -> Self {
        let mut rows = String::new();
        if header && opts.format == OutputFormat::Csv {
            rows.push_str(CSV_HEADER);
        }
        RangeScan {
            opts,
            kinds: ElemKind::ALL.map(|k| opts.filter.admits_kind(k)),
            rows,
            matched: 0,
            written: 0,
            files: 0,
            elems: 0,
            stats: LossyStats::default(),
        }
    }

    /// Count every element of one checked record and keep the rows
    /// that pass the filter (the day clause already pruned the file).
    /// Every RIB entry's attribute framing is walked whether or not the
    /// entry can match, so strict and lossy mode judge every byte.
    fn record(&mut self, file: &mut FileScan, rec: RecordView<'_>) {
        if let MrtRecordView::PeerIndexTable(t) = rec.record {
            file.peers = t.peers().map(|p| p.asn).collect();
            return;
        }
        rec.elems().for_each(|e| {
            let path = match e.path {
                Ok(path) => path,
                Err(err) => return self.skip(file, err),
            };
            self.elems += 1;
            if self.kinds[e.kind as usize] && self.opts.filter.admits_prefix(&e.prefix) {
                self.keep(file, &e, path);
            }
        });
    }

    /// Account for a RIB entry whose attributes fail their framing.
    #[cold]
    fn skip(&self, file: &mut FileScan, err: crate::bgp::BgpError) {
        if self.opts.lossy {
            file.stats.skipped_bgp += 1;
        } else {
            file.bad_attributes.get_or_insert(err);
        }
    }

    /// Judge an element that passed the kind and prefix clauses on the
    /// peer, by the query's rule, and on the AS path, and keep its row
    /// if it passes.
    #[inline(never)]
    fn keep(&mut self, file: &FileScan, e: &Elem<'_>, path: AsPathView<'_>) {
        let f = &self.opts.filter;
        let peer = match e.peer {
            PeerRef::Index(i) => file.peers.get(usize::from(i)).copied(),
            PeerRef::Session { asn, .. } => Some(asn),
        };
        if !(f.admits_peer(peer) && f.admits_path(path)) {
            return;
        }
        self.matched += 1;
        if self.written < self.opts.limit.unwrap_or(usize::MAX) {
            let elem = ElemView {
                day: file.day,
                timestamp: e.timestamp,
                kind: e.kind,
                prefix: e.prefix,
                peer,
                path,
            };
            write_row(&mut self.rows, self.opts.format, &file.day_text, &elem);
            self.written += 1;
        }
    }

    /// Scan one file into the range.
    fn file(&mut self, file: &QueryFile) -> Result<(), QueryError> {
        let mut scan = FileScan {
            day: file.day,
            day_text: file.day.to_string(),
            peers: Vec::new(),
            bad_attributes: None,
            stats: LossyStats::default(),
        };
        if self.opts.lossy {
            let mut reader = RecordReader::new(&file.bytes);
            for rec in reader.by_ref() {
                self.record(&mut scan, rec);
            }
            scan.stats.merge(&reader.stats());
            scan.stats.emit();
            self.stats.merge(&scan.stats);
        } else {
            for rec in mrt2::records(&file.bytes) {
                self.record(&mut scan, rec.map_err(|e| decode_error(file.day, e))?);
            }
            if let Some(e) = scan.bad_attributes {
                return Err(decode_error(file.day, e));
            }
        }
        self.files += 1;
        Ok(())
    }
}

/// Ranges per worker when a scan fans out over more than one.
const RANGES_PER_WORKER: usize = 8;

/// Split `files` into at most `parts` contiguous, non-empty ranges of
/// about equal bytes: a range closes at the first file that brings the
/// bytes so far to its share of the total.
fn byte_ranges(files: &[&QueryFile], parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.clamp(1, files.len().max(1));
    let total: u128 = files.iter().map(|f| f.bytes.len() as u128).sum();
    let mut ranges = Vec::with_capacity(parts);
    let (mut start, mut bytes) = (0, 0u128);
    for (i, f) in files.iter().enumerate() {
        bytes += f.bytes.len() as u128;
        let closed = ranges.len() as u128 + 1;
        if closed < parts as u128 && bytes * parts as u128 >= total * closed {
            ranges.push(start..i + 1);
            start = i + 1;
        }
    }
    if start < files.len() {
        ranges.push(start..files.len());
    }
    ranges
}

/// The first `n` lines of `rows`.
fn head_lines(rows: &str, n: usize) -> &str {
    let end = rows.split_inclusive('\n').take(n).map(str::len).sum();
    &rows[..end]
}

/// Run a query over `files`: prune by day, split the survivors into
/// contiguous ranges of about equal bytes (one per scan at one worker,
/// [`RANGES_PER_WORKER`] per worker otherwise), scan the ranges over
/// [`par::map_indexed`], then merge them in order: the first range's
/// buffer becomes the body and the others are appended, up to the row
/// limit (byte-identical at any worker count).
pub fn run_query(files: &[QueryFile], opts: &QueryOptions) -> Result<QueryOutput, QueryError> {
    let kept: Vec<&QueryFile> = files
        .iter()
        .filter(|f| opts.filter.day_in_range(f.day))
        .collect();
    let span = obs::span!(
        "query_scan",
        files = kept.len(),
        threads = opts.threads,
        unit = "files"
    );
    // One worker scans one range, so its rows are allocated once.
    // Several workers pull smaller ranges as they free up: under a
    // filter that drops RIB rows an update byte costs more than a RIB
    // byte, so equal bytes are not equal work.
    let parts = match opts.threads {
        0 | 1 => 1,
        n => n * RANGES_PER_WORKER,
    };
    let ranges = byte_ranges(&kept, parts);
    let scans = par::map_indexed(ranges.len(), opts.threads, |r| {
        let mut scan = RangeScan::new(opts, r == 0);
        for file in &kept[ranges[r].clone()] {
            scan.file(file)?;
        }
        Ok(scan)
    });

    let mut stats = QueryStats {
        files_pruned: files.len() - kept.len(),
        ..QueryStats::default()
    };
    let budget = opts.limit.unwrap_or(usize::MAX);
    let appended: usize = scans.iter().skip(1).flatten().map(|s| s.rows.len()).sum();
    let mut body: Option<String> = None;
    for scan in scans {
        let scan = scan?;
        stats.files_scanned += scan.files;
        stats.elems_scanned += scan.elems;
        stats.rows_matched += scan.matched;
        stats.lossy.merge(&scan.stats);
        // Each range formatted at most `budget` rows, so the first
        // range's buffer is taken whole.
        let take = scan.written.min(budget - stats.rows_emitted);
        stats.rows_emitted += take;
        match &mut body {
            None => {
                let mut first = scan.rows;
                first.reserve_exact(appended);
                body = Some(first);
            }
            Some(body) if take == scan.written => body.push_str(&scan.rows),
            // The limit lands inside this range: take whole lines up to it.
            Some(body) => body.push_str(head_lines(&scan.rows, take)),
        }
    }
    let body = body.unwrap_or_else(|| RangeScan::new(opts, true).rows);
    span.add_items(stats.files_scanned as u64);
    obs::metrics::counter("query_rows_total").add(stats.rows_emitted as u64);
    obs::metrics::counter("query_files_scanned_total").add(stats.files_scanned as u64);
    Ok(QueryOutput { body, stats })
}

/// The RFC 6396 archive as query input files (RIBs then updates, in
/// date order — the deterministic scan order the merge relies on).
pub fn files_from_archive_v2(archive: &CollectorArchiveV2) -> Vec<QueryFile> {
    let mut files = Vec::new();
    for d in archive.rib_dates() {
        if let Some(bytes) = archive.rib_bytes(d) {
            files.push(QueryFile {
                day: d,
                kind: FileKind::Rib,
                bytes: bytes.clone(),
            });
        }
    }
    for d in archive.update_dates() {
        if let Some(bytes) = archive.update_bytes(d) {
            files.push(QueryFile {
                day: d,
                kind: FileKind::Updates,
                bytes: bytes.clone(),
            });
        }
    }
    files
}

/// The kind and day of an archive file named `rib-YYYY-MM-DD.mrt` or
/// `updates-YYYY-MM-DD.mrt`; `None` for any other name.
pub(crate) fn parse_file_name(name: &str) -> Option<(FileKind, Date)> {
    let (kind, rest) = match name.strip_prefix("rib-") {
        Some(rest) => (FileKind::Rib, rest),
        None => (FileKind::Updates, name.strip_prefix("updates-")?),
    };
    let day = rest.strip_suffix(".mrt")?.parse::<Date>().ok()?;
    Some((kind, day))
}

/// Read an on-disk archive directory written by
/// [`CollectorArchiveV2::write_dir`] into query input files.
/// Unrecognized file names are ignored; the result is ordered RIBs →
/// updates, each by date, independent of directory iteration order.
pub fn files_from_dir(dir: &std::path::Path) -> std::io::Result<Vec<QueryFile>> {
    let mut ribs: Vec<(Date, std::path::PathBuf)> = Vec::new();
    let mut updates: Vec<(Date, std::path::PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        match parse_file_name(name) {
            Some((FileKind::Rib, d)) => ribs.push((d, entry.path())),
            Some((FileKind::Updates, d)) => updates.push((d, entry.path())),
            None => {}
        }
    }
    let mut files = Vec::new();
    for (bucket, kind) in [
        (&mut ribs, FileKind::Rib),
        (&mut updates, FileKind::Updates),
    ] {
        bucket.sort_by_key(|(d, _)| *d);
        for (day, path) in bucket.iter() {
            files.push(QueryFile {
                day: *day,
                kind,
                bytes: Bytes::from(std::fs::read(path)?),
            });
        }
    }
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::{self, Segment};
    use crate::mrt2::{Bgp4mpSession, MrtWriter, PeerEntry, RibEntryView};
    use nettypes::date::date;
    use nettypes::prefix::pfx;

    fn asn(n: u32) -> Asn {
        Asn(n)
    }

    fn sample_update_file() -> Bytes {
        let session = |peer_as, peer_ip| Bgp4mpSession {
            peer_as: asn(peer_as),
            local_as: asn(12654),
            interface: 0,
            peer_ip,
            local_ip: 0x0A00_00FE,
        };
        let path = [asn(12654), asn(3333), asn(64500)];
        let attrs =
            bgp::encode_path_attributes(&[Segment::Sequence(&path)], 0x0A00_0001).expect("fits");
        let mut w = MrtWriter::new();
        let nlri = [pfx("193.0.0.0/21"), pfx("10.1.0.0/16")];
        w.update(
            1_514_764_800,
            &session(12654, 0x0A00_0001),
            &[],
            &attrs,
            &nlri,
        )
        .expect("fits");
        let withdrawn = [pfx("193.0.0.0/21")];
        w.update(
            1_514_764_900,
            &session(3333, 0x0A00_0002),
            &withdrawn,
            &[],
            &[],
        )
        .expect("fits");
        w.finish()
    }

    fn sample_rib_file() -> Bytes {
        let path = [asn(12654), asn(64500)];
        let attrs =
            bgp::encode_path_attributes(&[Segment::Sequence(&path)], 0x0A00_0001).expect("fits");
        let peer = PeerEntry {
            bgp_id: 1,
            ip: 0x0A00_0001,
            asn: asn(12654),
        };
        let entry = RibEntryView {
            peer_index: 0,
            originated_time: 1_514_000_000,
            attributes: &attrs,
        };
        let mut w = MrtWriter::new();
        w.peer_table(1_514_764_800, 1, "drywells", &[peer])
            .expect("fits");
        w.rib(1_514_764_800, 0, pfx("193.0.0.0/21"), [entry])
            .expect("fits");
        w.finish()
    }

    fn query_files() -> Vec<QueryFile> {
        vec![
            QueryFile {
                day: date("2018-01-01"),
                kind: FileKind::Rib,
                bytes: sample_rib_file(),
            },
            QueryFile {
                day: date("2018-01-01"),
                kind: FileKind::Updates,
                bytes: sample_update_file(),
            },
        ]
    }

    #[test]
    fn filter_round_trips_through_display() {
        let cases = [
            "",
            "prefix=193.0.0.0/21",
            "subnet-of=10.0.0.0/8",
            "supernet-of=10.1.2.0/24",
            "origin=64500",
            "origin=64500|64501|3333",
            "peer=12654",
            "days=2018-01-01",
            "days=2018-01-01..2018-02-01",
            "days=2018-01-01..",
            "days=..2018-02-01",
            "path=64500,*,3333",
            "path=*,?,64500",
            "kind=rib",
            "kind=announce|withdraw",
            "prefix=10.0.0.0/16 origin=64500 peer=12654 days=2018-01-01..2018-02-01 path=*,64500 kind=announce",
        ];
        for s in cases {
            let f = Filter::parse(s).unwrap_or_else(|e| panic!("{s:?}: {e}"));
            let shown = f.to_string();
            assert_eq!(shown, s, "canonical form differs");
            let back = Filter::parse(&shown).expect("canonical form reparses");
            assert_eq!(back, f, "round-trip changed the filter for {s:?}");
        }
    }

    #[test]
    fn filter_rejects_bad_syntax() {
        for s in [
            "nonsense",
            "key=val",
            "prefix=banana",
            "origin=",
            "origin=x",
            "peer=12654 peer=3333",
            "prefix=10.0.0.0/8 subnet-of=10.0.0.0/8",
            "days=2018-02-01..2018-01-01",
            "days=..",
            "path=",
            "path=a,b",
            "kind=bogus",
        ] {
            assert!(Filter::parse(s).is_err(), "{s:?} unexpectedly parsed");
        }
    }

    #[test]
    fn path_pattern_glob_semantics() {
        let pat = |s: &str| PathPattern::parse(s).expect("parses");
        let path: Vec<Asn> = [12654, 3333, 64500].into_iter().map(Asn).collect();
        assert!(pat("*").matches(&path));
        assert!(pat("*").matches(&[]));
        assert!(pat("12654,3333,64500").matches(&path));
        assert!(pat("12654,*").matches(&path));
        assert!(pat("*,64500").matches(&path));
        assert!(pat("*,3333,*").matches(&path));
        assert!(pat("?,?,?").matches(&path));
        assert!(pat("12654,?,64500").matches(&path));
        assert!(!pat("12654").matches(&path));
        assert!(!pat("*,3333").matches(&path));
        assert!(!pat("?,?").matches(&path));
        assert!(!pat("9999,*").matches(&path));
        assert!(!pat("?").matches(&[]));
    }

    #[test]
    fn filter_matches_borrowed_elements() {
        let attrs = bgp::encode_path_attributes(
            &[
                Segment::Sequence(&[asn(12654), asn(3333)]),
                Segment::Set(&[asn(64500), asn(64501)]),
            ],
            0,
        )
        .expect("fits");
        let path = bgp::as_path(&attrs).expect("framing holds");
        let elem = ElemView {
            day: date("2018-01-01"),
            timestamp: 0,
            kind: ElemKind::Announce,
            prefix: pfx("193.0.0.0/21"),
            peer: Some(asn(12654)),
            path,
        };
        assert_eq!(
            elem.origin(),
            Some(Origin::Set(vec![asn(64500), asn(64501)]))
        );
        let hit = |s: &str| Filter::parse(s).expect("parses").matches(&elem);
        assert!(hit(""));
        assert!(hit(
            "origin=64501 peer=12654 kind=announce subnet-of=193.0.0.0/16"
        ));
        assert!(hit("path=12654,*,64501 days=2018-01-01"));
        assert!(!hit("origin=3333"));
        assert!(!hit("path=*,3333"));
        assert!(!hit("kind=withdraw"));
        assert!(!hit("peer=3333"));
        assert!(!hit("supernet-of=193.0.0.0/20"));
        assert!(!hit("days=2018-01-02.."));
    }

    #[test]
    fn query_flattens_rib_and_update_elements() {
        let out = run_query(&query_files(), &QueryOptions::default()).expect("query runs");
        // 1 RIB entry + 2 announces + 1 withdraw.
        assert_eq!(out.stats.elems_scanned, 4);
        assert_eq!(out.stats.rows_emitted, 4);
        assert!(out.body.starts_with(CSV_HEADER));
        assert!(out
            .body
            .contains("2018-01-01,rib,193.0.0.0/21,64500,12654,12654 64500"));
        assert!(out
            .body
            .contains("2018-01-01,announce,10.1.0.0/16,64500,12654,12654 3333 64500"));
        assert!(out.body.contains("2018-01-01,withdraw,193.0.0.0/21,,3333,"));
        assert!(out.stats.lossy.is_clean());
    }

    #[test]
    fn filters_select_expected_rows() {
        let files = query_files();
        let run = |filter: &str| {
            let opts = QueryOptions {
                filter: Filter::parse(filter).expect("filter parses"),
                ..QueryOptions::default()
            };
            run_query(&files, &opts).expect("query runs")
        };
        assert_eq!(run("kind=withdraw").stats.rows_emitted, 1);
        assert_eq!(run("kind=rib|announce").stats.rows_emitted, 3);
        assert_eq!(run("origin=64500").stats.rows_emitted, 3);
        assert_eq!(run("peer=3333").stats.rows_emitted, 1);
        assert_eq!(run("prefix=10.1.0.0/16").stats.rows_emitted, 1);
        assert_eq!(run("subnet-of=10.0.0.0/8").stats.rows_emitted, 1);
        assert_eq!(run("supernet-of=193.0.1.0/24").stats.rows_emitted, 3);
        assert_eq!(run("path=*,3333,64500").stats.rows_emitted, 2);
        assert_eq!(run("days=2018-01-02..").stats.rows_emitted, 0);
        assert_eq!(run("days=2018-01-01").stats.rows_emitted, 4);
    }

    #[test]
    fn day_pruning_skips_files_without_decoding() {
        let files = query_files();
        let opts = QueryOptions {
            filter: Filter::parse("days=2019-01-01..").expect("parses"),
            ..QueryOptions::default()
        };
        let out = run_query(&files, &opts).expect("query runs");
        assert_eq!(out.stats.files_pruned, 2);
        assert_eq!(out.stats.files_scanned, 0);
    }

    #[test]
    fn row_limit_is_applied_after_the_merge() {
        let files = query_files();
        let opts = QueryOptions {
            limit: Some(2),
            ..QueryOptions::default()
        };
        let out = run_query(&files, &opts).expect("query runs");
        assert_eq!(out.stats.rows_emitted, 2);
        assert_eq!(out.stats.rows_matched, 4);
        assert_eq!(out.body.lines().count(), 3); // header + 2 rows
    }

    #[test]
    fn jsonl_rows_parse_as_json() {
        let opts = QueryOptions {
            format: OutputFormat::Jsonl,
            ..QueryOptions::default()
        };
        let out = run_query(&query_files(), &opts).expect("query runs");
        assert_eq!(out.body.lines().count(), 4);
        for line in out.body.lines() {
            let v = serde_json::parse(line).expect("JSONL line parses");
            assert!(v.get("day").is_some());
            assert!(v.get("kind").is_some());
            assert!(v.get("prefix").is_some());
        }
    }

    #[test]
    fn strict_mode_fails_on_damage_lossy_mode_accounts_for_it() {
        let mut files = query_files();
        let mut damaged = files[1].bytes.to_vec();
        // Corrupt the first update record's AFI field (body offset 10).
        damaged[12 + 10] = 0xFF;
        // And truncate the file mid-record to abandon a tail.
        let cut = damaged.len() - 4;
        files[1].bytes = Bytes::from(damaged[..cut].to_vec());

        let strict = run_query(&files, &QueryOptions::default());
        assert!(matches!(strict, Err(QueryError::Decode { .. })));

        let opts = QueryOptions {
            lossy: true,
            ..QueryOptions::default()
        };
        let out = run_query(&files, &opts).expect("lossy query runs");
        assert!(out.stats.lossy.aborted);
        assert!(out.stats.lossy.bytes_unscanned > 0);
        assert_eq!(out.stats.rows_emitted, 1); // the RIB row survives
    }

    #[test]
    fn dir_round_trip_preserves_query_output() {
        let files = query_files();
        let dir = std::env::temp_dir().join(format!("drywells-query-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("rib-2018-01-01.mrt"), &files[0].bytes).expect("write");
        std::fs::write(dir.join("updates-2018-01-01.mrt"), &files[1].bytes).expect("write");
        std::fs::write(dir.join("README.txt"), b"ignored").expect("write");
        let from_disk = files_from_dir(&dir).expect("read dir");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(from_disk.len(), 2);
        assert_eq!(from_disk[0].kind, FileKind::Rib);
        assert_eq!(from_disk[1].kind, FileKind::Updates);
        let a = run_query(&files, &QueryOptions::default()).expect("query runs");
        let b = run_query(&from_disk, &QueryOptions::default()).expect("query runs");
        assert_eq!(a.body, b.body);
    }

    #[test]
    fn byte_ranges_are_contiguous_and_balanced() {
        let file = |len: usize| QueryFile {
            day: date("2018-01-01"),
            kind: FileKind::Updates,
            bytes: Bytes::from(vec![0; len]),
        };
        let files: Vec<QueryFile> = [90, 10, 10, 10, 30, 30, 20, 0, 0].map(file).into();
        let kept: Vec<&QueryFile> = files.iter().collect();
        assert_eq!(byte_ranges(&kept, 1), vec![0..9]);
        // 200 bytes: the first range closes at 100, the second at 200.
        assert_eq!(byte_ranges(&kept, 2), [0..2, 2..9]);
        assert_eq!(byte_ranges(&kept, 4), [0..1, 1..2, 2..5, 5..9]);
        // Never more ranges than files, and never an empty one.
        assert_eq!(byte_ranges(&kept[..2], 8), [0..1, 1..2]);
        assert_eq!(byte_ranges(&kept[7..], 2), [0..1, 1..2]);
        assert!(byte_ranges(&[], 4).is_empty());
    }

    #[test]
    fn output_is_identical_across_worker_counts() {
        let files = query_files();
        let mut bodies = Vec::new();
        for threads in [1usize, 2, 4] {
            let opts = QueryOptions {
                threads,
                ..QueryOptions::default()
            };
            bodies.push(run_query(&files, &opts).expect("query runs").body);
        }
        assert_eq!(bodies[0], bodies[1]);
        assert_eq!(bodies[1], bodies[2]);
    }
}
