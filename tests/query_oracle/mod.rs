//! The owned query scan, kept as a test oracle for the borrowed engine
//! in `bgpsim::query`.
//!
//! It does everything the engine avoids: each file is decoded whole
//! into owned records (`mrt_oracle::decode_file`, or
//! `decode_file_lossy` in lossy mode), each RIB entry's attributes into
//! owned
//! `PathAttribute`s, each element into an owned struct with its own
//! path vector (cloned per NLRI), and each row is formatted through
//! `Display` and `write!`. Files are scanned one by one, in order.
//! Filter semantics are restated here from `Filter`'s public clauses,
//! so a shortcut in the engine's clause evaluation shows up as a row
//! or count difference.

use crate::mrt_oracle::{
    self, AsPathSegment, BgpMessage, MrtRecord, PathAttribute, TimestampedRecord,
};
use bgpsim::mrt2::LossyStats;
use bgpsim::query::{
    ElemKind, Filter, OutputFormat, PrefixMatch, QueryError, QueryFile, QueryOptions, QueryOutput,
    QueryStats, CSV_HEADER,
};
use nettypes::asn::{Asn, Origin};
use nettypes::date::Date;
use nettypes::prefix::Prefix;
use std::fmt::Write as _;

/// One owned element.
struct Elem {
    day: Date,
    kind: ElemKind,
    prefix: Prefix,
    origin: Option<Origin>,
    peer: Option<Asn>,
    path: Vec<Asn>,
}

fn matches(f: &Filter, e: &Elem) -> bool {
    let prefix_ok = match &f.prefix {
        None => true,
        Some(PrefixMatch::Exact(q)) => e.prefix == *q,
        Some(PrefixMatch::SubnetOf(q)) => q.covers(&e.prefix),
        Some(PrefixMatch::SupernetOf(q)) => e.prefix.covers(q),
    };
    let origin_ok = match (&f.origins, &e.origin) {
        (None, _) => true,
        (Some(want), Some(Origin::Single(a))) => want.contains(a),
        (Some(want), Some(Origin::Set(set))) => set.iter().any(|a| want.contains(a)),
        (Some(_), None) => false,
    };
    prefix_ok
        && origin_ok
        && f.peer.is_none_or(|p| e.peer == Some(p))
        && f.day_in_range(e.day)
        && f.path.as_ref().is_none_or(|pat| pat.matches(&e.path))
        && f.kinds.as_ref().is_none_or(|k| k.contains(&e.kind))
}

/// Origin and flattened path of the first AS_PATH attribute.
fn origin_and_path(attrs: &[PathAttribute]) -> (Option<Origin>, Vec<Asn>) {
    for a in attrs {
        if let PathAttribute::AsPath(segs) = a {
            let mut path = Vec::new();
            for s in segs {
                match s {
                    AsPathSegment::Sequence(v) | AsPathSegment::Set(v) => path.extend_from_slice(v),
                }
            }
            let origin = match segs.last() {
                Some(AsPathSegment::Sequence(v)) => v.last().copied().map(Origin::Single),
                Some(AsPathSegment::Set(v)) => Some(Origin::Set(v.clone())),
                None => None,
            };
            return (origin, path);
        }
    }
    (None, Vec::new())
}

fn write_asns(out: &mut String, asns: &[Asn], sep: char) {
    for (i, a) in asns.iter().enumerate() {
        if i > 0 {
            out.push(sep);
        }
        let _ = write!(out, "{}", a.0);
    }
}

fn write_row(out: &mut String, format: OutputFormat, e: &Elem) {
    let origin: Option<&[Asn]> = match &e.origin {
        None => None,
        Some(Origin::Single(a)) => Some(std::slice::from_ref(a)),
        Some(Origin::Set(set)) => Some(set),
    };
    match format {
        OutputFormat::Csv => {
            let _ = write!(out, "{},{},{},", e.day, e.kind, e.prefix);
            if let Some(o) = origin {
                write_asns(out, o, '|');
            }
            out.push(',');
            if let Some(p) = e.peer {
                let _ = write!(out, "{}", p.0);
            }
            out.push(',');
            write_asns(out, &e.path, ' ');
            out.push('\n');
        }
        OutputFormat::Jsonl => {
            let _ = write!(
                out,
                "{{\"day\":\"{}\",\"kind\":\"{}\",\"prefix\":\"{}\",\"origin\":",
                e.day, e.kind, e.prefix
            );
            match origin {
                None => out.push_str("null"),
                Some(o) => {
                    out.push('[');
                    write_asns(out, o, ',');
                    out.push(']');
                }
            }
            out.push_str(",\"peer\":");
            match e.peer {
                None => out.push_str("null"),
                Some(p) => {
                    let _ = write!(out, "{}", p.0);
                }
            }
            out.push_str(",\"path\":[");
            write_asns(out, &e.path, ',');
            out.push_str("]}\n");
        }
    }
}

#[derive(Default)]
struct Scan {
    rows: String,
    nrows: usize,
    elems: usize,
    lossy: LossyStats,
}

fn decode_error(day: Date, detail: impl std::fmt::Display) -> QueryError {
    QueryError::Decode {
        day,
        detail: detail.to_string(),
    }
}

fn scan_records(
    file: &QueryFile,
    records: &[TimestampedRecord],
    opts: &QueryOptions,
    scan: &mut Scan,
) -> Result<(), QueryError> {
    let emit = |scan: &mut Scan, e: Elem| {
        scan.elems += 1;
        if matches(&opts.filter, &e) {
            write_row(&mut scan.rows, opts.format, &e);
            scan.nrows += 1;
        }
    };
    let mut peers: Vec<Asn> = Vec::new();
    for rec in records {
        match &rec.record {
            MrtRecord::PeerIndexTable(t) => peers = t.peers.iter().map(|p| p.asn).collect(),
            MrtRecord::RibIpv4Unicast(r) => {
                for entry in &r.entries {
                    let attrs = match mrt_oracle::decode_attributes(&entry.attributes) {
                        Ok(a) => a,
                        Err(_) if opts.lossy => {
                            scan.lossy.skipped_bgp += 1;
                            continue;
                        }
                        Err(e) => return Err(decode_error(file.day, e)),
                    };
                    let (origin, path) = origin_and_path(&attrs);
                    let elem = Elem {
                        day: file.day,
                        kind: ElemKind::Rib,
                        prefix: r.prefix,
                        origin,
                        peer: peers.get(usize::from(entry.peer_index)).copied(),
                        path,
                    };
                    emit(scan, elem);
                }
            }
            MrtRecord::Bgp4mpMessage(m) => {
                let BgpMessage::Update(u) = &m.message else {
                    continue;
                };
                let (origin, path) = origin_and_path(&u.attributes);
                for prefix in &u.withdrawn {
                    let elem = Elem {
                        day: file.day,
                        kind: ElemKind::Withdraw,
                        prefix: *prefix,
                        origin: None,
                        peer: Some(m.peer_as),
                        path: Vec::new(),
                    };
                    emit(scan, elem);
                }
                for prefix in &u.nlri {
                    let elem = Elem {
                        day: file.day,
                        kind: ElemKind::Announce,
                        prefix: *prefix,
                        origin: origin.clone(),
                        peer: Some(m.peer_as),
                        path: path.clone(),
                    };
                    emit(scan, elem);
                }
            }
            MrtRecord::Unknown { .. } => {}
        }
    }
    Ok(())
}

fn scan_file(file: &QueryFile, opts: &QueryOptions) -> Result<Scan, QueryError> {
    let mut scan = Scan::default();
    if opts.lossy {
        let (records, stats) = mrt_oracle::decode_file_lossy(&file.bytes);
        scan_records(file, &records, opts, &mut scan)?;
        scan.lossy.merge(&stats);
    } else {
        let records =
            mrt_oracle::decode_file(&file.bytes).map_err(|e| decode_error(file.day, e))?;
        scan_records(file, &records, opts, &mut scan)?;
    }
    Ok(scan)
}

/// `bgpsim::query::run_query`, the owned way (`opts.threads` is
/// ignored: files are scanned in order on the calling thread).
pub fn run_query(files: &[QueryFile], opts: &QueryOptions) -> Result<QueryOutput, QueryError> {
    let kept: Vec<&QueryFile> = files
        .iter()
        .filter(|f| opts.filter.day_in_range(f.day))
        .collect();
    let mut stats = QueryStats {
        files_pruned: files.len() - kept.len(),
        ..QueryStats::default()
    };
    let mut body = String::new();
    if opts.format == OutputFormat::Csv {
        body.push_str(CSV_HEADER);
    }
    let budget = opts.limit.unwrap_or(usize::MAX);
    for file in kept {
        let scan = scan_file(file, opts)?;
        stats.files_scanned += 1;
        stats.elems_scanned += scan.elems;
        stats.rows_matched += scan.nrows;
        stats.lossy.merge(&scan.lossy);
        let room = budget - stats.rows_emitted;
        for line in scan.rows.split_inclusive('\n').take(room) {
            body.push_str(line);
            stats.rows_emitted += 1;
        }
    }
    Ok(QueryOutput { body, stats })
}
