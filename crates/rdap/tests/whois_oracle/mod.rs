//! The linear scans `rdap::WhoisDb` answered with before it was
//! indexed, kept as a test oracle for the index.
//!
//! Every function walks all objects in insertion order. Where several
//! objects qualify, `find` and `min_by_key` keep the first one, and the
//! stable sorts keep insertion order among equal keys: these are the
//! tie-break rules the index must reproduce.

use nettypes::range::IpRange;
use rdap::inetnum::Inetnum;
use rdap::snapshot::to_split_file;
use rdap::whois::{QueryTarget, WhoisQuery};
use rdap::{RdapError, RdapResponse};
use std::cmp::Reverse;

/// The first object whose range is exactly `range`.
pub fn exact(objects: &[Inetnum], range: IpRange) -> Option<&Inetnum> {
    objects.iter().find(|o| o.range == range)
}

/// The smallest object strictly containing `range`.
pub fn parent_of(objects: &[Inetnum], range: IpRange) -> Option<&Inetnum> {
    objects
        .iter()
        .filter(|o| o.range.contains_range(&range) && o.range != range)
        .min_by_key(|o| o.num_addresses())
}

/// The smallest object containing `range`, itself included.
pub fn smallest_containing(objects: &[Inetnum], range: IpRange) -> Option<&Inetnum> {
    objects
        .iter()
        .filter(|o| o.range.contains_range(&range))
        .min_by_key(|o| o.num_addresses())
}

/// The smallest object containing the address `addr`.
pub fn smallest_containing_address(objects: &[Inetnum], addr: u32) -> Option<&Inetnum> {
    objects
        .iter()
        .filter(|o| o.range.contains_address(addr))
        .min_by_key(|o| o.num_addresses())
}

/// WHOIS `-L`: every object strictly containing `range`, largest first.
pub fn less_specific(objects: &[Inetnum], range: IpRange) -> Vec<&Inetnum> {
    let mut up: Vec<&Inetnum> = objects
        .iter()
        .filter(|o| o.range.contains_range(&range) && o.range != range)
        .collect();
    up.sort_by_key(|o| Reverse(o.num_addresses()));
    up
}

/// WHOIS `-M`: every object strictly inside `range`, by range.
pub fn more_specific(objects: &[Inetnum], range: IpRange) -> Vec<&Inetnum> {
    let mut down: Vec<&Inetnum> = objects
        .iter()
        .filter(|o| range.contains_range(&o.range) && o.range != range)
        .collect();
    down.sort_by_key(|o| o.range);
    down
}

/// WHOIS `-m`: the objects of `-M` with no other `-M` object around them.
pub fn more_specific_one(objects: &[Inetnum], range: IpRange) -> Vec<&Inetnum> {
    let all = more_specific(objects, range);
    all.iter()
        .copied()
        .filter(|o| {
            !all.iter()
                .any(|mid| mid.range != o.range && mid.range.contains_range(&o.range))
        })
        .collect()
}

fn response(obj: &Inetnum, parent: Option<&Inetnum>) -> RdapResponse {
    RdapResponse {
        object_class_name: "ip network".into(),
        handle: obj.handle(),
        parent_handle: parent.map(Inetnum::handle),
        start_address: nettypes::fmt_ipv4(obj.range.start()),
        end_address: nettypes::fmt_ipv4(obj.range.end()),
        name: obj.netname.clone(),
        status: obj.status.to_string(),
        org: obj.org.clone(),
        admin_c: obj.admin_c.clone(),
    }
}

/// `RdapServer::query` without a rate limit.
pub fn rdap_query(objects: &[Inetnum], range: IpRange) -> Result<RdapResponse, RdapError> {
    let obj = exact(objects, range).ok_or(RdapError::NotFound)?;
    Ok(response(obj, parent_of(objects, range)))
}

/// `RdapServer::query_ip` without a rate limit.
pub fn rdap_query_ip(objects: &[Inetnum], addr: u32) -> Result<RdapResponse, RdapError> {
    let obj = smallest_containing_address(objects, addr).ok_or(RdapError::NotFound)?;
    Ok(response(obj, parent_of(objects, obj.range)))
}

/// `WhoisServer::handle`: the port-43 text answer to one query line.
pub fn whois(objects: &[Inetnum], line: &str) -> String {
    let query = match WhoisQuery::parse(line) {
        Ok(q) => q,
        Err(e) => return format!("%ERROR:108: bad query\n% {e}\n"),
    };
    let primary = match query.target {
        QueryTarget::Range(r) => exact(objects, r).or_else(|| smallest_containing(objects, r)),
        QueryTarget::Address(a) => smallest_containing_address(objects, a),
    };
    let mut results: Vec<Inetnum> = Vec::new();
    if query.exact_only {
        if let QueryTarget::Range(r) = query.target {
            results.extend(exact(objects, r).cloned());
        }
    } else {
        results.extend(primary.cloned());
    }
    if let Some(p) = primary {
        if query.less_specific_all {
            results.extend(less_specific(objects, p.range).into_iter().cloned());
        }
        if query.more_specific_one {
            results.extend(more_specific_one(objects, p.range).into_iter().cloned());
        } else if query.more_specific_all {
            results.extend(more_specific(objects, p.range).into_iter().cloned());
        }
    }
    if results.is_empty() {
        return "%ERROR:101: no entries found\n".to_string();
    }
    let mut out = String::from("% This is a simulated RIPE-style WHOIS service.\n\n");
    out.push_str(&to_split_file(&results));
    out
}
