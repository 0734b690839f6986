//! The classic WHOIS text query protocol (RIPE flavour).
//!
//! RDAP is the designated successor (§4), but the ecosystem the paper
//! measures still runs on WHOIS: single-IP lookups return the smallest
//! enclosing `inetnum`, and the RIPE server supports hierarchy flags:
//!
//! * `-L` — all less-specific objects (the delegation chain upwards),
//! * `-m` — one level of more-specific objects,
//! * `-M` — all more-specific objects,
//! * `-x` — only an exact range match.
//!
//! Responses are rendered in the same paragraph format as the
//! database dumps, prefixed with `%`-comment headers, exactly like a
//! port-43 conversation.

use crate::database::WhoisDb;
use crate::inetnum::Inetnum;
use crate::snapshot::to_split_file;
use nettypes::range::IpRange;

/// A parsed WHOIS query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WhoisQuery {
    /// Return all less-specific objects (`-L`).
    pub less_specific_all: bool,
    /// Return one level of more-specific objects (`-m`).
    pub more_specific_one: bool,
    /// Return all more-specific objects (`-M`).
    pub more_specific_all: bool,
    /// Exact match only (`-x`).
    pub exact_only: bool,
    /// The queried object: a single IP or a range.
    pub target: QueryTarget,
}

/// What the query asks about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryTarget {
    /// A single address (classic lookup).
    Address(u32),
    /// An explicit range.
    Range(IpRange),
}

/// Query parse errors (reported as `%ERROR:` lines by the server).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// Unknown flag.
    UnknownFlag(String),
    /// Missing or unparseable target.
    BadTarget(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::UnknownFlag(s) => write!(f, "unknown flag {s:?}"),
            QueryError::BadTarget(s) => write!(f, "cannot parse query target {s:?}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl WhoisQuery {
    /// Parse a query line, e.g. `-L 193.0.0.0 - 193.0.0.255` or
    /// `193.0.0.1`.
    pub fn parse(line: &str) -> Result<WhoisQuery, QueryError> {
        let mut q = WhoisQuery {
            less_specific_all: false,
            more_specific_one: false,
            more_specific_all: false,
            exact_only: false,
            target: QueryTarget::Address(0),
        };
        let mut rest: Vec<&str> = Vec::new();
        for tok in line.split_whitespace() {
            match tok {
                "-L" => q.less_specific_all = true,
                "-m" => q.more_specific_one = true,
                "-M" => q.more_specific_all = true,
                "-x" => q.exact_only = true,
                t if t.starts_with('-') && rest.is_empty() => {
                    return Err(QueryError::UnknownFlag(t.to_string()))
                }
                t => rest.push(t),
            }
        }
        let target_str = rest.join(" ");
        if target_str.is_empty() {
            return Err(QueryError::BadTarget(String::new()));
        }
        q.target = if target_str.contains('-') {
            QueryTarget::Range(
                target_str
                    .parse()
                    .map_err(|_| QueryError::BadTarget(target_str.clone()))?,
            )
        } else if let Some((net, len)) = target_str.split_once('/') {
            // CIDR notation is accepted and converted to a range.
            let prefix: nettypes::prefix::Prefix = format!("{net}/{len}")
                .parse()
                .map_err(|_| QueryError::BadTarget(target_str.clone()))?;
            QueryTarget::Range(IpRange::from_prefix(prefix))
        } else {
            QueryTarget::Address(
                nettypes::parse_ipv4(&target_str)
                    .map_err(|_| QueryError::BadTarget(target_str.clone()))?,
            )
        };
        Ok(q)
    }
}

/// The WHOIS query service over a database snapshot.
pub struct WhoisServer<'a> {
    db: &'a WhoisDb,
}

impl<'a> WhoisServer<'a> {
    /// Serve queries against `db`.
    pub fn new(db: &'a WhoisDb) -> Self {
        WhoisServer { db }
    }

    /// The primary object for a target: exact range match, or the
    /// smallest enclosing object.
    fn primary(&self, target: QueryTarget) -> Option<&'a Inetnum> {
        match target {
            QueryTarget::Range(r) => self.db.smallest_containing(r),
            QueryTarget::Address(a) => self.db.smallest_containing_address(a),
        }
    }

    /// Answer a query line with a port-43-style text response.
    pub fn handle(&self, line: &str) -> String {
        let query = match WhoisQuery::parse(line) {
            Ok(q) => q,
            Err(e) => return format!("%ERROR:108: bad query\n% {e}\n"),
        };
        let mut results: Vec<Inetnum> = Vec::new();

        let primary = self.primary(query.target);
        if query.exact_only {
            if let QueryTarget::Range(r) = query.target {
                if let Some(o) = self.db.exact(r) {
                    results.push(o.clone());
                }
            }
        } else if let Some(p) = primary {
            results.push(p.clone());
        }

        if let Some(p) = primary {
            if query.less_specific_all {
                results.extend(self.db.less_specific(p.range).into_iter().cloned());
            }
            if query.more_specific_one || query.more_specific_all {
                let mut down: Vec<&Inetnum> = self.db.more_specific(p.range).collect();
                if query.more_specific_one {
                    // Keep only objects whose direct parent is `p`.
                    let all = down.clone();
                    down.retain(|o| {
                        !all.iter()
                            .any(|mid| mid.range != o.range && mid.range.contains_range(&o.range))
                    });
                }
                results.extend(down.into_iter().cloned());
            }
        }

        if results.is_empty() {
            return "%ERROR:101: no entries found\n".to_string();
        }
        let mut out = String::from("% This is a simulated RIPE-style WHOIS service.\n\n");
        out.push_str(&to_split_file(&results));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inetnum::InetnumStatus;
    use nettypes::date::date;

    fn db() -> WhoisDb {
        let mk = |r: &str, status, name: &str| Inetnum {
            range: r.parse().unwrap(),
            netname: name.into(),
            status,
            org: format!("ORG-{name}"),
            admin_c: format!("AC-{name}"),
            created: date("2018-01-01"),
        };
        [
            mk(
                "10.0.0.0 - 10.255.255.255",
                InetnumStatus::AllocatedPa,
                "TOP",
            ),
            mk(
                "10.0.0.0 - 10.0.255.255",
                InetnumStatus::SubAllocatedPa,
                "MID",
            ),
            mk("10.0.1.0 - 10.0.1.255", InetnumStatus::AssignedPa, "LEAF-A"),
            mk("10.0.2.0 - 10.0.2.255", InetnumStatus::AssignedPa, "LEAF-B"),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn single_ip_returns_smallest_enclosing() {
        let db = db();
        let server = WhoisServer::new(&db);
        let resp = server.handle("10.0.1.77");
        assert!(resp.contains("netname:        LEAF-A"), "{resp}");
        assert!(!resp.contains("LEAF-B"));
        assert!(!resp.contains("netname:        MID"));
        // An IP between assignments falls back to the covering object.
        let resp = server.handle("10.0.9.1");
        assert!(resp.contains("netname:        MID"));
        // Outside everything: error 101.
        let resp = server.handle("192.0.2.1");
        assert!(resp.starts_with("%ERROR:101"));
    }

    #[test]
    fn less_specific_flag_walks_up() {
        let db = db();
        let server = WhoisServer::new(&db);
        let resp = server.handle("-L 10.0.1.0 - 10.0.1.255");
        let leaf = resp.find("LEAF-A").expect("leaf present");
        let mid = resp.find("netname:        MID").expect("mid present");
        let top = resp.find("netname:        TOP").expect("top present");
        // Primary first, then ancestors from least specific... the RIPE
        // convention lists the exact match first.
        assert!(leaf < top && leaf < mid, "{resp}");
    }

    #[test]
    fn more_specific_flags() {
        let db = db();
        let server = WhoisServer::new(&db);
        // One level below TOP is MID only.
        let resp = server.handle("-m 10.0.0.0 - 10.255.255.255");
        assert!(resp.contains("MID"));
        assert!(!resp.contains("LEAF-A"), "{resp}");
        // All levels below TOP include the leaves.
        let resp = server.handle("-M 10.0.0.0 - 10.255.255.255");
        assert!(resp.contains("LEAF-A") && resp.contains("LEAF-B"));
    }

    #[test]
    fn exact_flag() {
        let db = db();
        let server = WhoisServer::new(&db);
        let hit = server.handle("-x 10.0.1.0 - 10.0.1.255");
        assert!(hit.contains("LEAF-A"));
        // A sub-range that matches nothing exactly: no entries.
        let miss = server.handle("-x 10.0.1.0 - 10.0.1.127");
        assert!(miss.starts_with("%ERROR:101"), "{miss}");
        // Without -x the same sub-range falls back to the enclosing leaf.
        let fallback = server.handle("10.0.1.0 - 10.0.1.127");
        assert!(fallback.contains("LEAF-A"));
    }

    #[test]
    fn cidr_notation_accepted() {
        let db = db();
        let server = WhoisServer::new(&db);
        let resp = server.handle("10.0.1.0/24");
        assert!(resp.contains("LEAF-A"));
    }

    #[test]
    fn bad_queries_report_errors() {
        let db = db();
        let server = WhoisServer::new(&db);
        assert!(server.handle("-Z 10.0.0.1").starts_with("%ERROR:108"));
        assert!(server.handle("").starts_with("%ERROR:108"));
        assert!(server.handle("not-an-ip").starts_with("%ERROR:108"));
        assert!(server
            .handle("10.0.0.0 - bananas")
            .starts_with("%ERROR:108"));
    }

    #[test]
    fn responses_parse_back_as_objects() {
        let db = db();
        let server = WhoisServer::new(&db);
        let resp = server.handle("-L 10.0.1.0 - 10.0.1.255");
        // Strip comment lines and reparse with the snapshot codec.
        let objs = crate::snapshot::parse_split_file(&resp).unwrap();
        assert_eq!(objs.len(), 3);
    }
}
