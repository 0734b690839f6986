//! The RDAP query service.
//!
//! Models the operational interface the paper queries: RFC 7483 JSON
//! responses carrying `handle`, `parentHandle` and entity roles — and
//! the constraints that shape the measurement methodology:
//!
//! * **no wildcard or range queries** — you must already know which
//!   ranges to ask about (hence the WHOIS snapshot as input space),
//! * **rate limiting** — clients that exceed the per-window budget get
//!   `429 Too Many Requests` and must back off.

use crate::database::WhoisDb;
use crate::inetnum::Inetnum;
use nettypes::range::IpRange;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// An RDAP lookup error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdapError {
    /// No object matches the queried range (HTTP 404).
    NotFound,
    /// The client exceeded the rate limit (HTTP 429); retry after the
    /// window resets.
    RateLimited,
}

impl std::fmt::Display for RdapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RdapError::NotFound => write!(f, "404 object not found"),
            RdapError::RateLimited => write!(f, "429 too many requests"),
        }
    }
}

impl std::error::Error for RdapError {}

/// An RFC 7483-shaped `ip network` response (the fields the pipeline
/// uses).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RdapResponse {
    /// Object class name, always `"ip network"`.
    #[serde(rename = "objectClassName")]
    pub object_class_name: String,
    /// RIR-unique handle of the queried network.
    pub handle: String,
    /// Handle of the covering (parent) network, if any.
    #[serde(rename = "parentHandle", skip_serializing_if = "Option::is_none")]
    pub parent_handle: Option<String>,
    /// Start address (dotted quad).
    #[serde(rename = "startAddress")]
    pub start_address: String,
    /// End address (dotted quad).
    #[serde(rename = "endAddress")]
    pub end_address: String,
    /// The `netname`.
    pub name: String,
    /// Database status keyword.
    pub status: String,
    /// Registrant organization handle.
    pub org: String,
    /// Administrative contact handle.
    pub admin_c: String,
}

impl RdapResponse {
    fn from_object(obj: &Inetnum, parent: Option<&Inetnum>) -> RdapResponse {
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
}

impl serde_json::ToJson for RdapResponse {
    fn to_json(&self) -> serde_json::Value {
        let mut v = serde_json::json!({
            "objectClassName": self.object_class_name,
            "handle": self.handle,
            "startAddress": self.start_address,
            "endAddress": self.end_address,
            "name": self.name,
            "status": self.status,
            "org": self.org,
            "admin_c": self.admin_c,
        });
        // parentHandle is skipped entirely when absent (RFC 7483 feeds
        // omit it rather than sending null).
        if let (serde_json::Value::Object(map), Some(parent)) = (&mut v, &self.parent_handle) {
            map.insert("parentHandle".into(), serde_json::json!(parent.as_str()));
        }
        v
    }
}

impl serde_json::FromJson for RdapResponse {
    fn from_json(v: &serde_json::Value) -> Result<Self, serde_json::Error> {
        let field = |name: &str| -> Result<String, serde_json::Error> {
            v[name]
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| serde_json::Error::msg(format!("missing field {name}")))
        };
        Ok(RdapResponse {
            object_class_name: field("objectClassName")?,
            handle: field("handle")?,
            parent_handle: v["parentHandle"].as_str().map(str::to_string),
            start_address: field("startAddress")?,
            end_address: field("endAddress")?,
            name: field("name")?,
            status: field("status")?,
            org: field("org")?,
            admin_c: field("admin_c")?,
        })
    }
}

/// The RDAP service wrapping a WHOIS database.
///
/// The service is `Send + Sync`: the query and rate-limit counters are
/// atomics, so one instance can be shared by every worker of a serving
/// layer (see the `drywells-serve` crate). The per-window budget is
/// enforced exactly — concurrent queries can never over-admit past the
/// budget, and `total_queries` never loses increments.
pub struct RdapServer {
    db: WhoisDb,
    /// Maximum queries per window; `None` disables limiting.
    budget_per_window: Option<u64>,
    used_in_window: AtomicU64,
    total_queries: AtomicU64,
}

impl RdapServer {
    /// Serve `db` without rate limiting.
    pub fn new(db: WhoisDb) -> Self {
        RdapServer {
            db,
            budget_per_window: None,
            used_in_window: AtomicU64::new(0),
            total_queries: AtomicU64::new(0),
        }
    }

    /// Serve `db` allowing at most `budget` queries per window.
    pub fn with_rate_limit(db: WhoisDb, budget: u64) -> Self {
        RdapServer {
            db,
            budget_per_window: Some(budget),
            used_in_window: AtomicU64::new(0),
            total_queries: AtomicU64::new(0),
        }
    }

    /// Reset the rate-limit window (a new day, in the pipeline's
    /// pacing terms).
    pub fn reset_window(&self) {
        self.used_in_window.store(0, Ordering::Relaxed);
    }

    /// Total queries answered or rejected since construction.
    pub fn total_queries(&self) -> u64 {
        self.total_queries.load(Ordering::Relaxed)
    }

    /// Charge one query against the window budget. The
    /// compare-exchange loop admits exactly `budget` queries per
    /// window even under contention.
    fn admit(&self) -> Result<(), RdapError> {
        let Some(budget) = self.budget_per_window else {
            return Ok(());
        };
        self.used_in_window
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                (used < budget).then_some(used + 1)
            })
            .map(|_| ())
            .map_err(|used| {
                obs::metrics::counter("rdap_rejected_total").inc();
                obs::event!(
                    obs::Level::Warn,
                    "rdap_rejected",
                    used = used,
                    budget = budget
                );
                RdapError::RateLimited
            })
    }

    /// Look up the network exactly covering `range`.
    ///
    /// This mirrors `GET /ip/<start>-<end>`: only exact objects are
    /// returned; there are no wildcard queries.
    pub fn query(&self, range: IpRange) -> Result<RdapResponse, RdapError> {
        self.total_queries.fetch_add(1, Ordering::Relaxed);
        self.admit()?;
        let obj = self.db.exact(range).ok_or(RdapError::NotFound)?;
        let parent = self.db.parent_of(range);
        Ok(RdapResponse::from_object(obj, parent))
    }

    /// Look up the smallest network containing a single address —
    /// the semantics of `GET /rdap/ip/{addr}` in the deployed RDAP
    /// services (the returned object's parent becomes `parentHandle`).
    pub fn query_ip(&self, addr: u32) -> Result<RdapResponse, RdapError> {
        self.total_queries.fetch_add(1, Ordering::Relaxed);
        self.admit()?;
        let obj = self
            .db
            .smallest_containing_address(addr)
            .ok_or(RdapError::NotFound)?;
        let parent = self.db.parent_of(obj.range);
        Ok(RdapResponse::from_object(obj, parent))
    }

    /// The wrapped database (test/diagnostic access).
    pub fn db(&self) -> &WhoisDb {
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inetnum::InetnumStatus;
    use nettypes::date::date;

    fn db() -> WhoisDb {
        let mk = |r: &str, status, org: &str, name: &str| Inetnum {
            range: r.parse().unwrap(),
            netname: name.into(),
            status,
            org: org.into(),
            admin_c: format!("AC-{org}"),
            created: date("2018-01-01"),
        };
        [
            mk(
                "10.0.0.0 - 10.0.255.255",
                InetnumStatus::AllocatedPa,
                "LIR1",
                "ALLOC",
            ),
            mk(
                "10.0.1.0 - 10.0.1.255",
                InetnumStatus::AssignedPa,
                "CUST1",
                "LEASE",
            ),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn query_returns_parent_handle() {
        let server = RdapServer::new(db());
        let child: IpRange = "10.0.1.0 - 10.0.1.255".parse().unwrap();
        let resp = server.query(child).unwrap();
        assert_eq!(resp.object_class_name, "ip network");
        assert_eq!(resp.name, "LEASE");
        let parent: IpRange = "10.0.0.0 - 10.0.255.255".parse().unwrap();
        let parent_resp = server.query(parent).unwrap();
        assert_eq!(resp.parent_handle, Some(parent_resp.handle.clone()));
        assert_eq!(parent_resp.parent_handle, None);
    }

    #[test]
    fn unknown_range_is_not_found() {
        let server = RdapServer::new(db());
        let r: IpRange = "192.0.2.0 - 192.0.2.255".parse().unwrap();
        assert_eq!(server.query(r), Err(RdapError::NotFound));
    }

    #[test]
    fn rate_limit_enforced_and_resets() {
        let server = RdapServer::with_rate_limit(db(), 2);
        let r: IpRange = "10.0.1.0 - 10.0.1.255".parse().unwrap();
        assert!(server.query(r).is_ok());
        assert!(server.query(r).is_ok());
        assert_eq!(server.query(r), Err(RdapError::RateLimited));
        server.reset_window();
        assert!(server.query(r).is_ok());
        assert_eq!(server.total_queries(), 4);
    }

    #[test]
    fn query_ip_returns_smallest_enclosing() {
        let server = RdapServer::new(db());
        let resp = server.query_ip(nettypes::parse_ipv4("10.0.1.77").unwrap());
        let resp = resp.unwrap();
        assert_eq!(resp.name, "LEASE");
        assert!(resp.parent_handle.is_some());
        // An address only the allocation covers.
        let resp = server
            .query_ip(nettypes::parse_ipv4("10.0.9.1").unwrap())
            .unwrap();
        assert_eq!(resp.name, "ALLOC");
        assert_eq!(resp.parent_handle, None);
        // An address outside every object.
        let miss = server.query_ip(nettypes::parse_ipv4("192.0.2.1").unwrap());
        assert_eq!(miss, Err(RdapError::NotFound));
    }

    #[test]
    fn concurrent_budget_is_exact() {
        // N threads hammer one shared service; the window budget must
        // admit exactly `budget` queries and `total_queries` must not
        // lose a single increment.
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 50;
        const BUDGET: u64 = 100;
        let server = RdapServer::with_rate_limit(db(), BUDGET);
        let r: IpRange = "10.0.1.0 - 10.0.1.255".parse().unwrap();
        let admitted: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| (0..PER_THREAD).filter(|_| server.query(r).is_ok()).count() as u64)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(admitted, BUDGET);
        assert_eq!(server.total_queries(), THREADS * PER_THREAD);
    }

    #[test]
    fn server_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RdapServer>();
    }

    #[test]
    fn json_shape() {
        let server = RdapServer::new(db());
        let r: IpRange = "10.0.1.0 - 10.0.1.255".parse().unwrap();
        let resp = server.query(r).unwrap();
        let json = serde_json::to_string_pretty(&resp).unwrap();
        assert!(json.contains("\"objectClassName\": \"ip network\""));
        assert!(json.contains("\"parentHandle\""));
        assert!(json.contains("\"startAddress\": \"10.0.1.0\""));
        // And it parses back.
        let back: RdapResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back, resp);
    }
}
