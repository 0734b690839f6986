//! Transfer records and the transfer-statistics log.
//!
//! Each RIR publishes daily transfer statistics; §3 of the paper works
//! from those feeds. Records carry the transferred block, the parties,
//! the source and destination RIR (equal for intra-RIR transfers), and
//! a kind. AFRINIC, ARIN and the RIPE NCC label merger/acquisition
//! transfers; APNIC and LACNIC do not — [`TransferLog::published`]
//! reproduces that information loss so downstream analyses must cope
//! with it exactly as the paper does.

use crate::org::OrgId;
use crate::rir::Rir;
use nettypes::date::Date;
use nettypes::prefix::Prefix;
use serde::{Deserialize, Serialize};

/// Why a transfer happened.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum TransferKind {
    /// A market (policy) transfer between unrelated LIRs.
    Market,
    /// Consolidation following a merger or acquisition.
    MergerAcquisition,
}

/// A single IPv4 transfer record in the shape of the RIR feeds.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transfer {
    /// Completion date.
    pub date: Date,
    /// The transferred block.
    pub prefix: Prefix,
    /// Selling organization.
    pub from_org: OrgId,
    /// Buying organization.
    pub to_org: OrgId,
    /// RIR the block belonged to before the transfer.
    pub source_rir: Rir,
    /// RIR maintaining the block after the transfer.
    pub dest_rir: Rir,
    /// Market or M&A. `None` models feeds that do not label the kind
    /// (APNIC, LACNIC) after publication filtering.
    pub kind: Option<TransferKind>,
}

impl Transfer {
    /// Whether this crosses RIR boundaries.
    pub fn is_inter_rir(&self) -> bool {
        self.source_rir != self.dest_rir
    }

    /// Number of transferred addresses.
    pub fn num_addresses(&self) -> u64 {
        self.prefix.num_addresses()
    }
}

impl serde_json::ToJson for Transfer {
    fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "transfer_date": self.date.to_string(),
            "prefix": self.prefix.to_string(),
            "from_org": self.from_org.0,
            "to_org": self.to_org.0,
            "source_rir": self.source_rir.label(),
            "dest_rir": self.dest_rir.label(),
            "type": self.kind.map(|k| match k {
                TransferKind::Market => "market",
                TransferKind::MergerAcquisition => "merger_acquisition",
            }),
        })
    }
}

impl serde_json::FromJson for Transfer {
    fn from_json(v: &serde_json::Value) -> Result<Self, serde_json::Error> {
        let field = |name: &str| -> Result<&str, serde_json::Error> {
            v[name]
                .as_str()
                .ok_or_else(|| serde_json::Error::msg(format!("missing field {name}")))
        };
        let org = |name: &str| -> Result<OrgId, serde_json::Error> {
            v[name]
                .as_i64()
                .map(|n| OrgId(n as u32))
                .ok_or_else(|| serde_json::Error::msg(format!("missing field {name}")))
        };
        let kind = match v["type"].as_str() {
            None => None,
            Some("market") => Some(TransferKind::Market),
            Some("merger_acquisition") => Some(TransferKind::MergerAcquisition),
            Some(other) => {
                return Err(serde_json::Error::msg(format!(
                    "unknown transfer type {other:?}"
                )))
            }
        };
        Ok(Transfer {
            date: field("transfer_date")?
                .parse::<Date>()
                .map_err(|e| serde_json::Error::msg(e.to_string()))?,
            prefix: field("prefix")?
                .parse::<Prefix>()
                .map_err(|e| serde_json::Error::msg(e.to_string()))?,
            from_org: org("from_org")?,
            to_org: org("to_org")?,
            source_rir: field("source_rir")?
                .parse::<Rir>()
                .map_err(|e| serde_json::Error::msg(e.to_string()))?,
            dest_rir: field("dest_rir")?
                .parse::<Rir>()
                .map_err(|e| serde_json::Error::msg(e.to_string()))?,
            kind,
        })
    }
}

/// The inter-RIR transfer policy: transfers can only take place between
/// APNIC, ARIN and the RIPE NCC, which agreed on common policies (§3).
#[derive(Clone, Copy, Debug, Default)]
pub struct InterRirPolicy;

impl InterRirPolicy {
    /// Whether a transfer from `src` to `dst` is permitted.
    pub fn allows(&self, src: Rir, dst: Rir) -> bool {
        if src == dst {
            return true;
        }
        Rir::MARKET_RIRS.contains(&src) && Rir::MARKET_RIRS.contains(&dst)
    }
}

/// An append-only log of transfers with query and export helpers.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TransferLog {
    records: Vec<Transfer>,
}

impl TransferLog {
    /// Empty log.
    pub fn new() -> Self {
        TransferLog::default()
    }

    /// A log over an existing record vector (e.g. a per-RIR slice of
    /// a bigger log, about to become a published feed).
    pub fn from_records(records: Vec<Transfer>) -> Self {
        TransferLog { records }
    }

    /// Append a record (records need not arrive date-sorted).
    pub fn push(&mut self, t: Transfer) {
        self.records.push(t);
    }

    /// All records.
    pub fn records(&self) -> &[Transfer] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The *published* view of the log: what the RIR transfer feeds
    /// disclose. For RIRs that do not label M&A transfers the `kind`
    /// field is erased; nothing else changes.
    pub fn published(&self) -> TransferLog {
        let records = self
            .records
            .iter()
            .cloned()
            .map(|mut t| {
                if !t.dest_rir.labels_mna_transfers() {
                    t.kind = None;
                }
                t
            })
            .collect();
        TransferLog { records }
    }

    /// Remove M&A transfers where the label allows it — the paper's
    /// preprocessing step. Unlabelled records are kept (the paper
    /// declines to apply the Giotsas et al. heuristics).
    pub fn without_labelled_mna(&self) -> TransferLog {
        let records = self
            .records
            .iter()
            .filter(|t| t.kind != Some(TransferKind::MergerAcquisition))
            .cloned()
            .collect();
        TransferLog { records }
    }

    /// Records whose destination region matches `rir`.
    pub fn for_region(&self, rir: Rir) -> impl Iterator<Item = &Transfer> {
        self.records.iter().filter(move |t| t.dest_rir == rir)
    }

    /// Records within `[from, to]` inclusive.
    pub fn between(&self, from: Date, to: Date) -> impl Iterator<Item = &Transfer> {
        self.records
            .iter()
            .filter(move |t| t.date >= from && t.date <= to)
    }

    /// Only inter-RIR transfers.
    pub fn inter_rir(&self) -> impl Iterator<Item = &Transfer> {
        self.records.iter().filter(|t| t.is_inter_rir())
    }

    /// Serialize in the RIR transfer-feed JSON shape
    /// (`{"transfers": [...]}`).
    pub fn to_feed_json(&self) -> serde_json::Value {
        serde_json::json!({ "transfers": self.records })
    }

    /// Parse a feed produced by [`TransferLog::to_feed_json`].
    pub fn from_feed_json(v: &serde_json::Value) -> Result<Self, serde_json::Error> {
        let records: Vec<Transfer> = serde_json::from_value(v["transfers"].clone())?;
        Ok(TransferLog { records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettypes::date::date;
    use nettypes::prefix::pfx;

    fn t(d: &str, p: &str, src: Rir, dst: Rir, kind: Option<TransferKind>) -> Transfer {
        Transfer {
            date: date(d),
            prefix: pfx(p),
            from_org: OrgId(1),
            to_org: OrgId(2),
            source_rir: src,
            dest_rir: dst,
            kind,
        }
    }

    #[test]
    fn inter_rir_policy_matrix() {
        let p = InterRirPolicy;
        assert!(p.allows(Rir::Arin, Rir::RipeNcc));
        assert!(p.allows(Rir::Arin, Rir::Apnic));
        assert!(p.allows(Rir::RipeNcc, Rir::Apnic));
        assert!(!p.allows(Rir::Arin, Rir::Afrinic));
        assert!(!p.allows(Rir::Lacnic, Rir::RipeNcc));
        // Intra-RIR always allowed, even outside the big three.
        assert!(p.allows(Rir::Lacnic, Rir::Lacnic));
    }

    #[test]
    fn published_erases_unlabelled_kinds() {
        let mut log = TransferLog::new();
        log.push(t(
            "2020-01-01",
            "1.0.0.0/24",
            Rir::Apnic,
            Rir::Apnic,
            Some(TransferKind::MergerAcquisition),
        ));
        log.push(t(
            "2020-01-02",
            "2.0.0.0/24",
            Rir::RipeNcc,
            Rir::RipeNcc,
            Some(TransferKind::MergerAcquisition),
        ));
        let pubd = log.published();
        assert_eq!(pubd.records()[0].kind, None); // APNIC does not label
        assert_eq!(
            pubd.records()[1].kind,
            Some(TransferKind::MergerAcquisition) // RIPE labels
        );
        // M&A filtering then removes only the labelled one.
        let filtered = pubd.without_labelled_mna();
        assert_eq!(filtered.len(), 1);
        assert_eq!(filtered.records()[0].dest_rir, Rir::Apnic);
    }

    #[test]
    fn queries() {
        let mut log = TransferLog::new();
        log.push(t(
            "2019-01-01",
            "1.0.0.0/24",
            Rir::Arin,
            Rir::RipeNcc,
            Some(TransferKind::Market),
        ));
        log.push(t(
            "2019-06-01",
            "2.0.0.0/22",
            Rir::Arin,
            Rir::Arin,
            Some(TransferKind::Market),
        ));
        log.push(t("2020-01-01", "3.0.0.0/23", Rir::Apnic, Rir::Apnic, None));
        assert_eq!(log.inter_rir().count(), 1);
        assert_eq!(log.for_region(Rir::Arin).count(), 1);
        assert_eq!(
            log.between(date("2019-01-01"), date("2019-12-31")).count(),
            2
        );
        assert_eq!(log.records()[1].num_addresses(), 1024);
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        use serde_json::{FromJson, ToJson};
        let complete = t(
            "2020-01-01",
            "1.0.0.0/24",
            Rir::Arin,
            Rir::RipeNcc,
            Some(TransferKind::Market),
        );
        // Sanity: the full record round-trips.
        assert_eq!(Transfer::from_json(&complete.to_json()).unwrap(), complete);
        // Dropping any required field is an explicit error naming it.
        for field in [
            "transfer_date",
            "prefix",
            "from_org",
            "to_org",
            "source_rir",
            "dest_rir",
        ] {
            let mut v = complete.to_json();
            if let serde_json::Value::Object(map) = &mut v {
                map.remove(field);
            }
            let err = Transfer::from_json(&v).unwrap_err();
            assert!(
                err.to_string().contains(field),
                "error for missing {field} was {err}"
            );
        }
        // `type` is the one optional field: absent means unlabelled.
        let mut v = complete.to_json();
        if let serde_json::Value::Object(map) = &mut v {
            map.remove("type");
        }
        assert_eq!(Transfer::from_json(&v).unwrap().kind, None);
    }

    #[test]
    fn from_json_rejects_bad_org_handles() {
        use serde_json::{FromJson, ToJson};
        let good = t("2020-01-01", "1.0.0.0/24", Rir::Arin, Rir::Arin, None);
        // Org handles are numeric in the feeds; a string (or any
        // non-integer) must not silently become org 0.
        for bad in [
            serde_json::json!("ORG-EXAMPLE-1"),
            serde_json::json!(true),
            serde_json::Value::Null,
        ] {
            let mut v = good.to_json();
            if let serde_json::Value::Object(map) = &mut v {
                map.insert("from_org".into(), bad.clone());
            }
            assert!(
                Transfer::from_json(&v).is_err(),
                "accepted from_org {bad:?}"
            );
        }
    }

    #[test]
    fn from_json_rejects_bad_dates_prefixes_rirs_and_kinds() {
        use serde_json::{FromJson, ToJson};
        let good = t("2020-01-01", "1.0.0.0/24", Rir::Arin, Rir::Arin, None);
        let mutate = |field: &str, value: serde_json::Value| {
            let mut v = good.to_json();
            if let serde_json::Value::Object(map) = &mut v {
                map.insert(field.into(), value);
            }
            Transfer::from_json(&v)
        };
        // Calendar-invalid and syntactically broken dates.
        assert!(mutate("transfer_date", serde_json::json!("2020-13-01")).is_err());
        assert!(mutate("transfer_date", serde_json::json!("2020-02-30")).is_err());
        assert!(mutate("transfer_date", serde_json::json!("yesterday")).is_err());
        // Broken prefixes.
        assert!(mutate("prefix", serde_json::json!("1.0.0.0")).is_err());
        assert!(mutate("prefix", serde_json::json!("1.0.0.0/33")).is_err());
        assert!(mutate("prefix", serde_json::json!("bananas/24")).is_err());
        // Unknown registry labels and transfer kinds.
        assert!(mutate("source_rir", serde_json::json!("internic")).is_err());
        assert!(mutate("type", serde_json::json!("gift")).is_err());
    }

    #[test]
    fn feed_json_roundtrip() {
        let mut log = TransferLog::new();
        log.push(t(
            "2020-01-01",
            "1.0.0.0/24",
            Rir::Arin,
            Rir::RipeNcc,
            Some(TransferKind::Market),
        ));
        log.push(t("2020-02-01", "9.0.0.0/16", Rir::Apnic, Rir::Apnic, None));
        let v = log.to_feed_json();
        let back = TransferLog::from_feed_json(&v).unwrap();
        assert_eq!(back.records(), log.records());
    }
}
