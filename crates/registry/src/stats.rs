//! Aggregations over transfer logs feeding Figures 2 and 3.

use crate::rir::Rir;
use crate::transfer::TransferLog;
use nettypes::date::Date;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One bar of Figure 2: transfers into a region during one quarter.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarterlyCount {
    /// Quarter index since 1970Q1 (sortable key).
    pub quarter_index: i64,
    /// Human-readable label, e.g. `2019Q4`.
    pub quarter_label: String,
    /// Destination region.
    pub rir: Rir,
    /// Number of transfers.
    pub count: usize,
    /// Total addresses moved.
    pub addresses: u64,
}

/// Aggregate a transfer log into per-quarter, per-region counts
/// (Figure 2: "# of market transfers" in three-month bins).
pub fn quarterly_counts(log: &TransferLog) -> Vec<QuarterlyCount> {
    let mut map: BTreeMap<(i64, Rir), (usize, u64, String)> = BTreeMap::new();
    for t in log.records() {
        let e = map
            .entry((t.date.quarter_index(), t.dest_rir))
            .or_insert_with(|| (0, 0, t.date.quarter_label()));
        e.0 += 1;
        e.1 += t.num_addresses();
    }
    map.into_iter()
        .map(|((qi, rir), (count, addresses, label))| QuarterlyCount {
            quarter_index: qi,
            quarter_label: label,
            rir,
            count,
            addresses,
        })
        .collect()
}

/// One cell of Figure 3: inter-RIR flow volume for a year.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct InterRirFlow {
    /// Calendar year.
    pub year: i64,
    /// Origin RIR.
    pub from: Rir,
    /// Destination RIR.
    pub to: Rir,
    /// Number of transfers.
    pub count: usize,
    /// Total addresses moved.
    pub addresses: u64,
    /// Median transferred block size in addresses (0 when count is 0).
    pub median_block: u64,
}

/// Aggregate inter-RIR transfers per (year, origin, destination) —
/// Figure 3.
pub fn inter_rir_flows(log: &TransferLog) -> Vec<InterRirFlow> {
    let mut sizes: BTreeMap<(i64, Rir, Rir), Vec<u64>> = BTreeMap::new();
    for t in log.inter_rir() {
        sizes
            .entry((t.date.year(), t.source_rir, t.dest_rir))
            .or_default()
            .push(t.num_addresses());
    }
    sizes
        .into_iter()
        .map(|((year, from, to), mut s)| {
            s.sort_unstable();
            let median_block = if s.is_empty() { 0 } else { s[s.len() / 2] };
            InterRirFlow {
                year,
                from,
                to,
                count: s.len(),
                addresses: s.iter().sum(),
                median_block,
            }
        })
        .collect()
}

/// Net inter-RIR address movement per RIR over the whole log:
/// positive = net importer (APNIC, RIPE per the paper), negative =
/// net exporter (ARIN).
pub fn inter_rir_net_by_rir(log: &TransferLog) -> BTreeMap<Rir, i64> {
    let mut net: BTreeMap<Rir, i64> = BTreeMap::new();
    for t in log.inter_rir() {
        *net.entry(t.dest_rir).or_default() += t.num_addresses() as i64;
        *net.entry(t.source_rir).or_default() -= t.num_addresses() as i64;
    }
    net
}

/// The date of the first transfer into each region — the paper
/// observes regional markets start when the RIR hits its last /8.
pub fn market_start_dates(log: &TransferLog) -> BTreeMap<Rir, Date> {
    let mut out: BTreeMap<Rir, Date> = BTreeMap::new();
    for t in log.records() {
        out.entry(t.dest_rir)
            .and_modify(|d| {
                if t.date < *d {
                    *d = t.date;
                }
            })
            .or_insert(t.date);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::org::OrgId;
    use crate::transfer::{Transfer, TransferKind};
    use nettypes::date::date;
    use nettypes::prefix::pfx;

    fn t(d: &str, p: &str, src: Rir, dst: Rir) -> Transfer {
        Transfer {
            date: date(d),
            prefix: pfx(p),
            from_org: OrgId(1),
            to_org: OrgId(2),
            source_rir: src,
            dest_rir: dst,
            kind: Some(TransferKind::Market),
        }
    }

    #[test]
    fn quarterly_binning() {
        let mut log = TransferLog::new();
        log.push(t("2019-01-15", "1.0.0.0/24", Rir::Arin, Rir::Arin));
        log.push(t("2019-02-15", "1.0.1.0/24", Rir::Arin, Rir::Arin));
        log.push(t("2019-04-01", "1.0.2.0/24", Rir::Arin, Rir::Arin));
        log.push(t("2019-01-20", "2.0.0.0/23", Rir::RipeNcc, Rir::RipeNcc));
        let q = quarterly_counts(&log);
        assert_eq!(q.len(), 3);
        let arin_q1 = q
            .iter()
            .find(|c| c.rir == Rir::Arin && c.quarter_label == "2019Q1")
            .unwrap();
        assert_eq!(arin_q1.count, 2);
        assert_eq!(arin_q1.addresses, 512);
        let ripe_q1 = q
            .iter()
            .find(|c| c.rir == Rir::RipeNcc && c.quarter_label == "2019Q1")
            .unwrap();
        assert_eq!(ripe_q1.count, 1);
        assert_eq!(ripe_q1.addresses, 512);
    }

    #[test]
    fn inter_rir_aggregation() {
        let mut log = TransferLog::new();
        log.push(t("2018-03-01", "1.0.0.0/22", Rir::Arin, Rir::RipeNcc));
        log.push(t("2018-07-01", "1.0.4.0/24", Rir::Arin, Rir::RipeNcc));
        log.push(t("2018-09-01", "1.0.5.0/24", Rir::Arin, Rir::Apnic));
        log.push(t("2018-10-01", "9.0.0.0/24", Rir::Arin, Rir::Arin)); // intra, ignored
        let flows = inter_rir_flows(&log);
        assert_eq!(flows.len(), 2);
        let to_ripe = flows.iter().find(|f| f.to == Rir::RipeNcc).unwrap();
        assert_eq!(to_ripe.count, 2);
        assert_eq!(to_ripe.addresses, 1024 + 256);
        assert_eq!(to_ripe.median_block, 1024);

        let net = inter_rir_net_by_rir(&log);
        assert_eq!(net[&Rir::Arin], -(1024 + 256 + 256));
        assert_eq!(net[&Rir::RipeNcc], 1024 + 256);
        assert_eq!(net[&Rir::Apnic], 256);
    }

    #[test]
    fn market_start_detection() {
        let mut log = TransferLog::new();
        log.push(t("2012-10-05", "1.0.0.0/24", Rir::RipeNcc, Rir::RipeNcc));
        log.push(t("2011-05-01", "2.0.0.0/24", Rir::Apnic, Rir::Apnic));
        log.push(t("2013-01-01", "3.0.0.0/24", Rir::RipeNcc, Rir::RipeNcc));
        let starts = market_start_dates(&log);
        assert_eq!(starts[&Rir::Apnic], date("2011-05-01"));
        assert_eq!(starts[&Rir::RipeNcc], date("2012-10-05"));
    }
}
