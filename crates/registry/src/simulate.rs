//! End-to-end registry history generation.
//!
//! The real transfer-statistics feeds cover Oct 2009 → Jun 2020; this
//! module generates a synthetic history with the dynamics the paper
//! reports in §3:
//!
//! * a region's market starts once its RIR is down to the last /8
//!   (Figure 2 vs Table 1),
//! * AFRINIC and LACNIC volumes are negligible,
//! * the RIPE NCC shows a year-end seasonality; ARIN fluctuates
//!   without an identifiable pattern,
//! * inter-RIR transfers (APNIC/ARIN/RIPE only, from 2012) grow in
//!   count while the transferred blocks shrink, with most flows moving
//!   space away from ARIN towards APNIC and the RIPE NCC (Figure 3),
//! * a share of transfers are merger/acquisition consolidations,
//!   labelled only by AFRINIC/ARIN/RIPE in the published feeds.
//!
//! All randomness is driven by a seeded PCG so histories are
//! reproducible byte-for-byte.

use crate::org::{OrgId, OrgKind, OrgRegistry};
use crate::policy::AllocationPolicy;
use crate::pool::AddressPool;
use crate::rir::Rir;
use crate::transfer::{InterRirPolicy, Transfer, TransferKind, TransferLog};
use crate::waitlist::{WaitingList, WaitingRequest};
use nettypes::date::{date, Date};
use nettypes::prefix::Prefix;
use rand::prelude::*;
use rand_pcg::Pcg64Mcg;
use std::collections::BTreeMap;

/// Configuration for the registry history generator.
#[derive(Clone, Debug)]
pub struct SimulationConfig {
    /// RNG seed; equal seeds give identical histories.
    pub seed: u64,
    /// First simulated day (paper feed: 2009-10-01).
    pub start: Date,
    /// Last simulated day (paper feed: 2020-06-30).
    pub end: Date,
    /// Organizations registered per RIR.
    pub orgs_per_rir: usize,
    /// Multiplier on all transfer volumes (1.0 ≈ paper-scale counts).
    pub volume_scale: f64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            seed: 0xD124_3311,
            start: date("2009-10-01"),
            end: date("2020-06-30"),
            orgs_per_rir: 300,
            volume_scale: 1.0,
        }
    }
}

/// A generated registry history.
#[derive(Clone, Debug)]
pub struct RegistryHistory {
    /// All organizations.
    pub orgs: OrgRegistry,
    /// The complete (ground-truth-labelled) transfer log.
    pub log: TransferLog,
}

/// Sample a Poisson-distributed count (Knuth for small λ, normal
/// approximation above 30).
pub fn sample_poisson(rng: &mut impl Rng, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
            if k > 10_000 {
                return k; // numerical guard
            }
        }
    } else {
        let g: f64 = {
            // Box-Muller
            let u1: f64 = rng.gen::<f64>().max(1e-12);
            let u2: f64 = rng.gen();
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        (lambda + lambda.sqrt() * g).round().max(0.0) as u64
    }
}

/// Transferable address space per RIR (space already allocated to
/// members that may change hands). The /8s are drawn from each RIR's
/// actual historical allocations.
fn seller_space(rir: Rir) -> Vec<Prefix> {
    let blocks: &[&str] = match rir {
        Rir::Afrinic => &["41.0.0.0/8", "102.0.0.0/8"],
        Rir::Apnic => &[
            "1.0.0.0/8",
            "14.0.0.0/8",
            "27.0.0.0/8",
            "36.0.0.0/8",
            "42.0.0.0/8",
        ],
        Rir::Arin => &[
            "3.0.0.0/8",
            "4.0.0.0/8",
            "6.0.0.0/8",
            "7.0.0.0/8",
            "8.0.0.0/8",
            "9.0.0.0/8",
            "13.0.0.0/8",
            "15.0.0.0/8",
        ],
        Rir::Lacnic => &["177.0.0.0/8", "179.0.0.0/8"],
        Rir::RipeNcc => &[
            "5.0.0.0/8",
            "31.0.0.0/8",
            "37.0.0.0/8",
            "46.0.0.0/8",
            "62.0.0.0/8",
        ],
    };
    blocks
        .iter()
        .map(|s| s.parse().expect("static table"))
        .collect()
}

/// Monthly market-transfer intensity cap per destination region — the
/// long-run plateau each market ramps towards.
fn monthly_cap(rir: Rir) -> f64 {
    match rir {
        Rir::RipeNcc => 160.0,
        Rir::Arin => 110.0,
        Rir::Apnic => 45.0,
        Rir::Afrinic => 1.0,
        Rir::Lacnic => 0.8,
    }
}

/// Transfer-block prefix-length distribution. Weight shifts towards
/// /24 in later years (blocks get smaller as scarcity bites).
fn sample_block_len(rng: &mut impl Rng, year: i64) -> u8 {
    // (len, base weight) — /24 dominates, heavier after 2016.
    let shift = ((year - 2012).max(0) as f64 * 0.012).min(0.12);
    let table: [(u8, f64); 9] = [
        (24, 0.50 + shift),
        (23, 0.14),
        (22, 0.12 - shift / 3.0),
        (21, 0.07 - shift / 6.0),
        (20, 0.055 - shift / 6.0),
        (19, 0.035 - shift / 6.0),
        (18, 0.02 - shift / 6.0),
        (17, 0.015 - shift / 12.0),
        (16, 0.015 - shift / 12.0),
    ];
    let total: f64 = table.iter().map(|(_, w)| w).sum();
    let mut x = rng.gen::<f64>() * total;
    for (len, w) in table {
        if x < w {
            return len;
        }
        x -= w;
    }
    24
}

/// Annual inter-RIR flow-share matrix (from, to, share). Most flows
/// move space away from ARIN (Figure 3).
const INTER_RIR_SHARES: [(Rir, Rir, f64); 6] = [
    (Rir::Arin, Rir::RipeNcc, 0.40),
    (Rir::Arin, Rir::Apnic, 0.33),
    (Rir::Apnic, Rir::RipeNcc, 0.09),
    (Rir::RipeNcc, Rir::Apnic, 0.08),
    (Rir::Apnic, Rir::Arin, 0.05),
    (Rir::RipeNcc, Rir::Arin, 0.05),
];

/// Generate the registry history described in the module docs.
pub fn simulate(config: &SimulationConfig) -> RegistryHistory {
    let _span = obs::span!("registry_simulate", orgs_per_rir = config.orgs_per_rir);
    let mut rng = Pcg64Mcg::seed_from_u64(config.seed ^ 0x2E61_57F7_0000_0004);
    let mut orgs = OrgRegistry::new();
    let mut by_rir: BTreeMap<Rir, Vec<OrgId>> = BTreeMap::new();
    for rir in Rir::ALL {
        for i in 0..config.orgs_per_rir {
            let kind = *[
                OrgKind::Isp,
                OrgKind::Isp,
                OrgKind::Hoster,
                OrgKind::Enterprise,
                OrgKind::Enterprise,
                OrgKind::Startup,
                OrgKind::LeasingProvider,
                OrgKind::VpnProvider,
            ]
            .choose(&mut rng)
            .expect("non-empty");
            let id = orgs.register(format!("{}-org-{}", rir.label(), i), kind, rir);
            by_rir.entry(rir).or_default().push(id);
        }
    }

    let mut pools: BTreeMap<Rir, AddressPool> = Rir::ALL
        .iter()
        .map(|&r| (r, AddressPool::with_blocks(seller_space(r))))
        .collect();

    let policies: BTreeMap<Rir, AllocationPolicy> = Rir::ALL
        .iter()
        .map(|&r| (r, AllocationPolicy::for_rir(r)))
        .collect();
    let inter_policy = InterRirPolicy;

    let mut log = TransferLog::new();

    // Iterate month by month.
    let mut month_start = config.start;
    while month_start <= config.end {
        let year = month_start.year();
        let month = month_start.month();
        let next_month = if month == 12 {
            Date::ymd(year + 1, 1, 1).expect("valid")
        } else {
            Date::ymd(year, month + 1, 1).expect("valid")
        };
        let days_in_month = (next_month.min(config.end.succ())) - month_start;

        // --- Intra-RIR market + M&A transfers per destination region.
        for rir in Rir::ALL {
            let policy = &policies[&rir];
            if !policy.market_open_at(month_start) {
                continue;
            }
            let months_open =
                (month_start.month_index() - policy.last_slash8.month_index()).max(0) as f64;
            let mut lambda = monthly_cap(rir) * (1.0 - (-months_open / 24.0).exp());
            // RIPE year-end seasonality (§3: pattern aligns with the
            // end of each year).
            if rir == Rir::RipeNcc && (month == 11 || month == 12) {
                lambda *= 1.8;
            }
            // ARIN: unstructured fluctuation; others mild noise.
            let sigma = if rir == Rir::Arin { 0.35 } else { 0.15 };
            let noise: f64 = {
                let u1: f64 = rng.gen::<f64>().max(1e-12);
                let u2: f64 = rng.gen();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            };
            lambda *= (sigma * noise).exp();
            lambda *= config.volume_scale;

            let n = sample_poisson(&mut rng, lambda);
            for _ in 0..n {
                let len = sample_block_len(&mut rng, year);
                let Ok(prefix) = pools.get_mut(&rir).expect("pool").allocate(len) else {
                    continue; // regional seller space exhausted
                };
                let members = &by_rir[&rir];
                let from_org = *members.choose(&mut rng).expect("orgs");
                let to_org = loop {
                    let o = *members.choose(&mut rng).expect("orgs");
                    if o != from_org {
                        break o;
                    }
                };
                // ~18 % of feed records are M&A consolidations.
                let kind = if rng.gen::<f64>() < 0.18 {
                    TransferKind::MergerAcquisition
                } else {
                    TransferKind::Market
                };
                let day_offset = rng.gen_range(0..days_in_month.max(1));
                log.push(Transfer {
                    date: month_start + day_offset,
                    prefix,
                    from_org,
                    to_org,
                    source_rir: rir,
                    dest_rir: rir,
                    kind: Some(kind),
                });
            }
        }

        // --- Inter-RIR transfers: permitted from late 2012, count grows,
        // sizes shrink.
        if year >= 2012 {
            let years_open = (year - 2011) as f64;
            let monthly = 0.6 * years_open.powf(1.6) * config.volume_scale;
            let n = sample_poisson(&mut rng, monthly);
            for _ in 0..n {
                let roll: f64 = rng.gen();
                let mut acc = 0.0;
                let mut pair = (Rir::Arin, Rir::RipeNcc);
                for (from, to, share) in INTER_RIR_SHARES {
                    acc += share;
                    if roll < acc {
                        pair = (from, to);
                        break;
                    }
                }
                let (from, to) = pair;
                debug_assert!(inter_policy.allows(from, to));
                // Inter-RIR transfers only make sense once both regions
                // are in scarcity (ARIN joined the market in 2014).
                if !policies[&from].market_open_at(month_start)
                    || !policies[&to].market_open_at(month_start)
                {
                    continue;
                }
                // Median block size shrinks with time: mean length 18 →
                // ~22.5 across the window.
                let mean_len = 18.0 + 0.55 * (year - 2012) as f64;
                let len = (mean_len + rng.gen_range(-2.0..2.0))
                    .round()
                    .clamp(16.0, 24.0) as u8;
                let Ok(prefix) = pools.get_mut(&from).expect("pool").allocate(len) else {
                    continue;
                };
                let from_org = *by_rir[&from].choose(&mut rng).expect("orgs");
                let to_org = *by_rir[&to].choose(&mut rng).expect("orgs");
                let day_offset = rng.gen_range(0..days_in_month.max(1));
                log.push(Transfer {
                    date: month_start + day_offset,
                    prefix,
                    from_org,
                    to_org,
                    source_rir: from,
                    dest_rir: to,
                    kind: Some(TransferKind::Market),
                });
            }
        }

        month_start = next_month;
    }

    RegistryHistory { orgs, log }
}

/// Waiting-list status snapshot for §2 / the conclusion: queue depths
/// and maximum waiting times per RIR.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaitlistReport {
    /// The registry.
    pub rir: Rir,
    /// Peak queue depth observed.
    pub max_depth: usize,
    /// Maximum fulfilled waiting time in days (None if nothing
    /// fulfilled yet).
    pub max_waiting_days: Option<i64>,
    /// Requests still pending at the end of the window.
    pub pending: usize,
}

/// Simulate the post-exhaustion waiting lists of ARIN, LACNIC and the
/// RIPE NCC with arrival/recovery rates calibrated to the paper's
/// reported peaks (202, 275 and 110 approved requests) and ARIN's
/// 130-day waits. RIPE's list is cleared by recovered space (§2).
pub fn simulate_waitlists(seed: u64, until: Date) -> Vec<WaitlistReport> {
    let mut rng = Pcg64Mcg::seed_from_u64(seed ^ 0x57A17);
    let mut out = Vec::new();
    for rir in [Rir::Arin, Rir::Lacnic, Rir::RipeNcc] {
        let policy = AllocationPolicy::for_rir(rir);
        let Some(start) = policy.recovery_start else {
            continue;
        };
        // Calibrated daily arrival and fulfillment rates.
        let (arrivals_per_day, fulfil_per_day) = match rir {
            Rir::Arin => (1.9, 1.55),   // backlog grows to ~200, waits >130d
            Rir::Lacnic => (4.5, 0.25), // recent depletion: deep backlog
            Rir::RipeNcc => (1.4, 1.3), // recovered space keeps up
            _ => unreachable!(),
        };
        let depth_cap = match rir {
            Rir::Arin => 202,
            Rir::Lacnic => 275,
            Rir::RipeNcc => 110,
            _ => unreachable!(),
        };
        let mut wl = WaitingList::new();
        let mut org_counter = 0u32;
        let mut day = start;
        let mut fulfil_credit = 0.0f64;
        while day <= until {
            let arrivals = sample_poisson(&mut rng, arrivals_per_day);
            for _ in 0..arrivals {
                if wl.depth() < depth_cap {
                    wl.enqueue(WaitingRequest {
                        org: OrgId(1_000_000 + org_counter),
                        prefix_len: policy.max_allocation_len,
                        approved: day,
                    });
                    org_counter += 1;
                }
            }
            fulfil_credit += fulfil_per_day;
            let mut budget = fulfil_credit.floor() as usize;
            fulfil_credit -= budget as f64;
            wl.fulfill_while(day, |_| {
                if budget == 0 {
                    false
                } else {
                    budget -= 1;
                    true
                }
            });
            day = day.succ();
        }
        out.push(WaitlistReport {
            rir,
            max_depth: wl.max_depth_seen(),
            max_waiting_days: wl.max_waiting_days(),
            pending: wl.depth(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    fn small_history() -> RegistryHistory {
        simulate(&SimulationConfig {
            seed: 7,
            volume_scale: 0.25,
            orgs_per_rir: 50,
            ..Default::default()
        })
    }

    #[test]
    fn deterministic_for_seed() {
        let cfg = SimulationConfig {
            seed: 42,
            volume_scale: 0.1,
            orgs_per_rir: 20,
            ..Default::default()
        };
        let a = simulate(&cfg);
        let b = simulate(&cfg);
        assert_eq!(a.log.records(), b.log.records());
        let c = simulate(&SimulationConfig { seed: 43, ..cfg });
        assert_ne!(a.log.records(), c.log.records());
    }

    #[test]
    fn markets_start_at_last_slash8() {
        let h = small_history();
        let starts = stats::market_start_dates(&h.log);
        for rir in [Rir::Apnic, Rir::Arin, Rir::RipeNcc] {
            let policy = AllocationPolicy::for_rir(rir);
            let start = starts[&rir];
            assert!(
                start >= policy.last_slash8,
                "{rir}: market started {start} before last /8 {}",
                policy.last_slash8
            );
            // And not absurdly later (within a year of opening).
            assert!(
                start - policy.last_slash8 < 366,
                "{rir} started too late: {start}"
            );
        }
    }

    #[test]
    fn afrinic_lacnic_negligible() {
        let h = small_history();
        let total = h.log.len() as f64;
        let small: usize =
            h.log.for_region(Rir::Afrinic).count() + h.log.for_region(Rir::Lacnic).count();
        assert!(
            (small as f64) < total * 0.03,
            "AFRINIC+LACNIC share too large: {small} of {total}"
        );
    }

    #[test]
    fn inter_rir_mostly_from_arin_and_growing() {
        let h = small_history();
        let flows = stats::inter_rir_flows(&h.log);
        let from_arin: usize = flows
            .iter()
            .filter(|f| f.from == Rir::Arin)
            .map(|f| f.count)
            .sum();
        let total: usize = flows.iter().map(|f| f.count).sum();
        assert!(total > 0);
        assert!(
            from_arin * 2 > total,
            "ARIN should originate the majority of inter-RIR flows ({from_arin}/{total})"
        );
        // Counts grow over the years.
        let per_year =
            |y: i64| -> usize { flows.iter().filter(|f| f.year == y).map(|f| f.count).sum() };
        assert!(
            per_year(2019) > per_year(2013),
            "2019 {} vs 2013 {}",
            per_year(2019),
            per_year(2013)
        );
        // Median blocks shrink (addresses per transfer go down).
        let median_sz = |y: i64| -> f64 {
            let mut v: Vec<u64> = flows
                .iter()
                .filter(|f| f.year == y && f.count > 0)
                .map(|f| f.median_block)
                .collect();
            if v.is_empty() {
                return 0.0;
            }
            v.sort_unstable();
            v[v.len() / 2] as f64
        };
        if median_sz(2013) > 0.0 && median_sz(2019) > 0.0 {
            assert!(median_sz(2019) < median_sz(2013));
        }
    }

    #[test]
    fn inter_rir_only_between_big_three() {
        let h = small_history();
        for t in h.log.inter_rir() {
            assert!(Rir::MARKET_RIRS.contains(&t.source_rir));
            assert!(Rir::MARKET_RIRS.contains(&t.dest_rir));
        }
    }

    #[test]
    fn transfers_have_unique_space() {
        let h = small_history();
        let records = h.log.records();
        for (i, a) in records.iter().enumerate() {
            for b in &records[i + 1..] {
                assert!(
                    !a.prefix.overlaps(&b.prefix),
                    "{} overlaps {}",
                    a.prefix,
                    b.prefix
                );
            }
        }
    }

    #[test]
    fn ripe_year_end_seasonality() {
        // With full volume, RIPE Q4 counts should beat Q2/Q3 on average.
        let h = simulate(&SimulationConfig {
            seed: 11,
            volume_scale: 1.0,
            orgs_per_rir: 50,
            ..Default::default()
        });
        let mut q4 = 0usize;
        let mut q23 = 0usize;
        let mut q4_quarters = 0usize;
        let mut q23_quarters = 0usize;
        for c in stats::quarterly_counts(&h.log) {
            if c.rir != Rir::RipeNcc || c.quarter_label.as_str() < "2015" {
                continue;
            }
            if c.quarter_label.ends_with("Q4") {
                q4 += c.count;
                q4_quarters += 1;
            } else if c.quarter_label.ends_with("Q2") || c.quarter_label.ends_with("Q3") {
                q23 += c.count;
                q23_quarters += 1;
            }
        }
        let q4_avg = q4 as f64 / q4_quarters.max(1) as f64;
        let q23_avg = q23 as f64 / q23_quarters.max(1) as f64;
        assert!(
            q4_avg > q23_avg * 1.15,
            "expected Q4 seasonality: Q4 avg {q4_avg:.1} vs Q2/Q3 avg {q23_avg:.1}"
        );
    }

    #[test]
    fn waitlist_reports_match_paper_bands() {
        let reports = simulate_waitlists(1, date("2020-06-01"));
        let arin = reports.iter().find(|r| r.rir == Rir::Arin).unwrap();
        let lacnic = reports.iter().find(|r| r.rir == Rir::Lacnic).unwrap();
        let ripe = reports.iter().find(|r| r.rir == Rir::RipeNcc).unwrap();
        // Peaks bounded by the paper's reported maxima.
        assert!(
            arin.max_depth <= 202 && arin.max_depth > 100,
            "ARIN depth {}",
            arin.max_depth
        );
        assert!(lacnic.max_depth <= 275, "LACNIC depth {}", lacnic.max_depth);
        assert!(ripe.max_depth <= 110, "RIPE depth {}", ripe.max_depth);
        // ARIN waits exceed 100 days.
        assert!(arin.max_waiting_days.unwrap_or(0) >= 100);
        // RIPE keeps up with its queue (fulfilled everything recent).
        assert!(ripe.pending < 110);
    }
}
