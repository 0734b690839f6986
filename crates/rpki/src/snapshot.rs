//! Daily validated-ROA snapshot series.
//!
//! The paper uses the preprocessed RPKI snapshots of Chung et al. to
//! infer delegations and evaluate consistency rules. We generate a
//! series from a ground-truth lease world with a *stability mixture*
//! calibrated so the Appendix A numbers come out:
//!
//! * a large fraction of ROAs are rock-stable (present every day of
//!   their validity period),
//! * a minority "glitch": individual days missing (publication-point
//!   outages, expired-then-renewed certificates),
//!
//! which reproduces "fail rate ≤ 5 % at (M = 10, N = 0)" while keeping
//! the fail rate under 30 % even for 100-day windows.

use crate::roa::Roa;
use bgpsim::scenario::LeaseWorld;
use nettypes::date::{Date, DateRange};
use rand::prelude::*;
use rand_pcg::Pcg64Mcg;
use serde::{Deserialize, Serialize};

/// All ROAs valid on one day.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoaSnapshot {
    /// The snapshot date.
    pub date: Date,
    /// The validated ROAs.
    pub roas: Vec<Roa>,
}

/// Configuration for series generation.
#[derive(Clone, Debug)]
pub struct SnapshotSeriesConfig {
    /// RNG seed.
    pub seed: u64,
    /// Fraction of allocations that register ROAs at all (RPKI
    /// coverage was partial in the study window).
    pub allocation_coverage: f64,
    /// Fraction of *announced* leases whose delegatee registers a ROA
    /// (an order of magnitude fewer delegations than BGP, per the
    /// paper).
    pub lease_coverage: f64,
    /// Fraction of ROAs that are perfectly stable.
    pub stable_fraction: f64,
    /// Daily missing-probability for glitchy ROAs.
    pub glitch_rate: f64,
}

impl Default for SnapshotSeriesConfig {
    fn default() -> Self {
        SnapshotSeriesConfig {
            seed: 99,
            allocation_coverage: 0.35,
            lease_coverage: 0.5,
            stable_fraction: 0.9,
            glitch_rate: 0.022,
        }
    }
}

/// A generated series of daily snapshots.
#[derive(Clone, Debug)]
pub struct SnapshotSeries {
    /// One snapshot per day of the span, in order.
    pub days: Vec<RoaSnapshot>,
    /// The covered span.
    pub span: DateRange,
}

impl SnapshotSeries {
    /// The snapshot for a date, if in the span.
    pub fn on(&self, d: Date) -> Option<&RoaSnapshot> {
        if !self.span.contains(d) {
            return None;
        }
        let idx = (d - self.span.start) as usize;
        self.days.get(idx)
    }

    /// Generate the series for a world.
    ///
    /// ROA lifecycle: an allocation's ROA (for the delegator AS) spans
    /// the whole window; a covered lease's ROA (for the delegatee AS)
    /// spans the lease's active period — RPKI reflects the
    /// *administrative* delegation, not the day-to-day announcement
    /// state, which is exactly why it is a cleaner consistency oracle
    /// than BGP (Appendix A).
    pub fn generate(world: &LeaseWorld, config: &SnapshotSeriesConfig) -> SnapshotSeries {
        let _obs_span = obs::span!("rpki_snapshots", days = world.span.num_days() as u64);
        let mut rng = Pcg64Mcg::seed_from_u64(config.seed ^ 0x5AFE_2B1D_0000_0003);
        let span = world.span;

        // Decide per-object participation and stability up front.
        struct RoaPlan {
            roa: Roa,
            active: DateRange,
            glitchy: bool,
            noise_key: u64,
        }
        let mut plans: Vec<RoaPlan> = Vec::new();
        for a in &world.allocations {
            if rng.gen::<f64>() >= config.allocation_coverage {
                continue;
            }
            plans.push(RoaPlan {
                roa: Roa::exact(a.prefix, a.asn),
                active: span,
                glitchy: rng.gen::<f64>() >= config.stable_fraction,
                noise_key: rng.gen(),
            });
            // The delegator's covered leases may also get ROAs.
            for l in world.leases.iter().filter(|l| l.parent == a.prefix) {
                if !l.announced || rng.gen::<f64>() >= config.lease_coverage {
                    continue;
                }
                plans.push(RoaPlan {
                    roa: Roa::exact(l.prefix, l.delegatee_asn),
                    active: l.active,
                    glitchy: rng.gen::<f64>() >= config.stable_fraction,
                    noise_key: rng.gen(),
                });
            }
        }

        // Render days. Glitches use a deterministic hash so the series
        // is reproducible regardless of iteration order.
        let mut days = Vec::with_capacity(span.num_days() as usize);
        for d in span.iter() {
            let mut roas = Vec::new();
            for p in &plans {
                if !p.active.contains(d) {
                    continue;
                }
                if p.glitchy {
                    let h = splitmix64(p.noise_key ^ (d.days_since_epoch() as u64));
                    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                    if u < config.glitch_rate {
                        continue; // missing today
                    }
                }
                roas.push(p.roa);
            }
            days.push(RoaSnapshot { date: d, roas });
        }

        SnapshotSeries { days, span }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim::scenario::WorldConfig;
    use bgpsim::topology::TopologyConfig;
    use nettypes::date::date;

    fn world() -> LeaseWorld {
        LeaseWorld::generate(&WorldConfig {
            seed: 41,
            span: DateRange::new(date("2018-01-01"), date("2018-12-31")),
            topology: TopologyConfig {
                seed: 41,
                num_tier1: 4,
                num_tier2: 12,
                num_stubs: 100,
                multi_as_org_fraction: 0.15,
            },
            num_allocations: 60,
            initial_active_leases: 300,
            bgp_visible_fraction: 0.4,
            ..Default::default()
        })
    }

    /// One ROA per allocation and per lease, with leases carved without
    /// overlap: no prefix has ROAs for two ASes on one day, the case in
    /// which the RPKI step (iv) reads a prefix by its greatest AS.
    #[test]
    fn no_prefix_has_roas_for_several_ases() {
        let w = world();
        for seed in [1, 7, 2020] {
            let cfg = SnapshotSeriesConfig {
                seed,
                ..Default::default()
            };
            for day in &SnapshotSeries::generate(&w, &cfg).days {
                let mut pairs: Vec<_> = day.roas.iter().map(|r| (r.prefix, r.asn)).collect();
                pairs.sort_unstable();
                pairs.dedup();
                assert!(
                    pairs.windows(2).all(|w| w[0].0 != w[1].0),
                    "seed {seed}, {}",
                    day.date
                );
            }
        }
    }

    #[test]
    fn series_covers_span() {
        let w = world();
        let s = SnapshotSeries::generate(&w, &SnapshotSeriesConfig::default());
        assert_eq!(s.days.len() as i64, w.span.num_days());
        assert!(s.on(date("2018-06-01")).is_some());
        assert!(s.on(date("2019-06-01")).is_none());
        assert_eq!(s.on(date("2018-06-01")).unwrap().date, date("2018-06-01"));
    }

    #[test]
    fn stable_roas_present_every_day() {
        let w = world();
        let cfg = SnapshotSeriesConfig {
            stable_fraction: 1.0, // all stable
            ..Default::default()
        };
        let s = SnapshotSeries::generate(&w, &cfg);
        // Allocation ROAs span every day; count must be constant.
        let alloc_roa_count = |snap: &RoaSnapshot| {
            snap.roas
                .iter()
                .filter(|r| w.allocations.iter().any(|a| a.prefix == r.prefix))
                .count()
        };
        let first = alloc_roa_count(&s.days[0]);
        assert!(first > 0);
        for d in &s.days {
            assert_eq!(alloc_roa_count(d), first);
        }
    }

    #[test]
    fn glitches_remove_some_days() {
        let w = world();
        let cfg = SnapshotSeriesConfig {
            stable_fraction: 0.0, // all glitchy
            glitch_rate: 0.2,
            ..Default::default()
        };
        let s = SnapshotSeries::generate(&w, &cfg);
        let counts: Vec<usize> = s.days.iter().map(|d| d.roas.len()).collect();
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(min < max, "glitching should vary the daily ROA count");
    }

    #[test]
    fn deterministic() {
        let w = world();
        let cfg = SnapshotSeriesConfig::default();
        let a = SnapshotSeries::generate(&w, &cfg);
        let b = SnapshotSeries::generate(&w, &cfg);
        for (x, y) in a.days.iter().zip(&b.days) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn lease_roas_bounded_by_lease_period() {
        let w = world();
        let cfg = SnapshotSeriesConfig {
            allocation_coverage: 1.0,
            lease_coverage: 1.0,
            stable_fraction: 1.0,
            ..Default::default()
        };
        let s = SnapshotSeries::generate(&w, &cfg);
        // Pick an announced lease that ends well before the span end.
        let lease = w
            .leases
            .iter()
            .find(|l| {
                l.announced && l.active.end < w.span.end - 30 && l.active.start > w.span.start
            })
            .expect("some mid-window lease");
        let has_roa = |d: Date| {
            s.on(d)
                .map(|snap| {
                    snap.roas
                        .iter()
                        .any(|r| r.prefix == lease.prefix && r.asn == lease.delegatee_asn)
                })
                .unwrap_or(false)
        };
        assert!(has_roa(lease.active.start));
        assert!(has_roa(lease.active.end));
        assert!(!has_roa(lease.active.end + 5));
        if lease.active.start > w.span.start {
            assert!(!has_roa(lease.active.start - 1));
        }
    }
}
