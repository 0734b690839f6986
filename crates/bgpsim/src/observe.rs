//! Rendering a lease world into daily route observations.
//!
//! The paper's pipeline consumes "the set of all prefix-origin pairs"
//! seen at the BGP monitors of RIPE RIS, Route Views and Isolario,
//! aggregated daily. [`render_days`] produces exactly that surface: for
//! every route announced in the world on a day, how many (and which)
//! monitors observed it, together with a representative AS path.
//!
//! Monitor visibility is deterministic per `(prefix, origin, monitor)`
//! with a small daily flicker term, so routes have stable-but-imperfect
//! visibility like real vantage points: a route's monitor count hovers
//! around `visibility × num_monitors` without being constant.
//!
//! The heavy lifting lives in [`crate::engine`]: day-invariant work
//! (event interval index, stable-visibility bitsets, path interning,
//! monitor fleet selection) is hoisted into a [`RenderEngine`] built
//! once per render run. [`render_days_with_threads`] shares one engine
//! across the worker pool; callers that want single days or the
//! per-monitor view build an engine and call it directly.

use crate::engine::RenderEngine;
use crate::scenario::{LeaseWorld, RouteClass};
use crate::topology::Tier;
use nettypes::asn::{Asn, Origin};
use nettypes::date::Date;
use nettypes::prefix::Prefix;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Visibility parameters for the monitor fleet.
#[derive(Clone, Debug)]
pub struct VisibilityModel {
    /// Number of BGP monitors (vantage points).
    pub num_monitors: u16,
    /// Probability a monitor that usually sees a route misses it on a
    /// given day (session resets, collector gaps).
    pub daily_flicker: f64,
    /// Seed folded into the deterministic visibility hash.
    pub seed: u64,
}

impl Default for VisibilityModel {
    fn default() -> Self {
        VisibilityModel {
            num_monitors: 40,
            daily_flicker: 0.01,
            seed: 77,
        }
    }
}

/// One observed route on one day.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteObservation {
    /// The announced prefix.
    pub prefix: Prefix,
    /// The origin (may be an AS_SET).
    pub origin: Origin,
    /// How many monitors saw the route this day.
    pub monitors_seen: u16,
    /// A representative AS path from one monitor to the origin
    /// (monitor first, origin last). Empty for AS_SET origins.
    /// Interned: identical paths share one allocation.
    pub path: Arc<[Asn]>,
    /// Ground-truth class (not available to inference; carried for
    /// evaluation).
    pub class: Option<RouteClass>,
}

/// All observations of one day.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObservationDay {
    /// The observation date.
    pub date: Date,
    /// Total monitors in the fleet that day.
    pub num_monitors: u16,
    /// The observed routes.
    pub routes: Vec<RouteObservation>,
}

/// SplitMix64 — cheap deterministic hashing for visibility draws.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

pub(crate) fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The visibility-hash key for an origin (AS_SET origins get a
/// distinct key space).
pub(crate) fn origin_key(origin: &Origin) -> u32 {
    match origin {
        Origin::Single(a) => a.0,
        Origin::Set(v) => v.first().map(|a| a.0).unwrap_or(0) ^ 0x8000_0000,
    }
}

/// The monitor fleet: one AS per monitor, chosen deterministically
/// from tier-2 and stub ASes (collectors peer with networks of all
/// sizes).
pub fn monitor_ases(world: &LeaseWorld, model: &VisibilityModel) -> Vec<Asn> {
    let tier2: Vec<Asn> = world.topology.ases_of_tier(Tier::Tier2).collect();
    let stubs: Vec<Asn> = world.topology.ases_of_tier(Tier::Stub).collect();
    let mut out = Vec::with_capacity(model.num_monitors as usize);
    for m in 0..model.num_monitors {
        let h = splitmix64(model.seed.wrapping_add(0xBEEF).wrapping_add(m as u64));
        let pick = if m % 3 == 0 && !tier2.is_empty() {
            tier2[(h % tier2.len() as u64) as usize]
        } else {
            stubs[(h % stubs.len() as u64) as usize]
        };
        out.push(pick);
    }
    out
}

/// Render every day of `span` on `threads` workers.
///
/// One [`RenderEngine`] is shared by all workers; each worker carries
/// its own scratch (sweep cursor + path arena). The scratch is pure
/// memoization of deterministic computation, so the output is
/// identical for any thread count — `threads == 1` is the sequential
/// baseline.
pub fn render_days_with_threads(
    world: &LeaseWorld,
    model: &VisibilityModel,
    span: nettypes::date::DateRange,
    threads: usize,
) -> Vec<ObservationDay> {
    let days: Vec<Date> = span.iter().collect();
    let span_obs = obs::span!(
        "render_days",
        days = days.len(),
        threads = threads,
        unit = "days"
    );
    span_obs.add_items(days.len() as u64);
    let engine = RenderEngine::new(world, model);
    crate::par::map_indexed_local(
        days.len(),
        threads,
        || engine.scratch(),
        |scratch, i| engine.render_day(scratch, days[i]),
    )
}

/// [`render_days_with_threads`] at the default thread count
/// (`DRYWELLS_THREADS` or the machine's parallelism).
pub fn render_days(
    world: &LeaseWorld,
    model: &VisibilityModel,
    span: nettypes::date::DateRange,
) -> Vec<ObservationDay> {
    render_days_with_threads(world, model, span, crate::par::num_threads())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{LeaseWorld, WorldConfig};
    use crate::topology::TopologyConfig;
    use nettypes::date::{date, DateRange};

    fn render_day(w: &LeaseWorld, model: &VisibilityModel, day: Date) -> ObservationDay {
        let engine = RenderEngine::new(w, model);
        engine.render_day(&mut engine.scratch(), day)
    }

    fn world() -> LeaseWorld {
        LeaseWorld::generate(&WorldConfig {
            seed: 9,
            span: DateRange::new(date("2018-01-01"), date("2018-03-31")),
            topology: TopologyConfig {
                seed: 9,
                num_tier1: 4,
                num_tier2: 12,
                num_stubs: 100,
                multi_as_org_fraction: 0.15,
            },
            num_allocations: 40,
            initial_active_leases: 120,
            bgp_visible_fraction: 0.3, // plenty of visible leases for tests
            num_hijacks: 5,
            num_moas: 4,
            num_as_sets: 3,
            num_scrubbing: 2,
            ..Default::default()
        })
    }

    #[test]
    fn renders_routes_with_high_visibility() {
        let w = world();
        let model = VisibilityModel::default();
        let day = render_day(&w, &model, date("2018-02-01"));
        assert_eq!(day.num_monitors, 40);
        assert!(!day.routes.is_empty());
        // Allocations should be near-universally visible.
        let alloc_routes: Vec<_> = day
            .routes
            .iter()
            .filter(|r| r.class == Some(RouteClass::Allocation))
            .collect();
        assert_eq!(alloc_routes.len(), w.allocations.len());
        for r in alloc_routes {
            assert!(
                r.monitors_seen as f64 >= 0.8 * model.num_monitors as f64,
                "allocation {} seen by only {}",
                r.prefix,
                r.monitors_seen
            );
        }
    }

    #[test]
    fn hijacks_mostly_below_half_visibility() {
        let w = world();
        let model = VisibilityModel::default();
        let engine = RenderEngine::new(&w, &model);
        let mut scratch = engine.scratch();
        let mut low = 0;
        let mut total = 0;
        for d in w.span.iter() {
            let day = engine.render_day(&mut scratch, d);
            for r in &day.routes {
                if r.class == Some(RouteClass::Hijack) {
                    total += 1;
                    if (r.monitors_seen as f64) < 0.5 * model.num_monitors as f64 {
                        low += 1;
                    }
                }
            }
        }
        assert!(total > 0, "no hijack observations rendered");
        assert!(
            low * 10 >= total * 6,
            "expected most hijacks below the visibility threshold ({low}/{total})"
        );
    }

    #[test]
    fn determinism_across_renders() {
        let w = world();
        let model = VisibilityModel::default();
        let a = render_day(&w, &model, date("2018-02-05"));
        let b = render_day(&w, &model, date("2018-02-05"));
        assert_eq!(a, b);
    }

    #[test]
    fn visibility_stable_across_days() {
        // The same route keeps a similar monitor count on consecutive
        // days (flicker is small).
        let w = world();
        let model = VisibilityModel::default();
        let engine = RenderEngine::new(&w, &model);
        let mut scratch = engine.scratch();
        let d1 = engine.render_day(&mut scratch, date("2018-02-01"));
        let d2 = engine.render_day(&mut scratch, date("2018-02-02"));
        let find = |day: &ObservationDay, p: Prefix| {
            day.routes
                .iter()
                .find(|r| r.prefix == p && matches!(r.class, Some(RouteClass::Allocation)))
                .map(|r| r.monitors_seen)
        };
        let mut compared = 0;
        for a in &w.allocations {
            if let (Some(x), Some(y)) = (find(&d1, a.prefix), find(&d2, a.prefix)) {
                assert!((x as i32 - y as i32).abs() <= 4, "{}: {x} vs {y}", a.prefix);
                compared += 1;
            }
        }
        assert!(compared > 10);
    }

    #[test]
    fn paths_end_at_origin() {
        let w = world();
        let model = VisibilityModel::default();
        let day = render_day(&w, &model, date("2018-02-01"));
        let mut checked = 0;
        for r in &day.routes {
            if let Origin::Single(o) = &r.origin {
                if !r.path.is_empty() {
                    assert_eq!(r.path.last(), Some(o), "path {:?} for {}", r.path, r.prefix);
                    checked += 1;
                }
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn render_days_parallel_matches_sequential() {
        let w = world();
        let model = VisibilityModel::default();
        let span = DateRange::new(date("2018-01-01"), date("2018-01-21"));
        let seq = render_days_with_threads(&w, &model, span, 1);
        for threads in [2, 4] {
            assert_eq!(render_days_with_threads(&w, &model, span, threads), seq);
        }
        // And the per-day path agrees with render_day itself.
        for (i, d) in span.iter().enumerate() {
            assert_eq!(seq[i], render_day(&w, &model, d));
        }
    }

    #[test]
    fn as_set_routes_rendered_with_set_origin() {
        let w = world();
        let model = VisibilityModel::default();
        let engine = RenderEngine::new(&w, &model);
        let mut scratch = engine.scratch();
        let mut saw_set = false;
        for d in w.span.iter() {
            let day = engine.render_day(&mut scratch, d);
            if day.routes.iter().any(|r| r.origin.is_set()) {
                saw_set = true;
                break;
            }
        }
        assert!(saw_set, "no AS_SET observation rendered in the window");
    }
}
