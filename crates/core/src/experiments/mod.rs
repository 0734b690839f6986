//! One runner per paper table/figure.
//!
//! Every runner returns a typed result carrying both the raw data and
//! a `rendered` plain-text report whose rows mirror the paper's
//! artifact. The `bench` crate re-runs these under Criterion; the
//! `repro` binary prints them.

pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod s2_waitlists;
pub mod s4_coverage;
pub mod s5_prediction;
pub mod s6_amortization;
pub mod s6_behavior;
pub mod s7_combined;
pub mod sensitivity;
pub mod table1;

use crate::study::StudyConfig;
use bgpsim::observe::{render_days, ObservationDay, VisibilityModel};
use bgpsim::scenario::LeaseWorld;
use delegation::as2org::As2OrgSeries;
use delegation::base::{reduce_days, ReducedDay};
use delegation::config::InferenceConfig;
use delegation::pipeline::{walk_days, DailyDelegations, PipelineInput};
use rdap::database::{DbBuildConfig, WhoisDb};
use rdap::pipeline::{extract_delegations, PipelineConfig, PipelineStats, RdapDelegation};
use rdap::server::RdapServer;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// The shared BGP-side study state: a world, its rendered observation
/// days, and the AS-to-Org series — inputs to Figures 5/6 and the §4
/// comparison.
pub struct BgpStudy {
    /// The ground-truth world.
    pub world: LeaseWorld,
    /// Daily monitor observations (index 0 = span start).
    pub days: Vec<ObservationDay>,
    /// Quarterly AS-to-Org snapshots.
    pub as2org: As2OrgSeries,
    /// The monitor-fleet parameters the days were rendered with.
    visibility: VisibilityModel,
    /// Inference the runners share, computed on first use.
    shared: SharedInference,
}

/// The inference results several runners read, each computed at most
/// once per study: the reduction of every day, which every walk reads
/// whatever its threshold, the per-day walk at the paper's threshold,
/// its extension (iv) result, and the RDAP extraction at the span's
/// last day. Walks at other thresholds are not kept; each one holds
/// megabytes of delegations at full scale.
#[derive(Default)]
struct SharedInference {
    /// [`reduce_days`] over the study's days, 8 bytes per kept prefix.
    reduced: OnceLock<Vec<ReducedDay>>,
    /// The walk of [`InferenceConfig::baseline`].
    baseline_walk: OnceLock<Arc<DailyDelegations>>,
    /// That walk with extension (iv) applied, the unfilled
    /// [`InferenceConfig::extended`].
    intra_org_filtered: OnceLock<Arc<DailyDelegations>>,
    rdap: OnceLock<(Vec<RdapDelegation>, PipelineStats)>,
}

impl BgpStudy {
    /// The monitor-fleet parameters the study was rendered with —
    /// needed to derive further views (e.g. MRT archives) that must
    /// agree with `days`.
    pub fn visibility_model(&self) -> &VisibilityModel {
        &self.visibility
    }

    /// The inference pipeline over the study's days: equal to
    /// `run_pipeline(PipelineInput::Days(&self.days), span, config,
    /// Some(&self.as2org))`.
    ///
    /// The walk at the presets' threshold and its extension (iv)
    /// result are computed once per study and shared; a config without
    /// a fill window gets the shared result itself. Fill windows are
    /// applied per call, and a walk at any other threshold is computed
    /// per call and not kept. Every walk reads one reduction of the
    /// days, made by the first walk and kept with the study.
    pub fn delegations(&self, config: &InferenceConfig) -> Arc<DailyDelegations> {
        let mut walked = false;
        let preset = InferenceConfig::baseline().visibility_threshold.to_bits()
            == config.visibility_threshold.to_bits();
        let mut walk = || {
            walked = true;
            obs::metrics::counter("study_walk_misses_total").inc();
            let reduced = self.shared.reduced.get_or_init(|| reduce_days(&self.days));
            let input = PipelineInput::Reduced {
                days: &self.days,
                reduced,
            };
            walk_days(input, self.world.span, config)
        };
        let result = match (preset, config.filter_intra_org) {
            (true, false) => Arc::clone(self.shared.baseline_walk.get_or_init(|| Arc::new(walk()))),
            (true, true) => Arc::clone(self.shared.intra_org_filtered.get_or_init(|| {
                let baseline = self.shared.baseline_walk.get_or_init(|| Arc::new(walk()));
                Arc::new(baseline.without_intra_org(&self.as2org))
            })),
            (false, false) => Arc::new(walk()),
            (false, true) => Arc::new(walk().without_intra_org(&self.as2org)),
        };
        if !walked {
            obs::metrics::counter("study_walk_hits_total").inc();
        }
        match config.consistency_fill_days {
            Some(max_gap) => Arc::new(result.filled(max_gap)),
            None => result,
        }
    }

    /// The §4 RDAP extraction on the span's last day: the WHOIS
    /// snapshot built from the world, queried through an RDAP service
    /// limited to 1000 queries per window. Computed once per study.
    /// The rate limit changes only the pause count in the stats, never
    /// the delegations.
    pub fn rdap_delegations(&self) -> (&[RdapDelegation], &PipelineStats) {
        let (delegations, stats) = self.shared.rdap.get_or_init(|| {
            let as_of = self.world.span.end;
            let db = WhoisDb::build_from_world(&self.world, as_of, &DbBuildConfig::default());
            let server = RdapServer::with_rate_limit(db, 1000);
            extract_delegations(server.db(), &server, &PipelineConfig::default())
        });
        (delegations, stats)
    }
}

/// Generate the world and render every observation day (days fan out
/// across the worker pool; see [`bgpsim::par`]).
pub fn build_bgp_study(config: &StudyConfig) -> BgpStudy {
    let span = obs::span!("build_bgp_study", unit = "days");
    let world = LeaseWorld::generate(&config.world);
    span.add_items(world.span.num_days() as u64);
    let days: Vec<ObservationDay> = render_days(&world, &config.visibility, world.span);
    let as2org = As2OrgSeries::from_topology(
        &world.topology,
        world.span.start,
        world.span.end,
        90,
    );
    BgpStudy {
        world,
        days,
        as2org,
        visibility: config.visibility.clone(),
        shared: SharedInference::default(),
    }
}

/// The substrate fingerprint: everything that determines a
/// [`BgpStudy`]'s contents. `WorldConfig` and `VisibilityModel` are
/// plain data with derived `Debug`, so their debug rendering is a
/// faithful value key.
fn study_fingerprint(config: &StudyConfig) -> String {
    format!("{:?}|{:?}", config.world, config.visibility)
}

fn study_cache() -> &'static Mutex<HashMap<String, Arc<BgpStudy>>> {
    static CACHE: OnceLock<Mutex<HashMap<String, Arc<BgpStudy>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// [`build_bgp_study`] with process-wide memoization.
///
/// Several experiments (fig6, §4 coverage, §7, the sensitivity sweeps)
/// share one substrate: the same world and the same rendered days.
/// This caches the built study per `(world config, visibility model)`
/// so a `repro all` run renders each substrate once instead of once
/// per experiment. The study is immutable and shared via `Arc`.
pub fn build_bgp_study_cached(config: &StudyConfig) -> Arc<BgpStudy> {
    let key = study_fingerprint(config);
    // The cache only holds immutable `Arc`s, so a map recovered from a
    // poisoned lock is still whole.
    if let Some(hit) = study_cache()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .get(&key)
    {
        obs::metrics::counter("study_cache_hits_total").inc();
        obs::event!(obs::Level::Debug, "study_cache_hit");
        return Arc::clone(hit);
    }
    obs::metrics::counter("study_cache_misses_total").inc();
    obs::event!(obs::Level::Info, "study_cache_miss");
    // Build outside the lock: rendering takes seconds and other
    // substrates should not serialize behind it. A racing duplicate
    // build is harmless (both produce identical studies).
    // lint:allow(L3): build-time histogram only, never reaches artifacts
    let t0 = std::time::Instant::now();
    let built = Arc::new(build_bgp_study(config));
    obs::metrics::histogram("study_build").record(t0.elapsed());
    study_cache()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .entry(key)
        .or_insert_with(|| Arc::clone(&built))
        .clone()
}
