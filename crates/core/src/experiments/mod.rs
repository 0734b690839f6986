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
use delegation::base::{infer_rpki_series, reduce_days, ReducedDay};
use delegation::config::InferenceConfig;
use delegation::eval::{evaluate_against_truth, TruthEvaluation};
use delegation::pipeline::{walk_days, DailyDelegations, PipelineInput};
use market::transactions::{generate_transactions, PricedTransaction, TransactionConfig};
use nettypes::date::{Date, DateRange};
use rdap::database::{DbBuildConfig, WhoisDb};
use rdap::pipeline::{extract_delegations, PipelineStats, RdapDelegation};
use rdap::server::RdapServer;
use registry::simulate::{simulate, RegistryHistory};
use rpki::delegation::RpkiDelegation;
use rpki::snapshot::SnapshotSeries;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Everything one [`StudyConfig`] determines that the runners read:
/// the world, its rendered study, the registry history, the priced
/// transactions and the RPKI delegations. Each part is built on first
/// use and then kept, so `run_all` builds each input once and a
/// standalone runner builds only what it reads (`repro fig2` never
/// generates a world). [`substrate`] keeps one per config for the
/// life of the process.
pub struct Substrate {
    config: StudyConfig,
    world: OnceLock<Arc<LeaseWorld>>,
    bgp: OnceLock<Arc<BgpStudy>>,
    registry: OnceLock<Arc<RegistryHistory>>,
    transactions: OnceLock<Arc<[PricedTransaction]>>,
    rpki: OnceLock<RpkiDelegations>,
}

impl Substrate {
    fn new(config: &StudyConfig) -> Substrate {
        Substrate {
            config: config.clone(),
            world: OnceLock::new(),
            bgp: OnceLock::new(),
            registry: OnceLock::new(),
            transactions: OnceLock::new(),
            rpki: OnceLock::new(),
        }
    }

    /// The ground-truth world of `config.world`.
    pub fn world(&self) -> &Arc<LeaseWorld> {
        self.world
            .get_or_init(|| Arc::new(LeaseWorld::generate(&self.config.world)))
    }

    /// The world with its rendered observation days and AS-to-Org
    /// series: [`build_bgp_study`] over [`world`](Self::world).
    pub fn bgp(&self) -> Arc<BgpStudy> {
        let mut built = false;
        let study = self.bgp.get_or_init(|| {
            built = true;
            obs::metrics::counter("study_cache_misses_total").inc();
            obs::event!(obs::Level::Info, "study_cache_miss");
            // lint:allow(L3): build-time histogram only, never reaches artifacts
            let t0 = std::time::Instant::now();
            let study = bgp_study(&self.config, || Arc::clone(self.world()));
            obs::metrics::histogram("study_build").record(t0.elapsed());
            Arc::new(study)
        });
        if !built {
            obs::metrics::counter("study_cache_hits_total").inc();
            obs::event!(obs::Level::Debug, "study_cache_hit");
        }
        Arc::clone(study)
    }

    /// The simulated registry history of `config.registry` (Figures 2
    /// and 3).
    pub fn registry(&self) -> Arc<RegistryHistory> {
        let history = self
            .registry
            .get_or_init(|| Arc::new(simulate(&self.config.registry)));
        Arc::clone(history)
    }

    /// The broker-priced transactions of the study's seed (Figure 1
    /// and §5).
    pub fn transactions(&self) -> Arc<[PricedTransaction]> {
        let txs = self.transactions.get_or_init(|| {
            generate_transactions(&TransactionConfig {
                seed: self.config.seed.wrapping_add(0xF161),
                ..TransactionConfig::default()
            })
            .into()
        });
        Arc::clone(txs)
    }

    /// The RPKI delegations of every day of the world's span, inferred
    /// from the ROA snapshot series of `config.rpki` (Figure 5 and §7).
    pub fn rpki(&self) -> &RpkiDelegations {
        self.rpki.get_or_init(|| {
            let series = SnapshotSeries::generate(self.world(), &self.config.rpki);
            RpkiDelegations {
                span: series.span,
                days: infer_rpki_series(&series.days),
            }
        })
    }
}

/// The RPKI delegations of each day of a span, one sorted set per day.
/// The ROAs they were inferred from are not kept.
pub struct RpkiDelegations {
    /// The covered span.
    pub span: DateRange,
    /// `days[i]` holds the delegations of `span.start + i`.
    pub days: Vec<Vec<RpkiDelegation>>,
}

impl RpkiDelegations {
    /// The delegations of a date, if in the span.
    pub fn on(&self, d: Date) -> Option<&[RpkiDelegation]> {
        if !self.span.contains(d) {
            return None;
        }
        self.days
            .get((d - self.span.start) as usize)
            .map(Vec::as_slice)
    }
}

/// The shared BGP-side study state: a world, its rendered observation
/// days, and the AS-to-Org series — inputs to Figures 5/6 and the §4
/// comparison.
pub struct BgpStudy {
    /// The ground-truth world.
    pub world: Arc<LeaseWorld>,
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
/// its extension (iv) result, the extended preset, and the RDAP
/// extraction at the span's last day. Walks at other thresholds and
/// other fill windows are not kept; each one holds megabytes of
/// delegations at full scale.
#[derive(Default)]
struct SharedInference {
    /// [`reduce_days`] over the study's days, 8 bytes per kept prefix.
    reduced: OnceLock<Vec<ReducedDay>>,
    /// The walk of [`InferenceConfig::baseline`].
    baseline_walk: Kept,
    /// That walk with extension (iv) applied, the unfilled
    /// [`InferenceConfig::extended`].
    intra_org_filtered: Kept,
    /// [`InferenceConfig::extended`]: the filtered walk, filled.
    extended: Kept,
    rdap: OnceLock<(Vec<RdapDelegation>, PipelineStats)>,
}

/// A result the study keeps, and its truth score, each computed on
/// first use.
#[derive(Default)]
struct Kept {
    result: OnceLock<Arc<DailyDelegations>>,
    eval: OnceLock<TruthEvaluation>,
}

impl Kept {
    fn get_or_init(&self, f: impl FnOnce() -> DailyDelegations) -> Arc<DailyDelegations> {
        Arc::clone(self.result.get_or_init(|| Arc::new(f())))
    }
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
    /// The walk at the presets' threshold, its extension (iv) result
    /// and the extended preset are computed once per study and shared;
    /// a config without a fill window gets the shared result itself.
    /// Other fill windows are applied per call, and a walk at any
    /// other threshold is computed per call and not kept. Every walk
    /// reads one reduction of the days, made by the first walk and
    /// kept with the study.
    pub fn delegations(&self, config: &InferenceConfig) -> Arc<DailyDelegations> {
        let unfilled = self.unfilled(config);
        match config.consistency_fill_days {
            None => unfilled,
            Some(max_gap) if is_preset(config, &InferenceConfig::extended()) => self
                .shared
                .extended
                .get_or_init(|| unfilled.filled(max_gap)),
            Some(max_gap) => Arc::new(unfilled.filled(max_gap)),
        }
    }

    /// Hands [`delegations`](Self::delegations) of `config` at each
    /// fill window (0: no fill) to `each`, in order: `each(w, result)`
    /// with `result` the pipeline result of `config` with
    /// `consistency_fill_days` set to `w`. The study walks (or shares)
    /// the unfilled result once and reads the windows it keeps; every
    /// other window is a scan of one shared sort of the observations
    /// ([`DailyDelegations::filled_many`]), dropped after `each`
    /// returns. Each window counts as one pipeline result in the walk
    /// counters.
    pub fn for_each_fill_window(
        &self,
        config: &InferenceConfig,
        windows: &[usize],
        mut each: impl FnMut(usize, &Arc<DailyDelegations>),
    ) {
        let at = |w: usize| InferenceConfig {
            consistency_fill_days: (w > 0).then_some(w),
            ..config.clone()
        };
        let extended = InferenceConfig::extended();
        let unfilled = self.unfilled(&at(0));
        let unkept: Vec<usize> = windows
            .iter()
            .copied()
            .filter(|&w| w > 0 && !is_preset(&at(w), &extended))
            .collect();
        let mut fresh = unfilled.filled_many(&unkept);
        for &w in windows {
            let result = if w == 0 {
                Some(Arc::clone(&unfilled))
            } else if is_preset(&at(w), &extended) {
                Some(self.shared.extended.get_or_init(|| unfilled.filled(w)))
            } else {
                fresh.next().map(Arc::new)
            };
            if let Some(result) = result {
                each(w, &result);
            }
        }
        let shared = windows.len().saturating_sub(1) as u64;
        obs::metrics::counter("study_walk_hits_total").add(shared);
    }

    /// The walk of `config`'s threshold with extension (iv) applied if
    /// `config` asks for it: shared at the presets' threshold,
    /// computed otherwise. Counts one walk hit or miss.
    fn unfilled(&self, config: &InferenceConfig) -> Arc<DailyDelegations> {
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
            (true, false) => self.shared.baseline_walk.get_or_init(walk),
            (true, true) => self.shared.intra_org_filtered.get_or_init(|| {
                let baseline = self.shared.baseline_walk.get_or_init(walk);
                baseline.without_intra_org(&self.as2org)
            }),
            (false, false) => Arc::new(walk()),
            (false, true) => Arc::new(walk().without_intra_org(&self.as2org)),
        };
        if !walked {
            obs::metrics::counter("study_walk_hits_total").inc();
        }
        result
    }

    /// `result` scored against the study's world
    /// ([`evaluate_against_truth`]). A result the study keeps is
    /// scored once, whichever runner asks first.
    pub fn evaluate(&self, result: &Arc<DailyDelegations>) -> TruthEvaluation {
        let shared = &self.shared;
        let kept = [
            &shared.baseline_walk,
            &shared.intra_org_filtered,
            &shared.extended,
        ]
        .into_iter()
        .find(|k| k.result.get().is_some_and(|r| Arc::ptr_eq(r, result)));
        let score = || evaluate_against_truth(&self.world, result);
        match kept {
            Some(k) => k.eval.get_or_init(score).clone(),
            None => score(),
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
            extract_delegations(server.db(), &server)
        });
        (delegations, stats)
    }
}

/// Whether `config` asks for the same result as `preset`; thresholds
/// compare by their bits.
fn is_preset(config: &InferenceConfig, preset: &InferenceConfig) -> bool {
    config.visibility_threshold.to_bits() == preset.visibility_threshold.to_bits()
        && config.filter_intra_org == preset.filter_intra_org
        && config.consistency_fill_days == preset.consistency_fill_days
}

/// Generate the world and render every observation day (days fan out
/// across the worker pool; see [`bgpsim::par`]).
pub fn build_bgp_study(config: &StudyConfig) -> BgpStudy {
    bgp_study(config, || Arc::new(LeaseWorld::generate(&config.world)))
}

/// [`build_bgp_study`] over the world `world` returns.
fn bgp_study(config: &StudyConfig, world: impl FnOnce() -> Arc<LeaseWorld>) -> BgpStudy {
    let span = obs::span!("build_bgp_study", unit = "days");
    let world = world();
    span.add_items(world.span.num_days() as u64);
    let days: Vec<ObservationDay> = render_days(&world, &config.visibility, world.span);
    let as2org = As2OrgSeries::from_topology(&world.topology, world.span.start, world.span.end, 90);
    BgpStudy {
        world,
        days,
        as2org,
        visibility: config.visibility.clone(),
        shared: SharedInference::default(),
    }
}

/// The substrate fingerprint: every part of the config a
/// [`Substrate`] reads (the world, monitor, registry and RPKI configs
/// and the transaction seed). They are plain data with derived
/// `Debug`, so their debug rendering is a faithful value key.
fn study_fingerprint(config: &StudyConfig) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{}",
        config.world, config.visibility, config.registry, config.rpki, config.seed
    )
}

/// The process-wide [`Substrate`] of `config`, created empty on first
/// use; its parts are built as runners read them.
///
/// Every runner reads its inputs through this cache, so a `repro all`
/// run generates each world, registry history, transaction set and
/// RPKI series once and renders each study's days once, instead of
/// once per experiment. Substrates are shared via `Arc` and never
/// evicted.
pub fn substrate(config: &StudyConfig) -> Arc<Substrate> {
    static CACHE: OnceLock<Mutex<HashMap<String, Arc<Substrate>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    // The map only holds `Arc`s, so one recovered from a poisoned lock
    // is still whole. Parts are built outside the lock.
    let mut map = cache.lock().unwrap_or_else(|p| p.into_inner());
    let entry = map
        .entry(study_fingerprint(config))
        .or_insert_with(|| Arc::new(Substrate::new(config)));
    Arc::clone(entry)
}

/// [`build_bgp_study`] with process-wide memoization: the
/// [`Substrate::bgp`] of `config`'s substrate.
///
/// Several experiments (fig6, §4 coverage, §7, the sensitivity sweeps)
/// share one study: the same world and the same rendered days, built
/// once per process (the `study_cache_*` counters count the hits and
/// the build). The study is immutable and shared via `Arc`.
pub fn build_bgp_study_cached(config: &StudyConfig) -> Arc<BgpStudy> {
    substrate(config).bgp()
}
