//! The daily inference pipeline.
//!
//! Drives the full §4 procedure over a date range: fetch each day's
//! observations (from an RFC 6396 collector archive with the paper's
//! missing-file fallback, or from pre-rendered days), run steps
//! (i)–(iv), apply extension (iv) per day and extension (v) across
//! days.
//!
//! [`run_pipeline`] is three stages. [`walk_days`] is the per-day
//! walk, steps (i)–(iv); [`DailyDelegations::without_intra_org`] is
//! extension (iv) and [`DailyDelegations::filled`] extension (v) over
//! a walk's output. The walk depends only on `visibility_threshold`,
//! so callers that try both algorithms or several fill windows over
//! one set of observations can walk once per threshold, and fill
//! several windows from one sort ([`DailyDelegations::filled_many`]).
//! The walk over pre-rendered days reduces each day first
//! (`base::ReducedDay`), and the reduction does not depend on the
//! threshold either: callers that walk several thresholds reduce once
//! (`base::reduce_days`) and pass [`PipelineInput::Reduced`].
//!
//! Every input goes through one walk. The span is split into one
//! contiguous day range per worker (`bgpsim::par::chunk_ranges`); each
//! worker walks its days in order, and chunk results merge in day
//! order before the sequential consistency fill, so any worker count
//! produces the same result.

use crate::as2org::As2OrgSeries;
use crate::base::{
    infer_from_pairs, origin_for_prefix, visibility_threshold, Delegation, ReducedDay,
};
use crate::config::InferenceConfig;
use crate::extensions::{consistency_fill, fill_scan, filter_intra_org, observations_by_prefix};
use bgpsim::observe::ObservationDay;
use bgpsim::updates::{CollectorArchiveV2, ObservationSweep, Provenance};
use nettypes::asn::Asn;
use nettypes::bogons::BogonFilter;
use nettypes::date::{Date, DateRange};
use nettypes::prefix::Prefix;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Where the pipeline reads observations from.
#[derive(Clone, Copy)]
pub enum PipelineInput<'a> {
    /// An RFC 6396 MRT archive: periodic `TABLE_DUMP_V2` RIBs plus
    /// daily `BGP4MP` update files, reconstructed per the paper's
    /// procedure (the most faithful input path).
    MrtArchive(&'a CollectorArchiveV2),
    /// Pre-rendered observation days (index 0 = span start). The walk
    /// reduces each day as it reaches it.
    Days(&'a [ObservationDay]),
    /// Pre-rendered days with their reduction
    /// ([`crate::base::reduce_days`]), for callers that walk the same
    /// days at several thresholds. `reduced[i]` is the reduction of
    /// `days[i]`.
    Reduced {
        /// The observation days (index 0 = span start).
        days: &'a [ObservationDay],
        /// Their reduction, one entry per day.
        reduced: &'a [ReducedDay],
    },
}

/// The pipeline result: per-day delegation sets plus bookkeeping.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DailyDelegations {
    /// First day of the span.
    pub start: Date,
    /// `days[i]` = delegations for `start + i`, sorted.
    pub days: Vec<Vec<Delegation>>,
    /// Days whose own archive file was missing/corrupt and were served
    /// by the forward fallback.
    pub fallback_days: Vec<Date>,
    /// Days with no data at all (trailing gaps).
    pub missing_days: Vec<Date>,
    /// Delegations removed by extension (iv), summed over days.
    pub intra_org_removed: usize,
}

impl DailyDelegations {
    /// The delegation set for a date, if inside the span.
    pub fn on(&self, d: Date) -> Option<&[Delegation]> {
        let idx = d - self.start;
        if idx < 0 {
            return None;
        }
        self.days.get(idx as usize).map(Vec::as_slice)
    }

    /// Extension (iv) over a walk's output: the same result without
    /// the delegations between ASes of one organization on each day
    /// (see [`filter_intra_org`]), adding their number to
    /// `intra_org_removed`.
    pub fn without_intra_org(&self, as2org: &As2OrgSeries) -> DailyDelegations {
        let sp = obs::span!("intra_org_filter", unit = "days");
        sp.add_items(self.days.len() as u64);
        let mut removed = 0;
        let days = (0i64..)
            .zip(&self.days)
            .map(|(i, day)| {
                let (kept, n) = filter_intra_org(day, as2org, self.start + i);
                removed += n;
                kept
            })
            .collect();
        DailyDelegations {
            start: self.start,
            days,
            fallback_days: self.fallback_days.clone(),
            missing_days: self.missing_days.clone(),
            intra_org_removed: self.intra_org_removed + removed,
        }
    }

    /// Extension (v) over a walk's output: the same result with every
    /// gap of at most `max_gap` days filled (see [`consistency_fill`]).
    pub fn filled(&self, max_gap: usize) -> DailyDelegations {
        let _sp = obs::span!("consistency_fill", max_gap = max_gap as u64);
        self.with_days(consistency_fill(&self.days, max_gap))
    }

    /// [`filled`](Self::filled) at several windows over one sort: the
    /// `i`th result equals `self.filled(max_gaps[i])`. The call sorts
    /// the observations by `(P', day)` (span `consistency_fill`); each
    /// window is then one scan (span `fill_window`), made when the
    /// iterator reaches it, so a caller that takes the results in turn
    /// holds one at a time.
    pub fn filled_many<'a>(
        &'a self,
        max_gaps: &'a [usize],
    ) -> impl Iterator<Item = DailyDelegations> + 'a {
        let observations = {
            let _sp = obs::span!("consistency_fill", windows = max_gaps.len() as u64);
            observations_by_prefix(&self.days)
        };
        max_gaps.iter().map(move |&max_gap| {
            let _sp = obs::span!("fill_window", max_gap = max_gap as u64);
            self.with_days(fill_scan(&self.days, &observations, max_gap))
        })
    }

    /// This result's bookkeeping over other delegation sets.
    fn with_days(&self, days: Vec<Vec<Delegation>>) -> DailyDelegations {
        DailyDelegations {
            start: self.start,
            days,
            fallback_days: self.fallback_days.clone(),
            missing_days: self.missing_days.clone(),
            intra_org_removed: self.intra_org_removed,
        }
    }
}

/// How one worker's days arrive: as the deltas of a persistent archive
/// sweep, or as reductions of the borrowed pre-rendered days.
enum DayRows<'a> {
    /// A [`bgpsim::updates::ObservationSweep`]: one RIB load at the
    /// chunk start, then one update-file decode per day. The maintained
    /// `prefix → origin` pair map is re-evaluated only for the prefixes
    /// the sweep reports changed.
    Sweep {
        sweep: Box<ObservationSweep<'a>>,
        pairs: BTreeMap<Prefix, Asn>,
    },
    /// Every day reduced from scratch.
    Days(&'a [ObservationDay]),
    /// Days reduced beforehand.
    Reduced(&'a [ObservationDay], &'a [ReducedDay]),
}

impl<'a> DayRows<'a> {
    fn new(input: PipelineInput<'a>) -> DayRows<'a> {
        match input {
            PipelineInput::MrtArchive(archive) => DayRows::Sweep {
                sweep: Box::new(archive.sweep()),
                pairs: BTreeMap::new(),
            },
            PipelineInput::Days(days) => DayRows::Days(days),
            PipelineInput::Reduced { days, reduced } => {
                assert_eq!(days.len(), reduced.len(), "one reduction per day");
                DayRows::Reduced(days, reduced)
            }
        }
    }

    /// Steps (i)–(iii) for day `i` of the span (date `d`): the
    /// surviving prefix-origin pairs in prefix order, and whether the
    /// forward fallback served the day. `None` when the day has no
    /// data.
    fn pairs(
        &mut self,
        config: &InferenceConfig,
        i: usize,
        d: Date,
    ) -> Option<(Vec<(Prefix, Asn)>, bool)> {
        let (sweep, pairs) = match self {
            DayRows::Days(days) => {
                return days
                    .get(i)
                    .map(|day| (ReducedDay::new(day).pairs(day, config), false));
            }
            DayRows::Reduced(days, reduced) => {
                return days
                    .get(i)
                    .map(|day| (reduced[i].pairs(day, config), false));
            }
            DayRows::Sweep { sweep, pairs } => (sweep, pairs),
        };
        let delta = sweep.advance(d).ok()?;
        // The threshold moves only with the peer table, and a
        // peer-table change reports every prefix as changed.
        let threshold = visibility_threshold(config, sweep.num_monitors());
        for p in delta.changed {
            let rows = sweep.routes_for(p).map(|(o, seen)| (o, seen, &[][..]));
            match origin_for_prefix(BogonFilter::shared(), threshold, p, rows) {
                Some(a) => pairs.insert(p, a),
                None => pairs.remove(&p),
            };
        }
        let fallback = matches!(delta.provenance, Provenance::FallbackRib { .. });
        Some((pairs.iter().map(|(&p, &a)| (p, a)).collect(), fallback))
    }
}

/// One day's outcome inside a chunk walk.
enum DayOutcome {
    Missing,
    Served {
        delegations: Vec<Delegation>,
        fallback: bool,
    },
}

/// Run the pipeline over `span`: the walk, then extension (iv) when
/// `config.filter_intra_org` is set, then extension (v) when
/// `config.consistency_fill_days` is set.
///
/// `as2org` is required when `config.filter_intra_org` is set; pass
/// `None` to reproduce the baseline.
pub fn run_pipeline(
    input: PipelineInput<'_>,
    span: DateRange,
    config: &InferenceConfig,
    as2org: Option<&As2OrgSeries>,
) -> DailyDelegations {
    let as2org = as2org.filter(|_| config.filter_intra_org);
    assert!(
        !config.filter_intra_org || as2org.is_some(),
        "extension (iv) requires an AS-to-Org series"
    );
    let walk = walk_days(input, span, config);
    let walk = match as2org {
        Some(as2org) => walk.without_intra_org(as2org),
        None => walk,
    };
    match config.consistency_fill_days {
        Some(max_gap) => walk.filled(max_gap),
        None => walk,
    }
}

/// The per-day walk over `span`: steps (i)–(iv). Only
/// `config.visibility_threshold` is read; apply extension (iv) with
/// [`DailyDelegations::without_intra_org`] and extension (v) with
/// [`DailyDelegations::filled`].
pub fn walk_days(
    input: PipelineInput<'_>,
    span: DateRange,
    config: &InferenceConfig,
) -> DailyDelegations {
    let sp = obs::span!(
        "delegation_inference",
        days = span.num_days() as u64,
        unit = "days"
    );
    sp.add_items(span.num_days() as u64);

    let days_vec: Vec<Date> = span.iter().collect();
    let n = days_vec.len();
    let sweep_sp = obs::span!("sweep_infer_days", days = n as u64, unit = "days");
    sweep_sp.add_items(n as u64);

    let ranges = bgpsim::par::chunk_ranges(n, bgpsim::par::num_threads());
    let per_day: Vec<DayOutcome> = bgpsim::par::map_chunked_with(
        &ranges,
        |_| DayRows::new(input),
        |rows, i| {
            let d = days_vec[i];
            let Some((pairs, fallback)) = rows.pairs(config, i, d) else {
                return DayOutcome::Missing;
            };
            DayOutcome::Served {
                delegations: infer_from_pairs(&pairs),
                fallback,
            }
        },
    );
    drop(sweep_sp);

    let mut days: Vec<Vec<Delegation>> = Vec::with_capacity(n);
    let mut fallback_days = Vec::new();
    let mut missing_days = Vec::new();
    for (i, outcome) in per_day.into_iter().enumerate() {
        match outcome {
            DayOutcome::Missing => {
                missing_days.push(days_vec[i]);
                days.push(Vec::new());
            }
            DayOutcome::Served {
                delegations,
                fallback,
            } => {
                if fallback {
                    fallback_days.push(days_vec[i]);
                }
                days.push(delegations);
            }
        }
    }
    if !fallback_days.is_empty() {
        obs::event!(
            obs::Level::Warn,
            "archive_fallback_days",
            count = fallback_days.len(),
        );
    }

    DailyDelegations {
        start: span.start,
        days,
        fallback_days,
        missing_days,
        intra_org_removed: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim::observe::{render_days, VisibilityModel};
    use bgpsim::scenario::{LeaseWorld, WorldConfig};
    use bgpsim::topology::TopologyConfig;
    use bgpsim::updates::ArchiveV2Config;
    use nettypes::date::date;

    fn world_and_days() -> (LeaseWorld, Vec<ObservationDay>) {
        let w = LeaseWorld::generate(&WorldConfig {
            seed: 17,
            span: DateRange::new(date("2018-01-01"), date("2018-02-28")),
            topology: TopologyConfig {
                seed: 17,
                num_tier1: 4,
                num_tier2: 12,
                num_stubs: 100,
                multi_as_org_fraction: 0.15,
            },
            num_allocations: 40,
            initial_active_leases: 120,
            bgp_visible_fraction: 0.35,
            num_hijacks: 4,
            num_moas: 4,
            num_as_sets: 2,
            num_scrubbing: 2,
            ..Default::default()
        });
        let days = render_days(&w, &VisibilityModel::default(), w.span);
        (w, days)
    }

    /// The world's RFC 6396 archive: RIBs every 7 days from Jan 1
    /// (Jan 8, 15, 22, 29, Feb 5, 12, 19, 26), an update file every
    /// later day.
    fn world_and_archive() -> (LeaseWorld, CollectorArchiveV2) {
        let (w, _) = world_and_days();
        let archive = CollectorArchiveV2::generate(
            &w,
            &VisibilityModel::default(),
            w.span,
            &ArchiveV2Config::default(),
        )
        .expect("archive encodes");
        (w, archive)
    }

    #[test]
    fn pipeline_runs_and_finds_delegations() {
        let (w, days) = world_and_days();
        let result = run_pipeline(
            PipelineInput::Days(&days),
            w.span,
            &InferenceConfig::baseline(),
            None,
        );
        assert_eq!(result.days.len() as i64, w.span.num_days());
        let total: usize = result.days.iter().map(Vec::len).sum();
        assert!(total > 0, "no delegations inferred");
        assert!(result.missing_days.is_empty());
    }

    #[test]
    fn extension_iv_reduces_counts() {
        let (w, days) = world_and_days();
        let as2org = As2OrgSeries::from_topology(&w.topology, w.span.start, w.span.end, 90);
        let base = run_pipeline(
            PipelineInput::Days(&days),
            w.span,
            &InferenceConfig::baseline(),
            None,
        );
        let cfg_iv = InferenceConfig {
            filter_intra_org: true,
            ..InferenceConfig::baseline()
        };
        let ext = run_pipeline(PipelineInput::Days(&days), w.span, &cfg_iv, Some(&as2org));
        assert!(
            ext.intra_org_removed > 0,
            "no intra-org delegations removed"
        );
        let base_total: usize = base.days.iter().map(Vec::len).sum();
        let ext_total: usize = ext.days.iter().map(Vec::len).sum();
        assert!(ext_total < base_total);
        // And nothing intra-org survives.
        for day in &ext.days {
            for d in day {
                assert_ne!(
                    w.topology.org_of(d.delegator),
                    w.topology.org_of(d.delegatee),
                    "intra-org delegation survived: {d:?}"
                );
            }
        }
    }

    #[test]
    fn extension_v_smooths_onoff_patterns() {
        let (w, days) = world_and_days();
        let base = run_pipeline(
            PipelineInput::Days(&days),
            w.span,
            &InferenceConfig::baseline(),
            None,
        );
        let cfg_v = InferenceConfig {
            consistency_fill_days: Some(10),
            ..InferenceConfig::baseline()
        };
        let filled = run_pipeline(PipelineInput::Days(&days), w.span, &cfg_v, None);
        // The day-to-day jumpiness must drop (first-difference
        // variance — the fill cannot remove the slow growth trend both
        // series share).
        let diff_var = |days: &[Vec<Delegation>]| {
            let counts: Vec<f64> = days.iter().map(|d| d.len() as f64).collect();
            let diffs: Vec<f64> = counts.windows(2).map(|w| w[1] - w[0]).collect();
            let mean = diffs.iter().sum::<f64>() / diffs.len() as f64;
            diffs.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / diffs.len() as f64
        };
        let v_base = diff_var(&base.days);
        let v_filled = diff_var(&filled.days);
        assert!(
            v_filled < 0.5 * v_base,
            "fill should cut the day-to-day variance: {v_base:.1} → {v_filled:.1}"
        );
        // Filling never removes delegations.
        for (b, f) in base.days.iter().zip(&filled.days) {
            assert!(f.len() >= b.len());
        }
    }

    #[test]
    fn walk_ignores_the_fill_window() {
        let (w, days) = world_and_days();
        let filled = InferenceConfig {
            consistency_fill_days: Some(10),
            ..InferenceConfig::baseline()
        };
        let walk = walk_days(PipelineInput::Days(&days), w.span, &filled);
        let unfilled = run_pipeline(
            PipelineInput::Days(&days),
            w.span,
            &InferenceConfig::baseline(),
            None,
        );
        assert_eq!(walk, unfilled);
        assert_ne!(walk.filled(10), walk, "the fill must change this world");
    }

    #[test]
    fn archive_input_with_gaps_uses_fallback() {
        let (w, mut archive) = world_and_archive();
        // Punch two holes mid-window: each day from a missing update
        // file up to the next RIB is served by that RIB.
        assert!(archive.drop_update_file(date("2018-01-10")));
        assert!(archive.drop_update_file(date("2018-02-10")));
        let result = run_pipeline(
            PipelineInput::MrtArchive(&archive),
            w.span,
            &InferenceConfig::baseline(),
            None,
        );
        let fallback: Vec<Date> = DateRange::new(date("2018-01-10"), date("2018-01-14"))
            .iter()
            .chain(DateRange::new(date("2018-02-10"), date("2018-02-11")).iter())
            .collect();
        assert_eq!(result.fallback_days, fallback);
        assert!(result.missing_days.is_empty());
        assert_eq!(result.days.len() as i64, w.span.num_days());
    }

    #[test]
    fn trailing_gap_reported_missing() {
        let (w, mut archive) = world_and_archive();
        // No RIB and no update file for the last 3 days.
        assert!(archive.drop_rib(date("2018-02-26")));
        for d in DateRange::new(date("2018-02-26"), w.span.end).iter() {
            assert!(archive.drop_update_file(d));
        }
        let result = run_pipeline(
            PipelineInput::MrtArchive(&archive),
            w.span,
            &InferenceConfig::baseline(),
            None,
        );
        assert_eq!(
            result.missing_days,
            vec![date("2018-02-26"), date("2018-02-27"), date("2018-02-28")]
        );
        assert!(result.fallback_days.is_empty());
        assert!(result.days[result.days.len() - 3..]
            .iter()
            .all(Vec::is_empty));
    }

    #[test]
    fn on_accessor() {
        let (w, days) = world_and_days();
        let result = run_pipeline(
            PipelineInput::Days(&days),
            w.span,
            &InferenceConfig::baseline(),
            None,
        );
        assert!(result.on(w.span.start).is_some());
        assert!(result.on(w.span.end).is_some());
        assert!(result.on(w.span.end + 1).is_none());
        assert!(result.on(w.span.start - 1).is_none());
    }

    #[test]
    #[should_panic(expected = "extension (iv) requires")]
    fn ext_iv_without_mapping_panics() {
        let (w, days) = world_and_days();
        let cfg = InferenceConfig {
            filter_intra_org: true,
            ..InferenceConfig::baseline()
        };
        let _ = run_pipeline(PipelineInput::Days(&days), w.span, &cfg, None);
    }
}
