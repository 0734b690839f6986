//! Ground-truth evaluation.
//!
//! Unlike the paper's authors, the simulator *knows* the true leases,
//! so the inference can be scored: precision (inferred delegations
//! that are real leases) and recall (real BGP-announceable leases that
//! were inferred). This is the harness that validates the extensions
//! actually improve the estimate.

use crate::pipeline::DailyDelegations;
use bgpsim::scenario::LeaseWorld;
use nettypes::date::Date;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Precision/recall of inferred delegations against the world's truth.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TruthEvaluation {
    /// Inferred (day, delegation) pairs matching a true active lease.
    pub true_positives: u64,
    /// Inferred pairs not matching any true lease (hijacks, scrubbing,
    /// unfiltered intra-org, artifacts).
    pub false_positives: u64,
    /// True announce-capable lease-days that were not inferred.
    pub false_negatives: u64,
}

impl TruthEvaluation {
    /// TP / (TP + FP).
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            0.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// TP / (TP + FN).
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            0.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Score a pipeline result day by day against the world's ground
/// truth. A true positive requires matching (prefix, delegator,
/// delegatee) of an *active, announced* lease on that day.
pub fn evaluate_against_truth(world: &LeaseWorld, result: &DailyDelegations) -> TruthEvaluation {
    let sp = obs::span!("truth_eval", unit = "days");
    sp.add_items(result.days.len() as u64);
    let mut eval = TruthEvaluation::default();
    for (i, day) in result.days.iter().enumerate() {
        let date: Date = result.start + i as i64;
        let truth: HashSet<(nettypes::prefix::Prefix, nettypes::asn::Asn, nettypes::asn::Asn)> =
            world
                .true_bgp_delegations_on(date)
                .into_iter()
                .collect();
        let mut matched: HashSet<_> = HashSet::new();
        for d in day {
            let key = (d.prefix, d.delegator, d.delegatee);
            if truth.contains(&key) {
                eval.true_positives += 1;
                matched.insert(key);
            } else {
                eval.false_positives += 1;
            }
        }
        eval.false_negatives += (truth.len() - matched.len()) as u64;
    }
    eval
}

/// Per-extension ablation row: the same world scored under a config.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Config label.
    pub label: String,
    /// The scores.
    pub eval: TruthEvaluation,
    /// Mean daily delegation count.
    pub mean_daily_delegations: f64,
}

/// Build an ablation row from a labelled result.
pub fn ablation_row(
    label: impl Into<String>,
    world: &LeaseWorld,
    result: &DailyDelegations,
) -> AblationRow {
    let eval = evaluate_against_truth(world, result);
    let mean = result.days.iter().map(Vec::len).sum::<usize>() as f64
        / result.days.len().max(1) as f64;
    AblationRow {
        label: label.into(),
        eval,
        mean_daily_delegations: mean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InferenceConfig;
    use crate::pipeline::{run_pipeline, PipelineInput};
    use bgpsim::observe::{render_days, ObservationDay, VisibilityModel};
    use bgpsim::scenario::WorldConfig;
    use bgpsim::topology::TopologyConfig;
    use nettypes::date::{date, DateRange};

    fn world_and_days() -> (LeaseWorld, Vec<ObservationDay>) {
        let w = LeaseWorld::generate(&WorldConfig {
            seed: 23,
            span: DateRange::new(date("2018-01-01"), date("2018-03-31")),
            topology: TopologyConfig {
                seed: 23,
                num_tier1: 4,
                num_tier2: 12,
                num_stubs: 120,
                multi_as_org_fraction: 0.15,
            },
            num_allocations: 40,
            initial_active_leases: 150,
            bgp_visible_fraction: 0.35,
            onoff_fraction: 0.4,
            num_hijacks: 6,
            num_moas: 4,
            num_as_sets: 2,
            num_scrubbing: 3,
            ..Default::default()
        });
        let days = render_days(&w, &VisibilityModel::default(), w.span);
        (w, days)
    }

    #[test]
    fn metrics_arithmetic() {
        let e = TruthEvaluation {
            true_positives: 80,
            false_positives: 20,
            false_negatives: 20,
        };
        assert!((e.precision() - 0.8).abs() < 1e-12);
        assert!((e.recall() - 0.8).abs() < 1e-12);
        assert!((e.f1() - 0.8).abs() < 1e-12);
        let zero = TruthEvaluation::default();
        assert_eq!(zero.precision(), 0.0);
        assert_eq!(zero.recall(), 0.0);
        assert_eq!(zero.f1(), 0.0);
    }

    #[test]
    fn extended_beats_baseline() {
        let (w, days) = world_and_days();
        let as2org = crate::as2org::As2OrgSeries::from_topology(
            &w.topology,
            w.span.start,
            w.span.end,
            90,
        );
        let base = run_pipeline(
            PipelineInput::Days(&days),
            w.span,
            &InferenceConfig::baseline(),
            None,
        );
        let ext = run_pipeline(
            PipelineInput::Days(&days),
            w.span,
            &InferenceConfig::extended(),
            Some(&as2org),
        );
        let eb = evaluate_against_truth(&w, &base);
        let ee = evaluate_against_truth(&w, &ext);
        // Extension (v) fills gaps ⇒ recall up; extension (iv) removes
        // intra-org false positives ⇒ precision up.
        assert!(
            ee.recall() > eb.recall(),
            "recall: base {:.3} ext {:.3}",
            eb.recall(),
            ee.recall()
        );
        assert!(
            ee.precision() > eb.precision(),
            "precision: base {:.3} ext {:.3}",
            eb.precision(),
            ee.precision()
        );
        assert!(ee.f1() > eb.f1());
        // Both should be respectable on this clean world.
        assert!(ee.recall() > 0.7, "ext recall {:.3}", ee.recall());
        assert!(ee.precision() > 0.8, "ext precision {:.3}", ee.precision());
    }

    #[test]
    fn ablation_rows_labelled() {
        let (w, days) = world_and_days();
        let base = run_pipeline(
            PipelineInput::Days(&days),
            w.span,
            &InferenceConfig::baseline(),
            None,
        );
        let row = ablation_row("baseline", &w, &base);
        assert_eq!(row.label, "baseline");
        assert!(row.mean_daily_delegations > 0.0);
        assert!(row.eval.true_positives > 0);
    }
}
