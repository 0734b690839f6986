//! Ground-truth evaluation.
//!
//! Unlike the paper's authors, the simulator *knows* the true leases,
//! so the inference can be scored: precision (inferred delegations
//! that are real leases) and recall (real BGP-announceable leases that
//! were inferred). This is the harness that validates the extensions
//! actually improve the estimate.

use crate::base::Delegation;
use crate::pipeline::DailyDelegations;
use bgpsim::scenario::LeaseWorld;
use nettypes::asn::Asn;
use nettypes::prefix::Prefix;
use serde::{Deserialize, Serialize};

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

/// A delegation's identity for scoring: `(P', S, T)`.
type Key = (Prefix, Asn, Asn);

/// Score a pipeline result day by day against the world's ground
/// truth. A true positive requires matching (prefix, delegator,
/// delegatee) of an *active, announced* lease on that day.
///
/// Every inferred delegation counts once, as a true or a false
/// positive; a false negative is a true key no inferred delegation
/// matches that day. The truth is one sweep over the span: each
/// announced lease enters the active set on its first day in the span
/// and leaves after its last, and each day's sorted keys are merged
/// against the sorted active set.
pub fn evaluate_against_truth(world: &LeaseWorld, result: &DailyDelegations) -> TruthEvaluation {
    let sp = obs::span!("truth_eval", unit = "days");
    sp.add_items(result.days.len() as u64);
    let last_day = result.days.len() as i64 - 1;
    // (span day index, key) of each lease entering and leaving.
    let mut enter: Vec<(i64, Key)> = Vec::new();
    let mut leave: Vec<(i64, Key)> = Vec::new();
    for l in world.leases.iter().filter(|l| l.announced && !l.aggregated) {
        let first = (l.active.start - result.start).max(0);
        let last = (l.active.end - result.start).min(last_day);
        if first <= last {
            let key = (l.prefix, l.delegator_asn, l.delegatee_asn);
            enter.push((first, key));
            leave.push((last + 1, key));
        }
    }
    enter.sort_unstable();
    leave.sort_unstable();
    let (mut enter, mut leave) = (enter.into_iter().peekable(), leave.into_iter().peekable());

    let mut eval = TruthEvaluation::default();
    // The distinct keys of the leases active today, sorted, each with
    // its number of leases.
    let mut active: Vec<(Key, u32)> = Vec::new();
    let mut inferred: Vec<Key> = Vec::new();
    for (i, day) in (0i64..).zip(&result.days) {
        while let Some((_, key)) = leave.next_if(|&(d, _)| d == i) {
            if let Ok(at) = active.binary_search_by_key(&key, |&(k, _)| k) {
                active[at].1 -= 1;
                if active[at].1 == 0 {
                    active.remove(at);
                }
            }
        }
        while let Some((_, key)) = enter.next_if(|&(d, _)| d == i) {
            match active.binary_search_by_key(&key, |&(k, _)| k) {
                Ok(at) => active[at].1 += 1,
                Err(at) => active.insert(at, (key, 1)),
            }
        }

        inferred.clear();
        inferred.extend(day.iter().map(Delegation::key));
        inferred.sort_unstable();
        let mut truth = active.iter().map(|&(k, _)| k).peekable();
        let mut matched = 0;
        let mut last_match = None;
        for &key in &inferred {
            while truth.next_if(|&k| k < key).is_some() {}
            if truth.peek() == Some(&key) {
                eval.true_positives += 1;
                if last_match != Some(key) {
                    matched += 1;
                    last_match = Some(key);
                }
            } else {
                eval.false_positives += 1;
            }
        }
        eval.false_negatives += (active.len() - matched) as u64;
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
    let mean =
        result.days.iter().map(Vec::len).sum::<usize>() as f64 / result.days.len().max(1) as f64;
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
        let as2org =
            crate::as2org::As2OrgSeries::from_topology(&w.topology, w.span.start, w.span.end, 90);
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
