//! Inference configuration and the baseline/extended presets.

use serde::{Deserialize, Serialize};

/// Knobs of the delegation-inference algorithm.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InferenceConfig {
    /// Fraction of monitors that must see a prefix-origin pair
    /// (step ii). The paper uses 0.5 and notes any threshold between
    /// 10 % and 90 % yields negligible differences.
    pub visibility_threshold: f64,
    /// Extension (iv): drop delegations between ASes of the same
    /// organization.
    pub filter_intra_org: bool,
    /// Extension (v): fill gaps up to this many days when the same
    /// delegation recurs with no conflicting delegation in between
    /// (the paper's validated rule uses 10). `None` disables filling.
    pub consistency_fill_days: Option<usize>,
}

impl InferenceConfig {
    /// The Krenc-Feldmann baseline: steps (i)–(iii) only.
    pub fn baseline() -> InferenceConfig {
        InferenceConfig {
            visibility_threshold: 0.5,
            filter_intra_org: false,
            consistency_fill_days: None,
        }
    }

    /// The paper's extended algorithm: baseline + (iv) + (v).
    pub fn extended() -> InferenceConfig {
        InferenceConfig {
            filter_intra_org: true,
            consistency_fill_days: Some(10),
            ..InferenceConfig::baseline()
        }
    }
}

impl Default for InferenceConfig {
    fn default() -> Self {
        InferenceConfig::extended()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let b = InferenceConfig::baseline();
        assert!(!b.filter_intra_org);
        assert_eq!(b.consistency_fill_days, None);
        assert_eq!(b.visibility_threshold, 0.5);

        let e = InferenceConfig::extended();
        assert!(e.filter_intra_org);
        assert_eq!(e.consistency_fill_days, Some(10));
        assert_eq!(e.visibility_threshold, b.visibility_threshold);
        assert_eq!(InferenceConfig::default(), e);
    }
}
