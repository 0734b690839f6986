//! Table 1: the IPv4 exhaustion timeline for the five RIRs.

use registry::timeline::{exhaustion_timeline, render_table1, ExhaustionEvent};

/// Table 1 output.
pub struct Table1 {
    /// The ordered milestone events.
    pub events: Vec<ExhaustionEvent>,
    /// The rendered table.
    pub rendered: String,
}

/// Regenerate Table 1.
pub fn run() -> Table1 {
    Table1 {
        events: exhaustion_timeline(),
        rendered: render_table1(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use registry::rir::Rir;

    #[test]
    fn contains_all_rirs_and_key_dates() {
        let t = run();
        for rir in Rir::ALL {
            assert!(t.rendered.contains(rir.name()));
        }
        // Paper milestones, verbatim dates.
        for d in [
            "2011-04-15",
            "2012-09-14",
            "2014-04-23",
            "2017-02-15",
            "2017-03-31",
            "2014-07-27",
            "2015-09-24",
            "2019-11-25",
            "2020-08-19",
        ] {
            assert!(t.rendered.contains(d), "missing {d} in:\n{}", t.rendered);
        }
        assert_eq!(t.events.len(), 10);
    }
}
