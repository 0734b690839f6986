//! §2: post-exhaustion waiting-list status.
//!
//! The paper reports: ARIN's list held up to 202 approved requests
//! with waits beyond 130 days; LACNIC's up to 275; RIPE's up to 110,
//! cleared with recovered space after November 2019; APNIC abolished
//! its list in July 2019.

use crate::report::TextTable;
use crate::study::StudyConfig;
use nettypes::date::date;
use registry::simulate::{simulate_waitlists, WaitlistReport};

/// §2 waiting-list output.
pub struct S2Waitlists {
    /// Per-RIR reports.
    pub reports: Vec<WaitlistReport>,
    /// Rendered report.
    pub rendered: String,
}

/// Simulate the waiting lists up to the paper's observation date for
/// these statistics (October 2020 — LACNIC's list only starts with its
/// 2020-08-19 depletion).
pub fn run(config: &StudyConfig) -> S2Waitlists {
    let reports = simulate_waitlists(config.seed, date("2020-10-25"));
    let mut table = TextTable::new(&[
        "RIR",
        "peak depth",
        "paper peak",
        "max wait (days)",
        "pending",
    ]);
    for r in &reports {
        let paper_peak = match r.rir {
            registry::rir::Rir::Arin => "202",
            registry::rir::Rir::Lacnic => "275",
            registry::rir::Rir::RipeNcc => "110",
            _ => "-",
        };
        table.row(vec![
            r.rir.name().to_string(),
            r.max_depth.to_string(),
            paper_peak.to_string(),
            r.max_waiting_days
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".into()),
            r.pending.to_string(),
        ]);
    }
    let mut rendered = table.render();
    rendered.push_str(
        "\nAPNIC abolished its waiting list on 2019-07-02; AFRINIC never operated one.\n",
    );
    S2Waitlists { reports, rendered }
}

#[cfg(test)]
mod tests {
    use super::*;
    use registry::rir::Rir;

    #[test]
    fn reproduces_section2_bands() {
        let r = run(&StudyConfig::quick());
        let get = |rir: Rir| r.reports.iter().find(|x| x.rir == rir).expect("report");
        // ARIN: deep backlog, >100-day waits.
        let arin = get(Rir::Arin);
        assert!(arin.max_depth > 100 && arin.max_depth <= 202);
        assert!(arin.max_waiting_days.unwrap_or(0) >= 100);
        // LACNIC: deepest backlog (recent depletion).
        let lacnic = get(Rir::Lacnic);
        assert!(lacnic.max_depth > arin.max_depth / 2);
        assert!(lacnic.max_depth <= 275);
        // RIPE: kept up via recovered space.
        let ripe = get(Rir::RipeNcc);
        assert!(ripe.max_depth <= 110);
        assert!(r.rendered.contains("APNIC abolished"));
    }
}
