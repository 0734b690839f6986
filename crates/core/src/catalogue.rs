//! The artifact catalogue: the one list of what `drywells`
//! regenerates.
//!
//! Each paper artifact has one [`Artifact`] entry: its id (`repro
//! <id>`, `GET /experiments/{id}.csv`), the line `repro list` prints,
//! its section title in [`crate::run_all`], its runner, and its CSV
//! file when it has a data series. [`crate::run_all`], the `repro`
//! binary, [`crate::profile`] and the serving layer all read this
//! table, so adding an artifact is one entry here.

use crate::csv;
use crate::experiments::{
    fig1, fig2, fig3, fig4, fig5, fig6, s2_waitlists, s4_coverage, s5_prediction, s6_amortization,
    s6_behavior, s7_combined, sensitivity, table1,
};
use crate::study::StudyConfig;

/// What one run of an artifact produced.
struct Output {
    /// The rendered report; `None` when the artifact has nothing to
    /// report (§5 without enough data), and `run_all` skips it.
    text: Option<String>,
    /// The CSV file contents, when they were asked for and the
    /// artifact has a CSV file.
    csv: Option<String>,
}

/// One paper artifact.
pub struct Artifact {
    /// The id on the command line and in `/experiments/{id}.csv`.
    pub id: &'static str,
    /// What the artifact is, one line for `repro list`.
    pub about: &'static str,
    /// The section title in [`crate::run_all`].
    pub title: &'static str,
    /// The file `repro --csv DIR` writes; `None` for artifacts without
    /// a data series.
    pub csv_file: Option<&'static str>,
    run: fn(&StudyConfig, bool) -> Output,
}

impl Artifact {
    /// Run the artifact. With `csv` set, the output also carries the
    /// CSV contents of an artifact that has a CSV file.
    fn run(&self, config: &StudyConfig, csv: bool) -> Output {
        (self.run)(config, csv && self.csv_file.is_some())
    }

    /// The CSV contents alone; `None` for an artifact without a CSV
    /// file (which is then not run).
    pub fn csv(&self, config: &StudyConfig) -> Option<String> {
        self.csv_file?;
        self.run(config, true).csv
    }
}

/// Every artifact, in the order of [`crate::run_all`].
pub const ARTIFACTS: &[Artifact] = &[
    Artifact {
        id: "table1",
        about: "Table 1: IPv4 exhaustion timeline per RIR",
        title: "Table 1: IPv4 exhaustion timeline",
        csv_file: None,
        run: |_, _| text(table1::run().rendered),
    },
    Artifact {
        id: "s2-waitlists",
        about: "§2: post-exhaustion waiting-list status",
        title: "S2: waiting lists",
        csv_file: None,
        run: |c, _| text(s2_waitlists::run(c).rendered),
    },
    Artifact {
        id: "fig1",
        about: "Figure 1: evolution of price per IP by size and region",
        title: "Figure 1: price per IP",
        csv_file: Some("fig1_prices.csv"),
        run: |c, want| with_csv(fig1::run(c), want, csv::fig1_csv, |r| r.rendered),
    },
    Artifact {
        id: "fig2",
        about: "Figure 2: # of market transfers per region",
        title: "Figure 2: market transfers",
        csv_file: Some("fig2_transfers.csv"),
        run: |c, want| with_csv(fig2::run(c), want, csv::fig2_csv, |r| r.rendered),
    },
    Artifact {
        id: "fig3",
        about: "Figure 3: inter-RIR transactions",
        title: "Figure 3: inter-RIR transfers",
        csv_file: Some("fig3_inter_rir.csv"),
        run: |c, want| with_csv(fig3::run(c), want, csv::fig3_csv, |r| r.rendered),
    },
    Artifact {
        id: "fig4",
        about: "Figure 4: advertised leasing prices",
        title: "Figure 4: advertised leasing prices",
        csv_file: Some("fig4_leasing.csv"),
        run: |_, want| with_csv(fig4::run(), want, csv::fig4_csv, |r| r.rendered),
    },
    Artifact {
        id: "fig5",
        about: "Figure 5: consistency-rule fail rates on RPKI delegations",
        title: "Figure 5: RPKI consistency rules",
        csv_file: Some("fig5_fail_rates.csv"),
        run: |c, want| with_csv(fig5::run(c), want, csv::fig5_csv, |r| r.rendered),
    },
    Artifact {
        id: "fig6",
        about: "Figure 6: BGP delegations w/wo the paper's extensions",
        title: "Figure 6: BGP delegations",
        csv_file: Some("fig6_delegations.csv"),
        run: |c, want| with_csv(fig6::run(c), want, csv::fig6_csv, |r| r.rendered),
    },
    Artifact {
        id: "s4-coverage",
        about: "§4: BGP-delegations vs RDAP-delegations coverage",
        title: "S4: BGP vs RDAP coverage",
        csv_file: None,
        run: |c, _| text(s4_coverage::run(c).rendered),
    },
    Artifact {
        id: "s5-prediction",
        about: "§5: related-work prediction models vs the market",
        title: "S5: related-work prediction models",
        csv_file: None,
        run: |c, _| Output {
            text: s5_prediction::run(c).map(|r| r.rendered),
            csv: None,
        },
    },
    Artifact {
        id: "s6-amortization",
        about: "§6: buy-vs-lease amortization times",
        title: "S6: amortization",
        csv_file: None,
        run: |_, _| text(s6_amortization::run().rendered),
    },
    Artifact {
        id: "s6-behavior",
        about: "§6: market engagement by business model",
        title: "S6: market behaviour by business model",
        csv_file: None,
        run: |c, _| text(s6_behavior::run(c).rendered),
    },
    Artifact {
        id: "s7-combined",
        about: "§7: the combined BGP+RPKI+RDAP estimator (future work)",
        title: "S7: combined BGP+RPKI+RDAP estimator",
        csv_file: None,
        run: |c, _| text(s7_combined::run(c).rendered),
    },
    Artifact {
        id: "sensitivity",
        about: "footnote 2 / Appendix A parameter sweeps",
        title: "Sensitivity: thresholds and fill windows",
        csv_file: Some("sensitivity.csv"),
        run: |c, want| {
            with_csv(sensitivity::run(c), want, csv::sensitivity_csv, |r| {
                r.rendered
            })
        },
    },
];

fn text(rendered: String) -> Output {
    Output {
        text: Some(rendered),
        csv: None,
    }
}

fn with_csv<R>(r: R, want: bool, csv: fn(&R) -> String, rendered: fn(R) -> String) -> Output {
    let csv = want.then(|| csv(&r));
    Output {
        text: Some(rendered(r)),
        csv,
    }
}

/// The catalogue entry for `id`.
pub fn find(id: &str) -> Option<&'static Artifact> {
    ARTIFACTS.iter().find(|a| a.id == id)
}

/// A sink for CSV files: the file name and its contents.
pub type CsvSink<'a> = &'a mut dyn FnMut(&'static str, String);

/// Run every artifact once, in catalogue order, and return the
/// [`crate::run_all`] report. When `csv` is given, each artifact with a
/// CSV file also hands its contents to it, from the same run.
pub(crate) fn report(config: &StudyConfig, mut csv: Option<CsvSink>) -> String {
    let mut out = String::new();
    for artifact in ARTIFACTS {
        let output = artifact.run(config, csv.is_some());
        if let (Some(sink), Some(file), Some(contents)) =
            (csv.as_mut(), artifact.csv_file, output.csv)
        {
            sink(file, contents);
        }
        if let Some(body) = output.text {
            out.push_str(&format!("\n=== {} ===\n\n{body}\n", artifact.title));
        }
    }
    out
}

/// The report `repro <id>` prints: one artifact's text (a note when it
/// had nothing to report), or [`crate::run_all`]'s report for `all`;
/// `None` for an unknown id. When `csv` is given, each artifact run
/// with a CSV file also hands its contents to it, from the same run.
pub fn run_id(id: &str, config: &StudyConfig, csv: Option<CsvSink>) -> Option<String> {
    if id == "all" {
        return Some(report(config, csv));
    }
    let artifact = find(id)?;
    let output = artifact.run(config, csv.is_some());
    if let (Some(sink), Some(file), Some(contents)) = (csv, artifact.csv_file, output.csv) {
        sink(file, contents);
    }
    Some(output.text.unwrap_or_else(|| "insufficient data".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_found() {
        for (i, a) in ARTIFACTS.iter().enumerate() {
            assert!(ARTIFACTS[..i].iter().all(|b| b.id != a.id), "{}", a.id);
            assert_eq!(find(a.id).map(|f| f.title), Some(a.title));
        }
        assert!(find("all").is_none());
    }

    #[test]
    fn csv_only_for_artifacts_with_a_file() {
        let cfg = StudyConfig::quick();
        let table1 = find("table1").unwrap();
        assert!(table1.csv(&cfg).is_none());
        assert!(table1.run(&cfg, true).csv.is_none());
        let fig4 = find("fig4").unwrap();
        assert_eq!(fig4.csv(&cfg), Some(csv::fig4_csv(&fig4::run())));
        assert!(fig4.run(&cfg, false).csv.is_none());
    }
}
