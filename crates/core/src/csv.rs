//! CSV rendering of the experiment data series, for plotting the
//! figures with external tools.
//!
//! Each function returns the file contents; the `repro` binary's
//! `--csv <dir>` flag writes them to disk. Fields never contain
//! commas, so no quoting is needed.

use crate::experiments::{fig1, fig2, fig3, fig4, fig5, fig6, sensitivity};

/// Figure 1 boxes: one row per (quarter, region, size class).
pub fn fig1_csv(r: &fig1::Fig1) -> String {
    let mut out = String::from("quarter,region,size,count,min,q1,median,q3,max,mean\n");
    for b in &r.boxes {
        out.push_str(&format!(
            "{},{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}\n",
            b.quarter_label,
            b.region.label(),
            b.size.label(),
            b.stats.count,
            b.stats.min,
            b.stats.q1,
            b.stats.median,
            b.stats.q3,
            b.stats.max,
            b.stats.mean,
        ));
    }
    out
}

/// Figure 2 counts: one row per (quarter, region).
pub fn fig2_csv(r: &fig2::Fig2) -> String {
    let mut out = String::from("quarter,region,transfers,addresses\n");
    for c in &r.counts {
        out.push_str(&format!(
            "{},{},{},{}\n",
            c.quarter_label,
            c.rir.label(),
            c.count,
            c.addresses
        ));
    }
    out
}

/// Figure 3 flows: one row per (year, from, to).
pub fn fig3_csv(r: &fig3::Fig3) -> String {
    let mut out = String::from("year,from,to,transfers,addresses,median_block\n");
    for f in &r.flows {
        out.push_str(&format!(
            "{},{},{},{},{},{}\n",
            f.year,
            f.from.label(),
            f.to.label(),
            f.count,
            f.addresses,
            f.median_block
        ));
    }
    out
}

/// Figure 4 prices: one row per (sample date, provider).
pub fn fig4_csv(r: &fig4::Fig4) -> String {
    let mut out = String::from("date,provider,kind,usd_per_ip_month\n");
    for &d in &r.sample_dates {
        for p in &r.catalog {
            if let Some(price) = p.price_on(d) {
                out.push_str(&format!("{},{},{:?},{:.2}\n", d, p.name, p.kind, price));
            }
        }
    }
    out
}

/// Figure 5 curves: one row per (N, M).
pub fn fig5_csv(r: &fig5::Fig5) -> String {
    let mut out = String::from("n,m,fail_rate\n");
    for c in &r.curves {
        for (m, rate) in &c.points {
            out.push_str(&format!("{},{},{:.6}\n", c.n, m, rate));
        }
    }
    out
}

/// Figure 6 series: one row per (day, algorithm).
pub fn fig6_csv(r: &fig6::Fig6) -> String {
    let mut out = String::from(
        "date,algorithm,delegations,delegated_addresses,slash24_share,slash20_share\n",
    );
    for (label, series) in [
        ("baseline", &r.baseline_metrics),
        ("extended", &r.extended_metrics),
    ] {
        for m in series {
            out.push_str(&format!(
                "{},{},{},{},{:.4},{:.4}\n",
                m.date,
                label,
                m.delegations,
                m.delegated_addresses,
                m.slash24_share,
                m.slash20_share
            ));
        }
    }
    out
}

/// Sensitivity sweeps: one row per point.
pub fn sensitivity_csv(r: &sensitivity::Sensitivity) -> String {
    let mut out = String::from("sweep,value,delegation_days,precision,recall\n");
    for (name, sweep) in [
        ("visibility_threshold", &r.threshold_sweep),
        ("fill_window_days", &r.fill_sweep),
    ] {
        for p in sweep {
            out.push_str(&format!(
                "{},{},{},{:.4},{:.4}\n",
                name,
                p.value,
                p.total_delegations,
                p.eval.precision(),
                p.eval.recall()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyConfig;

    fn lines(s: &str) -> usize {
        s.lines().count()
    }

    #[test]
    fn fig1_csv_shape() {
        let cfg = StudyConfig::quick();
        let r = fig1::run(&cfg);
        let csv = fig1_csv(&r);
        assert!(csv.starts_with("quarter,region,size,"));
        assert_eq!(lines(&csv), r.boxes.len() + 1);
        // No cell contains a comma-breaking value; every row has the
        // same arity.
        let arity = csv.lines().next().unwrap().split(',').count();
        for line in csv.lines() {
            assert_eq!(line.split(',').count(), arity, "{line}");
        }
    }

    #[test]
    fn fig5_csv_covers_grid() {
        let cfg = StudyConfig::quick();
        let r = fig5::run(&cfg);
        let csv = fig5_csv(&r);
        let expected: usize = r.curves.iter().map(|c| c.points.len()).sum();
        assert_eq!(lines(&csv), expected + 1);
    }

    #[test]
    fn fig6_csv_has_both_algorithms() {
        let cfg = StudyConfig::quick();
        let r = fig6::run(&cfg);
        let csv = fig6_csv(&r);
        assert_eq!(
            lines(&csv),
            r.baseline_metrics.len() + r.extended_metrics.len() + 1
        );
        assert!(csv.contains(",baseline,"));
        assert!(csv.contains(",extended,"));
    }

    #[test]
    fn fig4_csv_prices_match_catalog() {
        let r = fig4::run();
        let csv = fig4_csv(&r);
        assert!(csv.contains("Heficed"));
        assert!(csv.contains("0.30"));
        assert!(csv.contains("3.90"));
    }
}
