//! Figure 4: advertised leasing prices, 2019-10-26 → 2020-06-01.

use crate::report::{f, TextTable};
use market::leasing::{leasing_catalog, prices_on, LeasingProvider};
use nettypes::date::{date, Date};

/// Figure 4 output.
pub struct Fig4 {
    /// The provider catalog.
    pub catalog: Vec<LeasingProvider>,
    /// Monthly sample dates across the scrape window.
    pub sample_dates: Vec<Date>,
    /// Rendered report.
    pub rendered: String,
}

/// Regenerate Figure 4. (Pure data — the advertised prices are
/// reproduced from the paper itself, so no config is needed.)
pub fn run() -> Fig4 {
    let catalog = leasing_catalog();
    // Monthly samples from the first scrape to the last.
    let mut sample_dates = Vec::new();
    let mut d = date("2019-10-26");
    while d <= date("2020-06-01") {
        sample_dates.push(d);
        // Advance roughly one month.
        d += 30;
    }
    if *sample_dates.last().expect("non-empty") != date("2020-06-01") {
        sample_dates.push(date("2020-06-01"));
    }

    let mut table = TextTable::new(&["date", "providers", "min $/IP/mo", "max $/IP/mo"]);
    for &day in &sample_dates {
        let visible = prices_on(&catalog, day);
        let min = visible
            .iter()
            .map(|(_, v)| *v)
            .fold(f64::INFINITY, f64::min);
        let max = visible.iter().map(|(_, v)| *v).fold(0.0f64, f64::max);
        table.row(vec![
            day.to_string(),
            visible.len().to_string(),
            f(min, 2),
            f(max, 2),
        ]);
    }
    let mut rendered = table.render();
    rendered.push('\n');
    for p in catalog.iter().filter(|p| p.changed_price()) {
        let first = p.prices.first().expect("non-empty").price;
        let last = p.prices.last().expect("non-empty").price;
        rendered.push_str(&format!("{}: ${:.2} → ${:.2}\n", p.name, first, last));
    }
    Fig4 {
        catalog,
        sample_dates,
        rendered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_figure4() {
        let r = run();
        assert_eq!(r.catalog.len(), 21);
        // Band $0.30–$2.33 on the final date.
        assert!(r.rendered.contains("2020-06-01 | 21"));
        assert!(r.rendered.contains("0.30"));
        assert!(r.rendered.contains("2.33"));
        // The three reported changers, with their exact moves.
        assert!(r.rendered.contains("Heficed: $0.65 → $0.40"));
        assert!(r.rendered.contains("IPv4Mall: $0.35 → $0.56"));
        assert!(r.rendered.contains("IP-AS: $1.17 → $2.33"));
        // The January spike shows in the max column.
        assert!(r.rendered.contains("3.90"));
    }
}
