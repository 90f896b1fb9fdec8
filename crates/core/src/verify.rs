//! Programmatic verification of the full reproduction contract.
//!
//! [`run`] executes every check that `EXPERIMENTS.md` documents — each
//! table, each figure, the §2 and §5 claims — and returns a typed report a
//! downstream user can print, archive or assert on. The
//! `verify_reproduction` example is a thin wrapper over this module (and
//! `scripts/verify.sh` runs it), so "does the repo still reproduce the
//! paper?" is a single function call, and `tests/reproduction.rs` asserts
//! that every check of [`run`] passes.

use crate::experiment;
use serde::{Deserialize, Serialize};

/// One verified claim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Check {
    /// Which paper artefact the check belongs to.
    pub artefact: String,
    /// What is being compared.
    pub quantity: String,
    /// The paper's value.
    pub paper: f64,
    /// The model's value.
    pub measured: f64,
    /// Acceptance tolerance, relative (e.g. `0.02`) unless `absolute`.
    pub tolerance: f64,
    /// Whether `tolerance` is absolute rather than relative.
    pub absolute: bool,
    /// Did the check pass?
    pub pass: bool,
}

impl Check {
    fn relative(artefact: &str, quantity: &str, paper: f64, measured: f64, tol: f64) -> Check {
        let pass = (measured - paper).abs() / paper.abs().max(1e-12) <= tol;
        Check {
            artefact: artefact.to_string(),
            quantity: quantity.to_string(),
            paper,
            measured,
            tolerance: tol,
            absolute: false,
            pass,
        }
    }

    fn absolute(artefact: &str, quantity: &str, paper: f64, measured: f64, tol: f64) -> Check {
        let pass = (measured - paper).abs() <= tol;
        Check {
            artefact: artefact.to_string(),
            quantity: quantity.to_string(),
            paper,
            measured,
            tolerance: tol,
            absolute: true,
            pass,
        }
    }

    /// Passes iff `lo < measured < hi`. The band's midpoint stands in
    /// `paper` and its half-width in `tolerance`, so the row renders as
    /// `mid ±half`.
    fn strictly_inside(artefact: &str, quantity: &str, lo: f64, hi: f64, measured: f64) -> Check {
        let (mid, half) = ((lo + hi) / 2.0, (hi - lo) / 2.0);
        let mut c = Check::absolute(artefact, quantity, mid, measured, half);
        c.pass = lo < measured && measured < hi;
        c
    }
}

/// The whole verification run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerificationReport {
    /// Seed used.
    pub seed: u64,
    /// Campaign scale divisor used.
    pub scale: u32,
    /// Every check, in paper order.
    pub checks: Vec<Check>,
}

impl VerificationReport {
    /// Did every check pass?
    pub fn all_pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// Failing checks, if any.
    pub fn failures(&self) -> Vec<&Check> {
        self.checks.iter().filter(|c| !c.pass).collect()
    }

    /// Render as an aligned checklist.
    pub fn render(&self) -> String {
        let mut t = crate::report::Table::new([
            "Artefact", "Quantity", "Paper", "Measured", "Tolerance", "Status",
        ]);
        for c in &self.checks {
            t.row([
                c.artefact.clone(),
                c.quantity.clone(),
                format!("{:.4}", c.paper),
                format!("{:.4}", c.measured),
                if c.absolute {
                    format!("±{}", c.tolerance)
                } else {
                    format!("±{:.1}%", c.tolerance * 100.0)
                },
                if c.pass { "PASS".into() } else { "FAIL".into() },
            ]);
        }
        format!(
            "Reproduction verification (seed {}, scale 1/{}): {}/{} checks pass\n{}",
            self.seed,
            self.scale,
            self.checks.iter().filter(|c| c.pass).count(),
            self.checks.len(),
            t.render()
        )
    }
}

/// Run the full reproduction contract.
pub fn run(seed: u64, scale: u32) -> VerificationReport {
    let mut checks = Vec::new();

    // Table 1.
    let t1 = experiment::table1();
    checks.push(Check::absolute("Table 1", "compute nodes", 5860.0, t1.compute_nodes as f64, 0.0));
    checks.push(Check::absolute("Table 1", "compute cores", 750_080.0, t1.compute_cores as f64, 0.0));
    checks.push(Check::absolute("Table 1", "Slingshot switches", 768.0, t1.slingshot_switches as f64, 0.0));
    checks.push(Check::absolute("Table 1", "compute cabinets", 23.0, t1.cabinets as f64, 0.0));
    checks.push(Check::absolute("Table 1", "CDUs", 6.0, t1.cdus as f64, 0.0));
    checks.push(Check::absolute("Table 1", "file systems", 5.0, t1.filesystems as f64, 0.0));

    // Table 2.
    let t2 = experiment::table2(seed);
    checks.push(Check::relative("Table 2", "idle total (kW)", 1800.0, t2.idle_total_kw, 0.05));
    checks.push(Check::relative("Table 2", "loaded total (kW)", 3500.0, t2.loaded_total_kw, 0.05));
    checks.push(Check::relative("Table 2", "node share of loaded", 0.86, t2.rows[0].share, 0.04));

    // Tables 3-4: every ratio.
    for (label, table) in [("Table 3", experiment::table3(seed)), ("Table 4", experiment::table4(seed))] {
        for row in &table.rows {
            checks.push(Check::absolute(
                label,
                &format!("{} perf ratio", row.benchmark),
                row.paper.perf,
                row.model.perf,
                0.01,
            ));
            checks.push(Check::absolute(
                label,
                &format!("{} energy ratio", row.benchmark),
                row.paper.energy,
                row.model.energy,
                0.01,
            ));
        }
    }

    // Figures.
    let fig1 = experiment::figure1(seed, scale);
    checks.push(Check::relative("Figure 1", "baseline mean (kW)", 3220.0, fig1.summary.means[0], 0.02));
    checks.push(Check::absolute("Figure 1", "utilisation > 0.9", 0.95, fig1.utilisation, 0.05));

    let fig2 = experiment::figure2(seed, scale);
    checks.push(Check::relative("Figure 2", "before BIOS change (kW)", 3220.0, fig2.settled_means_kw[0], 0.02));
    checks.push(Check::relative("Figure 2", "after BIOS change (kW)", 3010.0, fig2.settled_means_kw[1], 0.02));

    let fig3 = experiment::figure3(seed, scale);
    checks.push(Check::relative("Figure 3", "before freq change (kW)", 3010.0, fig3.settled_means_kw[0], 0.02));
    checks.push(Check::relative("Figure 3", "after freq change (kW)", 2530.0, fig3.settled_means_kw[1], 0.02));

    // §5 conclusions.
    let c = experiment::conclusions(seed, &fig2, &fig3);
    checks.push(Check::absolute("Section 5", "total saving (kW)", 690.0, c.total_saving_kw, 75.0));
    checks.push(Check::absolute("Section 5", "total reduction", 0.21, c.total_drop, 0.025));
    checks.push(Check::absolute("Section 5", "BIOS reduction", 0.065, c.bios_drop, 0.015));
    checks.push(Check::absolute("Section 5", "frequency saving (kW)", 480.0, c.freq_drop_kw, 60.0));
    checks.push(Check::absolute("Section 5", "idle/loaded node fraction", 0.50, c.idle_fraction, 0.06));
    // The paper's 200–250 W band, as its midpoint ± half-width.
    checks.push(Check::absolute("Section 5", "switch power, idle (W)", 225.0, c.switch_band_w.0, 25.0));
    checks.push(Check::absolute("Section 5", "switch power, full load (W)", 225.0, c.switch_band_w.1, 25.0));

    // §2 regimes.
    let regimes = experiment::emissions_regimes(seed);
    checks.push(Check::absolute("Section 2", "scope2=scope3 parity (g/kWh)", 65.0, regimes.parity_ci, 35.0));

    // §2's rule applied hour by hour through December 2022. Mean power is
    // placed on the segment from static 2.0 GHz (0) to static turbo (1),
    // and scope 2 taken relative to static turbo's.
    let g = experiment::grid_aware_december(seed, scale);
    let between = (g.grid_aware_kw - g.static_slow_kw) / (g.static_fast_kw - g.static_slow_kw);
    let scope2 = g.scope2_t[2] / g.scope2_t[0];
    let artefact = "Section 2 grid-aware";
    checks.push(Check::strictly_inside(artefact, "mean power, 2.0 GHz (0) to turbo (1)", 0.0, 1.0, between));
    checks.push(Check::strictly_inside(artefact, "scope 2 / static turbo scope 2", 0.0, 1.0, scope2));
    checks.push(Check::absolute(artefact, "fraction of hours shed", 0.45, g.shed_fraction, 0.35));

    VerificationReport { seed, scale, checks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The seed-2022, scale-10 report, run once for every test here.
    fn report() -> &'static VerificationReport {
        static REPORT: OnceLock<VerificationReport> = OnceLock::new();
        REPORT.get_or_init(|| run(2022, 10))
    }

    #[test]
    fn default_run_passes_everything() {
        let report = report();
        assert!(
            report.all_pass(),
            "failing checks: {:#?}",
            report.failures()
        );
        // The contract covers all paper artefacts.
        assert!(report.checks.len() >= 30, "{} checks", report.checks.len());
        for artefact in [
            "Table 1",
            "Table 2",
            "Table 3",
            "Table 4",
            "Figure 1",
            "Figure 2",
            "Figure 3",
            "Section 2",
            "Section 2 grid-aware",
            "Section 5",
        ] {
            assert!(
                report.checks.iter().any(|c| c.artefact == artefact),
                "no checks for {artefact}"
            );
        }
    }

    #[test]
    fn render_is_a_checklist() {
        let report = report();
        let out = report.render();
        assert!(out.contains("checks pass"));
        assert!(out.contains("PASS"));
        assert!(!out.contains("FAIL"), "render should show no failures:\n{out}");
    }

    #[test]
    fn check_math() {
        let c = Check::relative("x", "y", 100.0, 101.0, 0.02);
        assert!(c.pass);
        let c = Check::relative("x", "y", 100.0, 103.0, 0.02);
        assert!(!c.pass);
        let c = Check::absolute("x", "y", 0.5, 0.52, 0.01);
        assert!(!c.pass);
        let c = Check::absolute("x", "y", 0.5, 0.505, 0.01);
        assert!(c.pass);
        let c = Check::strictly_inside("x", "y", 0.0, 1.0, 0.4);
        assert!(c.pass);
        assert_eq!((c.paper, c.tolerance), (0.5, 0.5));
        assert!(!Check::strictly_inside("x", "y", 0.0, 1.0, 1.0).pass, "the band is open");
        assert!(!Check::strictly_inside("x", "y", 0.0, 1.0, 0.0).pass, "the band is open");
    }

    #[test]
    fn report_serialises() {
        let report = report();
        let json = serde_json::to_string(report).unwrap();
        let back: VerificationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(*report, back);
    }
}
