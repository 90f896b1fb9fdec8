//! End-to-end reproduction contract: every table and figure of the paper,
//! regenerated from the models and checked against the published numbers.
//!
//! This is the repository's headline test: if it passes, `EXPERIMENTS.md`
//! regenerates.

use archer2_repro::core::{experiment, verify};

const SEED: u64 = 2022;
const SCALE: u32 = 10;

#[test]
fn full_paper_reproduction() {
    // Every table, figure and §2/§5 number is a check of `verify::run`,
    // the contract `verify_reproduction` prints; this test holds the
    // repository to it.
    let report = verify::run(SEED, SCALE);
    assert!(report.all_pass(), "{}", report.render());
}

#[test]
fn figure_series_have_visible_steps() {
    // The figures are not just means: the raw series must actually step
    // down at the change instants, like the paper's plots.
    let fig2 = experiment::figure2(SEED, SCALE);
    let fig3 = experiment::figure3(SEED, SCALE);
    for (fig, expected_drop) in [(&fig2, 0.05), (&fig3, 0.12)] {
        let change = fig.changes[0].at();
        let week = sim_core::SimDuration::from_days(7);
        let before = fig.series.window_mean(change - week, change);
        let after = fig.series.window_mean(change + sim_core::SimDuration::from_days(2), change + week + week);
        let drop = (before - after) / before;
        assert!(
            drop > expected_drop,
            "{}: step too small ({drop:.3})",
            fig.label
        );
    }
}

#[test]
fn figures_render_paper_style_output() {
    let fig = experiment::figure2(SEED, SCALE);
    let out = fig.render();
    assert!(out.contains("Figure 2"));
    assert!(out.contains("Apr 2022"), "time axis labels: {out}");
    assert!(out.contains("mean [baseline]"));
    assert!(out.contains("mean [BIOS: performance determinism]"));
}

#[test]
fn reproduction_is_seed_stable() {
    // The contract holds for other seeds too — the reproduction is not a
    // single lucky draw.
    for seed in [1u64, 7, 42] {
        let fig1 = experiment::figure1(seed, SCALE);
        assert!(
            (fig1.summary.means[0] - 3220.0).abs() / 3220.0 < 0.03,
            "seed {seed}: baseline {:.0}",
            fig1.summary.means[0]
        );
        assert!(experiment::table4(seed).max_abs_error() < 0.01);
    }
}

#[test]
fn scaled_facilities_agree() {
    // 1/10 and 1/20 replicas must report the same full-facility baseline
    // within noise — the scaling is composition-preserving.
    let a = experiment::figure1(SEED, 10).summary.means[0];
    let b = experiment::figure1(SEED, 20).summary.means[0];
    assert!((a - b).abs() / a < 0.03, "scale disagreement: {a:.0} vs {b:.0}");
}
