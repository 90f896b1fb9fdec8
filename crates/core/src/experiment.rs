//! One typed experiment per table and figure of the paper, plus the
//! ablation sweeps listed in `DESIGN.md`.
//!
//! Figure experiments run the discrete-event campaign; table experiments
//! are closed-form evaluations of the calibrated models. Every experiment
//! takes a seed (reproducibility) and, where a campaign is involved, a
//! `scale` divisor: `scale = 1` simulates the full 5,860-node facility,
//! `scale = 10` a 586-node replica with the same power composition whose
//! reported kilowatts are multiplied back up — the composition, not the
//! absolute node count, is what fixes the means.

use crate::campaign::{CampaignConfig, FrequencyPolicy, OperatingSchedule};
use crate::facility::Archer2Facility;
use crate::report::{ratio, Table};
use crate::scenarios::{run_scenarios, ScenarioSpec};
use hpc_emissions::{
    CostModel, EmbodiedEmissions, OperatingChoice, RegimeAnalysis, Scope2Accountant,
};
use hpc_power::{DeterminismMode, FreqSetting};
use hpc_telemetry::{ChangePoint, SegmentSummary, TimeSeries};
use hpc_topo::{DragonflyConfig, FacilityConfig, HardwareSummary};
use hpc_workload::{OperatingPoint, PaperRatios};
use sim_core::time::{SimDuration, SimTime};

/// Build a facility at `1/scale` of ARCHER2 with matching composition.
///
/// # Panics
/// Panics if `scale` is zero.
pub fn scaled_facility(seed: u64, scale: u32) -> Archer2Facility {
    assert!(scale >= 1, "scale must be at least 1");
    if scale == 1 {
        return Archer2Facility::new(seed);
    }
    let nodes = 5860 / scale;
    let switches = (768 + scale / 2) / scale;
    let spg = 8u32;
    let groups = switches.div_ceil(spg).max(2);
    let cfg = FacilityConfig {
        nodes,
        cores_per_node: 128,
        cabinets: ((23 + scale / 2) / scale).max(1),
        cdus: 1,
        filesystems: 1,
        fabric: DragonflyConfig {
            groups,
            switches_per_group: spg,
            ports_per_switch: 64,
            endpoints_per_switch: 16,
            nics_per_node: 2,
        },
    };
    Archer2Facility::with_config(cfg, seed)
}

fn campaign_config(seed: u64, scale: u32) -> CampaignConfig {
    CampaignConfig {
        seed,
        generator: hpc_workload::GeneratorConfig {
            max_nodes: (1024 / scale).max(16),
            ..hpc_workload::GeneratorConfig::default()
        },
        backlog_target: (120 / scale as usize).max(40),
        ..CampaignConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// Table 1: the hardware summary (always full scale).
pub fn table1() -> HardwareSummary {
    hpc_topo::FacilityTopology::build(FacilityConfig::archer2()).hardware_summary()
}

// ---------------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------------

/// One component row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Component label as in the paper.
    pub component: &'static str,
    /// Unit count.
    pub count: u32,
    /// Fleet idle power (kW).
    pub idle_kw: f64,
    /// Fleet loaded power (kW).
    pub loaded_kw: f64,
    /// Share of loaded total.
    pub share: f64,
}

/// Table 2: per-component idle/loaded power decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Result {
    /// Component rows in paper order.
    pub rows: Vec<Table2Row>,
    /// Idle facility total (kW).
    pub idle_total_kw: f64,
    /// Loaded facility total (kW).
    pub loaded_total_kw: f64,
}

impl Table2Result {
    /// Render in the paper's layout.
    pub fn render(&self) -> String {
        let mut t = Table::new(["Component", "Count", "Idle (kW)", "Loaded (kW)", "Approx. %"]);
        for r in &self.rows {
            t.row([
                r.component.to_string(),
                r.count.to_string(),
                format!("{:.0}", r.idle_kw),
                format!("{:.0}", r.loaded_kw),
                format!("{:.0}%", r.share * 100.0),
            ]);
        }
        t.row([
            "Total".to_string(),
            String::new(),
            format!("{:.0}", self.idle_total_kw),
            format!("{:.0}", self.loaded_total_kw),
            String::new(),
        ]);
        t.render()
    }
}

/// Run the Table 2 experiment (closed form, full scale).
pub fn table2(seed: u64) -> Table2Result {
    let f = Archer2Facility::new(seed);
    let idle = f.idle_budget(DeterminismMode::Power);
    let loaded = f.loaded_budget(OperatingPoint::ORIGINAL);
    let total = loaded.total_kw();
    let rows = vec![
        Table2Row {
            component: "Compute nodes",
            count: 5860,
            idle_kw: idle.nodes_kw,
            loaded_kw: loaded.nodes_kw,
            share: loaded.nodes_kw / total,
        },
        Table2Row {
            component: "Slingshot interconnect",
            count: 768,
            idle_kw: idle.switches_kw,
            loaded_kw: loaded.switches_kw,
            share: loaded.switches_kw / total,
        },
        Table2Row {
            component: "Other cabinet overheads",
            count: 23,
            idle_kw: idle.overheads_kw,
            loaded_kw: loaded.overheads_kw,
            share: loaded.overheads_kw / total,
        },
        Table2Row {
            component: "Coolant Distribution Units",
            count: 6,
            idle_kw: idle.cdus_kw,
            loaded_kw: loaded.cdus_kw,
            share: loaded.cdus_kw / total,
        },
        Table2Row {
            component: "File systems",
            count: 5,
            idle_kw: idle.filesystems_kw,
            loaded_kw: loaded.filesystems_kw,
            share: loaded.filesystems_kw / total,
        },
    ];
    Table2Result {
        rows,
        idle_total_kw: idle.total_kw(),
        loaded_total_kw: total,
    }
}

// ---------------------------------------------------------------------------
// Tables 3 and 4
// ---------------------------------------------------------------------------

/// One benchmark row: paper vs model.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkRow {
    /// Benchmark label.
    pub benchmark: String,
    /// Node count from the paper.
    pub nodes: u32,
    /// The paper's measured ratios.
    pub paper: PaperRatios,
    /// The model's forward-computed ratios.
    pub model: PaperRatios,
}

/// A rendered benchmark-ratio table.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioTableResult {
    /// Rows in paper order.
    pub rows: Vec<BenchmarkRow>,
    /// Which paper table this is ("Table 3" / "Table 4").
    pub label: &'static str,
}

impl RatioTableResult {
    /// Render with paper and model columns side by side.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "Application benchmark",
            "Nodes",
            "Perf. ratio (paper)",
            "Perf. ratio (model)",
            "Energy ratio (paper)",
            "Energy ratio (model)",
        ]);
        for r in &self.rows {
            t.row([
                r.benchmark.clone(),
                r.nodes.to_string(),
                ratio(r.paper.perf),
                ratio(r.model.perf),
                ratio(r.paper.energy),
                ratio(r.model.energy),
            ]);
        }
        format!("{}\n{}", self.label, t.render())
    }

    /// Largest |model − paper| over both ratio columns.
    pub fn max_abs_error(&self) -> f64 {
        self.rows
            .iter()
            .flat_map(|r| {
                [
                    (r.model.perf - r.paper.perf).abs(),
                    (r.model.energy - r.paper.energy).abs(),
                ]
            })
            .fold(0.0, f64::max)
    }
}

/// Table 3: determinism-mode benchmark ratios.
pub fn table3(seed: u64) -> RatioTableResult {
    let f = Archer2Facility::new(seed);
    let (nm, lot) = (f.node_model(), f.lottery());
    let rows = f
        .catalog()
        .table3_records()
        .map(|rec| {
            let paper = rec.table3.expect("table3 record");
            // Table 3 reports perf(PerfDet)/perf(PowerDet) and
            // E(PerfDet)/E(PowerDet).
            let perf = rec.app.runtime_ratio(OperatingPoint::ORIGINAL, nm, lot);
            let e_ref = rec.app.energy_ratio(OperatingPoint::AFTER_BIOS, nm, lot);
            let e_pd = rec.app.energy_ratio(OperatingPoint::ORIGINAL, nm, lot);
            BenchmarkRow {
                benchmark: rec.table3_label.clone().unwrap_or_else(|| rec.benchmark.clone()),
                nodes: rec.table3_nodes.unwrap_or(rec.nodes),
                paper,
                model: PaperRatios::new(perf, e_ref / e_pd),
            }
        })
        .collect();
    RatioTableResult {
        rows,
        label: "Table 3",
    }
}

/// Table 4: 2.0 GHz vs 2.25 GHz+turbo benchmark ratios.
pub fn table4(seed: u64) -> RatioTableResult {
    let f = Archer2Facility::new(seed);
    let (nm, lot) = (f.node_model(), f.lottery());
    let rows = f
        .catalog()
        .table4_records()
        .map(|rec| {
            let paper = rec.table4.expect("table4 record");
            let perf = rec.app.perf_ratio(OperatingPoint::AFTER_FREQ, nm, lot);
            let energy = rec.app.energy_ratio(OperatingPoint::AFTER_FREQ, nm, lot);
            BenchmarkRow {
                benchmark: rec.benchmark.clone(),
                nodes: rec.nodes,
                paper,
                model: PaperRatios::new(perf, energy),
            }
        })
        .collect();
    RatioTableResult {
        rows,
        label: "Table 4",
    }
}

// ---------------------------------------------------------------------------
// Figures 1-3
// ---------------------------------------------------------------------------

/// A reproduced power-draw figure.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Figure label.
    pub label: &'static str,
    /// Compute-cabinet power telemetry, scaled to full-facility kW.
    pub series: TimeSeries,
    /// The operational changes in the window.
    pub changes: Vec<ChangePoint>,
    /// Per-segment means (the paper's orange lines).
    pub summary: SegmentSummary,
    /// Segment means with a 2-day transition skipped after each change
    /// (jobs started before a change finish under the old settings).
    pub settled_means_kw: Vec<f64>,
    /// Mean utilisation over the window.
    pub utilisation: f64,
}

impl FigureResult {
    /// Render the ASCII figure with mean lines.
    pub fn render(&self) -> String {
        hpc_telemetry::AsciiPlot::new(self.label).render(&self.series, Some(&self.summary))
    }
}

/// Multiply a series' values by `k` (scaling a 1/scale facility back to
/// full-facility kilowatts).
fn scale_series(s: &TimeSeries, k: f64) -> TimeSeries {
    let mut out = TimeSeries::new(s.start(), s.interval(), s.unit.clone());
    for v in s.values() {
        out.push(v * k);
    }
    out
}

fn run_window(
    seed: u64,
    scale: u32,
    start: SimTime,
    end: SimTime,
    initial: OperatingPoint,
    changes: &[(SimTime, OperatingPoint, &'static str)],
    label: &'static str,
) -> FigureResult {
    let mut spec = ScenarioSpec::new(label, campaign_config(seed, scale), scale, start, end, initial);
    spec.changes = changes.iter().map(|&(at, op, _)| (at, op)).collect();
    let (series, utilisation) = run_scenarios(std::slice::from_ref(&spec), |_, campaign| {
        let k = 5860.0 / campaign.facility().nodes() as f64;
        (scale_series(&campaign.power_series(), k), campaign.utilisation())
    })
    .pop()
    .expect("one scenario in, one result out");

    let change_points: Vec<ChangePoint> = changes
        .iter()
        .map(|&(at, _, label)| ChangePoint::new(at, label))
        .collect();
    let summary = SegmentSummary::compute(&series, &change_points);

    // Settled means: skip 2 days after each boundary.
    let settle = SimDuration::from_days(2);
    let mut bounds = vec![start];
    bounds.extend(changes.iter().map(|&(at, _, _)| at));
    bounds.push(end);
    let settled_means_kw = bounds
        .windows(2)
        .map(|w| {
            let from = if w[0] == start { w[0] } else { w[0] + settle };
            series.window_mean(from, w[1])
        })
        .collect();

    FigureResult {
        label,
        series,
        changes: change_points,
        summary,
        settled_means_kw,
        utilisation,
    }
}

/// Figure 1: baseline power draw, Dec 2021 – Apr 2022 (mean 3,220 kW).
pub fn figure1(seed: u64, scale: u32) -> FigureResult {
    run_window(
        seed,
        scale,
        SimTime::from_ymd(2021, 12, 1),
        SimTime::from_ymd(2022, 4, 1),
        OperatingPoint::ORIGINAL,
        &[],
        "Figure 1: ARCHER2 compute cabinet power, Dec 2021 - Apr 2022",
    )
}

/// Figure 2: the BIOS change, Apr – May 2022 (3,220 → 3,010 kW).
pub fn figure2(seed: u64, scale: u32) -> FigureResult {
    run_window(
        seed,
        scale,
        SimTime::from_ymd(2022, 4, 1),
        SimTime::from_ymd(2022, 6, 1),
        OperatingPoint::ORIGINAL,
        &[(
            SimTime::from_ymd(2022, 5, 1),
            OperatingPoint::AFTER_BIOS,
            "BIOS: performance determinism",
        )],
        "Figure 2: ARCHER2 compute cabinet power, Apr 2022 - May 2022",
    )
}

/// Figure 3: the frequency change, Nov – Dec 2022 (3,010 → 2,530 kW).
pub fn figure3(seed: u64, scale: u32) -> FigureResult {
    run_window(
        seed,
        scale,
        SimTime::from_ymd(2022, 11, 1),
        SimTime::from_ymd(2023, 1, 1),
        OperatingPoint::AFTER_BIOS,
        &[(
            SimTime::from_ymd(2022, 12, 1),
            OperatingPoint::AFTER_FREQ,
            "default frequency 2.0 GHz",
        )],
        "Figure 3: ARCHER2 compute cabinet power, Nov 2022 - Dec 2022",
    )
}

// ---------------------------------------------------------------------------
// §5 conclusions
// ---------------------------------------------------------------------------

/// The §5 headline numbers, derived from the figure experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct ConclusionsResult {
    /// Baseline mean compute-cabinet power (paper: 3,220 kW).
    pub baseline_kw: f64,
    /// After the BIOS change (paper: 3,010 kW).
    pub after_bios_kw: f64,
    /// After the frequency change (paper: 2,530 kW).
    pub after_freq_kw: f64,
    /// Total saving (paper: ≈690 kW, 21 %).
    pub total_saving_kw: f64,
    /// Total fractional reduction.
    pub total_drop: f64,
    /// BIOS-change fractional reduction (paper: 210 kW, 6.5 %).
    pub bios_drop: f64,
    /// Frequency-change reduction (paper: 480 kW).
    pub freq_drop_kw: f64,
    /// Idle node power as a fraction of loaded (paper: ≈50 %).
    pub idle_fraction: f64,
    /// Switch power band (paper: 200–250 W irrespective of load).
    pub switch_band_w: (f64, f64),
    /// Energy the total saving avoids per year (GWh) — §5's "significant
    /// savings in both scope 2 emissions and energy costs".
    pub energy_gwh_per_year: f64,
    /// Scope-2 emissions it avoids per year at UK-2022 intensity (tCO₂e).
    pub scope2_t_per_year: f64,
    /// Electricity cost it avoids per year (million GBP) at the winter-2022
    /// UK non-domestic rate (~£0.30/kWh).
    pub cost_mgbp_per_year: f64,
}

/// Compute the conclusions from already-run figure experiments.
pub fn conclusions(seed: u64, fig2: &FigureResult, fig3: &FigureResult) -> ConclusionsResult {
    let baseline_kw = fig2.settled_means_kw[0];
    let after_bios_kw = fig2.settled_means_kw[1];
    let after_freq_kw = fig3.settled_means_kw[1];

    let f = Archer2Facility::new(seed);
    let nm = f.node_model();
    let lot = f.lottery();
    let part = hpc_power::SiliconSample::typical(lot);
    let parts = [part, part];
    let idle = nm.idle_power(DeterminismMode::Power, &parts).total_w();
    let loaded = nm
        .power(
            FreqSetting::TurboBoost2250,
            DeterminismMode::Power,
            hpc_power::NodeActivity::typical(),
            &parts,
            lot,
        )
        .total_w();
    let sw = hpc_power::SwitchPowerModel::new(hpc_power::SwitchSpec::default());

    let total_saving_kw = baseline_kw - after_freq_kw;
    let acc = Scope2Accountant::new(hpc_grid::IntensityScenario::UkGrid2022);
    ConclusionsResult {
        baseline_kw,
        after_bios_kw,
        after_freq_kw,
        total_saving_kw,
        total_drop: total_saving_kw / baseline_kw,
        bios_drop: (baseline_kw - after_bios_kw) / baseline_kw,
        freq_drop_kw: after_bios_kw - after_freq_kw,
        idle_fraction: idle / loaded,
        switch_band_w: (sw.power_w(0.0), sw.power_w(1.0)),
        energy_gwh_per_year: total_saving_kw * 8766.0 / 1e6,
        scope2_t_per_year: acc.emissions_constant_t(
            total_saving_kw,
            SimTime::from_ymd(2023, 1, 1),
            SimDuration::from_days(365),
        ),
        cost_mgbp_per_year: CostModel::archer2(0.30).annual_cost_of_kw(total_saving_kw),
    }
}

// ---------------------------------------------------------------------------
// §2 emissions regimes
// ---------------------------------------------------------------------------

/// §2 regime analysis over a carbon-intensity sweep.
pub fn emissions_regimes(seed: u64) -> RegimeAnalysis {
    let f = Archer2Facility::new(seed);
    let (nm, lot) = (f.node_model(), f.lottery());
    let generic = hpc_workload::AppModel::generic(hpc_workload::ResearchArea::MaterialsScience);
    let choices: Vec<OperatingChoice> = [
        ("2.25 GHz+turbo (perf. det.)", OperatingPoint::AFTER_BIOS),
        ("2.0 GHz", OperatingPoint::AFTER_FREQ),
        (
            "1.5 GHz",
            OperatingPoint {
                setting: FreqSetting::Low1500,
                mode: DeterminismMode::Performance,
            },
        ),
    ]
    .iter()
    .map(|(label, op)| OperatingChoice {
        label: label.to_string(),
        node_power_kw: generic.node_power_w(*op, nm, lot) / 1000.0,
        runtime_ratio: generic.runtime_ratio(*op, nm, lot),
    })
    .collect();

    let ci: Vec<f64> = (0..=60).map(|i| 5.0 * i as f64).collect();
    RegimeAnalysis::run(&EmbodiedEmissions::archer2_scale(), 3220.0, &choices, &ci)
}

/// Render the regime analysis as a table.
pub fn render_regimes(a: &RegimeAnalysis) -> String {
    let mut t = Table::new(["CI (g/kWh)", "Regime", "Embodied share", "Best operating point"]);
    for r in a.rows.iter().step_by(4) {
        t.row([
            format!("{:.0}", r.ci),
            r.regime.to_string(),
            format!("{:.0}%", r.embodied_share * 100.0),
            r.best_choice.clone(),
        ]);
    }
    format!(
        "Section 2 regime analysis (scope2 = scope3 parity at {:.0} g/kWh)\n{}",
        a.parity_ci,
        t.render()
    )
}

// ---------------------------------------------------------------------------
// §2 applied hour by hour
// ---------------------------------------------------------------------------

/// Outcome of a month of grid-aware operation vs the static alternatives.
#[derive(Debug, Clone, PartialEq)]
pub struct GridAwareResult {
    /// Mean compute-cabinet power, static 2.25+turbo (kW, full facility).
    pub static_fast_kw: f64,
    /// Mean power, static 2.0 GHz default.
    pub static_slow_kw: f64,
    /// Mean power, grid-aware switching.
    pub grid_aware_kw: f64,
    /// Scope-2 emissions for the month under each policy (tCO₂e), same
    /// order as the power fields.
    pub scope2_t: [f64; 3],
    /// Fraction of hours the grid-aware policy spent shed.
    pub shed_fraction: f64,
    /// The grid-aware policy.
    pub schedule: OperatingSchedule,
}

/// December 2022 under three policies: always-fast, always-capped, and the
/// §2 decision rule applied hourly (shed when CI > threshold).
pub fn grid_aware_december(seed: u64, scale: u32) -> GridAwareResult {
    let start = SimTime::from_ymd(2022, 12, 1);
    let end = SimTime::from_ymd(2023, 1, 1);
    let scenario = hpc_grid::IntensityScenario::UkGrid2022;
    let schedule = OperatingSchedule {
        scenario,
        high_ci_threshold: 230.0,
        normal: OperatingPoint::AFTER_BIOS,
        shed: OperatingPoint::AFTER_FREQ,
        tick: SimDuration::from_hours(1),
    };
    let mk = |label: &str, sched: Option<OperatingSchedule>, op: OperatingPoint| {
        let mut cfg = campaign_config(seed, scale);
        cfg.schedule = sched;
        ScenarioSpec::new(label, cfg, scale, start, end, op)
    };
    let specs = [
        mk("static 2.25+turbo", None, OperatingPoint::AFTER_BIOS),
        mk("static 2.0 GHz", None, OperatingPoint::AFTER_FREQ),
        mk("grid-aware", Some(schedule), OperatingPoint::AFTER_BIOS),
    ];
    let results = run_scenarios(&specs, |_, c| {
        let k = 5860.0 / c.facility().nodes() as f64;
        let power = c.power_series();
        let acc = Scope2Accountant::new(scenario);
        // Integrate the (scaled) series against the hourly CI signal.
        (power.mean() * k, acc.emissions_t(&scale_series(&power, k)))
    });
    let (static_fast_kw, e_fast) = results[0];
    let (static_slow_kw, e_slow) = results[1];
    let (grid_aware_kw, e_aware) = results[2];

    // Shed fraction: the policy ticks at which the schedule picks its
    // shed point.
    let ticks: Vec<SimTime> = std::iter::successors(Some(start), |&t| Some(t + schedule.tick))
        .take_while(|&t| t < end)
        .collect();
    let shed_ticks = ticks.iter().filter(|&&t| schedule.at(t) == schedule.shed).count();

    GridAwareResult {
        static_fast_kw,
        static_slow_kw,
        grid_aware_kw,
        scope2_t: [e_fast, e_slow, e_aware],
        shed_fraction: shed_ticks as f64 / ticks.len() as f64,
        schedule,
    }
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// One row of the utilisation-sweep ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilisationRow {
    /// Mean utilisation.
    pub utilisation: f64,
    /// Facility compute-cabinet power (kW).
    pub facility_kw: f64,
    /// Energy per busy node-hour (kWh) — the §5 efficiency metric.
    pub kwh_per_busy_node_hour: f64,
}

/// §5 ablation: energy efficiency vs utilisation ("utilisation ... must be
/// as close to 100 % as possible and ideally over 90 %"). Closed form: busy
/// nodes at typical load, the rest idle, fixed overheads always on.
pub fn utilisation_sweep(seed: u64) -> Vec<UtilisationRow> {
    let f = Archer2Facility::new(seed);
    let (nm, lot) = (f.node_model(), f.lottery());
    let generic = hpc_workload::AppModel::generic(hpc_workload::ResearchArea::MaterialsScience);
    let busy_kw = generic.node_power_w(OperatingPoint::AFTER_BIOS, nm, lot) / 1000.0;
    let idle_kw = f.mean_idle_node_kw(DeterminismMode::Performance);
    let nodes = f.nodes() as f64;
    (0..=10)
        .map(|i| {
            let u = 0.5 + 0.05 * i as f64;
            let nodes_kw = nodes * (u * busy_kw + (1.0 - u) * idle_kw);
            let budget = f.budget_from_nodes(nodes_kw, 0.7 * u);
            let facility_kw = budget.compute_cabinets_kw();
            UtilisationRow {
                utilisation: u,
                facility_kw,
                kwh_per_busy_node_hour: facility_kw / (nodes * u),
            }
        })
        .collect()
}

/// One row of the frequency-sweep ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencySweepRow {
    /// Benchmark label.
    pub benchmark: String,
    /// Perf ratio at (1.5 GHz, 2.0 GHz, 2.25+turbo) vs 2.25+turbo.
    pub perf: [f64; 3],
    /// Energy ratio at the same points.
    pub energy: [f64; 3],
}

/// Extension: the full frequency sweep (adds 1.5 GHz to the paper's two
/// points) for every catalog benchmark.
pub fn frequency_sweep(seed: u64) -> Vec<FrequencySweepRow> {
    let f = Archer2Facility::new(seed);
    let (nm, lot) = (f.node_model(), f.lottery());
    let ops = [
        OperatingPoint {
            setting: FreqSetting::Low1500,
            mode: DeterminismMode::Performance,
        },
        OperatingPoint::AFTER_FREQ,
        OperatingPoint::AFTER_BIOS,
    ];
    f.catalog()
        .records()
        .iter()
        .map(|rec| {
            let perf = ops.map(|op| rec.app.perf_ratio(op, nm, lot));
            let energy = ops.map(|op| rec.app.energy_ratio(op, nm, lot));
            FrequencySweepRow {
                benchmark: rec.benchmark.clone(),
                perf,
                energy,
            }
        })
        .collect()
}

/// One row of the frequency-policy ablation.
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// Policy label.
    pub policy: String,
    /// Mean compute-cabinet power (full-facility kW).
    pub mean_kw: f64,
    /// Jobs reverted to turbo per job started.
    pub revert_fraction: f64,
}

/// Extension: blanket 2.0 GHz vs the paper's auto-revert deployment.
pub fn policy_ablation(seed: u64, scale: u32) -> Vec<PolicyRow> {
    let start = SimTime::from_ymd(2022, 12, 1);
    let end = start + SimDuration::from_days(14);
    let policies: Vec<(String, FrequencyPolicy)> = vec![
        ("blanket 2.0 GHz".into(), FrequencyPolicy::Blanket),
        (
            "auto-revert >10% impact".into(),
            FrequencyPolicy::AutoRevert {
                threshold: 0.90,
                user_revert_fraction: 0.05,
            },
        ),
        (
            "auto-revert >20% impact".into(),
            FrequencyPolicy::AutoRevert {
                threshold: 0.80,
                user_revert_fraction: 0.05,
            },
        ),
    ];
    let specs: Vec<ScenarioSpec> = policies
        .into_iter()
        .map(|(label, policy)| {
            let mut cfg = campaign_config(seed, scale);
            cfg.policy = policy;
            ScenarioSpec::new(label, cfg, scale, start, end, OperatingPoint::AFTER_FREQ)
        })
        .collect();
    run_scenarios(&specs, |spec, c| {
        let k = 5860.0 / c.facility().nodes() as f64;
        let (started, reverted) = c.job_counts();
        PolicyRow {
            policy: spec.label.clone(),
            mean_kw: c.power_series().mean() * k,
            revert_fraction: reverted as f64 / started.max(1) as f64,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 2022;
    const SCALE: u32 = 10;

    #[test]
    fn table1_matches_paper() {
        let s = table1();
        assert_eq!(s.compute_nodes, 5860);
        assert_eq!(s.compute_cores, 750_080);
        assert_eq!(s.slingshot_switches, 768);
    }

    #[test]
    fn table2_matches_paper() {
        let t = table2(SEED);
        // Paper totals: idle 1,800 kW, loaded 3,500 kW (±5 %).
        assert!((t.idle_total_kw - 1800.0).abs() / 1800.0 < 0.05, "idle {}", t.idle_total_kw);
        assert!((t.loaded_total_kw - 3500.0).abs() / 3500.0 < 0.05, "loaded {}", t.loaded_total_kw);
        // Node share ≈ 86 %.
        assert!((t.rows[0].share - 0.86).abs() < 0.03, "node share {}", t.rows[0].share);
        let rendered = t.render();
        assert!(rendered.contains("Compute nodes"));
        assert!(rendered.contains("Total"));
    }

    #[test]
    fn table3_within_tolerance() {
        let t = table3(SEED);
        assert_eq!(t.rows.len(), 3);
        assert!(t.max_abs_error() < 0.01, "max error {}", t.max_abs_error());
    }

    #[test]
    fn table4_within_tolerance() {
        let t = table4(SEED);
        assert_eq!(t.rows.len(), 7);
        assert!(t.max_abs_error() < 0.01, "max error {}", t.max_abs_error());
    }

    #[test]
    fn figure1_baseline_mean() {
        let fig = figure1(SEED, SCALE);
        let mean = fig.summary.means[0];
        // Paper: 3,220 kW. Contract: ±2 %.
        assert!((mean - 3220.0).abs() / 3220.0 < 0.02, "baseline mean {mean} kW");
        assert!(fig.utilisation > 0.90, "utilisation {}", fig.utilisation);
    }

    #[test]
    fn figure2_bios_change() {
        let fig = figure2(SEED, SCALE);
        let before = fig.settled_means_kw[0];
        let after = fig.settled_means_kw[1];
        assert!((before - 3220.0).abs() / 3220.0 < 0.02, "before {before}");
        assert!((after - 3010.0).abs() / 3010.0 < 0.02, "after {after}");
    }

    #[test]
    fn figure3_frequency_change() {
        let fig = figure3(SEED, SCALE);
        let before = fig.settled_means_kw[0];
        let after = fig.settled_means_kw[1];
        assert!((before - 3010.0).abs() / 3010.0 < 0.02, "before {before}");
        assert!((after - 2530.0).abs() / 2530.0 < 0.02, "after {after}");
    }

    #[test]
    fn conclusion_numbers() {
        let fig2 = figure2(SEED, SCALE);
        let fig3 = figure3(SEED, SCALE);
        let c = conclusions(SEED, &fig2, &fig3);
        // Paper: 690 kW saved, 21 % total, 6.5 % from BIOS, ~480 kW from
        // frequency, idle ≈ 50 %, switches 200–250 W.
        assert!((c.total_saving_kw - 690.0).abs() < 75.0, "saving {}", c.total_saving_kw);
        assert!((c.total_drop - 0.21).abs() < 0.025, "total drop {}", c.total_drop);
        assert!((c.bios_drop - 0.065).abs() < 0.015, "bios drop {}", c.bios_drop);
        assert!((c.freq_drop_kw - 480.0).abs() < 60.0, "freq saving {}", c.freq_drop_kw);
        assert!((c.idle_fraction - 0.5).abs() < 0.06, "idle fraction {}", c.idle_fraction);
        assert!(c.switch_band_w.0 >= 200.0 && c.switch_band_w.1 <= 250.0);
        // ~690 kW → ~6 GWh/yr → ~1.2 ktCO₂e/yr at UK-2022 CI → ~£1.8M/yr.
        assert!((5.0..=7.5).contains(&c.energy_gwh_per_year), "energy {}", c.energy_gwh_per_year);
        assert!((1000.0..=1600.0).contains(&c.scope2_t_per_year), "scope2 {}", c.scope2_t_per_year);
        assert!((1.5..=2.3).contains(&c.cost_mgbp_per_year), "cost {}", c.cost_mgbp_per_year);
    }

    #[test]
    fn regimes_reproduce_section2() {
        let a = emissions_regimes(SEED);
        assert!((30.0..=100.0).contains(&a.parity_ci), "parity {}", a.parity_ci);
        assert_eq!(a.rows[0].best_choice, "2.25 GHz+turbo (perf. det.)");
        let last = a.rows.last().unwrap();
        assert_ne!(last.best_choice, "2.25 GHz+turbo (perf. det.)");
        let rendered = render_regimes(&a);
        assert!(rendered.contains("parity"));
    }

    #[test]
    fn grid_aware_december_splits_the_difference() {
        let r = grid_aware_december(SEED, SCALE);
        assert!(
            r.grid_aware_kw < r.static_fast_kw && r.grid_aware_kw > r.static_slow_kw,
            "{} in ({}, {})",
            r.grid_aware_kw,
            r.static_slow_kw,
            r.static_fast_kw
        );
        // Emissions: grid-aware beats always-fast.
        assert!(r.scope2_t[2] < r.scope2_t[0]);
        // December: the policy sheds a substantial minority of hours.
        assert!((0.1..=0.8).contains(&r.shed_fraction), "shed {}", r.shed_fraction);
        // Per-kW emissions advantage: the aware policy sheds preferentially
        // in dirty hours, so its emissions per mean-kW beat always-fast's.
        let per_kw_fast = r.scope2_t[0] / r.static_fast_kw;
        let per_kw_aware = r.scope2_t[2] / r.grid_aware_kw;
        assert!(per_kw_aware <= per_kw_fast * 1.001);
    }

    #[test]
    fn utilisation_sweep_shows_efficiency_cliff() {
        let rows = utilisation_sweep(SEED);
        // Energy per busy node-hour falls monotonically with utilisation.
        for w in rows.windows(2) {
            assert!(w[1].kwh_per_busy_node_hour < w[0].kwh_per_busy_node_hour);
        }
        let at50 = &rows[0];
        let at100 = rows.last().unwrap();
        assert!(
            at50.kwh_per_busy_node_hour / at100.kwh_per_busy_node_hour > 1.3,
            "running half-empty must cost >30 % more per node-hour"
        );
    }

    #[test]
    fn frequency_sweep_is_physical() {
        let rows = frequency_sweep(SEED);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            // Perf increases with frequency; the reference point is 1.0.
            assert!(r.perf[0] < r.perf[1] && r.perf[1] < r.perf[2]);
            assert!((r.perf[2] - 1.0).abs() < 1e-9);
            assert!((r.energy[2] - 1.0).abs() < 1e-9);
            // 2.0 GHz always saves energy vs reference (the paper's result).
            assert!(r.energy[1] < 1.0, "{}: energy {}", r.benchmark, r.energy[1]);
        }
    }
}
