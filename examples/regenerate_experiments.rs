//! Regenerates the body of `EXPERIMENTS.md`: paper-vs-measured for every
//! table and figure, the calibration residuals, and the ablation outputs.
//!
//! ```text
//! cargo run --release --example regenerate_experiments > EXPERIMENTS.body.md
//! ```

use archer2_repro::core::experiment;
use archer2_repro::core::facility::Archer2Facility;
use archer2_repro::sim::rng::{Rng, Xoshiro256StarStar};
use archer2_repro::tsdb::{SeriesMeta, TsdbStore};

fn main() {
    let seed = 2022;
    let scale = 10;

    println!("<!-- generated by `cargo run --release --example regenerate_experiments` -->");
    println!("Seed {seed}, campaign scale 1/{scale} (full-facility kilowatts).\n");

    // Tables.
    println!("## Table 1 — hardware summary\n");
    println!("```\n{}\n```\n", experiment::table1());

    let t2 = experiment::table2(seed);
    println!("## Table 2 — component power decomposition\n");
    println!("Paper totals: idle 1,800 kW / loaded 3,500 kW.");
    println!(
        "Model totals: idle {:.0} kW / loaded {:.0} kW.\n",
        t2.idle_total_kw, t2.loaded_total_kw
    );
    println!("{}", t2.render());

    let t3 = experiment::table3(seed);
    println!("\n## Table 3 — determinism-mode benchmark ratios\n");
    println!("{}", t3.render());
    println!("max |model − paper| = {:.4}\n", t3.max_abs_error());

    let t4 = experiment::table4(seed);
    println!("## Table 4 — 2.0 GHz vs 2.25 GHz+turbo benchmark ratios\n");
    println!("{}", t4.render());
    println!("max |model − paper| = {:.4}\n", t4.max_abs_error());

    // Calibration record.
    println!("## Calibrated application catalog\n");
    println!("| Benchmark | β | CPU activity | mem intensity | off-ref power residual | det power residual | det perf residual |");
    println!("|---|---|---|---|---|---|---|");
    let f = Archer2Facility::new(seed);
    for rec in f.catalog().records() {
        let a = &rec.app;
        println!(
            "| {} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} |",
            rec.benchmark,
            a.beta,
            a.cpu_activity,
            a.mem_intensity,
            a.power_residual_offref,
            a.power_residual_powerdet,
            a.perf_residual_powerdet
        );
    }
    println!();

    // Figures.
    let fig1 = experiment::figure1(seed, scale);
    println!("## Figure 1 — baseline power draw (Dec 2021 – Apr 2022)\n");
    println!("Paper mean: 3,220 kW. Model mean: {:.0} kW at {:.1}% utilisation.\n",
        fig1.summary.means[0], fig1.utilisation * 100.0);
    println!("```\n{}```\n", fig1.render());

    let fig2 = experiment::figure2(seed, scale);
    println!("## Figure 2 — BIOS determinism change (Apr – May 2022)\n");
    println!(
        "Paper: 3,220 → 3,010 kW (−6.5 %). Model (settled): {:.0} → {:.0} kW (−{:.1} %).\n",
        fig2.settled_means_kw[0],
        fig2.settled_means_kw[1],
        100.0 * (fig2.settled_means_kw[0] - fig2.settled_means_kw[1]) / fig2.settled_means_kw[0]
    );
    println!("```\n{}```\n", fig2.render());

    let fig3 = experiment::figure3(seed, scale);
    println!("## Figure 3 — default frequency change (Nov – Dec 2022)\n");
    println!(
        "Paper: 3,010 → 2,530 kW. Model (settled): {:.0} → {:.0} kW.\n",
        fig3.settled_means_kw[0], fig3.settled_means_kw[1]
    );
    println!("```\n{}```\n", fig3.render());

    // Conclusions.
    let c = experiment::conclusions(seed, &fig2, &fig3);
    println!("## §5 conclusions\n");
    println!("| Quantity | Paper | Model |");
    println!("|---|---|---|");
    println!("| Total saving | ~690 kW | {:.0} kW |", c.total_saving_kw);
    println!("| Total reduction | 21 % | {:.1} % |", c.total_drop * 100.0);
    println!("| BIOS reduction | 6.5 % | {:.1} % |", c.bios_drop * 100.0);
    println!("| Frequency reduction | ~480 kW | {:.0} kW |", c.freq_drop_kw);
    println!("| Idle node vs loaded | ~50 % | {:.0} % |", c.idle_fraction * 100.0);
    println!(
        "| Switch power band | 200–250 W | {:.0}–{:.0} W |",
        c.switch_band_w.0, c.switch_band_w.1
    );
    println!("| Energy saved per year | — | {:.2} GWh |", c.energy_gwh_per_year);
    println!(
        "| Scope 2 avoided per year (UK 2022 grid) | significant | {:.0} t |",
        c.scope2_t_per_year
    );
    println!(
        "| Electricity cost avoided per year (£0.30/kWh) | significant | £{:.2} M |",
        c.cost_mgbp_per_year
    );
    println!();

    // Section 2.
    let regimes = experiment::emissions_regimes(seed);
    println!("## §2 emissions regimes\n");
    println!("```\n{}```\n", experiment::render_regimes(&regimes));
    if let Some(ci) = regimes.crossover_to("2.0 GHz") {
        println!("2.0 GHz becomes emissions-optimal above ~{ci:.0} g/kWh; parity at {:.0} g/kWh.\n", regimes.parity_ci);
    }

    let g = experiment::grid_aware_december(seed, scale);
    println!("## §2 applied hour by hour — grid-aware December 2022\n");
    println!(
        "Every hour the policy reads the UK 2022 grid's carbon intensity: above {:.0} g/kWh \
         it sheds to 2.0 GHz, otherwise it runs 2.25 GHz+turbo. It shed {:.0} % of the \
         month's hours. Scope 2 weights each run's power series by the same hourly \
         intensity.\n",
        g.schedule.high_ci_threshold,
        g.shed_fraction * 100.0
    );
    println!("| Policy | Mean kW | Scope 2 (t) |");
    println!("|---|---|---|");
    for (policy, kw, t) in [
        ("static 2.25 GHz+turbo", g.static_fast_kw, g.scope2_t[0]),
        ("static 2.0 GHz", g.static_slow_kw, g.scope2_t[1]),
        ("grid-aware", g.grid_aware_kw, g.scope2_t[2]),
    ] {
        println!("| {policy} | {kw:.0} | {t:.0} |");
    }
    println!();

    // Ablations.
    println!("## Ablations\n");
    println!("### Utilisation sweep (§5)\n");
    println!("| Utilisation | Facility kW | kWh / busy node-hour |");
    println!("|---|---|---|");
    for r in experiment::utilisation_sweep(seed) {
        println!(
            "| {:.0}% | {:.0} | {:.3} |",
            r.utilisation * 100.0,
            r.facility_kw,
            r.kwh_per_busy_node_hour
        );
    }
    println!("\n### Frequency sweep (extension to 1.5 GHz)\n");
    println!("| Benchmark | perf 1.5 | perf 2.0 | energy 1.5 | energy 2.0 |");
    println!("|---|---|---|---|---|");
    for r in experiment::frequency_sweep(seed) {
        println!(
            "| {} | {:.2} | {:.2} | {:.2} | {:.2} |",
            r.benchmark, r.perf[0], r.perf[1], r.energy[0], r.energy[1]
        );
    }
    println!("\n### Frequency-policy ablation (14 simulated days at the 2.0 GHz default)\n");
    println!("| Policy | Mean kW | Jobs reverted |");
    println!("|---|---|---|");
    for r in experiment::policy_ablation(seed, scale) {
        println!(
            "| {} | {:.0} | {:.1}% |",
            r.policy,
            r.mean_kw,
            r.revert_fraction * 100.0
        );
    }

    telemetry_store_section();
}

/// Compression + ingest record for the embedded telemetry store: one
/// simulated month of 1 W-quantized per-node power at 15-minute cadence
/// (the same generator as `examples/telemetry_at_scale`, at 1/10 fleet so
/// regeneration stays quick; the per-sample figures are scale-free).
fn telemetry_store_section() {
    const NODES: u32 = 586;
    const INTERVAL_S: i64 = 900;
    const SAMPLES_PER_NODE: i64 = 30 * 86_400 / INTERVAL_S;

    let store = TsdbStore::default();
    let ids: Vec<_> = (0..NODES)
        .map(|n| {
            store.register(SeriesMeta {
                name: format!("node.{n}"),
                unit: "W".into(),
                interval_hint: INTERVAL_S,
            })
        })
        .collect();
    let t0 = std::time::Instant::now();
    for &id in &ids {
        let mut rng = Xoshiro256StarStar::seeded(0x7e1e_3e7e ^ id.0);
        let mut batch = Vec::with_capacity(SAMPLES_PER_NODE as usize);
        let (mut remaining, mut level_w) = (0i64, 0i64);
        for i in 0..SAMPLES_PER_NODE {
            if remaining == 0 {
                if rng.chance(0.92) {
                    level_w = 300 + rng.next_below(551) as i64;
                    remaining = (2 + rng.next_below(23) as i64) * 3600 / INTERVAL_S;
                } else {
                    level_w = 250;
                    remaining = 1 + rng.next_below(8) as i64;
                }
            }
            remaining -= 1;
            let jitter = rng.next_below(3) as i64 - 1;
            batch.push((i * INTERVAL_S, (level_w + jitter) as f64));
        }
        store.append_batch(id, &batch);
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let samples = store.total_samples();
    let bytes = store.total_bytes();
    println!("\n## Telemetry store (hpc-tsdb)\n");
    println!(
        "One simulated month of per-node power ({NODES} nodes, {INTERVAL_S} s cadence, \
         1 W-quantized samples), appended one node-month batch at a time by one writer:\n"
    );
    println!("| Quantity | Measured |");
    println!("|---|---|");
    println!("| Samples ingested | {:.2} M |", samples as f64 / 1e6);
    println!("| Compressed size | {:.2} bytes/sample |", bytes as f64 / samples as f64);
    println!(
        "| Compression ratio | {:.1}x vs 16-byte raw (ts, value) pairs |",
        (samples * 16) as f64 / bytes as f64
    );
    println!(
        "| Ingest throughput | {:.1} M samples/s (this machine, one writer) |",
        samples as f64 / 1e6 / elapsed
    );
    println!(
        "\n`cargo run --release --example telemetry_at_scale` repeats this at the \
         full 5,860-node fleet and queries the month back through the \
         rollup-aware planner."
    );
}
