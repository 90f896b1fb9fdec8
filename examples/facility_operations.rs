//! A week in the machine room: node failure injection, per-cabinet
//! telemetry, partition admission and job-trace accounting — the
//! operational substrate around the paper's measurements.
//!
//! ```text
//! cargo run --release --example facility_operations
//! ```

use archer2_repro::core::campaign::{Campaign, CampaignConfig, FaultInjectionConfig};
use archer2_repro::core::experiment::scaled_facility;
use archer2_repro::faults::{DomainFaultConfig, DomainRate};
use archer2_repro::prelude::*;
use archer2_repro::sched::QosPolicy;
use archer2_repro::workload::OperatingPoint;

fn main() {
    let seed = 2022;
    let facility = scaled_facility(seed, 10);
    let scale_up = 5860.0 / facility.nodes() as f64;
    let start = SimTime::from_ymd(2022, 9, 1);
    let week = SimDuration::from_days(7);
    let end = start + week;

    // Independent node failures only: ~6 months per node, a fixed 24 h
    // repair, and no cabinet, CDU or switch faults.
    let node_failures = DomainFaultConfig {
        node: DomainRate { mtbf_hours: 4_380.0, repair_mean_hours: 24.0, repair_sigma: 0.0 },
        cabinet: DomainRate::OFF,
        cdu: DomainRate::OFF,
        switch: DomainRate::OFF,
        ..DomainFaultConfig::default()
    };
    let config = CampaignConfig {
        record_trace: true,
        per_cabinet_telemetry: true,
        faults: Some(FaultInjectionConfig {
            domains: node_failures,
            horizon: week,
            ..FaultInjectionConfig::default()
        }),
        ..CampaignConfig::default()
    };

    println!("simulating one week with failures, traces and cabinet meters...");
    let mut c = Campaign::new(facility, config, start, OperatingPoint::AFTER_BIOS);
    c.run_until(end);

    // --- Reliability ------------------------------------------------------
    let (failures, killed) = c.failure_counts();
    println!();
    println!("=== Reliability ===");
    println!("node failures this week:   {failures}");
    println!("jobs killed and requeued:  {killed}");
    println!("nodes in repair right now: {}", c.offline_nodes());
    println!("utilisation held at:       {:.1}%", c.utilisation() * 100.0);

    // --- Per-cabinet telemetry --------------------------------------------
    println!();
    println!("=== Per-cabinet mean power (full-facility kW) ===");
    let mut sum = 0.0;
    for i in 0..c.cabinet_series_ids().len() {
        let kw = c.cabinet_window_gap(i, start, end).expect("cabinet series").mean() * scale_up;
        println!("cabinet {i}: {kw:>7.0} kW");
        sum += kw;
    }
    println!("sum {:.0} kW vs facility series {:.0} kW", sum, c.power_series().mean() * scale_up);

    // --- Job accounting -----------------------------------------------------
    let trace = c.trace();
    println!();
    println!("=== Job accounting (HPC-JEEP style) ===");
    println!("completed jobs:        {}", trace.len());
    println!("node-hours delivered:  {:.0}", trace.total_node_hours());
    println!("compute energy:        {:.1} MWh", trace.total_energy_kwh() / 1000.0);
    println!("fleet efficiency:      {:.3} kWh per node-hour", trace.mean_kwh_per_node_hour());
    println!();
    println!("top applications by node-hours:");
    for (app, nh) in trace.node_hours_by_app().into_iter().take(6) {
        println!("  {app:<32} {nh:>9.0} node-h");
    }

    // --- Partition admission -------------------------------------------------
    let qos = QosPolicy::archer2();
    println!();
    println!("=== Partition routing of this week's completed jobs ===");
    let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
    for e in trace.entries() {
        // Re-validate each record against the ARCHER2 partition table.
        let job = archer2_repro::workload::Job::new(
            e.job,
            archer2_repro::workload::AppModel::generic(e.area),
            e.nodes,
            e.runtime(),
            e.runtime(),
            e.submitted,
        );
        let name = qos.route(&job).map(|p| p.name.clone()).unwrap_or_else(|| "unroutable".into());
        *counts.entry(name).or_default() += 1;
    }
    for (partition, n) in counts {
        println!("  {partition:<12} {n:>6} jobs");
    }

    // --- Archive the trace ----------------------------------------------------
    let json = trace.to_json();
    println!();
    println!("trace serialises to {} KiB of JSON (archival/replay format)", json.len() / 1024);
}
