//! Fault storm: a "bad week" of correlated facility failures — cabinet PSU
//! trips, a CDU cooling-loop outage draining whole cabinets, switch
//! failures stranding their endpoint nodes, and flaky cabinet power meters
//! (dropouts, stuck-at-last readings, spike outliers) on top.
//!
//! The campaign runs the degraded facility at full backlog and then
//! reports what an operator would ask for afterwards:
//!
//! * per-domain availability, MTBF and MTTR from the health monitor;
//! * job accounting — every submission must end up completed, requeued,
//!   abandoned or still queued (the no-lost-jobs invariant);
//! * facility energy and scope-2 emissions for the week, with an
//!   uncertainty band derived from the telemetry coverage the faulty
//!   meters actually achieved.
//!
//! ```text
//! cargo run --release --example fault_storm [-- --smoke]
//! ```
//!
//! `--smoke` shrinks the span so CI can run the whole path in seconds. The
//! run emits `BENCH_fault_storm.json`, including the fault-schedule and
//! telemetry digests the verify gate compares across two same-seed runs.

use archer2_repro::core::campaign::{Campaign, CampaignConfig, FaultInjectionConfig};
use archer2_repro::core::experiment;
use archer2_repro::emissions::Scope2Accountant;
use archer2_repro::faults::{DomainClass, DomainFaultConfig, DomainRate, MeterFaultConfig};
use archer2_repro::grid::IntensityScenario;
use archer2_repro::prelude::*;
use archer2_repro::tsdb::SanitizeConfig;
use archer2_repro::workload::OperatingPoint;
use serde::{Serialize, Value};

mod common;
use common::write_bench;

/// The storm: every domain class fails at rates far above the defaults, so
/// a single week exercises the full correlated-failure machinery on the
/// 1/10-scale test facility.
fn storm_faults() -> FaultInjectionConfig {
    FaultInjectionConfig {
        domains: DomainFaultConfig {
            node: DomainRate { mtbf_hours: 400.0, repair_mean_hours: 8.0, repair_sigma: 0.5 },
            cabinet: DomainRate { mtbf_hours: 250.0, repair_mean_hours: 4.0, repair_sigma: 0.4 },
            cdu: DomainRate { mtbf_hours: 120.0, repair_mean_hours: 6.0, repair_sigma: 0.4 },
            switch: DomainRate { mtbf_hours: 1_500.0, repair_mean_hours: 4.0, repair_sigma: 0.4 },
            ..DomainFaultConfig::default()
        },
        horizon: SimDuration::from_days(14),
        meters: Some(MeterFaultConfig {
            dropouts_per_month: 12.0,
            stuck_per_month: 6.0,
            spikes_per_month: 20.0,
            ..MeterFaultConfig::default()
        }),
        sanitize: SanitizeConfig::default(),
    }
}

/// FNV-1a over every stored (timestamp, value) pair of the given series:
/// two same-seed runs must produce bit-identical telemetry.
fn telemetry_digest(campaign: &Campaign) -> u64 {
    let store = campaign.telemetry_store();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    let mut sids = vec![campaign.facility_series_id()];
    sids.extend_from_slice(campaign.cabinet_series_ids());
    for sid in sids {
        let samples = store
            .with_series(sid, |s| s.scan(i64::MIN, i64::MAX))
            .expect("registered series");
        for (ts, v) in samples {
            fold(ts as u64);
            fold(v.to_bits());
        }
    }
    h
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let days = if smoke { 2 } else { 7 };

    println!("=== fault storm: {days} bad days on the 1/10-scale facility ===");
    let facility = experiment::scaled_facility(2022, 10);
    let start = SimTime::from_ymd(2022, 3, 1);
    let end = start + SimDuration::from_days(days);
    let cfg = CampaignConfig {
        per_cabinet_telemetry: true,
        faults: Some(storm_faults()),
        ..CampaignConfig::default()
    };
    let mut campaign = Campaign::new(facility, cfg, start, OperatingPoint::AFTER_BIOS);
    campaign.run_until(end);

    // --- Per-domain availability -----------------------------------------
    let at_s = days * 86_400;
    let health = campaign.health().expect("faults enabled");
    println!();
    println!("domain      failures  repairs  availability     MTBF        MTTR");
    for (label, class) in [
        ("nodes", DomainClass::Node),
        ("cabinets", DomainClass::Cabinet),
        ("CDU loops", DomainClass::Cdu),
        ("switches", DomainClass::Switch),
    ] {
        let tr = health.class(class);
        println!(
            "{label:<12}{:>8}{:>9}{:>13.3} %{:>9.0} h{:>10.1} h",
            tr.failures(),
            tr.repairs(),
            tr.availability(at_s) * 100.0,
            tr.mtbf_hours(at_s),
            tr.mttr_hours(at_s),
        );
    }
    let schedule = campaign.fault_schedule().expect("faults enabled");
    let (n_down, c_down, d_down, s_down) = schedule.down_counts();
    println!(
        "schedule: {} events over the {}-day horizon (down: {n_down} node / {c_down} cabinet / {d_down} CDU / {s_down} switch)",
        schedule.len(),
        14,
    );

    // --- Job accounting: the no-lost-jobs invariant ----------------------
    let stats = campaign.scheduler_stats();
    println!();
    println!(
        "jobs: {} submitted, {} completed, {} killed by faults ({} requeued-and-finished elsewhere, {} abandoned after budget), {} backfilled",
        stats.submitted,
        stats.completed,
        stats.killed,
        stats.killed - stats.abandoned,
        stats.abandoned,
        stats.backfilled,
    );
    let violations = campaign.verify_invariants();
    assert!(violations.is_empty(), "invariants violated: {violations:?}");
    println!("invariants: all hold (no lost jobs, node & energy conservation)");
    println!(
        "utilisation through the storm: {:.1} % ({} nodes still offline at the end)",
        campaign.utilisation() * 100.0,
        campaign.offline_nodes(),
    );

    // --- Telemetry: what the faulty meters delivered ---------------------
    let sensors = campaign.sensor_stats().expect("meter faults enabled");
    println!();
    println!(
        "meters: {} samples stored, {} dropped (dropouts), {} quarantined ({} out-of-range spikes, {} stuck runs, {} non-monotonic)",
        sensors.sanitize.stored,
        sensors.dropped,
        sensors.sanitize.quarantined(),
        sensors.sanitize.out_of_range,
        sensors.sanitize.stuck,
        sensors.sanitize.non_monotonic,
    );

    // Gap-aware readback per cabinet: aggregate over present samples plus
    // the coverage fraction actually achieved.
    let n_cabinets = campaign.cabinet_series_ids().len();
    let mut metered_kw = 0.0;
    let mut uncertainty_kw = 0.0;
    let mut worst_coverage = 1.0f64;
    for i in 0..n_cabinets {
        let g = campaign.cabinet_window_gap(i, start, end).expect("cabinet series");
        // The unmeasured fraction of the window could have drawn anything
        // between 0 and the observed mean level — a conservative ± band.
        metered_kw += g.mean() * g.coverage;
        uncertainty_kw += g.mean() * (1.0 - g.coverage);
        worst_coverage = worst_coverage.min(g.coverage);
        println!(
            "cabinet {i}: mean {:.0} kW over {:.1} % coverage ({} quarantined)",
            g.mean(),
            g.coverage * 100.0,
            g.quarantined,
        );
    }
    let estimate_kw = metered_kw + uncertainty_kw; // coverage-weighted + band centre
    let power = campaign.power_series();
    let true_kw = power.mean();
    println!(
        "metered estimate: {estimate_kw:.0} ± {uncertainty_kw:.0} kW (ground truth {true_kw:.0} kW, worst cabinet coverage {:.1} %)",
        worst_coverage * 100.0,
    );
    assert!(
        (true_kw - estimate_kw).abs() <= uncertainty_kw + 0.1 * true_kw,
        "metered estimate {estimate_kw} strayed beyond its band from {true_kw}"
    );

    // --- Energy & emissions with the coverage band -----------------------
    let hours = days as f64 * 24.0;
    let energy_mwh = true_kw * hours / 1000.0;
    let accountant = Scope2Accountant::new(IntensityScenario::UkGrid2022);
    let emissions_t = accountant.emissions_t(&power);
    let rel_band = uncertainty_kw / estimate_kw.max(1.0);
    println!();
    println!(
        "energy:    {energy_mwh:.1} MWh over the storm ({:.1} % telemetry uncertainty)",
        rel_band * 100.0
    );
    println!(
        "emissions: {emissions_t:.2} tCO2 ± {:.2} t (scope 2, UK grid 2022)",
        emissions_t * rel_band
    );

    // --- Determinism digests for the verify gate -------------------------
    let sched_digest = schedule.digest();
    let telem_digest = telemetry_digest(&campaign);
    println!();
    println!("fault schedule digest: {sched_digest:016x}");
    println!("telemetry digest:      {telem_digest:016x}");

    write_bench(
        "BENCH_fault_storm.json",
        Value::Map(vec![
            ("bench".into(), "fault_storm".to_string().to_value()),
            ("smoke".into(), smoke.to_value()),
            ("days".into(), (days as u64).to_value()),
            ("schedule_digest".into(), format!("{sched_digest:016x}").to_value()),
            ("telemetry_digest".into(), format!("{telem_digest:016x}").to_value()),
            ("schedule_events".into(), (schedule.len() as u64).to_value()),
            ("node_downs".into(), n_down.to_value()),
            ("cabinet_downs".into(), c_down.to_value()),
            ("cdu_downs".into(), d_down.to_value()),
            ("switch_downs".into(), s_down.to_value()),
            ("jobs_submitted".into(), stats.submitted.to_value()),
            ("jobs_completed".into(), stats.completed.to_value()),
            ("jobs_killed".into(), stats.killed.to_value()),
            ("jobs_abandoned".into(), stats.abandoned.to_value()),
            ("samples_stored".into(), sensors.sanitize.stored.to_value()),
            ("samples_dropped".into(), sensors.dropped.to_value()),
            ("samples_quarantined".into(), sensors.sanitize.quarantined().to_value()),
            ("worst_coverage".into(), worst_coverage.to_value()),
            ("mean_kw".into(), true_kw.to_value()),
            ("energy_mwh".into(), energy_mwh.to_value()),
            ("emissions_tco2".into(), emissions_t.to_value()),
            ("invariant_violations".into(), (violations.len() as u64).to_value()),
        ]),
        &[
            "schedule_digest",
            "telemetry_digest",
            "mean_kw",
            "emissions_tco2",
            "invariant_violations",
        ],
    );
}
