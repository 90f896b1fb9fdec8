//! Campaign throughput benchmark: how many simulated facility-days per
//! second the optimised hot path delivers, with full per-cabinet *and*
//! per-node telemetry enabled — the heaviest sampling configuration the
//! campaign supports.
//!
//! A sweep of (seed × policy × faults on/off) scenarios fans out over
//! `archer2_core::run_scenarios`; each scenario owns an isolated facility
//! and telemetry store. The sweep runs twice — cold (first touch of every
//! code path and allocation) and warm — and both runs must produce
//! bit-identical telemetry digests per scenario: parallel dispatch and
//! warm caches must never change a single stored bit, faults on or off.
//!
//! ```text
//! cargo run --release --example campaign_throughput [-- --smoke]
//! ```
//!
//! Emits `BENCH_campaign.json` with sim-days/s, samples/s and events/s
//! (cold and warm), which `scripts/verify.sh` gates on.

use archer2_repro::core::campaign::{Campaign, CampaignConfig, FaultInjectionConfig, FrequencyPolicy};
use archer2_repro::core::scenarios::{run_scenarios, ScenarioSpec};
use archer2_repro::faults::{DomainFaultConfig, DomainRate};
use archer2_repro::prelude::*;
use archer2_repro::workload::OperatingPoint;
use serde::{Serialize, Value};
use std::time::Instant;

mod common;
use common::write_bench;

/// Aggressive fault rates so even a short window exercises kills, cabinet
/// trips and repairs on the hot path.
fn storm_faults(days: u64) -> FaultInjectionConfig {
    FaultInjectionConfig {
        domains: DomainFaultConfig {
            node: DomainRate { mtbf_hours: 400.0, repair_mean_hours: 8.0, repair_sigma: 0.5 },
            cabinet: DomainRate { mtbf_hours: 250.0, repair_mean_hours: 4.0, repair_sigma: 0.4 },
            cdu: DomainRate { mtbf_hours: 150.0, repair_mean_hours: 6.0, repair_sigma: 0.4 },
            switch: DomainRate { mtbf_hours: 1_500.0, repair_mean_hours: 4.0, repair_sigma: 0.4 },
            ..DomainFaultConfig::default()
        },
        horizon: SimDuration::from_days(days),
        meters: None,
        sanitize: archer2_repro::tsdb::SanitizeConfig::default(),
    }
}

/// FNV-1a over every stored (timestamp, value) pair of every series the
/// campaign records — facility, per-cabinet and per-node.
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
    sids.extend_from_slice(campaign.node_series_ids());
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

/// What one finished scenario reduces to.
struct Outcome {
    label: String,
    faults: bool,
    digest: u64,
    events: u64,
    samples: u64,
    violations: usize,
}

fn build_specs(days: u64) -> Vec<ScenarioSpec> {
    let start = SimTime::from_ymd(2022, 12, 1);
    let end = start + SimDuration::from_days(days);
    let scale = 10;
    let policies: [(&str, FrequencyPolicy); 2] = [
        ("blanket", FrequencyPolicy::Blanket),
        (
            "auto-revert",
            FrequencyPolicy::AutoRevert { threshold: 0.90, user_revert_fraction: 0.05 },
        ),
    ];
    let mut specs = Vec::new();
    for (seed, op) in [(2022u64, OperatingPoint::AFTER_FREQ), (2023, OperatingPoint::AFTER_BIOS)] {
        for (plabel, policy) in &policies {
            for faults in [false, true] {
                let cfg = CampaignConfig {
                    seed,
                    policy: *policy,
                    per_cabinet_telemetry: true,
                    per_node_telemetry: true,
                    faults: faults.then(|| storm_faults(days)),
                    backlog_target: 60,
                    ..CampaignConfig::default()
                };
                let label = format!(
                    "seed{seed}/{plabel}/faults-{}",
                    if faults { "on" } else { "off" }
                );
                specs.push(ScenarioSpec::new(label, cfg, scale, start, end, op));
            }
        }
    }
    specs
}

fn run_sweep(specs: &[ScenarioSpec]) -> (f64, Vec<Outcome>) {
    let t0 = Instant::now();
    let outcomes = run_scenarios(specs, |spec, campaign| Outcome {
        label: spec.label.clone(),
        faults: spec.config.faults.is_some(),
        digest: telemetry_digest(campaign),
        events: campaign.events_processed(),
        samples: campaign.telemetry_store().total_samples(),
        violations: campaign.verify_invariants().len(),
    });
    (t0.elapsed().as_secs_f64(), outcomes)
}

/// Fold per-scenario digests (input order) into one sweep digest.
fn fold_digests(outcomes: &[Outcome], faults: bool) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for o in outcomes.iter().filter(|o| o.faults == faults) {
        for b in o.digest.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let days: u64 = if smoke { 2 } else { 14 };
    let specs = build_specs(days);
    let sim_days = (specs.len() as u64 * days) as f64;

    println!(
        "=== campaign throughput: {} scenarios x {days} days, 1/10 scale, per-node telemetry on, {} workers ===",
        specs.len(),
        rayon::current_num_threads(),
    );

    let (cold_s, cold) = run_sweep(&specs);
    let (warm_s, warm) = run_sweep(&specs);

    let mut violations = 0usize;
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(
            c.digest, w.digest,
            "{}: cold and warm telemetry digests differ — same-seed runs must be bit-identical",
            c.label
        );
        violations += c.violations + w.violations;
        println!(
            "  {:<32} digest {:016x}  {:>9} events  {:>9} samples  {} violations",
            c.label, c.digest, c.events, c.samples, c.violations
        );
    }
    let events: u64 = warm.iter().map(|o| o.events).sum();
    let samples: u64 = warm.iter().map(|o| o.samples).sum();
    let digest_on = fold_digests(&warm, true);
    let digest_off = fold_digests(&warm, false);

    println!();
    println!("cold: {cold_s:.2} s   warm: {warm_s:.2} s");
    println!(
        "warm throughput: {:.1} sim-days/s, {:.2} M samples/s, {:.2} M events/s",
        sim_days / warm_s,
        samples as f64 / warm_s / 1e6,
        events as f64 / warm_s / 1e6,
    );
    assert_eq!(violations, 0, "campaign invariants violated during the sweep");

    write_bench(
        "BENCH_campaign.json",
        Value::Map(vec![
            ("bench".into(), "campaign_throughput".to_string().to_value()),
            ("smoke".into(), smoke.to_value()),
            ("scenarios".into(), (specs.len() as u64).to_value()),
            ("days_per_scenario".into(), days.to_value()),
            ("sim_days".into(), sim_days.to_value()),
            ("workers".into(), (rayon::current_num_threads() as u64).to_value()),
            ("cold_s".into(), cold_s.to_value()),
            ("warm_s".into(), warm_s.to_value()),
            ("sim_days_per_s".into(), (sim_days / warm_s).to_value()),
            ("sim_days_per_s_cold".into(), (sim_days / cold_s).to_value()),
            ("samples_per_s".into(), (samples as f64 / warm_s).to_value()),
            ("events_per_s".into(), (events as f64 / warm_s).to_value()),
            ("samples_stored".into(), samples.to_value()),
            ("events_processed".into(), events.to_value()),
            ("digest_faults_on".into(), format!("{digest_on:016x}").to_value()),
            ("digest_faults_off".into(), format!("{digest_off:016x}").to_value()),
            ("digests_match".into(), true.to_value()),
            ("invariant_violations".into(), (violations as u64).to_value()),
        ]),
        &[
            "sim_days_per_s",
            "samples_per_s",
            "events_per_s",
            "digest_faults_on",
            "digest_faults_off",
            "digests_match",
            "invariant_violations",
        ],
    );
}
