//! Distributed sweep orchestration, end to end: shard a scenario grid
//! across worker *processes* and prove the merge bit-identical to the
//! single-process answer — through clean runs, a worker killed mid-shard,
//! and a straggler whose shard gets stolen.
//!
//! Four phases:
//!
//! 1. **Reference.** The whole grid runs in-process through
//!    [`run_in_process`] — the oracle digests everything else must hit.
//! 2. **Distributed.** The same grid, partitioned into 8 shards and run by
//!    4 worker processes (self-exec of this binary), merged, and checked:
//!    store digest and summary digest must equal the reference bit for bit.
//! 3. **Kill + resume.** A fresh sweep with a fault injected into one
//!    worker (abort after 1 scenario, torn snapshot left behind) and a
//!    zero retry budget — the sweep fails typed
//!    ([`SweepError::ShardExhausted`]). Then [`resume_distributed`] picks
//!    the manifest back up: completed shards validate and are skipped, the
//!    dead shard re-runs, and the merge is again bit-identical.
//! 4. **Steal.** A fresh sweep where one worker stalls; the coordinator's
//!    straggler deadline fires, the shard is duplicated onto a free slot,
//!    the duplicate wins, and the digests *still* match.
//!
//! Results land in `BENCH_sweep.json` (`digests_match` is the headline —
//! `scripts/verify.sh` gates on it).
//!
//! ```text
//! cargo run --release --example sweep_distributed [-- --smoke]
//! ```

use archer2_repro::core::campaign::CampaignConfig;
use archer2_repro::core::scenarios::ScenarioSpec;
use archer2_repro::core::sweep::{
    derive_seed, resume_distributed, run_distributed, run_in_process, SweepConfig, SweepError,
    WorkerCommand, WorkerFault,
};
use archer2_repro::prelude::*;
use archer2_repro::workload::{GeneratorConfig, OperatingPoint};
use serde::{Serialize, Value};
use std::path::PathBuf;
use std::time::{Duration, Instant};

mod common;
use common::write_bench;

/// Shards the grid is partitioned into.
const SHARDS: usize = 8;
/// Concurrent worker processes.
const WORKERS: usize = 4;

/// The sweep grid: one campaign per seed, modest scale so the whole example
/// (four sweeps of the same grid) stays CI-sized.
fn grid(n: usize, hours: u64) -> Vec<ScenarioSpec> {
    let start = SimTime::from_ymd(2022, 3, 1);
    (0..n)
        .map(|i| {
            let config = CampaignConfig {
                seed: derive_seed(2022, i as u64),
                backlog_target: 30,
                generator: GeneratorConfig { max_nodes: 32, ..GeneratorConfig::default() },
                per_cabinet_telemetry: true,
                ..CampaignConfig::default()
            };
            ScenarioSpec::new(
                format!("grid{i:02}"),
                config,
                40,
                start,
                start + SimDuration::from_hours(hours),
                OperatingPoint::AFTER_BIOS,
            )
        })
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sweep-distributed-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn base_config(worker: &WorkerCommand) -> SweepConfig {
    SweepConfig {
        shards: SHARDS,
        max_workers: WORKERS,
        retry_budget: 2,
        steal_after: None,
        worker: worker.clone(),
        fault: None,
        seed_derivation: "splitmix64(2022, index)".to_string(),
    }
}

fn main() {
    // Worker mode first: the coordinator re-execs this binary with the
    // ARCHER2_SWEEP_* environment set.
    if let Some(code) = archer2_repro::core::sweep::worker_from_env() {
        std::process::exit(code);
    }

    let smoke = std::env::args().any(|a| a == "--smoke");
    let (scenarios, hours) = if smoke { (8, 6) } else { (16, 48) };
    let specs = grid(scenarios, hours);
    let worker = WorkerCommand::self_exec().expect("current_exe resolves");
    println!("== distributed sweep: {scenarios} scenarios, {SHARDS} shards, {WORKERS} workers ==\n");

    // Phase 1: the in-process oracle.
    let t = Instant::now();
    let reference = run_in_process(&specs);
    let wall_in_process = t.elapsed();
    println!("in-process reference:      {:>7.2?}  store {}", wall_in_process, reference.store_digest);

    // Phase 2: clean distributed run.
    let out_clean = scratch("clean");
    let t = Instant::now();
    let clean = run_distributed(specs.clone(), &base_config(&worker), &out_clean)
        .expect("clean distributed sweep");
    let wall_distributed = t.elapsed();
    assert_eq!(clean.merged.store_digest, reference.store_digest, "distributed store digest");
    assert_eq!(clean.merged.summary_digest, reference.summary_digest, "distributed summary digest");
    println!(
        "distributed (clean):       {:>7.2?}  store {}  attempts {}",
        wall_distributed, clean.merged.store_digest, clean.report.attempts
    );

    // Phase 3: kill a worker mid-shard, then resume from the manifest.
    // The doomed worker stalls before dying so its healthy siblings finish
    // first — that leaves real completed shards on disk for the resume to
    // validate and skip (and a torn snapshot where the abort hit).
    let out_kill = scratch("kill");
    let mut killed_config = base_config(&worker);
    killed_config.retry_budget = 0;
    killed_config.fault =
        Some(WorkerFault { shard: 1, abort_after: Some(1), stall_ms: Some(1_500) });
    let err = run_distributed(specs.clone(), &killed_config, &out_kill)
        .expect_err("a killed worker with no retry budget must fail the sweep");
    assert!(matches!(err, SweepError::ShardExhausted { shard: 1, .. }), "{err}");
    println!("kill mid-shard:            sweep failed typed: {err}");

    let t = Instant::now();
    let resumed = resume_distributed(&out_kill.join("manifest.json"), &base_config(&worker), &out_kill)
        .expect("resume after worker death");
    let wall_resume = t.elapsed();
    assert_eq!(resumed.merged.store_digest, reference.store_digest, "resumed store digest");
    assert_eq!(resumed.merged.summary_digest, reference.summary_digest, "resumed summary digest");
    assert!(resumed.report.resumed_shards > 0, "resume must skip completed shards");
    let resume_overhead_pct =
        100.0 * wall_resume.as_secs_f64() / wall_distributed.as_secs_f64().max(1e-9);
    println!(
        "resume from manifest:      {:>7.2?}  store {}  resumed shards {}  ({resume_overhead_pct:.0}% of clean run)",
        wall_resume, resumed.merged.store_digest, resumed.report.resumed_shards
    );

    // Phase 4: straggler stolen onto a free slot.
    let out_steal = scratch("steal");
    let mut steal_config = base_config(&worker);
    steal_config.steal_after = Some(Duration::from_millis(250));
    steal_config.fault = Some(WorkerFault { shard: 0, abort_after: None, stall_ms: Some(20_000) });
    let stolen = run_distributed(specs.clone(), &steal_config, &out_steal)
        .expect("sweep with a stalled worker");
    assert_eq!(stolen.merged.store_digest, reference.store_digest, "stolen store digest");
    assert_eq!(stolen.merged.summary_digest, reference.summary_digest, "stolen summary digest");
    assert!(stolen.report.stolen_shards >= 1, "the stalled shard must be stolen");
    println!(
        "work stealing:             {:>7.2?}  store {}  stolen shards {}",
        stolen.report.wall_ms as f64 / 1000.0,
        stolen.merged.store_digest,
        stolen.report.stolen_shards
    );

    let digests_match = clean.merged.store_digest == reference.store_digest
        && clean.merged.summary_digest == reference.summary_digest
        && resumed.merged.store_digest == reference.store_digest
        && stolen.merged.store_digest == reference.store_digest;
    let per_s_in_process = scenarios as f64 / wall_in_process.as_secs_f64().max(1e-9);
    let per_s_distributed = scenarios as f64 / wall_distributed.as_secs_f64().max(1e-9);

    let record = Value::Map(vec![
        ("bench".to_string(), Value::Str("sweep_distributed".to_string())),
        ("mode".to_string(), Value::Str(if smoke { "smoke" } else { "full" }.to_string())),
        ("scenarios".to_string(), (scenarios as u64).to_value()),
        ("shards".to_string(), (SHARDS as u64).to_value()),
        ("workers".to_string(), (WORKERS as u64).to_value()),
        ("wall_ms_in_process".to_string(), (wall_in_process.as_millis() as u64).to_value()),
        ("wall_ms_distributed".to_string(), (wall_distributed.as_millis() as u64).to_value()),
        ("wall_ms_resume".to_string(), (wall_resume.as_millis() as u64).to_value()),
        ("scenarios_per_s_in_process".to_string(), per_s_in_process.to_value()),
        ("scenarios_per_s_distributed".to_string(), per_s_distributed.to_value()),
        ("resume_overhead_pct".to_string(), resume_overhead_pct.to_value()),
        ("resumed_shards".to_string(), u64::from(resumed.report.resumed_shards).to_value()),
        ("stolen_shards".to_string(), u64::from(stolen.report.stolen_shards).to_value()),
        ("digests_match".to_string(), Value::Bool(digests_match)),
        ("sweep_digest".to_string(), Value::Str(reference.store_digest.clone())),
        ("summary_digest".to_string(), Value::Str(reference.summary_digest.clone())),
        ("grid_digest".to_string(), Value::Str(clean.merged.grid_digest.clone())),
    ]);
    println!();
    write_bench(
        "BENCH_sweep.json",
        record,
        &[
            "scenarios",
            "shards",
            "workers",
            "scenarios_per_s_distributed",
            "resume_overhead_pct",
            "stolen_shards",
            "digests_match",
            "sweep_digest",
        ],
    );

    for dir in [out_clean, out_kill, out_steal] {
        let _ = std::fs::remove_dir_all(dir);
    }
    assert!(digests_match, "every sweep variant must reproduce the reference digests");
    println!("\nall sweeps bit-identical to the in-process reference ({})", reference.store_digest);
}
