//! Distributed sweep orchestration: shard a scenario grid across worker
//! *processes* and merge the results bit-identically.
//!
//! [`run_scenarios`] fans a grid out over
//! threads in one process; this module is the next tier. A coordinator
//! partitions the grid into a checksummed **shard manifest** (JSON: grid
//! digest, seed-derivation provenance, full scenario specs, per-shard
//! scenario lists), launches worker **processes** (self-exec via
//! `std::process::Command`, no new dependencies) that each run their shard
//! through the existing parallel runner and persist every finished scenario
//! as a footer-validated `.tsnap` snapshot plus a checksummed JSON sidecar,
//! then merges the per-shard stores and summaries into one result set.
//!
//! Robustness is the point of the layer:
//!
//! - **Resume from manifest.** A killed worker leaves partial output; a
//!   re-run of the coordinator (or of the worker itself) detects completed
//!   shards and scenarios via footer-validated snapshots whose recomputed
//!   store digests match their sidecars, and skips them.
//! - **Work stealing.** A straggling shard past its deadline is duplicated
//!   onto a free worker slot; whichever attempt finishes first wins and the
//!   loser is killed. Bit-identity makes the race benign.
//! - **Retry budgets with typed failures.** Every failed attempt is
//!   recorded as a [`ShardFailure`]; a shard that exhausts its budget fails
//!   the sweep with [`SweepError::ShardExhausted`], never silently.
//! - **Bit-identical merge.** The merged sweep's store digest and summary
//!   digest are proven equal to the single-process
//!   [`run_in_process`] answer regardless of shard count, worker count, or
//!   worker death. `examples/sweep_distributed.rs` gates this in CI.
//!
//! See `docs/SWEEP.md` for the manifest format, the worker lifecycle and
//! exit codes, and the failure taxonomy.
//!
//! ```
//! use archer2_core::sweep::{derive_seed, SweepManifest};
//! use archer2_core::scenarios::ScenarioSpec;
//! use archer2_core::campaign::CampaignConfig;
//! use hpc_workload::OperatingPoint;
//! use sim_core::time::{SimDuration, SimTime};
//!
//! // A tiny 3-scenario grid with manifest-documented seed derivation.
//! let start = SimTime::from_ymd(2022, 3, 1);
//! let specs: Vec<ScenarioSpec> = (0..3)
//!     .map(|i| {
//!         let cfg = CampaignConfig { seed: derive_seed(7, i), ..CampaignConfig::default() };
//!         ScenarioSpec::new(
//!             format!("s{i}"), cfg, 40, start,
//!             start + SimDuration::from_hours(6), OperatingPoint::AFTER_BIOS,
//!         )
//!     })
//!     .collect();
//!
//! // Partition into 2 shards: every scenario lands in exactly one shard.
//! let manifest = SweepManifest::partition(specs, 2, "splitmix64(7, index)");
//! let mut seen: Vec<u32> = manifest.shards.iter().flat_map(|s| s.scenarios.clone()).collect();
//! seen.sort_unstable();
//! assert_eq!(seen, vec![0, 1, 2]);
//! ```

mod coordinator;
mod manifest;
mod merge;
mod worker;

pub use coordinator::{
    resume_distributed, run_distributed, ShardFailure, ShardFailureKind, SweepConfig,
    SweepOutcome, SweepReport, WorkerCommand, WorkerFault,
};
pub use manifest::{ShardSpec, SweepManifest, MANIFEST_VERSION};
pub use merge::{merge, MergedSweep};
pub use worker::{run_worker, worker_from_env, ShardSummary, EXIT_ENV, EXIT_MANIFEST, EXIT_OK, EXIT_RUN, EXIT_SHARD};

use crate::campaign::Campaign;
use crate::scenarios::{run_scenarios, ScenarioSpec};
use hpc_tsdb::{PersistError, TsdbStore};
use serde::{Deserialize, Serialize};

/// Typed failure surface of the sweep layer. Everything the coordinator,
/// worker and merge steps can refuse is one of these — no stringly-typed
/// panics on the orchestration path.
#[derive(Debug)]
pub enum SweepError {
    /// Filesystem or process-spawn I/O failure.
    Io(std::io::Error),
    /// Snapshot write/open failure from the `.tsnap` transport.
    Persist(PersistError),
    /// A manifest, sidecar or summary that is missing, malformed, fails its
    /// checksum, or does not partition the grid.
    Manifest(String),
    /// A worker-side execution failure (bad shard id, unwritable out dir).
    Worker(String),
    /// A shard failed more times than its retry budget allows. The last
    /// failure is carried; the full history is in [`SweepReport::failures`].
    ShardExhausted {
        /// The shard that ran out of attempts.
        shard: u32,
        /// Attempts consumed (including the first).
        attempts: u32,
        /// The most recent failure.
        last: ShardFailureKind,
    },
    /// A recomputed store digest disagreed with the recorded one — the
    /// snapshot transport or the merge would have silently diverged.
    DigestMismatch {
        /// Grid index of the offending scenario.
        scenario: u32,
        /// Digest recorded at run time.
        expected: String,
        /// Digest recomputed from the reopened snapshot.
        actual: String,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Io(e) => write!(f, "sweep I/O error: {e}"),
            SweepError::Persist(e) => write!(f, "sweep snapshot error: {e:?}"),
            SweepError::Manifest(m) => write!(f, "sweep manifest error: {m}"),
            SweepError::Worker(m) => write!(f, "sweep worker error: {m}"),
            SweepError::ShardExhausted { shard, attempts, last } => write!(
                f,
                "shard {shard} exhausted its retry budget after {attempts} attempts (last: {last})"
            ),
            SweepError::DigestMismatch { scenario, expected, actual } => write!(
                f,
                "scenario {scenario} store digest mismatch: recorded {expected}, recomputed {actual}"
            ),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<std::io::Error> for SweepError {
    fn from(e: std::io::Error) -> Self {
        SweepError::Io(e)
    }
}

impl From<PersistError> for SweepError {
    fn from(e: PersistError) -> Self {
        SweepError::Persist(e)
    }
}

/// FNV-1a accumulator — the same digest primitive the benchmark examples
/// and determinism gates use, so sweep digests compose with them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(pub u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    pub(crate) fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Render a digest the way every benchmark record does: 16 hex digits.
pub(crate) fn hex(d: u64) -> String {
    format!("{d:016x}")
}

/// Derive a per-scenario seed from a sweep base seed — splitmix64 of
/// `base ^ index`, the derivation every grid builder should use so a
/// manifest's `seed_derivation` field is honest provenance.
///
/// ```
/// use archer2_core::sweep::derive_seed;
/// // Stable across processes and time: safe to record in a manifest.
/// assert_eq!(derive_seed(2022, 0), derive_seed(2022, 0));
/// assert_ne!(derive_seed(2022, 0), derive_seed(2022, 1));
/// ```
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = (base ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Canonical digest of everything a store holds: every series, iterated in
/// sorted-name order, its name folded in followed by every stored
/// `(timestamp, value-bits)` pair. Two stores digest equal iff they carry
/// the same series with the same samples, bit for bit — independent of
/// shard count, chunk layout, compaction state or cache temperature.
pub fn store_digest(store: &TsdbStore) -> u64 {
    let mut catalog = store.series_catalog();
    catalog.sort_by(|a, b| a.1.name.cmp(&b.1.name));
    let mut h = Fnv::new();
    for (sid, meta, _) in catalog {
        digest_series(store, sid, &meta.name, &mut h);
    }
    h.0
}

/// [`store_digest`] with a per-series name rewrite: series whose names
/// start with `strip` digest as if the prefix were absent, others are
/// skipped. This is how the merged store (scenario series prefixed
/// `s00042/…`) is proven bit-identical per scenario to the original
/// un-prefixed stores.
pub(crate) fn store_digest_stripped(store: &TsdbStore, strip: &str) -> u64 {
    let mut catalog: Vec<_> = store
        .series_catalog()
        .into_iter()
        .filter(|(_, meta, _)| meta.name.starts_with(strip))
        .collect();
    catalog.sort_by(|a, b| a.1.name.cmp(&b.1.name));
    let mut h = Fnv::new();
    for (sid, meta, _) in catalog {
        let name = meta.name[strip.len()..].to_string();
        digest_series(store, sid, &name, &mut h);
    }
    h.0
}

fn digest_series(store: &TsdbStore, sid: hpc_tsdb::SeriesId, name: &str, h: &mut Fnv) {
    h.str(name);
    let samples = store
        .with_series(sid, |s| s.scan(i64::MIN, i64::MAX))
        .expect("catalogued series exists");
    h.u64(samples.len() as u64);
    for (ts, v) in samples {
        h.u64(ts as u64);
        h.u64(v.to_bits());
    }
}

/// What one finished scenario reduces to under the sweep's canonical
/// reduction — the portable summary a worker persists and the merge step
/// reassembles. Everything except `wall_ms` is deterministic for a given
/// spec; `wall_ms` is excluded from all digests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Index into the manifest's grid (input order).
    pub index: u32,
    /// The spec's label, carried through for reporting.
    pub label: String,
    /// [`store_digest`] of the scenario's telemetry store, as 16 hex digits.
    pub store_digest: String,
    /// Samples stored across every series.
    pub samples: u64,
    /// Simulation events processed.
    pub events: u64,
    /// Mean facility power over the window, kW.
    pub mean_kw: f64,
    /// Campaign invariant violations ([`Campaign::verify_invariants`]).
    pub violations: u64,
    /// Wall-clock run time, milliseconds (non-deterministic; never
    /// folded into a digest).
    pub wall_ms: u64,
}

impl ScenarioResult {
    /// Fold the deterministic fields into a digest accumulator.
    fn fold(&self, h: &mut Fnv) {
        h.u64(u64::from(self.index));
        h.str(&self.label);
        h.str(&self.store_digest);
        h.u64(self.samples);
        h.u64(self.events);
        h.u64(self.mean_kw.to_bits());
        h.u64(self.violations);
    }
}

/// Fold per-scenario *store* digests, in grid-index order, into the sweep
/// store digest both the distributed merge and [`run_in_process`] report.
pub(crate) fn fold_store_digests(results: &[ScenarioResult]) -> u64 {
    let mut h = Fnv::new();
    for r in results {
        h.str(&r.store_digest);
    }
    h.0
}

/// Fold full deterministic summaries, in grid-index order, into the sweep
/// summary digest.
pub(crate) fn fold_summaries(results: &[ScenarioResult]) -> u64 {
    let mut h = Fnv::new();
    for r in results {
        r.fold(&mut h);
    }
    h.0
}

/// The sweep's canonical reduction of one finished campaign.
pub(crate) fn summarize(index: u32, label: &str, campaign: &mut Campaign, wall_ms: u64) -> ScenarioResult {
    let power = campaign.power_series();
    let values = power.values();
    let mean_kw = if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    };
    ScenarioResult {
        index,
        label: label.to_string(),
        store_digest: hex(store_digest(campaign.telemetry_store())),
        samples: campaign.telemetry_store().total_samples(),
        events: campaign.events_processed(),
        mean_kw,
        violations: campaign.verify_invariants().len() as u64,
        wall_ms,
    }
}

/// The single-process reference answer a distributed sweep must reproduce
/// bit for bit.
#[derive(Debug, Clone)]
pub struct InProcessSweep {
    /// Per-scenario canonical results, in grid order.
    pub results: Vec<ScenarioResult>,
    /// Fold of per-scenario store digests, 16 hex digits.
    pub store_digest: String,
    /// Fold of per-scenario deterministic summaries, 16 hex digits.
    pub summary_digest: String,
}

/// Run the whole grid in-process through [`run_scenarios`] under the sweep's
/// canonical reduction. This is the oracle: a distributed sweep of the same
/// grid must merge to the same `store_digest` and `summary_digest`.
pub fn run_in_process(specs: &[ScenarioSpec]) -> InProcessSweep {
    let indexed: Vec<(u32, &ScenarioSpec)> =
        specs.iter().enumerate().map(|(i, s)| (i as u32, s)).collect();
    // `run_scenarios` preserves input order, so zip the indices back on.
    let results: Vec<ScenarioResult> = {
        let raw = run_scenarios(specs, |spec, campaign| {
            let t0 = std::time::Instant::now();
            // The campaign already ran before reduce is called; wall time of
            // the reduction alone is negligible but still recorded honestly.
            let mut r = summarize(0, &spec.label, campaign, 0);
            r.wall_ms = t0.elapsed().as_millis() as u64;
            r
        });
        raw.into_iter()
            .zip(&indexed)
            .map(|(mut r, (i, _))| {
                r.index = *i;
                r
            })
            .collect()
    };
    InProcessSweep {
        store_digest: hex(fold_store_digests(&results)),
        summary_digest: hex(fold_summaries(&results)),
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignConfig;
    use hpc_workload::OperatingPoint;
    use sim_core::time::{SimDuration, SimTime};

    pub(crate) fn tiny_specs(n: usize) -> Vec<ScenarioSpec> {
        let start = SimTime::from_ymd(2022, 3, 1);
        (0..n)
            .map(|i| {
                let cfg = CampaignConfig {
                    seed: derive_seed(2022, i as u64),
                    backlog_target: 30,
                    generator: hpc_workload::GeneratorConfig {
                        max_nodes: 32,
                        ..hpc_workload::GeneratorConfig::default()
                    },
                    per_cabinet_telemetry: true,
                    ..CampaignConfig::default()
                };
                ScenarioSpec::new(
                    format!("tiny{i}"),
                    cfg,
                    40,
                    start,
                    start + SimDuration::from_hours(6),
                    OperatingPoint::AFTER_BIOS,
                )
            })
            .collect()
    }

    #[test]
    fn derive_seed_is_stable_and_spreads() {
        assert_eq!(derive_seed(1, 1), derive_seed(1, 1));
        let seeds: Vec<u64> = (0..100).map(|i| derive_seed(42, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "derived seeds must not collide");
    }

    #[test]
    fn in_process_sweep_is_deterministic() {
        let specs = tiny_specs(2);
        let a = run_in_process(&specs);
        let b = run_in_process(&specs);
        assert_eq!(a.store_digest, b.store_digest);
        assert_eq!(a.summary_digest, b.summary_digest);
        assert_eq!(a.results.len(), 2);
        assert!(a.results.iter().all(|r| r.samples > 0));
    }

    #[test]
    fn scenario_spec_round_trips_through_json() {
        let specs = tiny_specs(1);
        let json = serde_json::to_string(&specs[0]).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        // The round-tripped spec must drive a bit-identical campaign.
        let a = run_in_process(std::slice::from_ref(&specs[0]));
        let b = run_in_process(std::slice::from_ref(&back));
        assert_eq!(a.store_digest, b.store_digest);
        assert_eq!(a.summary_digest, b.summary_digest);
    }
}
