//! Parallel scenario runner: fan a set of independent campaign scenarios
//! out over worker threads and reduce each finished campaign to a
//! caller-chosen summary.
//!
//! Every scenario is fully isolated — its own facility (silicon lottery and
//! all), its own scheduler, its own embedded telemetry store — so scenarios
//! never contend on shared state and a sweep of N scenarios is
//! embarrassingly parallel. The runner fans the scenarios out in
//! contiguous blocks over `rayon::scope`: with `W` workers each thread
//! runs a contiguous block of scenarios to completion.
//!
//! Determinism: parallelism only changes *which thread* runs a scenario,
//! never the scenario's own event order. Results come back in input order,
//! and a given `(seed, scale, config)` scenario produces bit-identical
//! telemetry whether the sweep ran on one thread or sixteen.

use crate::campaign::{Campaign, CampaignConfig};
use crate::experiment::scaled_facility;
use hpc_workload::OperatingPoint;
use serde::{Deserialize, Serialize};
use sim_core::time::SimTime;

/// One self-contained campaign scenario: a `(seed, operating point,
/// policy)` tuple plus the window to simulate. The seed and frequency
/// policy travel inside [`CampaignConfig`].
///
/// Serialisable: specs round-trip through JSON bit-exactly, which is how
/// [`crate::sweep`] ships whole scenario grids to worker processes inside
/// checksummed shard manifests.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Human-readable label carried through to the results.
    pub label: String,
    /// Campaign parameters (seed, policy, telemetry, faults, …).
    pub config: CampaignConfig,
    /// Facility scale divisor (`1` = full 5,860-node ARCHER2).
    pub scale: u32,
    /// Simulation window start.
    pub start: SimTime,
    /// Simulation window end.
    pub end: SimTime,
    /// Operating point at `start`.
    pub initial_op: OperatingPoint,
    /// Mid-campaign operating-point changes, in chronological order
    /// (the BIOS/frequency switches of the figure experiments).
    pub changes: Vec<(SimTime, OperatingPoint)>,
}

impl ScenarioSpec {
    /// A scenario with no mid-campaign operating-point changes.
    pub fn new(
        label: impl Into<String>,
        config: CampaignConfig,
        scale: u32,
        start: SimTime,
        end: SimTime,
        initial_op: OperatingPoint,
    ) -> Self {
        ScenarioSpec {
            label: label.into(),
            config,
            scale,
            start,
            end,
            initial_op,
            changes: Vec::new(),
        }
    }
}

/// Build, run and reduce one scenario (the sequential unit of work).
pub(crate) fn run_one<T, F>(spec: &ScenarioSpec, reduce: &F) -> T
where
    F: Fn(&ScenarioSpec, &mut Campaign) -> T,
{
    let facility = scaled_facility(spec.config.seed, spec.scale);
    let mut campaign = Campaign::new(facility, spec.config.clone(), spec.start, spec.initial_op);
    for &(at, op) in &spec.changes {
        campaign.run_until(at);
        campaign.set_operating_point(op);
    }
    campaign.run_until(spec.end);
    reduce(spec, &mut campaign)
}

/// Run every scenario to completion, in parallel, and return the reduced
/// results **in input order**.
///
/// `reduce` sees the finished campaign while it is still owned by the
/// worker thread; extract whatever summary the sweep needs (a mean, a
/// digest, a whole [`crate::experiment::FigureResult`]) so the campaign —
/// and its telemetry store — can be dropped before the fan-out joins.
pub fn run_scenarios<T, F>(specs: &[ScenarioSpec], reduce: F) -> Vec<T>
where
    T: Send,
    F: Fn(&ScenarioSpec, &mut Campaign) -> T + Sync,
{
    let n = specs.len();
    let workers = rayon::current_num_threads().clamp(1, n.max(1));
    if n <= 1 || workers == 1 {
        return specs.iter().map(|s| run_one(s, &reduce)).collect();
    }
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let block = n.div_ceil(workers);
    let reduce = &reduce;
    rayon::scope(|s| {
        for (spec_block, out_block) in specs.chunks(block).zip(out.chunks_mut(block)) {
            s.spawn(move |_| {
                for (slot, spec) in out_block.iter_mut().zip(spec_block) {
                    *slot = Some(run_one(spec, reduce));
                }
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("every scenario block ran to completion"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::SimDuration;

    fn spec(seed: u64, label: &str) -> ScenarioSpec {
        let start = SimTime::from_ymd(2022, 3, 1);
        let cfg = CampaignConfig {
            seed,
            backlog_target: 40,
            generator: hpc_workload::GeneratorConfig {
                max_nodes: 64,
                ..hpc_workload::GeneratorConfig::default()
            },
            ..CampaignConfig::default()
        };
        ScenarioSpec::new(label, cfg, 40, start, start + SimDuration::from_hours(12), OperatingPoint::AFTER_BIOS)
    }

    #[test]
    fn results_come_back_in_input_order() {
        let specs: Vec<ScenarioSpec> =
            (0..4).map(|i| spec(100 + i, &format!("s{i}"))).collect();
        let labels = run_scenarios(&specs, |s, c| {
            assert!(c.events_processed() > 0);
            s.label.clone()
        });
        assert_eq!(labels, vec!["s0", "s1", "s2", "s3"]);
    }

    #[test]
    fn parallel_run_matches_sequential_run_bit_for_bit() {
        let specs: Vec<ScenarioSpec> = (0..3).map(|i| spec(7 + i, &format!("p{i}"))).collect();
        let digest = |_: &ScenarioSpec, c: &mut Campaign| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &v in c.power_series().values().iter() {
                for b in v.to_bits().to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x1000_0000_01b3);
                }
            }
            h
        };
        let par = run_scenarios(&specs, digest);
        let seq: Vec<u64> = specs.iter().map(|s| run_one(s, &digest)).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn mid_campaign_changes_are_applied() {
        let mut s = spec(42, "changes");
        s.end = s.start + SimDuration::from_hours(24);
        s.changes = vec![(s.start + SimDuration::from_hours(12), OperatingPoint::AFTER_FREQ)];
        let ops = run_scenarios(std::slice::from_ref(&s), |_, c| c.operating_point());
        assert_eq!(ops[0], OperatingPoint::AFTER_FREQ);
    }
}
