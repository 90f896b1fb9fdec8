//! The campaign: a months-long discrete-event simulation of the facility
//! replaying the paper's operational timeline.
//!
//! A campaign drives the batch scheduler with an on-demand job stream
//! (ARCHER2-style standing backlog ⇒ >90 % utilisation), samples compute-
//! cabinet power on a fixed telemetry cadence, and lets the operator change
//! the facility operating point mid-flight — the BIOS determinism switch of
//! May 2022 (§4.1) and the 2.0 GHz default of Dec 2022 (§4.2).
//!
//! ## Modelling choices
//!
//! * A job's power draw and runtime are fixed when it *starts*, from the
//!   operating point in force at that instant (plus any per-job override).
//!   Operating-point changes therefore propagate over roughly one mean job
//!   length (~hours) — matching the sharp day-scale steps in Figures 2–3.
//! * Per-job node power is the calibrated application model evaluated with
//!   the facility-typical silicon; the silicon spread moves cabinet power
//!   by well under the ±1 % telemetry noise applied to samples.
//! * The frequency-change policy reproduces the paper's deployment: the
//!   module system resets jobs whose expected slowdown exceeds a threshold
//!   back to 2.25 GHz+turbo, and a small fraction of users override the
//!   default themselves.

use crate::facility::Archer2Facility;
use hpc_faults::{
    generate_schedule, DomainFaultConfig, FaultDomain, FaultDomains, FaultEvent, FaultKind,
    FaultSchedule, HealthMonitor, MeterFaultConfig, MeterFaultPlan, MeterReading, MeterState,
};
use hpc_power::FreqSetting;
use hpc_sched::BatchScheduler;
use hpc_telemetry::TimeSeries;
use hpc_tsdb::{
    PersistError, SanitizeConfig, SanitizeStats, Sanitizer, SeriesId, SeriesMeta, SnapshotStats,
    StoreConfig, TsdbStore, WalReplayStats,
};
use hpc_workload::{
    AppModel, GeneratorConfig, Job, JobGenerator, JobId, JobTrace, OperatingPoint, TraceEntry,
    WorkloadMix,
};
use hpc_topo::{NodeId, SwitchId};
use serde::{Deserialize, Serialize};
use sim_core::rng::{Rng, Xoshiro256StarStar};
use sim_core::sim::{Scheduler as EventScheduler, Simulation, World};
use sim_core::time::{SimDuration, SimTime};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::Path;

/// How jobs respond to a facility default of 2.0 GHz (§4.2's deployment).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FrequencyPolicy {
    /// Every job runs at the facility default.
    Blanket,
    /// Jobs whose predicted performance ratio at 2.0 GHz falls below the
    /// threshold are reset to 2.25 GHz+turbo by the module system, and
    /// `user_revert_fraction` of the rest override the default themselves.
    AutoRevert {
        /// Perf-ratio threshold; the paper reverted apps with >10 % impact.
        threshold: f64,
        /// Fraction of remaining jobs whose users force turbo anyway.
        user_revert_fraction: f64,
    },
}

impl Default for FrequencyPolicy {
    fn default() -> Self {
        FrequencyPolicy::AutoRevert {
            threshold: 0.90,
            user_revert_fraction: 0.01,
        }
    }
}

/// Campaign parameters.
///
/// Serialisable: a config round-trips through JSON bit-exactly (floats use
/// shortest round-trip formatting), which is what lets [`crate::sweep`]
/// ship full scenario grids to worker processes inside shard manifests.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Master seed (silicon lottery, job stream, telemetry noise).
    pub seed: u64,
    /// Telemetry cadence.
    pub sample_interval: SimDuration,
    /// Standing backlog depth the generator maintains.
    pub backlog_target: usize,
    /// Job-shape parameters.
    pub generator: GeneratorConfig,
    /// Research-area mix.
    pub mix: WorkloadMix,
    /// Frequency policy once the default drops to 2.0 GHz.
    pub policy: FrequencyPolicy,
    /// Fractional 1-sigma telemetry noise on power samples.
    pub telemetry_noise: f64,
    /// Fraction of the fleet unavailable to the scheduler at any moment
    /// (maintenance drains, service reservations, short-queue set-asides).
    /// These nodes draw idle power. ARCHER2 runs >90 % but not 100 %
    /// utilisation (§3.2: full load is "impossible to achieve due to
    /// scheduling overheads").
    pub unavailable_fraction: f64,
    /// Fault injection: node failures, cabinet PSU trips, CDU cooling-loop
    /// failures, switch failures and per-meter sensor faults, all from one
    /// correlated, topology-aware schedule. `None` runs a fault-free
    /// facility. Node MTBF and repair times are set through
    /// [`DomainFaultConfig::node`].
    pub faults: Option<FaultInjectionConfig>,
    /// Record a per-job accounting trace (HPC-JEEP-style).
    pub record_trace: bool,
    /// Dynamic operating schedule; `None` keeps the operating point fixed
    /// between explicit `set_operating_point` calls.
    pub schedule: Option<OperatingSchedule>,
    /// Record one power series per compute cabinet (heavier diagnostics:
    /// O(nodes) work per telemetry sample).
    pub per_cabinet_telemetry: bool,
    /// Record one power series per *node* into the telemetry store —
    /// per-node scale is exactly what [`hpc_tsdb`] exists for, but it is
    /// still O(nodes) compressed samples per tick, so it stays opt-in.
    pub per_node_telemetry: bool,
}

/// A time-varying operating policy: drop the default frequency whenever
/// the grid's carbon intensity (or stress) is above a threshold, restore it
/// when the grid relaxes — the §2 decision rule applied hour by hour
/// instead of once per year.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingSchedule {
    /// Carbon-intensity signal driving the policy.
    pub scenario: hpc_grid::IntensityScenario,
    /// Above this intensity (gCO₂/kWh) the facility sheds to `shed`.
    pub high_ci_threshold: f64,
    /// Operating point on a relaxed grid.
    pub normal: OperatingPoint,
    /// Operating point on a stressed grid.
    pub shed: OperatingPoint,
    /// How often the policy re-evaluates.
    pub tick: SimDuration,
}

impl OperatingSchedule {
    /// The operating point this schedule selects at `t`.
    pub fn at(&self, t: SimTime) -> OperatingPoint {
        if self.scenario.expected(t) > self.high_ci_threshold {
            self.shed
        } else {
            self.normal
        }
    }
}

/// Correlated, topology-aware fault injection — the campaign's only
/// failure model: a deterministic schedule of node, cabinet-PSU, CDU-loop
/// and switch failures generated up front from the seed, plus optional
/// sensor-fault models on the per-cabinet power meters. A node-only model
/// (every other [`DomainFaultConfig`] class at [`hpc_faults::DomainRate::OFF`])
/// gives independent node failures; `repair_sigma: 0.0` makes every repair
/// take exactly `repair_mean_hours`.
///
/// The schedule covers `[start, start + horizon)`; a campaign run past the
/// horizon sees no further injected faults. Meter faults only apply when
/// [`CampaignConfig::per_cabinet_telemetry`] is set (they model the cabinet
/// meters, and there is nothing to distort otherwise). Campaigns with meter
/// faults checkpoint and resume like any other.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultInjectionConfig {
    /// Per-domain-class failure and repair rates.
    pub domains: DomainFaultConfig,
    /// How far ahead of the campaign start the fault schedule extends.
    pub horizon: SimDuration,
    /// Cabinet power-meter fault model; `None` keeps the meters ideal.
    pub meters: Option<MeterFaultConfig>,
    /// Sanitisation rules applied to metered cabinet samples on ingest.
    pub sanitize: SanitizeConfig,
}

impl Default for FaultInjectionConfig {
    fn default() -> Self {
        FaultInjectionConfig {
            domains: DomainFaultConfig::default(),
            horizon: SimDuration::from_days(30),
            meters: None,
            sanitize: SanitizeConfig::default(),
        }
    }
}

/// Sensor-path health counters for a campaign with meter faults enabled:
/// what the meters dropped outright and what the ingest sanitiser did with
/// everything they reported.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SensorStats {
    /// Samples the meters never reported (dropout windows): gaps.
    pub dropped: u64,
    /// Stored/quarantined breakdown from the ingest sanitiser.
    pub sanitize: SanitizeStats,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 2022,
            sample_interval: SimDuration::from_mins(15),
            backlog_target: 120,
            generator: GeneratorConfig::default(),
            mix: WorkloadMix::archer2(),
            policy: FrequencyPolicy::default(),
            telemetry_noise: 0.01,
            unavailable_fraction: 0.05,
            faults: None,
            record_trace: false,
            schedule: None,
            per_cabinet_telemetry: false,
            per_node_telemetry: false,
        }
    }
}

/// Telemetry-store health counters for a campaign. Sampling never panics
/// the simulation: a sample the store refuses (unregistered series,
/// non-monotonic timestamp) is dropped and *counted* here, so data loss is
/// visible instead of silent.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TelemetryStats {
    /// Samples the telemetry store refused on the sampling path.
    pub samples_rejected: u64,
    /// WAL replay outcome when this campaign was resumed from a checkpoint
    /// directory containing a `wal.twal`; `None` for fresh campaigns and
    /// snapshot-only resumes.
    pub wal_replay: Option<WalReplayStats>,
}

/// `campaign.json` sidecar written next to the snapshot by
/// [`Campaign::checkpoint`]: the campaign start instant, the sampling grid
/// and the checkpoint clock, which the tsdb snapshot alone does not carry.
/// The snapshot holds the only copy of the telemetry; resume checks the
/// recovered facility series against this grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct CheckpointMeta {
    format_version: u32,
    start_unix: u64,
    interval_s: u64,
    checkpoint_unix: u64,
    samples: u64,
    per_cabinet_telemetry: bool,
    per_node_telemetry: bool,
}

/// State recovered from a checkpoint directory, handed to `assemble` in
/// place of the fresh-start defaults.
struct ResumePieces {
    store: TsdbStore,
    /// Resume the clock here (the checkpoint instant).
    now: SimTime,
    /// First telemetry tick after the recovered history.
    next_sample: SimTime,
    wal_replay: Option<WalReplayStats>,
}

/// Campaign events.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Telemetry sample tick.
    Sample,
    /// A running job finishes. The second field is the run number
    /// ([`JobRun::run`]) of the placement that scheduled it: a completion
    /// for a job killed by a fault (and maybe restarted) is stale.
    Finish(JobId, u64),
    /// Top up the backlog and run a scheduling pass.
    Refill,
    /// The dynamic operating schedule re-evaluates.
    PolicyTick,
    /// The pre-generated correlated fault schedule fires event `i`.
    Fault(u32),
}

/// Live state of the correlated fault injector: the pre-generated schedule,
/// the domain membership maps, availability accounting, and per-component
/// down-refcounts (a node can be held down by its own fault *and* its
/// cabinet's — it returns to service only when the last holder repairs).
struct FaultRuntime {
    schedule: FaultSchedule,
    domains: FaultDomains,
    health: HealthMonitor,
    node_down: Vec<u32>,
    cabinet_down: Vec<u32>,
    cdu_down: Vec<u32>,
    switch_down: Vec<u32>,
    /// Switches currently de-energised (refcount > 0), for the budget.
    switches_down_now: u32,
    /// CDU loops currently down, for the budget.
    cdus_down_now: u32,
    /// Unavailable-set nodes (outside the scheduler) currently held down:
    /// only the power model needs to know about these.
    unavailable_down_now: u32,
}

/// Live state of the cabinet meter fault models: the pre-generated
/// per-meter plan, the stuck-at-last hold values, and the ingest sanitiser
/// that quarantines implausible readings before they reach the store.
struct MeterRuntime {
    plan: MeterFaultPlan,
    states: Vec<MeterState>,
    sanitizer: Sanitizer,
    /// Samples lost to dropout windows (never reported at all).
    dropped: u64,
}

/// Key for the per-(application, operating point) power/runtime cache.
/// The app is an interned id (see `FacilityWorld::app_ids`) so the cache
/// hit path — every job start after the first per app — hashes a `Copy`
/// key instead of cloning the app name `String`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct EvalKey {
    app: u32,
    setting: FreqSetting,
    mode: hpc_power::DeterminismMode,
}

/// Compact per-node power class, updated incrementally at job start/finish
/// and fault transitions so the sampling paths never chase scheduler
/// HashMaps. `Dark` covers every zero-draw state: powered down for repair,
/// or de-energised by a correlated fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    /// Healthy and unoccupied (schedulable or unavailable-set): idles.
    Idle,
    /// Running part of a job: draws its entry in `node_watts`.
    Busy,
    /// Powered down (failed, drained, or fault-held): draws nothing.
    Dark,
}

/// One running job's accounting record, kept from placement to finish or
/// kill.
#[derive(Debug, Clone, Copy)]
struct JobRun {
    /// The job's total node power (W): the exact bits added to
    /// `busy_power_w` at placement, so finishing subtracts the same bits
    /// (`node_watts[i] × nodes` does not round-trip them).
    power_w: f64,
    /// Effective operating point (for trace records).
    op: OperatingPoint,
    /// `started_jobs` at placement: unique per placement, so a `Finish`
    /// scheduled by an earlier run of a requeued job is recognised as
    /// stale.
    run: u64,
}

/// Incremental per-cabinet power aggregate: enough to price a cabinet in
/// O(1) at sample time. Idle count is derived (`cabinet nodes − busy −
/// dark`), so only two counters and one power sum need maintaining.
#[derive(Debug, Clone, Copy, Default)]
struct CabinetAgg {
    /// Sum of per-node watts over this cabinet's busy nodes.
    busy_w: f64,
    /// Busy nodes in this cabinet.
    busy: u32,
    /// Zero-draw (offline / fault-held) nodes in this cabinet.
    dark: u32,
}

/// The simulated world.
struct FacilityWorld {
    facility: Archer2Facility,
    /// Nodes the scheduler may use (fleet minus the unavailable set).
    schedulable_nodes: u32,
    scheduler: BatchScheduler,
    generator: JobGenerator,
    op: OperatingPoint,
    policy_active: bool,
    config: CampaignConfig,
    /// Sum of node power over running jobs (W).
    busy_power_w: f64,
    /// One record per running job.
    running: HashMap<JobId, JobRun>,
    /// (power W/node, runtime ratio) cache per app × operating point.
    eval_cache: HashMap<EvalKey, (f64, f64)>,
    /// App-name interner backing [`EvalKey::app`]: one clone per distinct
    /// app ever evaluated, allocation-free lookups after that.
    app_ids: HashMap<String, u32>,
    /// SoA per-node power class (len = fleet), updated incrementally.
    node_state: Vec<NodeState>,
    /// SoA per-node draw of the running job (W); 0.0 unless `Busy`. Holds
    /// exactly `job_w / job_nodes` as the retired per-sample lookup chain
    /// computed it, so per-node telemetry stays bit-identical.
    node_watts: Vec<f64>,
    /// Cabinet index per node (topology is static).
    node_cabinet: Vec<u16>,
    /// Cabinet index per switch; `u16::MAX` for switches outside cabinets.
    switch_cabinet: Vec<u16>,
    /// Incremental per-cabinet aggregates mirroring `node_state`.
    cabinet_agg: Vec<CabinetAgg>,
    /// Total nodes per cabinet (static).
    cabinet_node_count: Vec<u32>,
    /// Energised switches per cabinet, maintained at fault transitions so
    /// cabinet sampling never filters the switch list.
    cabinet_live_switches: Vec<u32>,
    /// Reusable per-tick buffer for the batched node-telemetry append.
    node_sample_buf: Vec<(SeriesId, f64)>,
    /// Internal-invariant breaches detected at runtime (accounting slots
    /// missing where the old code `expect`ed them). A breach degrades the
    /// affected job's accounting instead of aborting the campaign, and is
    /// surfaced through `Campaign::verify_invariants`. Capped; see
    /// `invariant_breach`.
    runtime_violations: Vec<String>,
    /// Total runtime breaches, including any dropped past the cap.
    runtime_violation_count: u64,
    /// Fleet-mean idle node power per BIOS mode (kW), computed lazily.
    idle_kw_cache: HashMap<hpc_power::DeterminismMode, f64>,
    /// Campaign start: origin of the sampling grid and the meter clock.
    start: SimTime,
    noise_rng: Xoshiro256StarStar,
    policy_rng: Xoshiro256StarStar,
    reverted_jobs: u64,
    started_jobs: u64,
    trace: JobTrace,
    /// Compressed telemetry store — the campaign's only copy of its
    /// telemetry: the facility series always, per-cabinet and per-node
    /// series when the matching config flags are set.
    store: TsdbStore,
    facility_sid: SeriesId,
    cabinet_sids: Vec<SeriesId>,
    node_sids: Vec<SeriesId>,
    node_failures: u64,
    jobs_killed: u64,
    telemetry: TelemetryStats,
    /// Correlated fault injector state, when `config.faults` is set.
    faults: Option<FaultRuntime>,
    /// Meter fault state, when `config.faults.meters` is set alongside
    /// per-cabinet telemetry.
    meters: Option<MeterRuntime>,
}

impl FacilityWorld {
    /// Evaluate (node power W, runtime ratio) for an app at an operating
    /// point, cached — the catalog is small, so the cache stays tiny while
    /// eliminating per-job bisection cost. The hit path (every start after
    /// an app's first) is allocation-free: the key carries an interned app
    /// id, not a cloned name.
    fn evaluate(&mut self, app: &AppModel, op: OperatingPoint) -> (f64, f64) {
        let app_id = match self.app_ids.get(app.name.as_str()) {
            Some(&id) => id,
            None => {
                let id = self.app_ids.len() as u32;
                self.app_ids.insert(app.name.clone(), id);
                id
            }
        };
        let key = EvalKey { app: app_id, setting: op.setting, mode: op.mode };
        if let Some(&v) = self.eval_cache.get(&key) {
            return v;
        }
        let nm = self.facility.node_model();
        let lot = self.facility.lottery();
        let v = (app.node_power_w(op, nm, lot), app.runtime_ratio(op, nm, lot));
        self.eval_cache.insert(key, v);
        v
    }

    /// Record a broken internal accounting invariant. The campaign keeps
    /// running in a degraded mode; [`Campaign::verify_invariants`] reports
    /// every breach. Capped so a pathological loop cannot eat memory.
    fn invariant_breach(&mut self, what: String) {
        self.runtime_violation_count += 1;
        if self.runtime_violations.len() < 64 {
            self.runtime_violations.push(what);
        }
    }

    /// Move one node to a new power class, keeping the SoA arrays and the
    /// per-cabinet aggregates in lockstep. `w` is the node's draw when
    /// `Busy` (ignored otherwise). Idempotent: re-asserting the current
    /// state is a no-op.
    fn set_node(&mut self, n: NodeId, new: NodeState, w: f64) {
        let i = n.index();
        let old = self.node_state[i];
        let new_w = if new == NodeState::Busy { w } else { 0.0 };
        if old == new && self.node_watts[i] == new_w {
            return;
        }
        let agg = &mut self.cabinet_agg[self.node_cabinet[i] as usize];
        match old {
            NodeState::Busy => {
                agg.busy -= 1;
                agg.busy_w -= self.node_watts[i];
                // Re-anchor the float accumulator every time the cabinet
                // drains: the true sum over zero busy nodes is exactly 0,
                // so add/subtract round-off cannot build up across epochs.
                if agg.busy == 0 {
                    agg.busy_w = 0.0;
                }
            }
            NodeState::Dark => agg.dark -= 1,
            NodeState::Idle => {}
        }
        match new {
            NodeState::Busy => {
                agg.busy += 1;
                agg.busy_w += new_w;
            }
            NodeState::Dark => agg.dark += 1,
            NodeState::Idle => {}
        }
        self.node_state[i] = new;
        self.node_watts[i] = new_w;
    }

    /// Apply the frequency policy to a job about to start, returning its
    /// effective operating point.
    fn effective_op(&mut self, job: &Job) -> OperatingPoint {
        let mut op = self.op;
        if let Some(setting) = job.freq_override {
            op.setting = setting;
            return op;
        }
        if op.setting == FreqSetting::Mid2000 && self.policy_active {
            if let FrequencyPolicy::AutoRevert {
                threshold,
                user_revert_fraction,
            } = self.config.policy
            {
                let (_, rt) = self.evaluate(&job.app, op);
                let perf = 1.0 / rt;
                let reverts = perf < threshold || self.policy_rng.chance(user_revert_fraction);
                if reverts {
                    op.setting = FreqSetting::TurboBoost2250;
                    self.reverted_jobs += 1;
                }
            }
        }
        op
    }

    /// Total compute-cabinet power right now (kW).
    fn compute_cabinet_power_kw(&mut self) -> f64 {
        let mode = self.op.mode;
        let facility = &self.facility;
        let per_idle_kw = *self
            .idle_kw_cache
            .entry(mode)
            .or_insert_with(|| facility.mean_idle_node_kw(mode));
        let unavailable = self.facility.nodes() - self.schedulable_nodes;
        let (unavail_down, sw_down, cdu_down) = match &self.faults {
            Some(fr) => (fr.unavailable_down_now, fr.switches_down_now, fr.cdus_down_now),
            None => (0, 0, 0),
        };
        // Offline (failed) nodes are powered down for repair and draw
        // nothing; unavailable-but-healthy nodes idle.
        let idle_nodes = (self.scheduler.free_nodes() + unavailable - unavail_down) as f64;
        let idle_kw = idle_nodes * per_idle_kw;
        // The incremental busy counter can drift to ~-1e-10 when a fault
        // storm empties the fleet; clamp so the budget never sees < 0.
        let nodes_kw = (self.busy_power_w / 1000.0 + idle_kw).max(0.0);
        // Fabric traffic tracks utilisation loosely; switch power barely
        // cares (§5).
        let util = self.scheduler.busy_nodes() as f64 / self.facility.nodes() as f64;
        let budget =
            self.facility
                .budget_from_nodes_degraded(nodes_kw, 0.7 * util, sw_down, cdu_down);
        budget.compute_cabinets_kw()
    }

    /// Run a scheduling pass and register starts.
    fn schedule_pass(&mut self, now: SimTime, sched: &mut EventScheduler<'_, Event>) {
        let placements = self.scheduler.schedule(now);
        for p in placements {
            let running = self
                .scheduler
                .running_job(p.job_id)
                .expect("just placed")
                .job
                .clone();
            let op = self.effective_op(&running);
            let (power_per_node_w, rt_ratio) = self.evaluate(&running.app, op);
            let job_w = power_per_node_w * running.nodes as f64;
            self.busy_power_w += job_w;
            let run = self.started_jobs;
            self.running.insert(p.job_id, JobRun { power_w: job_w, op, run });
            self.started_jobs += 1;
            // Same division the retired per-sample lookup performed, so the
            // SoA watt array carries bit-identical per-node values.
            let per_node_w = job_w / running.nodes as f64;
            for &n in &p.nodes {
                self.set_node(n, NodeState::Busy, per_node_w);
            }
            let runtime = running.actual_runtime(rt_ratio);
            sched.after(runtime, Event::Finish(p.job_id, run));
        }
    }

    /// From-scratch recompute of one node's draw (W) out of scheduler and
    /// fault state — the retired per-sample lookup chain, kept as the
    /// reference the incremental SoA state is audited against (see
    /// [`Self::audit_power_accounting`]). Never on the sampling hot path.
    fn expected_node_w(&self, n: NodeId, per_idle_w: f64) -> f64 {
        if let Some(fr) = &self.faults {
            if fr.node_down[n.index()] > 0 {
                return 0.0; // de-energised by a correlated fault
            }
        }
        if n.0 >= self.schedulable_nodes {
            per_idle_w // the unavailable set idles
        } else if let Some(job) = self.scheduler.job_on_node(n) {
            let job_w = self.running.get(&job).map_or(0.0, |r| r.power_w);
            let nodes = self.scheduler.running_job(job).map_or(1, |r| r.job.nodes);
            job_w / nodes as f64
        } else if self.scheduler.is_node_offline(n) {
            0.0 // powered down for repair
        } else {
            per_idle_w
        }
    }

    /// Audit the incremental power accounting against a brute-force
    /// recompute from scheduler + fault state: per-node states and watts,
    /// per-cabinet busy/dark counts and busy-power sums, and the fleet
    /// totals. Returns a description of every mismatch (empty = all hold).
    fn audit_power_accounting(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let n_cabs = self.cabinet_agg.len();
        let mut busy = vec![0u32; n_cabs];
        let mut dark = vec![0u32; n_cabs];
        let mut busy_w = vec![0.0f64; n_cabs];
        let mut fleet_busy_w = 0.0;
        // Any positive reference level distinguishes Idle from Dark.
        let per_idle_w = 1.0;
        for i in 0..self.node_state.len() {
            let n = NodeId(i as u32);
            let cab = self.node_cabinet[i] as usize;
            let expect_w = self.expected_node_w(n, per_idle_w);
            let expect_state = if self.scheduler.job_on_node(n).is_some()
                && n.0 < self.schedulable_nodes
                && expect_w > 0.0
            {
                NodeState::Busy
            } else if expect_w == 0.0 {
                NodeState::Dark
            } else {
                NodeState::Idle
            };
            if self.node_state[i] != expect_state {
                if violations.len() < 8 {
                    violations.push(format!(
                        "node {i}: incremental state {:?} but recompute says {expect_state:?}",
                        self.node_state[i]
                    ));
                }
                continue;
            }
            match expect_state {
                NodeState::Busy => {
                    busy[cab] += 1;
                    busy_w[cab] += expect_w;
                    fleet_busy_w += expect_w;
                    if self.node_watts[i].to_bits() != expect_w.to_bits() {
                        violations.push(format!(
                            "node {i}: incremental watts {} != recomputed {expect_w}",
                            self.node_watts[i]
                        ));
                    }
                }
                NodeState::Dark => dark[cab] += 1,
                NodeState::Idle => {}
            }
        }
        for c in 0..n_cabs {
            let agg = &self.cabinet_agg[c];
            if (agg.busy, agg.dark) != (busy[c], dark[c]) {
                violations.push(format!(
                    "cabinet {c}: incremental busy/dark {}/{} but recompute says {}/{}",
                    agg.busy, agg.dark, busy[c], dark[c]
                ));
            }
            // The incremental sum accumulates in event order, the recompute
            // in node order: equal as real numbers, so require agreement to
            // float round-off only (relative, with a microwatt floor for
            // near-empty cabinets against kW-scale per-node terms).
            let tol = 1e-9 * busy_w[c].abs() + 1e-6;
            if (agg.busy_w - busy_w[c]).abs() > tol {
                violations.push(format!(
                    "cabinet {c}: incremental busy power {} W but recompute says {} W",
                    agg.busy_w, busy_w[c]
                ));
            }
        }
        let tol = 1e-9 * fleet_busy_w.abs() + 1e-6;
        if (self.busy_power_w - fleet_busy_w).abs() > tol {
            violations.push(format!(
                "fleet: incremental busy power {} W but recompute says {fleet_busy_w} W",
                self.busy_power_w
            ));
        }
        violations
    }

    /// Fleet idle node power (W) for the current BIOS mode, cached.
    fn per_idle_node_w(&mut self) -> f64 {
        let mode = self.op.mode;
        let facility = &self.facility;
        *self
            .idle_kw_cache
            .entry(mode)
            .or_insert_with(|| facility.mean_idle_node_kw(mode))
            * 1000.0
    }

    /// Sample per-cabinet power in O(cabinets): each cabinet is priced from
    /// its incremental aggregate (busy power sum, busy/dark counts, live
    /// switch count) — no per-node rescan, no per-tick model construction.
    fn sample_cabinets(&mut self, ts: i64) {
        debug_assert!(
            self.audit_power_accounting().is_empty(),
            "incremental power accounting drifted from recompute: {:?}",
            self.audit_power_accounting()
        );
        let per_idle_w = self.per_idle_node_w();
        let util = self.scheduler.busy_nodes() as f64 / self.facility.nodes() as f64;
        // Models are built once with the facility; only the load varies.
        let sw_w = self.facility.switch_model().power_w(0.7 * util);
        let overhead = self.facility.overhead_model();

        let mut samples = Vec::with_capacity(self.cabinet_sids.len());
        for (c, agg) in self.cabinet_agg.iter().enumerate() {
            let idle_nodes = self.cabinet_node_count[c] - agg.busy - agg.dark;
            // Like the fleet counter, the incremental cabinet sum can drift
            // to ~-1e-10 when a fault storm empties the cabinet; clamp.
            let nodes_w = (agg.busy_w + idle_nodes as f64 * per_idle_w).max(0.0);
            let switches_w = self.cabinet_live_switches[c] as f64 * sw_w;
            let it_w = nodes_w + switches_w;
            samples.push((it_w + overhead.power_w(it_w)) / 1000.0);
        }
        // Samples go through the meter fault models (if any) and the ingest
        // sanitiser, so the stored series is what an operator would see.
        let start_unix = self.start.as_unix();
        for (i, (&sid, kw)) in self.cabinet_sids.iter().zip(samples).enumerate() {
            match self.meters.as_mut() {
                Some(mr) => {
                    let rel_s = (ts as u64).saturating_sub(start_unix);
                    match mr.plan.apply(i, rel_s, kw, &mut mr.states[i]) {
                        MeterReading::Missing => mr.dropped += 1,
                        MeterReading::Value { at_s, value, .. } => {
                            let skewed_ts = start_unix as i64 + at_s;
                            if mr.sanitizer.ingest(&self.store, sid, skewed_ts, value).is_none() {
                                self.telemetry.samples_rejected += 1;
                            }
                        }
                    }
                }
                None => {
                    if self.store.try_append_batch(sid, &[(ts, kw)]).is_err() {
                        self.telemetry.samples_rejected += 1;
                    }
                }
            }
        }
    }

    /// Sample every node's power into the compressed store (kW): one
    /// branch-light linear scan over the SoA state arrays, then a single
    /// batched multi-series append (one lock per store shard, shards fanned
    /// out over rayon) instead of 5,860 one-sample appends.
    fn sample_nodes(&mut self, ts: i64) {
        let per_idle_w = self.per_idle_node_w();
        let mut batch = std::mem::take(&mut self.node_sample_buf);
        batch.clear();
        batch.reserve(self.node_sids.len());
        for ((&sid, &state), &w) in
            self.node_sids.iter().zip(&self.node_state).zip(&self.node_watts)
        {
            let node_w = match state {
                NodeState::Busy => w,
                NodeState::Idle => per_idle_w,
                NodeState::Dark => 0.0,
            };
            batch.push((sid, node_w / 1000.0));
        }
        self.telemetry.samples_rejected += self.store.append_tick(ts, &batch);
        self.node_sample_buf = batch;
    }

    /// Top the backlog up to the target.
    fn refill(&mut self, now: SimTime) {
        while self.scheduler.pending_count() < self.config.backlog_target {
            let job = self.generator.next_job(now);
            self.scheduler.submit(job);
        }
    }

    /// Strip a failure-killed job out of the incremental power accounting;
    /// dropping its record makes any in-flight `Finish` event stale. A
    /// missing record is an internal-invariant breach: reported, and the
    /// kill proceeds with zero power instead of aborting the campaign.
    fn kill_job_accounting(&mut self, killed: JobId) {
        match self.running.remove(&killed) {
            Some(job) => self.busy_power_w -= job.power_w,
            None => self.invariant_breach(format!(
                "kill: job {killed:?} was running but carried no power"
            )),
        }
        self.jobs_killed += 1;
    }

    /// Fail `victim` through the scheduler, keeping the SoA node state in
    /// lockstep: the victim goes dark, and every other node of a killed
    /// job is released back to idle. Returns the killed job, if any.
    fn fail_node_tracked(&mut self, victim: NodeId, now: SimTime) -> Option<JobId> {
        // The scheduler releases the killed job's node list; capture it
        // first so the SoA state can follow without an API change.
        let job_nodes: Option<Vec<NodeId>> = self
            .scheduler
            .job_on_node(victim)
            .and_then(|id| self.scheduler.running_job(id).map(|r| r.nodes.clone()));
        let killed = self.scheduler.fail_node(victim, now);
        if killed.is_some() {
            for n in job_nodes.unwrap_or_default() {
                if n != victim {
                    self.set_node(n, NodeState::Idle, 0.0);
                }
            }
        }
        // Offline either way (fail_node on an already-offline node is a
        // no-op, and Dark is already recorded then).
        self.set_node(victim, NodeState::Dark, 0.0);
        killed
    }

    /// One component of `domain` lost power: bump the node's down-refcount
    /// and, on the 0→1 transition, drain it. Schedulable nodes go through
    /// the scheduler (killing whatever ran there); unavailable-set nodes
    /// only exist in the power model.
    fn fault_node_down(&mut self, fr: &mut FaultRuntime, n: NodeId, now: SimTime) {
        fr.node_down[n.index()] += 1;
        if fr.node_down[n.index()] > 1 {
            return;
        }
        if n.0 >= self.schedulable_nodes {
            fr.unavailable_down_now += 1;
            self.set_node(n, NodeState::Dark, 0.0);
            return;
        }
        self.node_failures += 1;
        if let Some(killed) = self.fail_node_tracked(n, now) {
            self.kill_job_accounting(killed);
        }
    }

    /// Reverse of [`Self::fault_node_down`]: on the 1→0 transition the node
    /// returns to service. Tolerates unmatched `Up` events (a resumed
    /// campaign only replays the future half of the schedule).
    fn fault_node_up(&mut self, fr: &mut FaultRuntime, n: NodeId, now: SimTime) {
        if fr.node_down[n.index()] == 0 {
            return;
        }
        fr.node_down[n.index()] -= 1;
        if fr.node_down[n.index()] > 0 {
            return;
        }
        if n.0 >= self.schedulable_nodes {
            fr.unavailable_down_now -= 1;
            self.set_node(n, NodeState::Idle, 0.0);
            return;
        }
        if self.scheduler.repair_node(n, now) {
            self.set_node(n, NodeState::Idle, 0.0);
        }
    }

    fn switch_down_transition(&mut self, fr: &mut FaultRuntime, s: SwitchId) {
        fr.switch_down[s.index()] += 1;
        if fr.switch_down[s.index()] == 1 {
            fr.switches_down_now += 1;
            let cab = self.switch_cabinet[s.index()];
            if cab != u16::MAX {
                self.cabinet_live_switches[cab as usize] -= 1;
            }
        }
    }

    fn switch_up_transition(&mut self, fr: &mut FaultRuntime, s: SwitchId) {
        if fr.switch_down[s.index()] == 0 {
            return;
        }
        fr.switch_down[s.index()] -= 1;
        if fr.switch_down[s.index()] == 0 {
            fr.switches_down_now -= 1;
            let cab = self.switch_cabinet[s.index()];
            if cab != u16::MAX {
                self.cabinet_live_switches[cab as usize] += 1;
            }
        }
    }

    /// Apply one event from the pre-generated fault schedule.
    ///
    /// * Node: that node drains (its job is killed and requeued).
    /// * Cabinet: the PSU trips — every node and switch in the cabinet
    ///   loses power at once.
    /// * CDU loop: availability accounting only; the thermal-drain cabinet
    ///   trips were already expanded into explicit `Cabinet` events when
    ///   the schedule was generated.
    /// * Switch: the attached endpoint nodes become unreachable, so the
    ///   scheduler drains them (modelled as powered down until repair).
    fn apply_fault(&mut self, fr: &mut FaultRuntime, event: FaultEvent, now: SimTime) {
        fr.health.record(event.kind, event.at_s);
        match event.kind {
            FaultKind::Down(domain) => match domain {
                FaultDomain::Node(n) => self.fault_node_down(fr, n, now),
                FaultDomain::Cabinet(c) => {
                    fr.cabinet_down[c.index()] += 1;
                    if fr.cabinet_down[c.index()] == 1 {
                        let switches: Vec<SwitchId> =
                            self.facility.topology().switches_in_cabinet(c).to_vec();
                        for s in switches {
                            self.switch_down_transition(fr, s);
                        }
                        let nodes = fr.domains.nodes_of(domain);
                        for n in nodes {
                            self.fault_node_down(fr, n, now);
                        }
                    }
                }
                FaultDomain::CduLoop(d) => {
                    fr.cdu_down[d.index()] += 1;
                    if fr.cdu_down[d.index()] == 1 {
                        fr.cdus_down_now += 1;
                    }
                }
                FaultDomain::Switch(s) => {
                    self.switch_down_transition(fr, s);
                    let nodes = fr.domains.nodes_of(domain);
                    for n in nodes {
                        self.fault_node_down(fr, n, now);
                    }
                }
            },
            FaultKind::Up(domain) => match domain {
                FaultDomain::Node(n) => self.fault_node_up(fr, n, now),
                FaultDomain::Cabinet(c) => {
                    if fr.cabinet_down[c.index()] > 0 {
                        fr.cabinet_down[c.index()] -= 1;
                        if fr.cabinet_down[c.index()] == 0 {
                            let switches: Vec<SwitchId> =
                                self.facility.topology().switches_in_cabinet(c).to_vec();
                            for s in switches {
                                self.switch_up_transition(fr, s);
                            }
                            let nodes = fr.domains.nodes_of(domain);
                            for n in nodes {
                                self.fault_node_up(fr, n, now);
                            }
                        }
                    }
                }
                FaultDomain::CduLoop(d) => {
                    if fr.cdu_down[d.index()] > 0 {
                        fr.cdu_down[d.index()] -= 1;
                        if fr.cdu_down[d.index()] == 0 {
                            fr.cdus_down_now -= 1;
                        }
                    }
                }
                FaultDomain::Switch(s) => {
                    self.switch_up_transition(fr, s);
                    let nodes = fr.domains.nodes_of(domain);
                    for n in nodes {
                        self.fault_node_up(fr, n, now);
                    }
                }
            },
        }
    }
}

impl World for FacilityWorld {
    type Event = Event;

    fn handle(&mut self, event: Event, sched: &mut EventScheduler<'_, Event>) {
        let now = sched.now();
        match event {
            Event::Sample => {
                let kw = self.compute_cabinet_power_kw();
                let noise = 1.0 + self.config.telemetry_noise * standard_normal(&mut self.noise_rng);
                let sampled = kw * noise.max(0.0);
                let ts = now.as_unix() as i64;
                if self.store.try_append_batch(self.facility_sid, &[(ts, sampled)]).is_err() {
                    self.telemetry.samples_rejected += 1;
                }
                if self.config.per_cabinet_telemetry {
                    self.sample_cabinets(ts);
                }
                if self.config.per_node_telemetry {
                    self.sample_nodes(ts);
                }
                sched.after(self.config.sample_interval, Event::Sample);
            }
            Event::Finish(id, run) => {
                let job = match self.running.entry(id) {
                    Entry::Occupied(e) if e.get().run == run => e.remove(),
                    // Stale completion: this run was killed by a fault (the
                    // job is requeued, restarted under a new run, or given
                    // up on).
                    _ => return,
                };
                self.busy_power_w -= job.power_w;
                let done = self.scheduler.complete(id, now);
                for &n in &done.nodes {
                    self.set_node(n, NodeState::Idle, 0.0);
                }
                if self.config.record_trace {
                    self.trace.push(TraceEntry {
                        job: id,
                        app: done.job.app.name.clone(),
                        area: done.job.app.area,
                        nodes: done.job.nodes,
                        submitted: done.job.submitted_at,
                        started: done.started_at,
                        ended: now,
                        op: job.op,
                        node_power_w: job.power_w / done.job.nodes as f64,
                    });
                }
                self.refill(now);
                self.schedule_pass(now, sched);
            }
            Event::Refill => {
                self.refill(now);
                self.schedule_pass(now, sched);
            }
            Event::Fault(i) => {
                let Some(mut fr) = self.faults.take() else {
                    return;
                };
                if let Some(&event) = fr.schedule.events().get(i as usize) {
                    self.apply_fault(&mut fr, event, now);
                }
                self.faults = Some(fr);
                self.schedule_pass(now, sched);
            }
            Event::PolicyTick => {
                if let Some(schedule) = self.config.schedule {
                    self.op = schedule.at(now);
                    sched.after(schedule.tick, Event::PolicyTick);
                }
            }
        }
    }
}

fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1 = 1.0 - rng.next_f64();
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A runnable campaign.
pub struct Campaign {
    sim: Simulation<FacilityWorld>,
}

impl Campaign {
    /// Build a campaign over `facility` starting at `start` in operating
    /// point `op`.
    pub fn new(facility: Archer2Facility, config: CampaignConfig, start: SimTime, op: OperatingPoint) -> Self {
        Self::assemble(facility, config, start, op, None)
    }

    /// Shared constructor behind [`Self::new`] and [`Self::resume`]: builds
    /// the world from scratch, or around recovered telemetry when `resume`
    /// is given (in which case the clock starts at the checkpoint instant
    /// and sampling continues on the original grid).
    fn assemble(
        facility: Archer2Facility,
        config: CampaignConfig,
        start: SimTime,
        op: OperatingPoint,
        resume: Option<ResumePieces>,
    ) -> Self {
        let root = Xoshiro256StarStar::seeded(config.seed);
        let mut gen_cfg = config.generator;
        gen_cfg.max_nodes = gen_cfg.max_nodes.min(
            (facility.nodes() as f64 * (1.0 - config.unavailable_fraction)) as u32,
        );
        let generator = JobGenerator::new(
            gen_cfg,
            config.mix.clone(),
            facility.catalog(),
            config.seed ^ 0x9E37_79B9,
        );
        let unavailable =
            (facility.nodes() as f64 * config.unavailable_fraction).round() as u32;
        let schedulable_nodes = facility.nodes() - unavailable;
        let scheduler = BatchScheduler::new(schedulable_nodes);
        let (store, now, next_sample, wal_replay) = match resume {
            Some(p) => (p.store, p.now, p.next_sample, p.wal_replay),
            None => (TsdbStore::default(), start, start, None),
        };
        let interval_hint = config.sample_interval.as_secs() as i64;
        let smeta = |name: String| SeriesMeta { name, unit: "kW".into(), interval_hint };
        // On a recovered store `register` is a by-name lookup, so the ids
        // below are the persisted ones and history keeps accumulating.
        let facility_sid = store.register(smeta("facility".into()));
        let cabinet_sids: Vec<SeriesId> = if config.per_cabinet_telemetry {
            (0..facility.topology().config().cabinets)
                .map(|c| store.register(smeta(format!("cabinet.{c}"))))
                .collect()
        } else {
            Vec::new()
        };
        let node_sids: Vec<SeriesId> = if config.per_node_telemetry {
            (0..facility.nodes())
                .map(|n| store.register(smeta(format!("node.{n}"))))
                .collect()
        } else {
            Vec::new()
        };
        // Correlated fault injection: the whole schedule (and the meter
        // fault plan) is a pure function of (config, topology, seed), so
        // two same-seed campaigns inject bit-identical fault timelines.
        let faults = config.faults.as_ref().map(|fc| {
            let domains = FaultDomains::from_topology(facility.topology());
            let schedule =
                generate_schedule(&fc.domains, &domains, config.seed ^ 0xFA17_5EED, fc.horizon);
            let health = HealthMonitor::new(
                domains.node_count(),
                domains.cabinet_count(),
                domains.cdu_count(),
                domains.switch_count(),
            );
            FaultRuntime {
                node_down: vec![0; domains.node_count() as usize],
                cabinet_down: vec![0; domains.cabinet_count() as usize],
                cdu_down: vec![0; domains.cdu_count() as usize],
                switch_down: vec![0; domains.switch_count() as usize],
                switches_down_now: 0,
                cdus_down_now: 0,
                unavailable_down_now: 0,
                schedule,
                domains,
                health,
            }
        });
        let meters = config.faults.as_ref().and_then(|fc| {
            let mc = fc.meters.as_ref()?;
            if !config.per_cabinet_telemetry {
                return None; // nothing to distort without cabinet meters
            }
            let n = facility.topology().config().cabinets as usize;
            Some(MeterRuntime {
                plan: MeterFaultPlan::generate(mc, n, fc.horizon, config.seed ^ 0x05E7_50FA),
                states: vec![MeterState::default(); n],
                sanitizer: Sanitizer::new(fc.sanitize),
                dropped: 0,
            })
        });
        // Static topology maps for the incremental accounting: cabinet of
        // every node and switch, per-cabinet node and switch totals.
        let topo = facility.topology();
        let n_nodes = facility.nodes() as usize;
        let n_cabs = topo.config().cabinets as usize;
        let mut node_cabinet = vec![0u16; n_nodes];
        let mut switch_cabinet = Vec::new();
        let mut cabinet_node_count = vec![0u32; n_cabs];
        let mut cabinet_live_switches = vec![0u32; n_cabs];
        for cab in topo.cabinets() {
            let c = cab.index();
            for &n in topo.nodes_in_cabinet(cab) {
                node_cabinet[n.index()] = c as u16;
                cabinet_node_count[c] += 1;
            }
            for &s in topo.switches_in_cabinet(cab) {
                if switch_cabinet.len() <= s.index() {
                    switch_cabinet.resize(s.index() + 1, u16::MAX);
                }
                switch_cabinet[s.index()] = c as u16;
                cabinet_live_switches[c] += 1;
            }
        }
        let world = FacilityWorld {
            schedulable_nodes,
            scheduler,
            generator,
            op,
            policy_active: true,
            busy_power_w: 0.0,
            running: HashMap::new(),
            eval_cache: HashMap::new(),
            app_ids: HashMap::new(),
            node_state: vec![NodeState::Idle; n_nodes],
            node_watts: vec![0.0; n_nodes],
            node_cabinet,
            switch_cabinet,
            cabinet_agg: vec![CabinetAgg::default(); n_cabs],
            cabinet_node_count,
            cabinet_live_switches,
            node_sample_buf: Vec::new(),
            runtime_violations: Vec::new(),
            runtime_violation_count: 0,
            start,
            idle_kw_cache: HashMap::new(),
            noise_rng: root.substream(1),
            policy_rng: root.substream(2),
            reverted_jobs: 0,
            started_jobs: 0,
            trace: JobTrace::new(),
            store,
            facility_sid,
            cabinet_sids,
            node_sids,
            node_failures: 0,
            jobs_killed: 0,
            telemetry: TelemetryStats { samples_rejected: 0, wal_replay },
            faults,
            meters,
            config,
            facility,
        };
        // Arm the whole fault timeline up front. On a resumed campaign only
        // the future half replays: refcount transitions tolerate the
        // unmatched `Up` events of faults that opened before the checkpoint.
        let fault_events: Vec<(u32, SimTime)> = world
            .faults
            .as_ref()
            .map(|fr| {
                fr.schedule
                    .events()
                    .iter()
                    .enumerate()
                    .map(|(i, e)| (i as u32, start + SimDuration::from_secs(e.at_s)))
                    .filter(|&(_, t)| t >= now)
                    .collect()
            })
            .unwrap_or_default();
        let mut sim = Simulation::new(now, world);
        sim.schedule(now, Event::Refill);
        sim.schedule(next_sample, Event::Sample);
        for (i, t) in fault_events {
            sim.schedule(t, Event::Fault(i));
        }
        if sim.world().config.schedule.is_some() {
            sim.schedule(now, Event::PolicyTick);
        }
        Campaign { sim }
    }

    /// Persist the campaign's telemetry into `dir`: a checksummed store
    /// snapshot (`store.tsnap`, written atomically) plus a small
    /// `campaign.json` sidecar recording the sampling grid and clock.
    ///
    /// Scheduler and job state are *not* checkpointed — a resumed campaign
    /// re-seeds its workload from [`CampaignConfig::seed`] and refills the
    /// backlog immediately, so power telemetry continues realistically but
    /// the post-resume job stream is not a replay of the lost one.
    pub fn checkpoint(&self, dir: &Path) -> Result<SnapshotStats, PersistError> {
        std::fs::create_dir_all(dir)?;
        let w = self.sim.world();
        let stats = w.store.snapshot_to_path(&dir.join("store.tsnap"))?;
        let meta = CheckpointMeta {
            format_version: 1,
            start_unix: w.start.as_unix(),
            interval_s: w.config.sample_interval.as_secs(),
            checkpoint_unix: self.sim.now().as_unix(),
            samples: w.store.with_series(w.facility_sid, |s| s.len()).unwrap_or(0),
            per_cabinet_telemetry: w.config.per_cabinet_telemetry,
            per_node_telemetry: w.config.per_node_telemetry,
        };
        let json = serde_json::to_string_pretty(&meta)
            .map_err(|e| PersistError::Malformed(format!("campaign.json encode: {e:?}")))?;
        std::fs::write(dir.join("campaign.json"), json)?;
        Ok(stats)
    }

    /// Rebuild a campaign from a [`Self::checkpoint`] directory and carry
    /// on from the checkpoint instant.
    ///
    /// Recovery reads `store.tsnap` and, if present, replays `wal.twal`
    /// (written by a [`hpc_tsdb::WalWriter`] that logs each batch before
    /// the writer applies it) on top; the replay outcome lands in
    /// [`Self::telemetry_stats`]. `config` must describe
    /// the same sampling grid and telemetry series set the checkpoint was
    /// taken with, and the recovered facility series must sit on that grid
    /// with no gaps, or this returns [`PersistError::Malformed`]. Cabinet
    /// and node series are taken as stored, so checkpoints of campaigns
    /// with meter faults (skewed clocks, quarantine gaps) resume too.
    pub fn resume(
        facility: Archer2Facility,
        config: CampaignConfig,
        op: OperatingPoint,
        dir: &Path,
    ) -> Result<Self, PersistError> {
        let text = std::fs::read_to_string(dir.join("campaign.json"))?;
        let meta: CheckpointMeta = serde_json::from_str(&text)
            .map_err(|e| PersistError::Malformed(format!("campaign.json: {e:?}")))?;
        if meta.format_version != 1 {
            return Err(PersistError::Malformed(format!(
                "campaign.json format_version {} (supported: 1)",
                meta.format_version
            )));
        }
        if meta.interval_s != config.sample_interval.as_secs() {
            return Err(PersistError::Malformed(format!(
                "sample interval mismatch: checkpoint {} s, config {} s",
                meta.interval_s,
                config.sample_interval.as_secs()
            )));
        }
        if meta.per_cabinet_telemetry != config.per_cabinet_telemetry
            || meta.per_node_telemetry != config.per_node_telemetry
        {
            return Err(PersistError::Malformed(
                "telemetry series set mismatch between checkpoint and config".into(),
            ));
        }

        let (store, report) = hpc_tsdb::recover(
            Some(&dir.join("store.tsnap")),
            Some(&dir.join("wal.twal")),
            StoreConfig::default(),
        )?;
        let start = SimTime::from_unix(meta.start_unix);
        let samples = store
            .lookup("facility")
            .and_then(|id| store.with_series(id, |s| s.scan(i64::MIN, i64::MAX)))
            .ok_or_else(|| PersistError::Malformed("checkpoint has no facility series".into()))?;
        if (samples.len() as u64) < meta.samples {
            return Err(PersistError::Malformed(format!(
                "recovered facility series has {} samples, checkpoint recorded {}",
                samples.len(),
                meta.samples
            )));
        }
        // A checkpoint is outside input: the recovered facility history
        // must sit on the campaign's sampling grid, or sampling could not
        // continue on it. Cabinet and node series carry what the meters
        // reported (gaps, skewed clocks) and are taken as they are.
        TimeSeries::from_tsdb_samples(start, config.sample_interval, "kW", &samples)
            .map_err(PersistError::Malformed)?;
        // Resume the clock at the checkpoint and keep sampling on the
        // original grid: the next tick follows the recovered history (WAL
        // replay may have extended it past `meta.samples`), clamped forward
        // so it is never scheduled in the past.
        let next_unix =
            (meta.start_unix + samples.len() as u64 * meta.interval_s).max(meta.checkpoint_unix);
        let pieces = ResumePieces {
            store,
            now: SimTime::from_unix(meta.checkpoint_unix),
            next_sample: SimTime::from_unix(next_unix),
            wal_replay: report.wal,
        };
        Ok(Self::assemble(facility, config, start, op, Some(pieces)))
    }

    /// Run the campaign up to `until`.
    pub fn run_until(&mut self, until: SimTime) {
        self.sim.run_until(until);
    }

    /// Change the facility operating point (takes effect for jobs that
    /// start from now on, like a rolling reboot of defaults).
    pub fn set_operating_point(&mut self, op: OperatingPoint) {
        self.sim.world_mut().op = op;
    }

    /// Current operating point.
    pub fn operating_point(&self) -> OperatingPoint {
        self.sim.world().op
    }

    /// The compute-cabinet power telemetry recorded so far: the store's
    /// `"facility"` series, decoded into an owned [`TimeSeries`] on every
    /// call (the store holds the only copy). Bind the result once rather
    /// than calling this inside a loop.
    pub fn power_series(&self) -> TimeSeries {
        let w = self.sim.world();
        let samples = w
            .store
            .with_series(w.facility_sid, |s| s.scan(i64::MIN, i64::MAX))
            .unwrap_or_default();
        TimeSeries::from_tsdb_samples(w.start, w.config.sample_interval, "kW", &samples)
            .expect("the facility series is sampled on the campaign grid (checked on resume)")
    }

    /// Mean utilisation since the start, measured against the whole fleet
    /// (unavailable nodes count as unutilised, as in the service reports).
    pub fn utilisation(&self) -> f64 {
        let w = self.sim.world();
        w.scheduler.utilisation_meter().utilisation() * w.schedulable_nodes as f64
            / w.facility.nodes() as f64
    }

    /// Jobs started / reverted-to-turbo counts.
    pub fn job_counts(&self) -> (u64, u64) {
        let w = self.sim.world();
        (w.started_jobs, w.reverted_jobs)
    }

    /// The facility being simulated.
    pub fn facility(&self) -> &Archer2Facility {
        &self.sim.world().facility
    }

    /// Events processed so far (diagnostics).
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// (nodes taken down by injected faults, jobs killed by them) so far.
    pub fn failure_counts(&self) -> (u64, u64) {
        let w = self.sim.world();
        (w.node_failures, w.jobs_killed)
    }

    /// Nodes currently offline for repair.
    pub fn offline_nodes(&self) -> u32 {
        self.sim.world().scheduler.offline_nodes()
    }

    /// The job accounting trace (empty unless `record_trace` was set).
    pub fn trace(&self) -> &JobTrace {
        &self.sim.world().trace
    }

    /// The compressed telemetry store. Always holds the `"facility"`
    /// series; `"cabinet.N"` and `"node.N"` series when the matching
    /// config flags are set.
    pub fn telemetry_store(&self) -> &TsdbStore {
        &self.sim.world().store
    }

    /// A shared handle to the campaign's telemetry store, for a query
    /// service running alongside the simulation. [`TsdbStore`] handles
    /// clone by sharing the underlying shards, so queries through the
    /// returned handle observe every sample the campaign keeps ingesting —
    /// this is the hook `hpc-serve` binds its server to.
    pub fn serve_store(&self) -> TsdbStore {
        self.sim.world().store.clone()
    }

    /// Serve-mode run loop: advance the simulation to `until` in `step`
    /// increments, calling `observe` after each increment. Between calls
    /// the campaign has ingested one more step of telemetry, so an
    /// observer that drives (or measures) a live query service sees the
    /// store genuinely growing under its queries instead of a finished
    /// corpus. `step` must be positive.
    ///
    /// After each ingest increment (and before `observe`) the store's
    /// immutable read view is republished ([`TsdbStore::publish_view`]).
    /// Query sessions evaluate lock-free against it only until the next
    /// telemetry tick bumps the store generation, which the first tick of
    /// the next step does; for the rest of that step every read takes a
    /// short shard read lock to snapshot (never held across a decode).
    /// Under live ingest the view therefore serves a small share of reads
    /// (docs/SERVE.md gives measured figures).
    pub fn run_serve(
        &mut self,
        until: SimTime,
        step: SimDuration,
        mut observe: impl FnMut(&Campaign),
    ) {
        assert!(step.as_secs() > 0, "serve step must be positive");
        let mut now = self.sim.now();
        while now < until {
            now = (now + step).min(until);
            self.sim.run_until(now);
            self.sim.world().store.publish_view();
            observe(self);
        }
    }

    /// [`Self::run_serve`] followed by a graceful drain of the query
    /// service once the campaign ends: the server stops accepting, idle
    /// sessions are told to go away with a typed `Draining` frame, and
    /// in-flight requests get up to `drain_deadline` to finish before
    /// being force-closed. This is the campaign-owned shutdown ordering —
    /// telemetry stops growing first, *then* the serving tier winds down,
    /// so no session is severed while the store is still moving.
    ///
    /// Returns the drain accounting so callers (benches, the verify gate)
    /// can assert nothing had to be force-closed.
    pub fn run_serve_drained(
        &mut self,
        until: SimTime,
        step: SimDuration,
        mut server: hpc_serve::Server,
        drain_deadline: std::time::Duration,
        observe: impl FnMut(&Campaign),
    ) -> hpc_serve::DrainStats {
        self.run_serve(until, step, observe);
        server.drain(drain_deadline)
    }

    /// Id of the facility power series in [`Self::telemetry_store`].
    pub fn facility_series_id(&self) -> SeriesId {
        self.sim.world().facility_sid
    }

    /// Ids of the per-cabinet series (empty unless `per_cabinet_telemetry`).
    pub fn cabinet_series_ids(&self) -> &[SeriesId] {
        &self.sim.world().cabinet_sids
    }

    /// Ids of the per-node series (empty unless `per_node_telemetry`).
    pub fn node_series_ids(&self) -> &[SeriesId] {
        &self.sim.world().node_sids
    }

    /// Mean facility power (kW) over `[from, to)`, answered by the store's
    /// cached, instrumented query engine (rollup-planned when the window is
    /// aligned). Returns the value and the plan that produced it.
    pub fn facility_window_kw(&self, from: SimTime, to: SimTime) -> Option<(f64, hpc_tsdb::Plan)> {
        let w = self.sim.world();
        hpc_tsdb::store_aggregate(
            &w.store,
            w.facility_sid,
            from.as_unix() as i64,
            to.as_unix() as i64,
            hpc_tsdb::AggOp::Mean,
        )
    }

    /// Group readback over every cabinet series in `[from, to)`: the
    /// cabinets are aggregated one after another on the calling thread and
    /// reduced to a [`hpc_tsdb::GroupValue`] whose `sum_of_means` is the
    /// facility draw attributable to compute cabinets. Empty unless
    /// `per_cabinet_telemetry` was set.
    pub fn cabinets_window_kw(&self, from: SimTime, to: SimTime) -> hpc_tsdb::GroupValue {
        let w = self.sim.world();
        hpc_tsdb::fanout_group(
            &w.store,
            &w.cabinet_sids,
            from.as_unix() as i64,
            to.as_unix() as i64,
        )
    }

    /// Query-engine counters for the campaign's telemetry store (plans
    /// chosen, chunk cache hits, samples scanned, wall time).
    pub fn query_stats(&self) -> hpc_tsdb::QueryStats {
        self.sim.world().store.query_stats()
    }

    /// Telemetry-store health counters: samples the store refused on the
    /// sampling path, and the WAL replay outcome if this campaign was
    /// resumed from a checkpoint.
    pub fn telemetry_stats(&self) -> TelemetryStats {
        self.sim.world().telemetry
    }

    /// Scheduler job accounting: submissions, completions, kills,
    /// abandonments and backfill counters.
    pub fn scheduler_stats(&self) -> hpc_sched::SchedulerStats {
        self.sim.world().scheduler.stats()
    }

    /// Per-domain availability accounting (failures, repairs, MTBF/MTTR),
    /// when correlated fault injection is enabled.
    pub fn health(&self) -> Option<&HealthMonitor> {
        self.sim.world().faults.as_ref().map(|fr| &fr.health)
    }

    /// The pre-generated correlated fault schedule, when enabled.
    pub fn fault_schedule(&self) -> Option<&FaultSchedule> {
        self.sim.world().faults.as_ref().map(|fr| &fr.schedule)
    }

    /// The per-meter fault plan, when meter faults are enabled.
    pub fn meter_plan(&self) -> Option<&MeterFaultPlan> {
        self.sim.world().meters.as_ref().map(|mr| &mr.plan)
    }

    /// Sensor-path counters (meter dropouts plus the sanitiser's
    /// stored/quarantined breakdown), when meter faults are enabled.
    pub fn sensor_stats(&self) -> Option<SensorStats> {
        self.sim.world().meters.as_ref().map(|mr| SensorStats {
            dropped: mr.dropped,
            sanitize: mr.sanitizer.stats(),
        })
    }

    /// Gap-aware mean of one cabinet's *stored* power over `[from, to)`:
    /// the aggregate over present samples plus the coverage fraction
    /// telemetry actually achieved (dropouts and quarantined samples leave
    /// gaps). `None` unless per-cabinet telemetry is on and the index is
    /// valid.
    pub fn cabinet_window_gap(
        &self,
        cabinet: usize,
        from: SimTime,
        to: SimTime,
    ) -> Option<hpc_tsdb::GapAwareValue> {
        let w = self.sim.world();
        let &sid = w.cabinet_sids.get(cabinet)?;
        hpc_tsdb::store_gap_aggregate(&w.store, sid, from.as_unix() as i64, to.as_unix() as i64)
    }

    /// Check the campaign's cross-layer conservation invariants and return
    /// a description of every violation (empty = all hold):
    ///
    /// 1. **No lost jobs** — every submission is completed, abandoned,
    ///    running, or pending.
    /// 2. **Node conservation** — busy + free + offline covers exactly the
    ///    schedulable fleet.
    /// 3. **Energy accounting** — the incremental busy-power counter equals
    ///    the sum over running jobs.
    /// 4. **Power map consistency** — exactly the running jobs carry power.
    pub fn verify_invariants(&self) -> Vec<String> {
        let w = self.sim.world();
        let mut violations = Vec::new();
        let stats = w.scheduler.stats();
        let accounted = stats.completed
            + stats.abandoned
            + w.scheduler.running_count() as u64
            + w.scheduler.pending_count() as u64;
        if stats.submitted != accounted {
            violations.push(format!(
                "job conservation: {} submitted but {} accounted (completed {} + abandoned {} + running {} + pending {})",
                stats.submitted,
                accounted,
                stats.completed,
                stats.abandoned,
                w.scheduler.running_count(),
                w.scheduler.pending_count()
            ));
        }
        let (busy, free, off) = (
            w.scheduler.busy_nodes(),
            w.scheduler.free_nodes(),
            w.scheduler.offline_nodes(),
        );
        if busy + free + off != w.schedulable_nodes {
            violations.push(format!(
                "node conservation: busy {busy} + free {free} + offline {off} != schedulable {}",
                w.schedulable_nodes
            ));
        }
        let sum_w: f64 = w.running.values().map(|r| r.power_w).sum();
        if (sum_w - w.busy_power_w).abs() > 1e-6 * w.busy_power_w.abs().max(1.0) {
            violations.push(format!(
                "energy accounting: running jobs draw {sum_w} W but busy_power_w is {} W",
                w.busy_power_w
            ));
        }
        if w.running.len() != w.scheduler.running_count() {
            violations.push(format!(
                "power map: {} jobs carry power but {} are running",
                w.running.len(),
                w.scheduler.running_count()
            ));
        }
        // 5. Incremental accounting — the SoA node state and per-cabinet /
        //    fleet power aggregates equal a from-scratch recompute out of
        //    scheduler + fault state.
        violations.extend(w.audit_power_accounting());
        // 6. Runtime breaches — accounting slots found missing mid-flight
        //    (the campaign degraded instead of aborting; see
        //    [`Self::runtime_violations`]).
        violations.extend(w.runtime_violations.iter().cloned());
        if w.runtime_violation_count > w.runtime_violations.len() as u64 {
            violations.push(format!(
                "…and {} further runtime breaches past the reporting cap",
                w.runtime_violation_count - w.runtime_violations.len() as u64
            ));
        }
        violations
    }

    /// Internal-invariant breaches the campaign detected and survived at
    /// runtime (missing accounting slots that would previously have
    /// panicked). Also folded into [`Self::verify_invariants`].
    pub fn runtime_violations(&self) -> &[String] {
        &self.sim.world().runtime_violations
    }
}

/// Every fault domain class off: a schedule with no events. Test configs
/// turn single classes back on with struct-update syntax.
#[cfg(test)]
fn quiet_domains() -> DomainFaultConfig {
    use hpc_faults::DomainRate;
    DomainFaultConfig {
        node: DomainRate::OFF,
        cabinet: DomainRate::OFF,
        cdu: DomainRate::OFF,
        switch: DomainRate::OFF,
        ..DomainFaultConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_topo::{DragonflyConfig, FacilityConfig};

    /// A 1/10-scale facility for fast tests: power means scale linearly.
    fn small_facility(seed: u64) -> Archer2Facility {
        // Component counts scaled by ~1/10 so the power composition (node
        // share ≈ 86 %) matches the full facility and means scale linearly.
        let cfg = FacilityConfig {
            nodes: 586,
            cores_per_node: 128,
            cabinets: 3,
            cdus: 1,
            filesystems: 1,
            fabric: DragonflyConfig {
                groups: 10,
                switches_per_group: 8,
                ports_per_switch: 64,
                endpoints_per_switch: 16,
                nics_per_node: 2,
            },
        };
        Archer2Facility::with_config(cfg, seed)
    }

    fn small_config() -> CampaignConfig {
        CampaignConfig {
            backlog_target: 40,
            generator: GeneratorConfig {
                max_nodes: 128,
                ..GeneratorConfig::default()
            },
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn utilisation_exceeds_90_percent() {
        // §3.2: "Compute node utilisation on ARCHER2 over all periods
        // considered in this paper is consistently over 90%".
        let f = small_facility(1);
        let start = SimTime::from_ymd(2021, 12, 1);
        let mut c = Campaign::new(f, small_config(), start, OperatingPoint::ORIGINAL);
        c.run_until(start + SimDuration::from_days(14));
        let util = c.utilisation();
        assert!(util > 0.90, "utilisation {util}");
    }

    #[test]
    fn power_series_sampled_on_cadence() {
        let f = small_facility(2);
        let start = SimTime::from_ymd(2021, 12, 1);
        let mut c = Campaign::new(f, small_config(), start, OperatingPoint::ORIGINAL);
        c.run_until(start + SimDuration::from_days(2));
        let s = c.power_series();
        // 2 days at 15-minute cadence = 192 samples (±1 boundary sample).
        assert!((191..=193).contains(&s.len()), "samples {}", s.len());
        assert_eq!(s.interval(), SimDuration::from_mins(15));
    }

    #[test]
    fn bios_change_drops_power() {
        let f = small_facility(3);
        let start = SimTime::from_ymd(2022, 4, 1);
        let mut c = Campaign::new(f, small_config(), start, OperatingPoint::ORIGINAL);
        c.run_until(start + SimDuration::from_days(10));
        c.set_operating_point(OperatingPoint::AFTER_BIOS);
        c.run_until(start + SimDuration::from_days(20));
        let s = c.power_series();
        let before = s.window_mean(start, start + SimDuration::from_days(10));
        // Skip a 2-day transition while old jobs drain.
        let after = s.window_mean(start + SimDuration::from_days(12), start + SimDuration::from_days(20));
        let drop = (before - after) / before;
        assert!((0.04..=0.10).contains(&drop), "BIOS drop {drop} (from {before} to {after} kW)");
    }

    #[test]
    fn frequency_change_drops_power_further() {
        let f = small_facility(4);
        let start = SimTime::from_ymd(2022, 11, 1);
        let mut c = Campaign::new(f, small_config(), start, OperatingPoint::AFTER_BIOS);
        c.run_until(start + SimDuration::from_days(10));
        c.set_operating_point(OperatingPoint::AFTER_FREQ);
        c.run_until(start + SimDuration::from_days(20));
        let s = c.power_series();
        let before = s.window_mean(start, start + SimDuration::from_days(10));
        let after = s.window_mean(start + SimDuration::from_days(12), start + SimDuration::from_days(20));
        let drop = (before - after) / before;
        assert!(
            (0.10..=0.22).contains(&drop),
            "frequency drop {drop} (from {before} to {after} kW)"
        );
        let (started, reverted) = c.job_counts();
        assert!(reverted > 0, "some jobs must revert to turbo");
        assert!(reverted < started / 2, "most jobs must accept the default");
    }

    #[test]
    fn blanket_policy_saves_more_than_auto_revert() {
        let run = |policy: FrequencyPolicy| {
            let f = small_facility(5);
            let cfg = CampaignConfig {
                policy,
                ..small_config()
            };
            let start = SimTime::from_ymd(2022, 11, 1);
            let mut c = Campaign::new(f, cfg, start, OperatingPoint::AFTER_FREQ);
            c.run_until(start + SimDuration::from_days(7));
            c.power_series().mean()
        };
        let blanket = run(FrequencyPolicy::Blanket);
        let auto = run(FrequencyPolicy::default());
        assert!(blanket < auto, "blanket 2.0 GHz should draw less: {blanket} vs {auto}");
    }

    #[test]
    fn campaign_is_deterministic() {
        let mk = || {
            let f = small_facility(6);
            let start = SimTime::from_ymd(2022, 1, 1);
            let mut c = Campaign::new(f, small_config(), start, OperatingPoint::ORIGINAL);
            c.run_until(start + SimDuration::from_days(3));
            c.power_series()
        };
        assert_eq!(mk(), mk());
    }
}

#[cfg(test)]
mod fault_campaign_tests {
    use super::*;
    use crate::experiment::scaled_facility;
    use hpc_faults::{DomainClass, DomainRate};

    /// Aggressive correlated-fault rates so a one-week run sees every
    /// domain class fail (the test fleet is 1/10 scale).
    fn storm_domains() -> DomainFaultConfig {
        DomainFaultConfig {
            node: DomainRate {
                mtbf_hours: 400.0,
                repair_mean_hours: 8.0,
                repair_sigma: 0.5,
            },
            cabinet: DomainRate {
                mtbf_hours: 300.0,
                repair_mean_hours: 4.0,
                repair_sigma: 0.4,
            },
            cdu: DomainRate {
                mtbf_hours: 150.0,
                repair_mean_hours: 6.0,
                repair_sigma: 0.4,
            },
            switch: DomainRate {
                mtbf_hours: 2_000.0,
                repair_mean_hours: 4.0,
                repair_sigma: 0.4,
            },
            ..DomainFaultConfig::default()
        }
    }

    /// A campaign config with `domains` over a 14-day horizon, ideal meters.
    fn with_faults(domains: DomainFaultConfig) -> CampaignConfig {
        CampaignConfig {
            faults: Some(FaultInjectionConfig {
                domains,
                horizon: SimDuration::from_days(14),
                ..FaultInjectionConfig::default()
            }),
            ..CampaignConfig::default()
        }
    }

    /// Independent node failures only, each repaired in exactly 12 h;
    /// aggressive: ~3 failures/hour at 1/10 scale.
    fn node_failures() -> DomainFaultConfig {
        DomainFaultConfig {
            node: DomainRate { mtbf_hours: 200.0, repair_mean_hours: 12.0, repair_sigma: 0.0 },
            ..quiet_domains()
        }
    }

    #[test]
    fn node_failures_requeue_jobs_and_the_fleet_stays_busy() {
        let f = scaled_facility(11, 10);
        let start = SimTime::from_ymd(2022, 2, 1);
        let mut c = Campaign::new(f, with_faults(node_failures()), start, OperatingPoint::ORIGINAL);
        c.run_until(start + SimDuration::from_days(7));
        let (failures, killed) = c.failure_counts();
        assert!(failures > 100, "expected many failures, got {failures}");
        // At >90 % utilisation most victims are busy.
        assert!(killed as f64 > failures as f64 * 0.5, "{killed} killed of {failures}");
        assert!(c.offline_nodes() > 0, "some nodes should be in repair");

        c.run_until(start + SimDuration::from_days(10));
        // The backlog keeps the healthy fleet saturated despite the churn.
        assert!(c.utilisation() > 0.85, "utilisation {}", c.utilisation());
        // Power stays finite and positive throughout.
        for &kw in c.power_series().values() {
            assert!(kw > 0.0 && kw.is_finite());
        }
        let violations = c.verify_invariants();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn correlated_faults_fire_and_invariants_hold() {
        let f = scaled_facility(51, 10);
        let start = SimTime::from_ymd(2022, 3, 1);
        let mut c = Campaign::new(f, with_faults(storm_domains()), start, OperatingPoint::ORIGINAL);
        c.run_until(start + SimDuration::from_days(7));

        let health = c.health().expect("faults enabled");
        assert!(health.class(DomainClass::Node).failures() > 0, "no node faults fired");
        assert!(health.class(DomainClass::Cdu).failures() > 0, "no CDU faults fired");
        // CDU trips drain every cabinet on the loop, so cabinets fail too.
        assert!(health.class(DomainClass::Cabinet).failures() > 0, "no cabinet trips");
        let violations = c.verify_invariants();
        assert!(violations.is_empty(), "invariants violated: {violations:?}");
        // Power stays physical throughout the storm.
        for &kw in c.power_series().values() {
            assert!(kw > 0.0 && kw.is_finite());
        }
    }

    #[test]
    fn faults_visibly_dent_facility_power() {
        // Dark nodes draw nothing, so a faulted run's mean power sits below
        // the healthy run of the same seed — visibly, but modestly. Cases:
        // cabinet trips at a rate where they are common, and independent
        // node failures.
        let start = SimTime::from_ymd(2022, 3, 1);
        let run = |cfg: CampaignConfig, class: DomainClass| {
            let f = scaled_facility(52, 10);
            let mut c = Campaign::new(f, cfg, start, OperatingPoint::ORIGINAL);
            c.run_until(start + SimDuration::from_days(7));
            (c.power_series().mean(), c.health().map_or(0, |h| h.class(class).failures()))
        };
        let (healthy_kw, _) = run(CampaignConfig::default(), DomainClass::Node);
        let cabinet_trips = DomainFaultConfig {
            cabinet: DomainRate { mtbf_hours: 100.0, repair_mean_hours: 12.0, repair_sigma: 0.3 },
            ..quiet_domains()
        };
        let cases = [(DomainClass::Cabinet, cabinet_trips), (DomainClass::Node, node_failures())];
        for (class, domains) in cases {
            let (faulted_kw, failures) = run(with_faults(domains), class);
            assert!(failures > 0, "no {class:?} faults in 7 days");
            assert!(
                faulted_kw < healthy_kw * 0.995,
                "{class:?} faults should dent power: {faulted_kw} vs {healthy_kw}"
            );
            assert!(faulted_kw > healthy_kw * 0.9, "{class:?}: the dip should be modest");
        }
    }

    #[test]
    fn fault_campaigns_are_deterministic() {
        let run = || {
            let f = scaled_facility(53, 10);
            let start = SimTime::from_ymd(2022, 3, 1);
            let cfg = with_faults(storm_domains());
            let mut c = Campaign::new(f, cfg, start, OperatingPoint::ORIGINAL);
            c.run_until(start + SimDuration::from_days(5));
            (c.fault_schedule().unwrap().digest(), c.power_series(), c.failure_counts())
        };
        let (d1, p1, f1) = run();
        let (d2, p2, f2) = run();
        assert_eq!(d1, d2, "fault schedule digest must be seed-stable");
        assert_eq!(f1, f2);
        for (a, b) in p1.values().iter().zip(p2.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn faults_off_is_bit_identical_to_the_legacy_path() {
        // Adding the fault machinery must not perturb existing campaigns:
        // with `faults: None` no extra RNG draws or events occur, and no
        // node ever fails.
        let run = |faults: Option<FaultInjectionConfig>| {
            let f = scaled_facility(54, 10);
            let start = SimTime::from_ymd(2022, 3, 1);
            let cfg = CampaignConfig { faults, ..CampaignConfig::default() };
            let mut c = Campaign::new(f, cfg, start, OperatingPoint::ORIGINAL);
            c.run_until(start + SimDuration::from_days(3));
            assert_eq!(c.failure_counts(), (0, 0));
            assert_eq!(c.offline_nodes(), 0);
            c.power_series()
        };
        let base = run(None);
        // A schedule with every rate off generates zero events -> same run.
        let quiet = run(Some(FaultInjectionConfig {
            domains: quiet_domains(),
            ..FaultInjectionConfig::default()
        }));
        assert_eq!(base.len(), quiet.len());
        for (a, b) in base.values().iter().zip(quiet.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn meter_faults_quarantine_and_coverage_drops() {
        let f = scaled_facility(55, 10);
        let start = SimTime::from_ymd(2022, 3, 1);
        let cfg = CampaignConfig {
            per_cabinet_telemetry: true,
            faults: Some(FaultInjectionConfig {
                domains: quiet_domains(),
                horizon: SimDuration::from_days(14),
                // Aggressive meter faults: every class well-represented.
                meters: Some(MeterFaultConfig {
                    dropouts_per_month: 20.0,
                    stuck_per_month: 10.0,
                    spikes_per_month: 30.0,
                    ..MeterFaultConfig::default()
                }),
                sanitize: SanitizeConfig {
                    min_value: 0.0,
                    max_value: 500.0,
                    max_stuck_run: 3,
                },
            }),
            ..CampaignConfig::default()
        };
        let mut c = Campaign::new(f, cfg, start, OperatingPoint::ORIGINAL);
        c.run_until(start + SimDuration::from_days(7));

        let stats = c.sensor_stats().expect("meter faults enabled");
        assert!(stats.dropped > 0, "no dropouts in 7 days: {stats:?}");
        assert!(stats.sanitize.quarantined() > 0, "nothing quarantined: {stats:?}");
        assert!(stats.sanitize.stored > 0, "sanitiser stored nothing: {stats:?}");

        // Gap-aware readback: summed over cabinets, coverage is below 1
        // (samples went missing) and the mean stays physical.
        let (from, to) = (start, start + SimDuration::from_days(7));
        let mut any_gap = false;
        for i in 0..c.cabinet_series_ids().len() {
            let g = c.cabinet_window_gap(i, from, to).expect("cabinet series exists");
            assert!(g.coverage > 0.5 && g.coverage <= 1.0, "coverage {}", g.coverage);
            assert!(g.mean() > 0.0);
            if g.coverage < 1.0 || g.quarantined > 0 {
                any_gap = true;
            }
        }
        assert!(any_gap, "aggressive meter faults left no gaps at all");

        // Quarantined samples never entered the stored aggregates: every
        // stored sample sits inside the sanitiser's plausible range.
        let store = c.telemetry_store();
        for &sid in c.cabinet_series_ids() {
            let samples = store.with_series(sid, |s| s.scan(i64::MIN, i64::MAX)).unwrap();
            for (_, v) in samples {
                assert!((0.0..=500.0).contains(&v), "implausible stored value {v}");
            }
        }
        assert_eq!(c.telemetry_stats().samples_rejected, 0);
        let violations = c.verify_invariants();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn switch_faults_drain_attached_nodes() {
        let f = scaled_facility(56, 10);
        let start = SimTime::from_ymd(2022, 3, 1);
        let cfg = with_faults(DomainFaultConfig {
            switch: DomainRate { mtbf_hours: 500.0, repair_mean_hours: 6.0, repair_sigma: 0.4 },
            ..quiet_domains()
        });
        let mut c = Campaign::new(f, cfg, start, OperatingPoint::ORIGINAL);
        c.run_until(start + SimDuration::from_days(7));
        let health = c.health().unwrap();
        assert!(health.class(DomainClass::Switch).failures() > 0, "no switch faults");
        // Endpoint nodes were drained: node kills happened without any
        // node-class faults in the schedule.
        let (node_failures, _) = c.failure_counts();
        assert!(node_failures > 0, "switch faults must drain endpoints");
        let violations = c.verify_invariants();
        assert!(violations.is_empty(), "{violations:?}");
        // Everything comes back: after a quiet tail the fleet recovers.
        assert!(c.utilisation() > 0.8, "utilisation {}", c.utilisation());
    }

    #[test]
    fn health_monitor_availability_is_sane() {
        let f = scaled_facility(57, 10);
        let start = SimTime::from_ymd(2022, 3, 1);
        let mut c = Campaign::new(f, with_faults(storm_domains()), start, OperatingPoint::ORIGINAL);
        let days = 7u64;
        c.run_until(start + SimDuration::from_days(days));
        let health = c.health().unwrap();
        let at_s = days * 86_400;
        for class in [DomainClass::Node, DomainClass::Cabinet, DomainClass::Cdu, DomainClass::Switch] {
            let tr = health.class(class);
            let a = tr.availability(at_s);
            assert!((0.0..=1.0).contains(&a), "{class:?} availability {a}");
            if tr.failures() > 0 {
                assert!(a < 1.0, "{class:?} failed yet availability is 1.0");
                assert!(tr.mtbf_hours(at_s) > 0.0);
            }
        }
    }
}

#[cfg(test)]
mod telemetry_tests {
    use super::*;
    use crate::experiment::scaled_facility;
    use hpc_tsdb::{AggOp, Aggregate};

    fn instrumented_config() -> CampaignConfig {
        CampaignConfig {
            record_trace: true,
            per_cabinet_telemetry: true,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn trace_records_completed_jobs() {
        let f = scaled_facility(21, 10);
        let start = SimTime::from_ymd(2022, 6, 1);
        let mut c = Campaign::new(f, instrumented_config(), start, OperatingPoint::AFTER_BIOS);
        c.run_until(start + SimDuration::from_days(4));
        let trace = c.trace();
        assert!(trace.len() > 500, "expected many completions, got {}", trace.len());
        // Energy per node-hour should sit near the busy node draw (~0.47 kW).
        let kwh = trace.mean_kwh_per_node_hour();
        assert!((0.35..=0.55).contains(&kwh), "kWh/node-hour {kwh}");
        // The app mix shows through: materials science codes lead.
        let by_app = trace.node_hours_by_app();
        assert!(by_app.len() >= 8, "a diverse mix: {} apps", by_app.len());
        // JSON round-trip of a real trace.
        let back = hpc_workload::JobTrace::from_json(&trace.to_json()).unwrap();
        assert_eq!(&back, trace);
    }

    #[test]
    fn cabinet_series_sum_to_facility_series() {
        let f = scaled_facility(22, 10);
        let cabinets = f.topology().config().cabinets as usize;
        let start = SimTime::from_ymd(2022, 6, 1);
        let mut c = Campaign::new(f, instrumented_config(), start, OperatingPoint::AFTER_BIOS);
        c.run_until(start + SimDuration::from_days(2));

        // The group readback is, bit for bit, the input-order fold of the
        // per-cabinet reads (their means summed; their count, sum, min and
        // max merged as `Aggregate::merge` merges them), and its cabinet
        // sum reconciles with the facility window mean within the
        // telemetry noise (sample by sample the reconciliation is
        // `tests/tsdb_reconciliation.rs`).
        let total = c.power_series();
        let (from, to) = (total.start(), total.end());
        let group = c.cabinets_window_kw(from, to);
        assert_eq!((group.series, group.missing), (cabinets, 0));
        let store = c.telemetry_store();
        let read = |sid, op| {
            hpc_tsdb::store_aggregate(store, sid, from.as_unix() as i64, to.as_unix() as i64, op)
                .unwrap()
                .0
        };
        let mut sum_of_means = 0.0;
        let mut merged = Aggregate::new();
        for &sid in c.cabinet_series_ids() {
            sum_of_means += read(sid, AggOp::Mean);
            merged.merge(&Aggregate {
                count: read(sid, AggOp::Count) as u64,
                sum: read(sid, AggOp::Sum),
                min: read(sid, AggOp::Min),
                max: read(sid, AggOp::Max),
            });
        }
        assert_eq!(group.sum_of_means.to_bits(), sum_of_means.to_bits());
        let bits = |a: &Aggregate| (a.count, a.sum.to_bits(), a.min.to_bits(), a.max.to_bits());
        assert_eq!(bits(&group.total), bits(&merged));
        let (facility_mean, _) = c.facility_window_kw(from, to).unwrap();
        assert!((group.sum_of_means - facility_mean).abs() / facility_mean < 0.05);
        // The readbacks above went through the instrumented engine.
        let stats = c.query_stats();
        assert!(stats.queries > cabinets as u64, "stats: {stats:?}");
    }

    #[test]
    fn cabinet_loads_are_balanced() {
        let f = scaled_facility(23, 10);
        let start = SimTime::from_ymd(2022, 6, 1);
        let mut c = Campaign::new(f, instrumented_config(), start, OperatingPoint::AFTER_BIOS);
        c.run_until(start + SimDuration::from_days(2));
        let store = c.telemetry_store();
        let means: Vec<f64> = c
            .cabinet_series_ids()
            .iter()
            .map(|&sid| store.with_series(sid, |s| s.total_aggregate().mean()).unwrap())
            .collect();
        // Nodes are spread in contiguous blocks, so per-cabinet means stay
        // within ~25 % of each other (the tail cabinet is smaller).
        let max = means.iter().cloned().fold(f64::MIN, f64::max);
        let min = means.iter().cloned().fold(f64::MAX, f64::min);
        assert!(min > 0.0);
        assert!(max / min < 1.6, "cabinet imbalance: {min:.1}..{max:.1} kW");
    }

    #[test]
    fn telemetry_off_by_default() {
        let f = scaled_facility(24, 10);
        let start = SimTime::from_ymd(2022, 6, 1);
        let mut c = Campaign::new(f, CampaignConfig::default(), start, OperatingPoint::AFTER_BIOS);
        c.run_until(start + SimDuration::from_days(1));
        assert!(c.trace().is_empty());
        assert!(c.cabinet_series_ids().is_empty());
        // The store still carries the facility series, nothing else.
        assert_eq!(c.telemetry_store().series_count(), 1);
        assert!(c.node_series_ids().is_empty());
    }

    #[test]
    fn power_series_decodes_the_stored_facility_series_exactly() {
        let f = scaled_facility(25, 10);
        let start = SimTime::from_ymd(2022, 6, 1);
        let mut c = Campaign::new(f, CampaignConfig::default(), start, OperatingPoint::AFTER_BIOS);
        c.run_until(start + SimDuration::from_days(2));
        let stored = c
            .telemetry_store()
            .with_series(c.facility_series_id(), |s| s.scan(i64::MIN, i64::MAX))
            .unwrap();
        let series = c.power_series();
        let values = series.values();
        assert_eq!(stored.len(), values.len());
        for (i, &(ts, v)) in stored.iter().enumerate() {
            assert_eq!(ts, series.time_at(i).as_unix() as i64);
            assert_eq!(v.to_bits(), values[i].to_bits());
        }
    }

    #[test]
    fn per_node_telemetry_lands_in_the_store() {
        let f = scaled_facility(26, 10);
        let nodes = f.nodes() as usize;
        let start = SimTime::from_ymd(2022, 6, 1);
        let cfg = CampaignConfig {
            per_node_telemetry: true,
            per_cabinet_telemetry: true,
            ..CampaignConfig::default()
        };
        let mut c = Campaign::new(f, cfg, start, OperatingPoint::AFTER_BIOS);
        c.run_until(start + SimDuration::from_days(1));
        let store = c.telemetry_store();
        assert_eq!(c.node_series_ids().len(), nodes);
        assert_eq!(store.series_count(), 1 + c.cabinet_series_ids().len() + nodes);

        // Every node series is sampled on the telemetry cadence.
        let n_samples = c.power_series().len() as u64;
        for &sid in c.node_series_ids() {
            assert_eq!(store.with_series(sid, |s| s.len()).unwrap(), n_samples);
        }

        // Nodes dominate the facility draw: their summed mean sits below
        // the (noiseless) cabinet total but makes up most of it.
        let node_kw: f64 = c
            .node_series_ids()
            .iter()
            .map(|&sid| store.with_series(sid, |s| s.total_aggregate().mean()).unwrap())
            .sum();
        let cabinet_kw: f64 = c
            .cabinet_series_ids()
            .iter()
            .map(|&sid| store.with_series(sid, |s| s.total_aggregate().mean()).unwrap())
            .sum();
        assert!(node_kw < cabinet_kw, "nodes {node_kw} vs cabinets {cabinet_kw}");
        assert!(node_kw > 0.8 * cabinet_kw, "nodes {node_kw} vs cabinets {cabinet_kw}");
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use crate::experiment::scaled_facility;
    use hpc_tsdb::{WalConfig, WalWriter};
    use std::path::PathBuf;

    /// A unique scratch directory for one test, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("archer2-campaign-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn instrumented_config() -> CampaignConfig {
        CampaignConfig {
            per_cabinet_telemetry: true,
            ..CampaignConfig::default()
        }
    }

    /// Every series in the campaign's store (facility, then cabinets),
    /// sample for sample, with values as raw bits.
    fn store_history(c: &Campaign) -> Vec<Vec<(i64, u64)>> {
        let store = c.telemetry_store();
        std::iter::once(&c.facility_series_id())
            .chain(c.cabinet_series_ids())
            .map(|&sid| {
                let samples = store.with_series(sid, |s| s.scan(i64::MIN, i64::MAX)).unwrap();
                samples.into_iter().map(|(ts, v)| (ts, v.to_bits())).collect()
            })
            .collect()
    }

    #[test]
    fn checkpoint_then_resume_is_bit_identical_on_history() {
        // Meter faults make the cabinet series hold what the meters
        // reported — skewed clocks, quarantine gaps — so resume must take
        // them as stored. `clean` meters still quarantine genuine stuck
        // runs: cabinet samples carry no noise.
        let start = SimTime::from_ymd(2022, 6, 1);
        let meter_cases = [
            ("ideal", None),
            ("default", Some(MeterFaultConfig::default())),
            ("clean", Some(MeterFaultConfig::clean())),
        ];
        for (tag, meters) in meter_cases {
            let scratch = Scratch::new(&format!("roundtrip-{tag}"));
            let cfg = CampaignConfig {
                faults: Some(FaultInjectionConfig {
                    domains: quiet_domains(),
                    meters,
                    ..FaultInjectionConfig::default()
                }),
                ..instrumented_config()
            };
            let op = OperatingPoint::AFTER_BIOS;
            let mut c = Campaign::new(scaled_facility(41, 10), cfg.clone(), start, op);
            c.run_until(start + SimDuration::from_days(2));
            let stats = c.checkpoint(&scratch.0).unwrap();
            assert!(stats.series > 1 && stats.samples > 0);
            let history = store_history(&c);

            let mut r = Campaign::resume(scaled_facility(41, 10), cfg, op, &scratch.0)
                .unwrap_or_else(|e| panic!("{tag} meters: resume failed: {e}"));
            assert_eq!(store_history(&r), history, "{tag} meters: recovered store differs");
            assert_eq!(r.telemetry_stats().wal_replay, None);

            // One more day lands behind the recovered prefix, untouched.
            r.run_until(start + SimDuration::from_days(3));
            for (after, before) in store_history(&r).iter().zip(&history) {
                assert!(after.len() > before.len(), "{tag} meters: no samples after resume");
                assert_eq!(&after[..before.len()], &before[..], "{tag} meters: prefix changed");
            }
            assert_eq!(r.telemetry_stats().samples_rejected, 0, "{tag} meters");
            let violations = r.verify_invariants();
            assert!(violations.is_empty(), "{tag} meters: {violations:?}");
        }
    }

    #[test]
    fn resumed_campaign_keeps_sampling_on_the_grid() {
        let scratch = Scratch::new("continue");
        let start = SimTime::from_ymd(2022, 6, 1);
        let cfg = CampaignConfig::default();
        let mut c = Campaign::new(scaled_facility(42, 10), cfg.clone(), start, OperatingPoint::AFTER_BIOS);
        c.run_until(start + SimDuration::from_days(2));
        let len_at_checkpoint = c.power_series().len();
        c.checkpoint(&scratch.0).unwrap();

        let mut r =
            Campaign::resume(scaled_facility(42, 10), cfg, OperatingPoint::AFTER_BIOS, &scratch.0)
                .unwrap();
        r.run_until(start + SimDuration::from_days(3));
        let s = r.power_series();
        // One more day of 15-minute samples landed on the original grid.
        assert!(s.len() >= len_at_checkpoint + 90, "{} -> {}", len_at_checkpoint, s.len());
        assert_eq!(s.start(), start);
        for &kw in s.values().iter() {
            assert!(kw > 0.0 && kw.is_finite());
        }
        // The store mirror also kept growing, rejecting nothing.
        let stored = r
            .telemetry_store()
            .with_series(r.facility_series_id(), |s| s.len())
            .unwrap();
        assert_eq!(stored, s.len() as u64);
        assert_eq!(r.telemetry_stats().samples_rejected, 0);
        assert!(r.utilisation() > 0.5, "backlog refills after resume");
    }

    #[test]
    fn resume_replays_a_wal_and_reports_it() {
        let scratch = Scratch::new("wal");
        let start = SimTime::from_ymd(2022, 6, 1);
        let cfg = CampaignConfig::default();
        let mut c = Campaign::new(scaled_facility(43, 10), cfg.clone(), start, OperatingPoint::AFTER_BIOS);
        c.run_until(start + SimDuration::from_days(1));
        c.checkpoint(&scratch.0).unwrap();

        // An external writer logged one more grid-aligned sample
        // after the snapshot; only its WAL survived the "crash".
        let n = c.power_series().len() as u64;
        let interval = cfg.sample_interval.as_secs();
        let ts = (start.as_unix() + n * interval) as i64;
        let mut wal = WalWriter::create(&scratch.0.join("wal.twal"), WalConfig::default()).unwrap();
        wal.append_batch(c.facility_series_id(), &[(ts, 1234.5)]).unwrap();
        wal.sync().unwrap();
        drop(wal);

        let r = Campaign::resume(scaled_facility(43, 10), cfg, OperatingPoint::AFTER_BIOS, &scratch.0)
            .unwrap();
        let replay = r.telemetry_stats().wal_replay.expect("wal was replayed");
        assert_eq!(replay.applied, 1);
        assert_eq!(replay.rejected, 0);
        assert!(!replay.torn);
        // The replayed sample is part of the recovered history.
        assert_eq!(r.power_series().len() as u64, n + 1);
        assert_eq!(r.power_series().values().last().unwrap().to_bits(), 1234.5f64.to_bits());
    }

    #[test]
    fn resume_refuses_a_mismatched_config() {
        let scratch = Scratch::new("mismatch");
        let start = SimTime::from_ymd(2022, 6, 1);
        let mut c = Campaign::new(
            scaled_facility(44, 10),
            CampaignConfig::default(),
            start,
            OperatingPoint::AFTER_BIOS,
        );
        c.run_until(start + SimDuration::from_days(1));
        c.checkpoint(&scratch.0).unwrap();

        let wrong_interval = CampaignConfig {
            sample_interval: SimDuration::from_mins(5),
            ..CampaignConfig::default()
        };
        let err = Campaign::resume(
            scaled_facility(44, 10),
            wrong_interval,
            OperatingPoint::AFTER_BIOS,
            &scratch.0,
        )
        .err()
        .expect("resume must fail");
        assert!(matches!(err, PersistError::Malformed(_)), "{err}");

        let wrong_series_set = CampaignConfig {
            per_cabinet_telemetry: true,
            ..CampaignConfig::default()
        };
        let err = Campaign::resume(
            scaled_facility(44, 10),
            wrong_series_set,
            OperatingPoint::AFTER_BIOS,
            &scratch.0,
        )
        .err()
        .expect("resume must fail");
        assert!(matches!(err, PersistError::Malformed(_)), "{err}");
    }

    #[test]
    fn resume_detects_a_corrupted_snapshot() {
        let scratch = Scratch::new("corrupt");
        let start = SimTime::from_ymd(2022, 6, 1);
        let mut c = Campaign::new(
            scaled_facility(45, 10),
            CampaignConfig::default(),
            start,
            OperatingPoint::AFTER_BIOS,
        );
        c.run_until(start + SimDuration::from_days(1));
        c.checkpoint(&scratch.0).unwrap();

        let snap = scratch.0.join("store.tsnap");
        let len = std::fs::metadata(&snap).unwrap().len();
        hpc_tsdb::faults::flip_bit(&snap, len / 2, 3).unwrap();
        let err = Campaign::resume(
            scaled_facility(45, 10),
            CampaignConfig::default(),
            OperatingPoint::AFTER_BIOS,
            &scratch.0,
        )
        .err()
        .expect("resume must fail");
        assert!(
            matches!(
                err,
                PersistError::CorruptBlock { .. }
                    | PersistError::Truncated { .. }
                    | PersistError::Malformed(_)
            ),
            "{err}"
        );
    }
}

#[cfg(test)]
mod schedule_tests {
    use super::*;
    use crate::experiment::scaled_facility;
    use hpc_grid::IntensityScenario;

    fn grid_aware_config() -> CampaignConfig {
        CampaignConfig {
            schedule: Some(OperatingSchedule {
                scenario: IntensityScenario::UkGrid2022,
                high_ci_threshold: 230.0,
                normal: OperatingPoint::AFTER_BIOS,
                shed: OperatingPoint::AFTER_FREQ,
                tick: SimDuration::from_hours(1),
            }),
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn grid_aware_campaign_sits_between_the_static_points() {
        let start = SimTime::from_ymd(2022, 12, 1);
        let run = |cfg: CampaignConfig, op: OperatingPoint| {
            let f = scaled_facility(31, 10);
            let mut c = Campaign::new(f, cfg, start, op);
            c.run_until(start + SimDuration::from_days(10));
            c.power_series().mean()
        };
        let fast = run(CampaignConfig::default(), OperatingPoint::AFTER_BIOS);
        let slow = run(CampaignConfig::default(), OperatingPoint::AFTER_FREQ);
        let aware = run(grid_aware_config(), OperatingPoint::AFTER_BIOS);
        assert!(
            aware < fast && aware > slow,
            "grid-aware {aware:.0} should sit between {slow:.0} and {fast:.0}"
        );
    }

    #[test]
    fn schedule_follows_the_intensity_signal() {
        let sched = OperatingSchedule {
            scenario: IntensityScenario::UkGrid2022,
            high_ci_threshold: 230.0,
            normal: OperatingPoint::AFTER_BIOS,
            shed: OperatingPoint::AFTER_FREQ,
            tick: SimDuration::from_hours(1),
        };
        // December evening: stressed grid -> shed.
        let evening = SimTime::from_ymd_hms(2022, 12, 12, 18, 0, 0);
        assert_eq!(sched.at(evening), OperatingPoint::AFTER_FREQ);
        // July night: relaxed grid -> normal.
        let night = SimTime::from_ymd_hms(2022, 7, 10, 3, 0, 0);
        assert_eq!(sched.at(night), OperatingPoint::AFTER_BIOS);
    }

    #[test]
    fn campaign_operating_point_actually_switches() {
        let f = scaled_facility(32, 10);
        let start = SimTime::from_ymd(2022, 12, 1);
        let mut c = Campaign::new(f, grid_aware_config(), start, OperatingPoint::AFTER_BIOS);
        // Run to a December evening: the policy should have shed by then.
        c.run_until(SimTime::from_ymd_hms(2022, 12, 1, 18, 30, 0));
        assert_eq!(c.operating_point().setting, FreqSetting::Mid2000);
        // And restored overnight.
        c.run_until(SimTime::from_ymd_hms(2022, 12, 2, 4, 30, 0));
        assert_eq!(c.operating_point().setting, FreqSetting::TurboBoost2250);
    }
}
