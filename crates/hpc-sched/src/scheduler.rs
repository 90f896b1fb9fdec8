//! FCFS + EASY-backfill batch scheduling.
//!
//! The policy is the one national services actually run: strict
//! first-come-first-served order for the queue head, with a reservation for
//! the head job at the *shadow time* (when enough nodes will have freed),
//! and backfill of later jobs that either finish before the shadow time or
//! fit in the nodes the reservation does not need.
//!
//! Expected job end times use the *requested walltime* (what the scheduler
//! can see), not the true runtime — exactly the information asymmetry a
//! real backfill scheduler lives with.

use crate::allocator::NodeAllocator;
use crate::util::UtilizationMeter;
use hpc_topo::NodeId;
use hpc_workload::{Job, JobId};
use sim_core::time::SimTime;
#[cfg(test)]
use sim_core::time::SimDuration;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// A job placed on nodes by the scheduler this round.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Which job.
    pub job_id: JobId,
    /// The nodes it received.
    pub nodes: Vec<NodeId>,
}

/// Book-keeping for a running job.
#[derive(Debug, Clone)]
pub struct RunningJob {
    /// The job itself.
    pub job: Job,
    /// Nodes it occupies.
    pub nodes: Vec<NodeId>,
    /// When it started.
    pub started_at: SimTime,
    /// When the scheduler expects it to end (start + requested walltime).
    pub expected_end: SimTime,
}

/// Aggregate scheduler statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedulerStats {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs started so far.
    pub started: u64,
    /// Jobs completed so far.
    pub completed: u64,
    /// Jobs backfilled (started out of FCFS order).
    pub backfilled: u64,
    /// Kill events: a running job lost to a node failure. A job killed
    /// twice counts twice.
    pub killed: u64,
    /// Jobs dropped failed-terminal after exhausting the requeue budget.
    pub abandoned: u64,
    /// Sum of queue wait times (seconds) over started jobs.
    pub total_wait_s: u64,
}

impl SchedulerStats {
    /// Mean queue wait in hours.
    pub fn mean_wait_hours(&self) -> f64 {
        if self.started == 0 {
            return 0.0;
        }
        self.total_wait_s as f64 / self.started as f64 / 3600.0
    }

    /// Kill events plus terminal abandonments — the old single `failed`
    /// counter, kept as a derived view.
    pub fn failed(&self) -> u64 {
        self.killed + self.abandoned
    }
}

/// Default requeue budget: a job killed by faults is retried this many
/// times before it is dropped failed-terminal (Slurm's `--requeue` with a
/// bounded `BatchStartTimeout`-style retry policy).
pub const DEFAULT_REQUEUE_BUDGET: u32 = 3;

/// The batch scheduler.
#[derive(Debug, Clone)]
pub struct BatchScheduler {
    allocator: NodeAllocator,
    pending: VecDeque<Job>,
    running: HashMap<JobId, RunningJob>,
    /// Running jobs ordered by expected end, each with its node count, so
    /// the shadow computation walks this index alone, O(k).
    ends: BTreeMap<(SimTime, JobId), u32>,
    /// The running job on each node, indexed by node id (`None` while the
    /// node is free or offline).
    node_job: Vec<Option<JobId>>,
    /// Fault requeues consumed per job (absent = never killed).
    requeues: HashMap<JobId, u32>,
    requeue_budget: u32,
    meter: UtilizationMeter,
    stats: SchedulerStats,
}

impl BatchScheduler {
    /// A scheduler over `total_nodes` nodes, empty queue, with the
    /// [`DEFAULT_REQUEUE_BUDGET`].
    pub fn new(total_nodes: u32) -> Self {
        BatchScheduler {
            allocator: NodeAllocator::new(total_nodes),
            pending: VecDeque::new(),
            running: HashMap::new(),
            ends: BTreeMap::new(),
            node_job: vec![None; total_nodes as usize],
            requeues: HashMap::new(),
            requeue_budget: DEFAULT_REQUEUE_BUDGET,
            meter: UtilizationMeter::new(total_nodes),
            stats: SchedulerStats::default(),
        }
    }

    /// Set how many times a fault-killed job is requeued before it is
    /// dropped failed-terminal. 0 = abandon on the first kill.
    pub fn set_requeue_budget(&mut self, budget: u32) {
        self.requeue_budget = budget;
    }

    /// The requeue budget in force.
    pub fn requeue_budget(&self) -> u32 {
        self.requeue_budget
    }

    /// Submit a job to the queue.
    ///
    /// # Panics
    /// Panics if the job requests more nodes than the machine has — a real
    /// scheduler rejects those at submission.
    pub fn submit(&mut self, job: Job) {
        assert!(
            job.nodes <= self.allocator.total(),
            "{} requests {} nodes on a {}-node machine",
            job.id,
            job.nodes,
            self.allocator.total()
        );
        self.stats.submitted += 1;
        self.pending.push_back(job);
    }

    /// Run one scheduling pass at `now`, starting every job FCFS/backfill
    /// allows. Returns the placements made.
    pub fn schedule(&mut self, now: SimTime) -> Vec<Placement> {
        let mut placements = Vec::new();

        loop {
            // Phase 1: start queue-head jobs while they fit (pure FCFS).
            let mut progressed = false;
            while let Some(head) = self.pending.front() {
                if head.nodes <= self.allocator.free_count() {
                    let job = self.pending.pop_front().expect("head exists");
                    placements.push(self.start(job, now, false));
                    progressed = true;
                } else {
                    break;
                }
            }

            // Phase 2: EASY backfill around the (now stuck) head.
            let Some(head) = self.pending.front() else {
                break;
            };
            let (shadow_time, spare_at_shadow) = self.shadow(now, head.nodes);
            let free_now = self.allocator.free_count();

            // Find the first later job that can backfill.
            let mut picked: Option<usize> = None;
            for (i, job) in self.pending.iter().enumerate().skip(1) {
                if job.nodes > free_now {
                    continue;
                }
                let ends_by = now + job.requested_walltime;
                if ends_by <= shadow_time || job.nodes <= spare_at_shadow {
                    picked = Some(i);
                    break;
                }
            }
            match picked {
                Some(i) => {
                    let job = self.pending.remove(i).expect("index valid");
                    placements.push(self.start(job, now, true));
                    progressed = true;
                }
                None => {
                    if !progressed {
                        break;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        placements
    }

    /// Start a job (helper).
    fn start(&mut self, mut job: Job, now: SimTime, backfilled: bool) -> Placement {
        let nodes = self
            .allocator
            .allocate(job.nodes)
            .expect("caller checked capacity");
        job.state = hpc_workload::JobState::Running;
        self.stats.started += 1;
        self.stats.total_wait_s += now.saturating_since(job.submitted_at).as_secs();
        if backfilled {
            self.stats.backfilled += 1;
        }
        let expected_end = now + job.requested_walltime;
        let id = job.id;
        for &n in &nodes {
            self.node_job[n.index()] = Some(id);
        }
        self.ends.insert((expected_end, id), job.nodes);
        self.running.insert(
            id,
            RunningJob {
                job,
                nodes: nodes.clone(),
                started_at: now,
                expected_end,
            },
        );
        self.meter.set_busy(now, self.allocator.busy_count());
        Placement { job_id: id, nodes }
    }

    /// Earliest time at which `needed` nodes will be free if nothing new
    /// starts, plus the spare free nodes at that time (for backfill).
    ///
    /// Walks the end-ordered index, so the cost is O(k) in the number of
    /// completions needed to free the head job — small on a busy machine.
    fn shadow(&self, now: SimTime, needed: u32) -> (SimTime, u32) {
        let mut free = self.allocator.free_count();
        if free >= needed {
            return (now, free - needed);
        }
        for (&(t, _), &nodes) in &self.ends {
            free += nodes;
            if free >= needed {
                return (t, free - needed);
            }
        }
        // Unreachable in practice: submit() rejects jobs larger than the
        // machine, so all running + free always covers `needed`.
        (SimTime::from_unix(u64::MAX / 2), 0)
    }

    /// Complete a running job at `now`, releasing its nodes.
    ///
    /// # Panics
    /// Panics if the job is not running.
    pub fn complete(&mut self, id: JobId, now: SimTime) -> RunningJob {
        let mut entry = self.running.remove(&id).unwrap_or_else(|| panic!("{id} is not running"));
        self.ends.remove(&(entry.expected_end, id));
        for n in &entry.nodes {
            self.node_job[n.index()] = None;
        }
        self.allocator.release(&entry.nodes);
        entry.job.state = hpc_workload::JobState::Completed;
        self.stats.completed += 1;
        self.requeues.remove(&id);
        self.meter.set_busy(now, self.allocator.busy_count());
        entry
    }

    /// A hardware failure on `node` at `now`.
    ///
    /// * If the node was running a job, the job is killed. While the job
    ///   has requeue budget left it is **requeued at the head** of the
    ///   pending queue with its submission time preserved (Slurm's
    ///   `--requeue` behaviour); once the budget is exhausted it is dropped
    ///   failed-terminal and counted in `stats.abandoned`. The killed
    ///   job's id is returned either way.
    /// * Either way the node goes offline until [`Self::repair_node`].
    ///
    /// Failing a node that is **already offline** is an explicit no-op
    /// returning `None` — correlated fault domains (a cabinet PSU trip
    /// overlapping a CDU drain) routinely fail the same node twice.
    pub fn fail_node(&mut self, node: NodeId, now: SimTime) -> Option<JobId> {
        if self.allocator.is_offline(node) {
            return None;
        }
        let victim = self.job_on_node(node);
        if let Some(id) = victim {
            let mut entry = self.running.remove(&id).expect("node_job index consistent");
            self.ends.remove(&(entry.expected_end, id));
            for n in &entry.nodes {
                self.node_job[n.index()] = None;
            }
            // Release the healthy nodes; the failed one goes offline.
            let healthy: Vec<NodeId> = entry.nodes.iter().copied().filter(|&n| n != node).collect();
            self.allocator.release(&healthy);
            self.allocator.release(&[node]);
            self.stats.killed += 1;
            let used = self.requeues.entry(id).or_insert(0);
            if *used < self.requeue_budget {
                *used += 1;
                entry.job.state = hpc_workload::JobState::Pending;
                self.pending.push_front(entry.job);
            } else {
                self.requeues.remove(&id);
                self.stats.abandoned += 1;
            }
        }
        assert!(self.allocator.take_offline(node), "node must be free by now");
        self.meter.set_busy(now, self.allocator.busy_count());
        victim
    }

    /// Bring a previously failed node back into service. Repairing a node
    /// that was never failed (or was already repaired by an overlapping
    /// fault domain's recovery) is an explicit no-op returning `false`.
    pub fn repair_node(&mut self, node: NodeId, now: SimTime) -> bool {
        if !self.allocator.try_bring_online(node) {
            return false;
        }
        self.meter.set_busy(now, self.allocator.busy_count());
        true
    }

    /// Nodes currently offline.
    pub fn offline_nodes(&self) -> u32 {
        self.allocator.offline_count()
    }

    /// Is a specific node offline?
    pub fn is_node_offline(&self, node: NodeId) -> bool {
        self.allocator.is_offline(node)
    }

    /// The job currently occupying `node`, if any.
    pub fn job_on_node(&self, node: NodeId) -> Option<JobId> {
        self.node_job.get(node.index()).copied().flatten()
    }

    /// Advance the utilisation meter without a state change.
    pub fn advance_clock(&mut self, now: SimTime) {
        self.meter.advance(now);
    }

    /// Nodes currently busy.
    pub fn busy_nodes(&self) -> u32 {
        self.allocator.busy_count()
    }

    /// Nodes currently free.
    pub fn free_nodes(&self) -> u32 {
        self.allocator.free_count()
    }

    /// Jobs waiting.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Jobs running.
    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// Iterate running jobs.
    pub fn running_jobs(&self) -> impl Iterator<Item = &RunningJob> {
        self.running.values()
    }

    /// Look up one running job.
    pub fn running_job(&self, id: JobId) -> Option<&RunningJob> {
        self.running.get(&id)
    }

    /// Scheduler statistics so far.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// The utilisation meter.
    pub fn utilisation_meter(&self) -> &UtilizationMeter {
        &self.meter
    }

    /// Reset the utilisation window (measurement boundary).
    pub fn reset_utilisation_window(&mut self) {
        self.meter.reset_window();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_workload::{AppModel, ResearchArea};

    fn mk_job(id: u64, nodes: u32, walltime_h: u64, submitted: SimTime) -> Job {
        Job::new(
            JobId(id),
            AppModel::generic(ResearchArea::Other),
            nodes,
            SimDuration::from_hours(walltime_h),
            SimDuration::from_hours(walltime_h),
            submitted,
        )
    }

    #[test]
    fn fcfs_starts_in_order() {
        let mut s = BatchScheduler::new(10);
        let t0 = SimTime::EPOCH;
        s.submit(mk_job(1, 4, 1, t0));
        s.submit(mk_job(2, 4, 1, t0));
        s.submit(mk_job(3, 4, 1, t0)); // doesn't fit
        let placed = s.schedule(t0);
        let ids: Vec<u64> = placed.iter().map(|p| p.job_id.0).collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(s.busy_nodes(), 8);
        assert_eq!(s.pending_count(), 1);
    }

    #[test]
    fn completion_frees_nodes_and_lets_head_run() {
        let mut s = BatchScheduler::new(10);
        let t0 = SimTime::EPOCH;
        s.submit(mk_job(1, 8, 1, t0));
        s.submit(mk_job(2, 8, 1, t0));
        s.schedule(t0);
        assert_eq!(s.running_count(), 1);
        let t1 = t0 + SimDuration::from_hours(1);
        let done = s.complete(JobId(1), t1);
        assert_eq!(done.job.id, JobId(1));
        assert_eq!(done.job.state, hpc_workload::JobState::Completed);
        let placed = s.schedule(t1);
        assert_eq!(placed.len(), 1);
        assert_eq!(placed[0].job_id, JobId(2));
    }

    #[test]
    fn short_job_backfills_ahead_of_stuck_head() {
        let mut s = BatchScheduler::new(10);
        let t0 = SimTime::EPOCH;
        // Long 8-node job occupies most of the machine until t0+10h.
        s.submit(mk_job(1, 8, 10, t0));
        s.schedule(t0);
        // Head wants 6 nodes (stuck until the 8-node job ends).
        s.submit(mk_job(2, 6, 5, t0));
        // A 2-node 1-hour job fits now and ends before the shadow time.
        s.submit(mk_job(3, 2, 1, t0));
        let placed = s.schedule(t0);
        let ids: Vec<u64> = placed.iter().map(|p| p.job_id.0).collect();
        assert_eq!(ids, vec![3], "short job should backfill");
        assert_eq!(s.stats().backfilled, 1);
    }

    #[test]
    fn backfill_never_delays_the_head() {
        let mut s = BatchScheduler::new(10);
        let t0 = SimTime::EPOCH;
        s.submit(mk_job(1, 8, 10, t0)); // running until +10h
        s.schedule(t0);
        s.submit(mk_job(2, 6, 5, t0)); // head: needs the 8-node job's nodes
        // 2-node job lasting 20h would end after the shadow time AND uses
        // nodes the head needs (spare at shadow = 10-8... free_now=2,
        // at shadow free=2+8=10, spare=10-6=4 >= 2) — it CAN backfill on
        // spare nodes.
        s.submit(mk_job(3, 2, 20, t0));
        let placed = s.schedule(t0);
        assert_eq!(placed.len(), 1, "2 spare nodes at shadow allow this backfill");

        // But a 5-node 20-hour job would collide with the head's reservation.
        s.submit(mk_job(4, 5, 20, t0));
        // free_now = 0 so nothing happens; complete job 3 to free 2.
        let t1 = t0 + SimDuration::from_hours(1);
        s.complete(JobId(3), t1);
        let placed = s.schedule(t1);
        assert!(placed.is_empty(), "5-node long job must not steal reserved nodes");
    }

    #[test]
    fn spare_capacity_backfill_allows_long_small_jobs() {
        let mut s = BatchScheduler::new(10);
        let t0 = SimTime::EPOCH;
        s.submit(mk_job(1, 6, 10, t0));
        s.schedule(t0);
        s.submit(mk_job(2, 6, 5, t0)); // head stuck: needs 6, only 4 free
        // Long 3-node job: at shadow, free = 4+6 = 10, spare = 10-6 = 4 ≥ 3.
        s.submit(mk_job(3, 3, 50, t0));
        let placed = s.schedule(t0);
        assert_eq!(placed.len(), 1);
        assert_eq!(placed[0].job_id, JobId(3));
    }

    #[test]
    fn utilisation_tracks_busy_fraction() {
        let mut s = BatchScheduler::new(4);
        let t0 = SimTime::EPOCH;
        s.submit(mk_job(1, 4, 2, t0));
        s.schedule(t0);
        let t1 = t0 + SimDuration::from_hours(2);
        s.complete(JobId(1), t1);
        s.advance_clock(t1 + SimDuration::from_hours(2));
        // 2 h at 100 %, 2 h at 0 % = 50 %.
        assert!((s.utilisation_meter().utilisation() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn wait_time_recorded() {
        let mut s = BatchScheduler::new(4);
        let t0 = SimTime::EPOCH;
        s.submit(mk_job(1, 4, 1, t0));
        s.schedule(t0);
        s.submit(mk_job(2, 4, 1, t0));
        let t1 = t0 + SimDuration::from_hours(1);
        s.complete(JobId(1), t1);
        s.schedule(t1);
        assert_eq!(s.stats().started, 2);
        assert!((s.stats().mean_wait_hours() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "requests 20 nodes")]
    fn oversized_job_rejected_at_submit() {
        let mut s = BatchScheduler::new(10);
        s.submit(mk_job(1, 20, 1, SimTime::EPOCH));
    }

    #[test]
    #[should_panic(expected = "is not running")]
    fn completing_unknown_job_panics() {
        let mut s = BatchScheduler::new(10);
        s.complete(JobId(9), SimTime::EPOCH);
    }

    #[test]
    fn node_failure_kills_and_requeues_the_job() {
        let mut s = BatchScheduler::new(10);
        let t0 = SimTime::EPOCH;
        s.submit(mk_job(1, 4, 2, t0));
        let placed = s.schedule(t0);
        let victim_node = placed[0].nodes[1];
        assert_eq!(s.job_on_node(victim_node), Some(JobId(1)));

        let t1 = t0 + SimDuration::from_hours(1);
        let killed = s.fail_node(victim_node, t1);
        assert_eq!(killed, Some(JobId(1)));
        assert_eq!(s.running_count(), 0);
        assert_eq!(s.pending_count(), 1, "job requeued");
        assert_eq!(s.offline_nodes(), 1);
        assert_eq!(s.free_nodes(), 9);
        assert_eq!(s.stats().killed, 1);
        assert_eq!(s.stats().abandoned, 0);

        // The requeued job restarts on the healthy nodes.
        let placed = s.schedule(t1);
        assert_eq!(placed.len(), 1);
        assert!(!placed[0].nodes.contains(&victim_node));

        // Repair returns the node to service.
        let t2 = t1 + SimDuration::from_hours(4);
        s.repair_node(victim_node, t2);
        assert_eq!(s.offline_nodes(), 0);
        assert_eq!(s.free_nodes(), 6);
    }

    #[test]
    fn idle_node_failure_just_goes_offline() {
        let mut s = BatchScheduler::new(4);
        let killed = s.fail_node(NodeId(3), SimTime::EPOCH);
        assert_eq!(killed, None);
        assert_eq!(s.offline_nodes(), 1);
        // Failing it again is a no-op.
        assert_eq!(s.fail_node(NodeId(3), SimTime::EPOCH), None);
        assert_eq!(s.offline_nodes(), 1);
    }

    #[test]
    fn double_fail_and_double_restore_are_noops() {
        // Overlapping fault domains deliver duplicate transitions; neither
        // direction may panic or double-count.
        let mut s = BatchScheduler::new(4);
        let t0 = SimTime::EPOCH;
        // Restore of a never-failed node: explicit no-op.
        assert!(!s.repair_node(NodeId(1), t0));
        assert_eq!(s.free_nodes(), 4);
        // Fail twice, restore twice.
        assert_eq!(s.fail_node(NodeId(1), t0), None);
        assert_eq!(s.fail_node(NodeId(1), t0), None);
        assert_eq!(s.offline_nodes(), 1);
        assert!(s.repair_node(NodeId(1), t0));
        assert!(!s.repair_node(NodeId(1), t0), "second restore is a no-op");
        assert_eq!(s.offline_nodes(), 0);
        assert_eq!(s.free_nodes(), 4);
    }

    #[test]
    fn requeue_budget_exhaustion_abandons_the_job() {
        let mut s = BatchScheduler::new(4);
        s.set_requeue_budget(2);
        let t0 = SimTime::EPOCH;
        s.submit(mk_job(1, 2, 2, t0));
        let mut now = t0;
        for round in 0..3u64 {
            let placed = s.schedule(now);
            assert_eq!(placed.len(), 1, "round {round}: job restarts");
            let node = placed[0].nodes[0];
            now += SimDuration::from_hours(1);
            assert_eq!(s.fail_node(node, now), Some(JobId(1)));
            s.repair_node(node, now);
        }
        // Two requeues consumed, third kill drops the job terminal.
        assert_eq!(s.stats().killed, 3);
        assert_eq!(s.stats().abandoned, 1);
        assert_eq!(s.pending_count(), 0, "job is gone, not requeued");
        assert!(s.schedule(now).is_empty());
        // Accounting closes: submitted = completed + abandoned + in-flight.
        let st = s.stats();
        assert_eq!(
            st.submitted,
            st.completed + st.abandoned + s.running_count() as u64 + s.pending_count() as u64
        );
    }

    #[test]
    fn zero_budget_abandons_on_first_kill() {
        let mut s = BatchScheduler::new(4);
        s.set_requeue_budget(0);
        let t0 = SimTime::EPOCH;
        s.submit(mk_job(1, 1, 1, t0));
        let placed = s.schedule(t0);
        s.fail_node(placed[0].nodes[0], t0);
        assert_eq!(s.stats().killed, 1);
        assert_eq!(s.stats().abandoned, 1);
        assert_eq!(s.pending_count(), 0);
    }

    #[test]
    fn completion_resets_nothing_but_clears_requeue_state() {
        // A job that survives a kill and then completes must not leak
        // requeue accounting into stats.
        let mut s = BatchScheduler::new(4);
        s.set_requeue_budget(1);
        let t0 = SimTime::EPOCH;
        s.submit(mk_job(1, 1, 1, t0));
        let placed = s.schedule(t0);
        s.fail_node(placed[0].nodes[0], t0);
        let placed = s.schedule(t0);
        let t1 = t0 + SimDuration::from_hours(1);
        s.complete(JobId(1), t1);
        let st = s.stats();
        assert_eq!((st.killed, st.abandoned, st.completed), (1, 0, 1));
        assert_eq!(st.failed(), 1);
        assert_eq!(st.submitted, 1);
        let _ = placed;
    }

    #[test]
    fn requeued_job_keeps_fcfs_priority() {
        let mut s = BatchScheduler::new(4);
        let t0 = SimTime::EPOCH;
        s.submit(mk_job(1, 4, 2, t0));
        let placed = s.schedule(t0);
        s.submit(mk_job(2, 4, 2, t0));
        // Job 1 dies; it must restart before job 2.
        let t1 = t0 + SimDuration::from_hours(1);
        s.fail_node(placed[0].nodes[0], t1);
        s.repair_node(placed[0].nodes[0], t1);
        let placed = s.schedule(t1);
        assert_eq!(placed[0].job_id, JobId(1), "requeued job goes first");
    }

    #[test]
    fn queue_drains_over_time_with_high_utilisation() {
        // A small end-to-end smoke test: 64-node machine, stream of jobs,
        // run to completion via expected ends; utilisation should be high.
        let mut s = BatchScheduler::new(64);
        let mut now = SimTime::EPOCH;
        let mut next_id = 0u64;
        // Keep 50 jobs in the queue; run 200 completions.
        let mut completions = 0;
        while completions < 200 {
            while s.pending_count() < 50 {
                next_id += 1;
                let nodes = 1 + (next_id * 7 % 16) as u32;
                let hours = 1 + (next_id * 3 % 5);
                s.submit(mk_job(next_id, nodes, hours, now));
            }
            s.schedule(now);
            // Complete the earliest-expected-end running job.
            let next = s
                .running_jobs()
                .min_by_key(|r| r.expected_end)
                .map(|r| (r.job.id, r.expected_end))
                .expect("something is running");
            now = next.1;
            s.complete(next.0, now);
            completions += 1;
        }
        let util = s.utilisation_meter().utilisation();
        assert!(util > 0.85, "utilisation {util} should be high with a deep queue");
    }
}
