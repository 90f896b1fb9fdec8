//! Correlated fault domains and the deterministic fault-schedule generator.
//!
//! A *fault domain* is the set of nodes that share a failure mode: a
//! cabinet PSU trip drops every node in the cabinet at once, a CDU
//! cooling-loop failure thermally drains every cabinet on the loop after a
//! grace window, and a dragonfly switch failure makes its attached nodes
//! unreachable (their jobs die even though the nodes stay powered).
//!
//! Schedules are generated up front from a seed: per domain class the
//! arrival process is fleet-level Poisson (rate `instances / mtbf`), the
//! victim is uniform over the instances, and the repair time is log-normal.
//! The whole schedule is therefore a pure function of
//! `(config, topology shape, seed, horizon)` — two runs with the same
//! inputs produce bit-identical schedules, which [`FaultSchedule::digest`]
//! makes checkable from the outside.

use hpc_topo::{CabinetId, CduId, FacilityTopology, NodeId, SwitchId};
use sim_core::dist::{Distribution, LogNormal};
use sim_core::rng::{Rng, Xoshiro256StarStar};
use serde::{Deserialize, Serialize};
use sim_core::time::SimDuration;

/// A set of nodes that fail together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultDomain {
    /// A single compute node (uncorrelated MTBF failure).
    Node(NodeId),
    /// A compute cabinet: PSU trip de-energises every node in it.
    Cabinet(CabinetId),
    /// A CDU cooling loop: every cabinet on the loop drains thermally.
    CduLoop(CduId),
    /// A dragonfly switch: attached nodes become unreachable.
    Switch(SwitchId),
}

/// One scheduled fault transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Offset from the campaign start, in seconds.
    pub at_s: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// The transition a [`FaultEvent`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A domain goes down (its nodes drop out of service).
    Down(FaultDomain),
    /// A previously failed domain returns to service.
    Up(FaultDomain),
}

/// Failure/repair parameters for one domain class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DomainRate {
    /// Mean time between failures of one domain instance, in hours.
    /// Fleet-level arrivals are Poisson with rate `instances / mtbf`.
    pub mtbf_hours: f64,
    /// Mean repair time, in hours (log-normal, `repair_sigma` shape).
    pub repair_mean_hours: f64,
    /// Log-normal sigma of the repair time (0 = deterministic repairs).
    pub repair_sigma: f64,
}

impl DomainRate {
    /// A rate that never fires (infinite MTBF).
    pub const OFF: DomainRate =
        DomainRate { mtbf_hours: f64::INFINITY, repair_mean_hours: 1.0, repair_sigma: 0.0 };
}

/// Configuration of the correlated-fault schedule generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DomainFaultConfig {
    /// Per-node hardware failures (the uncorrelated baseline).
    pub node: DomainRate,
    /// Cabinet PSU trips.
    pub cabinet: DomainRate,
    /// CDU cooling-loop failures.
    pub cdu: DomainRate,
    /// Dragonfly switch failures.
    pub switch: DomainRate,
    /// Thermal grace window: how long a cabinet survives on residual
    /// coolant after its CDU loop fails before it must power down. If the
    /// CDU is repaired within the grace window the cabinets ride through.
    pub cdu_grace: SimDuration,
}

impl Default for DomainFaultConfig {
    fn default() -> Self {
        DomainFaultConfig {
            // ~6 months per node: a 5,860-node fleet sees ~1.3 failures/hour.
            node: DomainRate { mtbf_hours: 4_380.0, repair_mean_hours: 24.0, repair_sigma: 0.5 },
            // Cabinet PSU trips are rare: ~2 years per cabinet.
            cabinet: DomainRate {
                mtbf_hours: 17_520.0,
                repair_mean_hours: 8.0,
                repair_sigma: 0.4,
            },
            // CDU loop failures rarer still: ~4 years per CDU.
            cdu: DomainRate { mtbf_hours: 35_040.0, repair_mean_hours: 12.0, repair_sigma: 0.4 },
            // Switches: ~3 years per switch.
            switch: DomainRate {
                mtbf_hours: 26_280.0,
                repair_mean_hours: 6.0,
                repair_sigma: 0.4,
            },
            cdu_grace: SimDuration::from_mins(30),
        }
    }
}

/// Precomputed domain→node membership maps for a facility.
#[derive(Debug, Clone)]
pub struct FaultDomains {
    cabinet_nodes: Vec<Vec<NodeId>>,
    cdu_cabinets: Vec<Vec<CabinetId>>,
    switch_nodes: Vec<Vec<NodeId>>,
    nodes: u32,
}

impl FaultDomains {
    /// Build the membership maps from a facility topology.
    pub fn from_topology(topo: &FacilityTopology) -> Self {
        let cfg = topo.config();
        let cabinet_nodes: Vec<Vec<NodeId>> =
            (0..cfg.cabinets).map(|c| topo.nodes_in_cabinet(CabinetId(c)).to_vec()).collect();
        let mut cdu_cabinets = vec![Vec::new(); cfg.cdus as usize];
        for c in 0..cfg.cabinets {
            cdu_cabinets[topo.cdu_of_cabinet(CabinetId(c)).index()].push(CabinetId(c));
        }
        // Invert the node→switch attachment (each node has NIC links to a
        // small fixed set of switches).
        let mut switch_nodes = vec![Vec::new(); cfg.fabric.total_switches() as usize];
        for n in 0..cfg.nodes {
            for sw in topo.fabric().switches_of(NodeId(n)) {
                switch_nodes[sw.index()].push(NodeId(n));
            }
        }
        FaultDomains { cabinet_nodes, cdu_cabinets, switch_nodes, nodes: cfg.nodes }
    }

    /// Number of compute nodes.
    pub fn node_count(&self) -> u32 {
        self.nodes
    }

    /// Number of cabinets.
    pub fn cabinet_count(&self) -> u32 {
        self.cabinet_nodes.len() as u32
    }

    /// Number of CDU loops.
    pub fn cdu_count(&self) -> u32 {
        self.cdu_cabinets.len() as u32
    }

    /// Number of switches.
    pub fn switch_count(&self) -> u32 {
        self.switch_nodes.len() as u32
    }

    /// Cabinets cooled by a CDU loop.
    pub fn cabinets_on_loop(&self, cdu: CduId) -> &[CabinetId] {
        &self.cdu_cabinets[cdu.index()]
    }

    /// The nodes a domain covers. A CDU loop covers every node of every
    /// cabinet on the loop.
    pub fn nodes_of(&self, domain: FaultDomain) -> Vec<NodeId> {
        match domain {
            FaultDomain::Node(n) => vec![n],
            FaultDomain::Cabinet(c) => self.cabinet_nodes[c.index()].clone(),
            FaultDomain::CduLoop(d) => self.cdu_cabinets[d.index()]
                .iter()
                .flat_map(|c| self.cabinet_nodes[c.index()].iter().copied())
                .collect(),
            FaultDomain::Switch(s) => self.switch_nodes[s.index()].clone(),
        }
    }
}

/// A generated fault schedule: events sorted by time (ties broken by the
/// deterministic generation order).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// The events, sorted by `at_s`.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// How many `Down` events target each domain class:
    /// `(node, cabinet, cdu, switch)`.
    pub fn down_counts(&self) -> (u64, u64, u64, u64) {
        let mut c = (0, 0, 0, 0);
        for e in &self.events {
            if let FaultKind::Down(d) = e.kind {
                match d {
                    FaultDomain::Node(_) => c.0 += 1,
                    FaultDomain::Cabinet(_) => c.1 += 1,
                    FaultDomain::CduLoop(_) => c.2 += 1,
                    FaultDomain::Switch(_) => c.3 += 1,
                }
            }
        }
        c
    }

    /// FNV-1a digest over every event — two schedules with the same digest
    /// are (with overwhelming probability) bit-identical. Used by the
    /// verification gate to prove seed-determinism across processes.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        for e in &self.events {
            fold(e.at_s);
            let (tag, idx) = match e.kind {
                FaultKind::Down(FaultDomain::Node(n)) => (1u64, u64::from(n.0)),
                FaultKind::Up(FaultDomain::Node(n)) => (2, u64::from(n.0)),
                FaultKind::Down(FaultDomain::Cabinet(c)) => (3, u64::from(c.0)),
                FaultKind::Up(FaultDomain::Cabinet(c)) => (4, u64::from(c.0)),
                FaultKind::Down(FaultDomain::CduLoop(d)) => (5, u64::from(d.0)),
                FaultKind::Up(FaultDomain::CduLoop(d)) => (6, u64::from(d.0)),
                FaultKind::Down(FaultDomain::Switch(s)) => (7, u64::from(s.0)),
                FaultKind::Up(FaultDomain::Switch(s)) => (8, u64::from(s.0)),
            };
            fold(tag);
            fold(idx);
        }
        h
    }
}

/// Draw Poisson arrivals for one domain class and push Down/Up pairs.
fn class_events(
    events: &mut Vec<FaultEvent>,
    rate: DomainRate,
    instances: u32,
    horizon_s: u64,
    rng: &mut Xoshiro256StarStar,
    mk: impl Fn(u32) -> FaultDomain,
) {
    if instances == 0 || !rate.mtbf_hours.is_finite() || rate.mtbf_hours <= 0.0 {
        return;
    }
    let fleet_rate_per_s = instances as f64 / (rate.mtbf_hours * 3600.0);
    let repair = LogNormal::from_mean(rate.repair_mean_hours.max(1e-9), rate.repair_sigma);
    let mut t = 0.0f64;
    loop {
        let gap = -(1.0 - rng.next_f64()).ln() / fleet_rate_per_s;
        t += gap.max(1.0);
        if t >= horizon_s as f64 {
            break;
        }
        let at = t as u64;
        let victim = rng.next_below(u64::from(instances)) as u32;
        let repair_s = ((repair.sample(rng) * 3600.0) as u64).max(60);
        events.push(FaultEvent { at_s: at, kind: FaultKind::Down(mk(victim)) });
        events.push(FaultEvent {
            at_s: at.saturating_add(repair_s),
            kind: FaultKind::Up(mk(victim)),
        });
    }
}

/// Generate the full correlated-fault schedule over `[0, horizon)`.
///
/// CDU failures expand into cabinet-level consequences here, at generation
/// time: when a loop stays down past [`DomainFaultConfig::cdu_grace`],
/// every cabinet on the loop receives a `Down(Cabinet)` at
/// `fail + grace` and an `Up(Cabinet)` when the loop is repaired. A loop
/// repaired within the grace window rides through with no cabinet trips.
///
/// The result is a pure function of the inputs: same config, same topology
/// shape, same seed, same horizon ⇒ bit-identical schedule.
pub fn generate_schedule(
    cfg: &DomainFaultConfig,
    domains: &FaultDomains,
    seed: u64,
    horizon: SimDuration,
) -> FaultSchedule {
    let horizon_s = horizon.as_secs();
    let root = Xoshiro256StarStar::seeded(seed ^ 0xFA_17_5C_ED);
    let mut events = Vec::new();

    let mut rng = root.substream(1);
    class_events(&mut events, cfg.node, domains.node_count(), horizon_s, &mut rng, |i| {
        FaultDomain::Node(NodeId(i))
    });
    let mut rng = root.substream(2);
    class_events(&mut events, cfg.cabinet, domains.cabinet_count(), horizon_s, &mut rng, |i| {
        FaultDomain::Cabinet(CabinetId(i))
    });
    let mut rng = root.substream(3);
    // CDU loops: generate the loop events, then expand the thermal drain.
    let mut cdu_events = Vec::new();
    class_events(&mut cdu_events, cfg.cdu, domains.cdu_count(), horizon_s, &mut rng, |i| {
        FaultDomain::CduLoop(CduId(i))
    });
    let grace_s = cfg.cdu_grace.as_secs();
    let mut i = 0;
    while i < cdu_events.len() {
        let down = cdu_events[i];
        let up = cdu_events[i + 1];
        debug_assert!(matches!(down.kind, FaultKind::Down(_)));
        let FaultKind::Down(FaultDomain::CduLoop(loop_id)) = down.kind else {
            unreachable!("cdu generator emits loop domains")
        };
        events.push(down);
        events.push(up);
        if up.at_s > down.at_s.saturating_add(grace_s) {
            for &cab in domains.cabinets_on_loop(loop_id) {
                events.push(FaultEvent {
                    at_s: down.at_s + grace_s,
                    kind: FaultKind::Down(FaultDomain::Cabinet(cab)),
                });
                events.push(FaultEvent {
                    at_s: up.at_s,
                    kind: FaultKind::Up(FaultDomain::Cabinet(cab)),
                });
            }
        }
        i += 2;
    }
    let mut rng = root.substream(4);
    class_events(&mut events, cfg.switch, domains.switch_count(), horizon_s, &mut rng, |i| {
        FaultDomain::Switch(SwitchId(i))
    });

    // Stable sort keeps the deterministic generation order for ties.
    events.sort_by_key(|e| e.at_s);
    FaultSchedule { events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_topo::{DragonflyConfig, FacilityConfig};

    fn topo() -> FacilityTopology {
        FacilityTopology::build(FacilityConfig {
            nodes: 128,
            cores_per_node: 128,
            cabinets: 4,
            cdus: 2,
            filesystems: 1,
            fabric: DragonflyConfig {
                groups: 4,
                switches_per_group: 4,
                ports_per_switch: 64,
                endpoints_per_switch: 16,
                nics_per_node: 2,
            },
        })
    }

    fn storm_config() -> DomainFaultConfig {
        DomainFaultConfig {
            node: DomainRate { mtbf_hours: 100.0, repair_mean_hours: 6.0, repair_sigma: 0.4 },
            cabinet: DomainRate { mtbf_hours: 400.0, repair_mean_hours: 4.0, repair_sigma: 0.3 },
            cdu: DomainRate { mtbf_hours: 300.0, repair_mean_hours: 8.0, repair_sigma: 0.3 },
            switch: DomainRate { mtbf_hours: 500.0, repair_mean_hours: 3.0, repair_sigma: 0.3 },
            cdu_grace: SimDuration::from_mins(30),
        }
    }

    #[test]
    fn membership_maps_cover_the_facility() {
        let d = FaultDomains::from_topology(&topo());
        assert_eq!(d.node_count(), 128);
        assert_eq!(d.cabinet_count(), 4);
        assert_eq!(d.cdu_count(), 2);
        let all: usize = (0..4).map(|c| d.nodes_of(FaultDomain::Cabinet(CabinetId(c))).len()).sum();
        assert_eq!(all, 128, "cabinets partition the nodes");
        let loop0 = d.nodes_of(FaultDomain::CduLoop(CduId(0)));
        let loop1 = d.nodes_of(FaultDomain::CduLoop(CduId(1)));
        assert_eq!(loop0.len() + loop1.len(), 128, "loops partition the nodes");
        // Every switch domain is non-empty and its nodes attach to it.
        let t = topo();
        for s in 0..d.switch_count() {
            let members = d.nodes_of(FaultDomain::Switch(SwitchId(s)));
            assert!(!members.is_empty());
            for n in members {
                assert!(t.fabric().switches_of(n).contains(&SwitchId(s)));
            }
        }
    }

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let d = FaultDomains::from_topology(&topo());
        let cfg = storm_config();
        let h = SimDuration::from_days(30);
        let a = generate_schedule(&cfg, &d, 7, h);
        let b = generate_schedule(&cfg, &d, 7, h);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let c = generate_schedule(&cfg, &d, 8, h);
        assert_ne!(a.digest(), c.digest(), "different seeds diverge");
        assert!(!a.is_empty());
    }

    #[test]
    fn every_down_has_a_matching_up() {
        let d = FaultDomains::from_topology(&topo());
        let s = generate_schedule(&storm_config(), &d, 3, SimDuration::from_days(60));
        let mut balance: std::collections::HashMap<FaultDomain, i64> =
            std::collections::HashMap::new();
        for e in s.events() {
            match e.kind {
                FaultKind::Down(dom) => *balance.entry(dom).or_insert(0) += 1,
                FaultKind::Up(dom) => *balance.entry(dom).or_insert(0) -= 1,
            }
        }
        assert!(balance.values().all(|&v| v == 0), "unbalanced: {balance:?}");
    }

    #[test]
    fn cdu_failure_past_grace_trips_its_cabinets() {
        let d = FaultDomains::from_topology(&topo());
        // Repairs far longer than the grace window: every CDU failure must
        // drain its cabinets.
        let cfg = DomainFaultConfig {
            node: DomainRate::OFF,
            cabinet: DomainRate::OFF,
            switch: DomainRate::OFF,
            cdu: DomainRate { mtbf_hours: 100.0, repair_mean_hours: 10.0, repair_sigma: 0.0 },
            cdu_grace: SimDuration::from_mins(30),
        };
        let s = generate_schedule(&cfg, &d, 11, SimDuration::from_days(60));
        let (_, cab_downs, cdu_downs, _) = s.down_counts();
        assert!(cdu_downs > 0, "some loop failures");
        assert_eq!(cab_downs, cdu_downs * 2, "each loop covers 2 cabinets");
        // Each cabinet trip lands exactly grace after its loop failure.
        let downs: Vec<&FaultEvent> = s
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Down(FaultDomain::CduLoop(_))))
            .collect();
        for e in downs {
            assert!(s.events().iter().any(|c| {
                matches!(c.kind, FaultKind::Down(FaultDomain::Cabinet(_)))
                    && c.at_s == e.at_s + 30 * 60
            }));
        }
    }

    #[test]
    fn fast_cdu_repair_rides_through_the_grace_window() {
        let d = FaultDomains::from_topology(&topo());
        let cfg = DomainFaultConfig {
            node: DomainRate::OFF,
            cabinet: DomainRate::OFF,
            switch: DomainRate::OFF,
            // 6-minute repairs, 30-minute grace: never drains.
            cdu: DomainRate { mtbf_hours: 100.0, repair_mean_hours: 0.1, repair_sigma: 0.0 },
            cdu_grace: SimDuration::from_mins(30),
        };
        let s = generate_schedule(&cfg, &d, 11, SimDuration::from_days(60));
        let (_, cab_downs, cdu_downs, _) = s.down_counts();
        assert!(cdu_downs > 0);
        assert_eq!(cab_downs, 0, "no thermal drain when repairs beat the grace window");
    }

    #[test]
    fn off_rates_generate_nothing() {
        let d = FaultDomains::from_topology(&topo());
        let cfg = DomainFaultConfig {
            node: DomainRate::OFF,
            cabinet: DomainRate::OFF,
            cdu: DomainRate::OFF,
            switch: DomainRate::OFF,
            cdu_grace: SimDuration::from_mins(30),
        };
        let s = generate_schedule(&cfg, &d, 1, SimDuration::from_days(365));
        assert!(s.is_empty());
    }
}
