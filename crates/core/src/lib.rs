//! # archer2-core
//!
//! The top of the reproduction stack: assembles the facility from the
//! substrate crates, replays the paper's operational timeline as a
//! discrete-event campaign, and exposes one typed experiment per table and
//! figure of the paper.
//!
//! * [`facility`] — the ARCHER2 system: topology + power models + silicon
//!   lottery + calibrated application catalog.
//! * [`campaign`] — months-long facility simulation with scheduler, power
//!   telemetry and operating-point changes (the BIOS switch of May 2022 and
//!   the frequency change of Dec 2022).
//! * [`experiment`] — `table1` … `figure3`, the §2 regime analysis, the §5
//!   conclusions check, and the ablation sweeps.
//! * [`scenarios`] — parallel fan-out runner for independent campaign
//!   scenarios (seed × operating point × policy sweeps), one isolated
//!   facility and telemetry store per scenario.
//! * [`sweep`] — distributed sweep orchestration on top of [`scenarios`]:
//!   checksummed shard manifests, resumable worker *processes*,
//!   work-stealing, and a bit-identical merge (`docs/SWEEP.md`).
//! * [`report`] — plain-text/markdown rendering of experiment results.

#![warn(missing_docs)]

pub mod campaign;
pub mod experiment;
pub mod facility;
pub mod report;
pub mod scenarios;
pub mod sweep;
pub mod verify;

pub use campaign::{
    Campaign, CampaignConfig, FaultInjectionConfig, FrequencyPolicy, SensorStats, TelemetryStats,
};
pub use facility::{Archer2Facility, PowerBudget};
pub use scenarios::{run_scenarios, ScenarioSpec};
