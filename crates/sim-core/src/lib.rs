//! # sim-core
//!
//! Deterministic discrete-event simulation (DES) engine used by every other
//! crate in the `archer2-repro` workspace.
//!
//! The ARCHER2 reproduction simulates a 5,860-node facility over calendar
//! months, so the engine is built around three requirements:
//!
//! 1. **Determinism** — the same seed must produce bit-identical results on
//!    every platform and every run, so experiments in `EXPERIMENTS.md` are
//!    reproducible. All randomness flows through the [`rng`] module
//!    (SplitMix64 / xoshiro256**) rather than platform RNGs, and the event
//!    queue breaks timestamp ties with a monotone sequence number.
//! 2. **Calendar awareness** — the paper's figures are labelled with real
//!    months (Dec 2021 – Apr 2022, etc.). [`time::SimTime`] is an integer
//!    second count with calendar helpers so simulated series can be labelled
//!    the same way.
//! 3. **Cheap statistics** — months of 15-minute power samples are summarised
//!    online ([`stats`]) without storing gigabytes of state.
//!
//! The engine is deliberately free of I/O, threads and interior mutability:
//! a simulation is a value you step, which keeps property-based testing
//! (proptest) straightforward.

#![warn(missing_docs)]

pub mod dist;
pub mod event;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod time;

pub use dist::{Categorical, Distribution, Exponential, LogNormal, Normal, Uniform, Weibull};
pub use event::{EventQueue, ScheduledEvent};
pub use rng::{Rng, SplitMix64, Xoshiro256StarStar};
pub use sim::{Simulation, StepOutcome, World};
pub use stats::{Histogram, OnlineStats};
pub use time::{SimDuration, SimTime, Stamp};
