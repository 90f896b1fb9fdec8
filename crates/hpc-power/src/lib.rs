//! # hpc-power
//!
//! Power models for the ARCHER2 reproduction: CPU sockets with DVFS and AMD
//! determinism-mode semantics, compute nodes, Slingshot switches, coolant
//! distribution units, cabinet overheads and file systems.
//!
//! ## The socket model
//!
//! Each EPYC-7742-class socket is modelled as
//!
//! ```text
//! P_socket = P_io  +  v_part² · V(f)² · ( S_core · leak  +  a · K · f )
//! ```
//!
//! * `P_io` — uncore/IO-die power, frequency-invariant;
//! * `V(f)` — the voltage/frequency curve (piecewise linear over P-states);
//! * `v_part` — this part's required voltage relative to the worst-case part
//!   (the *silicon lottery*: a typical part needs ~5 % less voltage);
//! * `leak` — this part's leakage factor (second lottery axis);
//! * `a` — application activity factor (how hard the pipelines are driven);
//! * `K` — dynamic power coefficient (W per GHz at reference voltage).
//!
//! ## Determinism modes (AMD whitepaper semantics)
//!
//! * **Power determinism** (ARCHER2's original BIOS default): every part runs
//!   the *uniform worst-case voltage schedule* and boosts until it reaches
//!   the package power cap or the all-core boost ceiling. Power draw is
//!   uniform and maximal; per-part frequency varies slightly with leakage.
//! * **Performance determinism**: frequency is pinned to the guaranteed
//!   deterministic level (slightly below the power-determinism fleet mean),
//!   and each part runs at *its own* minimum stable voltage. A typical part
//!   therefore draws ~V²-worth less power — the mechanism behind the paper's
//!   7 % cabinet-level saving for ≤1 % performance impact (§4.1).
//!
//! The ~2.8 GHz effective all-core boost the paper reports in §4.2 is the
//! model's `f_allcore_ceiling`; capping the clock at 2.0 GHz removes both the
//! frequency *and* the voltage headroom, which is why the measured energy
//! savings (7–20 %) are larger than the naive frequency ratio suggests.

#![warn(missing_docs)]

pub mod cooling;
pub mod infra;
pub mod node;
pub mod pstate;
pub mod silicon;
pub mod socket;
pub mod switch;

pub use cooling::{CoolingPlant, CoolingPower};
pub use infra::{CabinetOverheadModel, CduModel, FilesystemModel};
pub use node::{NodeActivity, NodePowerBreakdown, NodePowerModel, NodeSpec};
pub use pstate::{FreqSetting, PState, VoltageCurve};
pub use silicon::{SiliconLottery, SiliconSample};
pub use socket::{DeterminismMode, SocketPowerModel, SocketSpec};
pub use switch::{SwitchPowerModel, SwitchSpec};
