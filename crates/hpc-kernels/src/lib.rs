//! # hpc-kernels
//!
//! Real, runnable parallel kernels spanning the memory-bound ↔ compute-bound
//! spectrum that §4.2 of the paper turns on: "if application performance is
//! limited by data transfer rates from memory to the processor rather than
//! the rate of instruction execution, then [reducing the clock] may not have
//! a large detrimental effect on performance".
//!
//! Each kernel reports its analytic flop and byte counts, so the roofline
//! harness ([`roofline`]) can classify it by operational intensity — the
//! ground truth behind the β (compute-bound fraction) parameters the
//! workload models use. The unit tests check each kernel's answer and the
//! roofline class it lands in.
//!
//! Parallelism is Rayon data-parallelism throughout: no hand-rolled thread
//! pools, data-race freedom by construction.

#![warn(missing_docs)]

pub mod dgemm;
pub mod fft;
pub mod nbody;
pub mod roofline;
pub mod spmv;
pub mod stencil;
pub mod triad;

pub use dgemm::Dgemm;
pub use fft::{fft, Complex, FftBatch};
pub use nbody::NBody;
pub use roofline::{KernelCounts, KernelProfile, MachineBalance, RooflineClass};
pub use spmv::CsrMatrix;
pub use stencil::Jacobi3d;
pub use triad::Triad;
