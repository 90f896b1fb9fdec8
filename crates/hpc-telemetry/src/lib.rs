//! # hpc-telemetry
//!
//! Facility telemetry as the paper's figures read it: regular-interval
//! power time series held as plain sample vectors, segment statistics (the
//! before/after means drawn as orange lines in the paper's Figures 1-3)
//! and ASCII rendering for terminal-friendly figure output. The campaign's
//! recorded telemetry lives in `hpc-tsdb`; a [`TimeSeries`] is the owned
//! copy of one series that figure and emissions code folds over.

#![warn(missing_docs)]

pub mod ascii;
pub mod segment;
pub mod series;

pub use ascii::AsciiPlot;
pub use segment::{ChangePoint, SegmentSummary};
pub use series::TimeSeries;
