//! Measurement utilities for the experiment harnesses: streaming statistics,
//! time series, aligned tables, ASCII line charts used to render the
//! paper's figures in a terminal — and the migration trace spine
//! ([`TraceRecorder`]), which folds a migration's typed effect stream into
//! its [`MigrationReport`](dvelm_migrate::MigrationReport) and per-phase
//! timeline.

#![forbid(unsafe_code)]

pub mod chart;
pub mod series;
pub mod stats;
pub mod table;
pub mod trace;

pub use chart::AsciiChart;
pub use series::TimeSeries;
pub use stats::{percentile, Summary, Welford};
pub use table::Table;
pub use trace::{PhaseSpan, TraceRecorder};
