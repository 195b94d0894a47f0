//! Experiment harness regenerating every claim of the paper.
//!
//! The paper has no numbered tables or figures — its evaluation is a set
//! of worked examples, theorems and quantitative claims. DESIGN.md maps
//! each to an experiment id (E1–E24, plus extensions X1–X5); this crate implements them as
//! functions returning [`report::Table`]s, exposes one binary per
//! experiment family (`exp_*`), and an `exp_all` binary that regenerates
//! the data behind EXPERIMENTS.md. Criterion benches under `benches/`
//! price the mechanisms (instrumentation overhead, analysis scaling,
//! maximal-mechanism construction cost, attack work factors).

#![warn(missing_docs)]

pub mod audit;
pub mod certify_scaling;
pub mod checkpoint;
pub mod experiments;
pub mod lattice_eval;
pub mod relational;
pub mod report;
pub mod schedule_eval;
pub mod serve_eval;
pub mod stepper;
pub mod throughput;
pub mod vmspeed;

pub use report::Table;
