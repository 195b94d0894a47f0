//! The surveillance protection mechanism (Jones & Lipton, Section 3) and
//! its relatives.
//!
//! The surveillance mechanism associates with every variable `v` a
//! *surveillance variable* `v̄` — the set of input indices that "may have
//! effected the current value of v in some way" — and one for the program
//! counter, `C̄`. Taints propagate on assignment (`v̄ ← w̄1 ∪ … ∪ w̄s ∪ C̄`)
//! and on branch (`C̄ ← C̄ ∪ w̄1 ∪ … ∪ w̄s`); the output is released at HALT
//! only if `ȳ ∪ C̄ ⊆ J` for the policy `allow(J)`.
//!
//! Two faithful realizations are provided and tested against each other:
//!
//! * [`dynamic`] — a taint-tracking interpreter;
//! * [`mod@instrument`] — the paper's literal source-to-source construction:
//!   the mechanism *is another flowchart* over the original variables plus
//!   bitmask-encoded surveillance registers.
//!
//! Variants:
//!
//! * [`highwater`] — the high-water-mark baseline `M_h` (no forgetting:
//!   assignment accumulates instead of replacing), which Section 4 proves
//!   strictly less complete than surveillance;
//! * [`timed`] — the Theorem 3′ mechanism `M′` that checks `C̄ ⊆ J` at
//!   every decision box and aborts immediately, remaining sound even when
//!   running time is observable;
//! * [`mod@explain`] — owner-facing violation explanations: the carrier chain
//!   of assignments and branches through which an offending input reached
//!   the failed check;
//! * [`mls`] — multi-level-security labels (Denning's lattice model, the
//!   paper's reference \[2\]) compiled down to `allow(J)` per clearance;
//! * [`monitor`] — the disciplines above as pluggable observers on the
//!   shared `enf_flowchart` stepper, plus the structured per-step
//!   [`monitor::TraceEvent`] stream behind `explain` and `enforce trace`;
//! * [`vm`] — the same disciplines fused onto the register-bytecode VM
//!   (`enf_flowchart::bytecode`): per-instruction precompiled taint
//!   sources, bit-identical verdicts, an order of magnitude faster; sweeps
//!   run it on lane groups, up to 64 inputs that share a path per
//!   dispatch.

#![warn(missing_docs)]

pub mod dynamic;
pub mod explain;
pub mod highwater;
pub mod instrument;
pub mod mechanism;
pub mod mls;
pub mod monitor;
pub mod state;
pub mod timed;
pub mod vm;

pub use dynamic::{run_surveillance, CheckAt, Style, SurvConfig, SurvOutcome};
pub use explain::{explain, Explanation, FlowEvent};
pub use instrument::{instrument, Instrumented};
pub use mechanism::{HighWater, Surveillance};
pub use monitor::{run_trace, EventMonitor, TaintMonitor, TraceEvent, TraceKind};
pub use state::TaintState;
pub use timed::TimedMechanism;
pub use vm::{
    explain_vm, run_surveillance_rows, run_surveillance_vm, run_trace_vm, VmSurveillance,
};
