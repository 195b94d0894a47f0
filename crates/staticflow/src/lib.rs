//! Static enforcement: compile-time flow analysis, certification, and the
//! program transformations of Sections 4–5.
//!
//! Section 5: "static information flow analysis techniques can be used to
//! determine the flow of information that will occur at the time a program
//! is executed … Using static techniques to produce programs would result
//! in efficient security enforcement." This crate provides:
//!
//! * [`framework`] — the generic monotone-framework solver (lattice +
//!   transfer functions in, least fixed point out) every analysis in this
//!   crate runs on;
//! * [`dataflow`] — the one may-taint problem over the flowchart CFG that
//!   every taint certifier solves: a *faithful* abstraction of the
//!   dynamic surveillance mechanism (program-counter taint monotone along
//!   paths, as the paper's `C̄` is) or a *scoped* analysis in the style of
//!   Denning & Denning where a branch's implicit flow ends at its
//!   immediate postdominator, optionally refined by value facts, a
//!   sanction map and an initial policy;
//! * [`value`] — a constant-propagation/interval value analysis whose
//!   reachability and branch-feasibility facts refine the taint analysis
//!   ([`dataflow::analyze_refined`]) into the strictly more permissive —
//!   still sound — `Analysis::ValueRefined` certifier;
//! * [`mod@lint`] — the `flowlint` diagnostics pass: structured lints with
//!   node locations and carrier chains, rendered human-readably or as
//!   JSON by `enforce lint`;
//! * [`mod@label`] — the unwinding-style [`label::certify_lattice`] pass
//!   over any [`enf_core::label::Label`] lattice: it supplies the taint
//!   problem a per-box sanction map, so a high value reaches a lower sink
//!   only through a sanctioned `declassify` box on every carrying path
//!   (`certify::Analysis::LatticeCertified`);
//! * [`mod@certify`] — compile-time certification and the zero-overhead
//!   [`certify::CertifiedMechanism`];
//! * [`mod@schedule`] — the policy-schedule certifier: it supplies the
//!   taint problem an initial policy and the [`schedule::PolicySet`]
//!   lattice of reachable policy states, sound for every `setpolicy`
//!   schedule and honoring `declassify` relabels
//!   (`certify::Analysis::DynamicPolicy`);
//! * [`transform`] — functionally-equivalent rewrites (if-then-else →
//!   data-flow selection, assignment duplication/sinking, loop unrolling,
//!   constant folding) whose effect on mechanism completeness the paper
//!   studies in Examples 7–9;
//! * [`equiv`] — empirical functional-equivalence checking used to validate
//!   every transform;
//! * [`search`] — a heuristic transform-selection pipeline. Theorem 4 shows
//!   no algorithm can pick transforms optimally; the pipeline hill-climbs
//!   on measured completeness instead, and the benches price that search.

#![warn(missing_docs)]

pub mod certify;
pub mod dataflow;
pub mod equiv;
pub mod framework;
pub mod label;
pub mod lint;
pub mod refute;
pub mod relational;
pub mod schedule;
pub mod search;
pub mod transform;
pub mod value;

pub use certify::{certify, Analysis, Certification, CertifiedMechanism};
pub use dataflow::{analyze, analyze_refined, FlowFacts};
pub use equiv::equivalent_on;
pub use framework::{solve, DataflowProblem, Direction, Solution};
pub use label::certify_lattice;
pub use lint::{lint, lint_labeled, Lint, LintKind, LintReport};
pub use refute::{refute, verify, LeakWitness, RelationalVerdict};
pub use relational::{analyze_relational, analyze_relational_with, RelFacts};
pub use schedule::{
    analyze_schedules, analyze_schedules_with, certify_dynamic, PolicySet, SchedFact, ScheduleFacts,
};
pub use value::{analyze_values, AbsBool, AbsVal, ValueEnv, ValueFacts};
