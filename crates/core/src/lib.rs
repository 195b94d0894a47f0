//! Formal framework for security policies and protection mechanisms.
//!
//! This crate implements Section 2 of Jones & Lipton, *The Enforcement of
//! Security Policies for Computation* (SOSP 1975 / JCSS 1978): the
//! definitions of *program*, *security policy*, *protection mechanism*,
//! *soundness* and *completeness*, together with executable counterparts of
//! the paper's Theorems 1, 2 and 4 on enumerable input domains.
//!
//! # Model
//!
//! * A [`Program`] is a total function `Q: D1 × … × Dk → E`. Inputs are
//!   tuples of integers ([`V`]); outputs are any comparable type.
//! * A [`Policy`] is an information filter `I: D1 × … × Dk → 𝔐`. The central
//!   family is [`Allow`], the paper's `allow(i1, …, im)` projection.
//! * A [`Mechanism`] either returns `Q(a)` or a violation [`Notice`].
//! * [`soundness`] checks the factoring condition `M = M′ ∘ I` empirically on
//!   an enumerable [`domain`], producing witnesses on failure.
//! * [`completeness`] realizes the paper's `≥` ordering on mechanisms, and
//!   [`join`] the `M1 ∨ M2` construction of Theorem 1.
//! * [`maximal`] constructs the maximal sound mechanism of Theorem 2 on a
//!   finite domain, and demonstrates the Theorem 4 obstruction on unbounded
//!   ones.
//!
//! # Examples
//!
//! ```
//! use enf_core::{Allow, FnProgram, MechOutput, Mechanism, Grid};
//! use enf_core::maximal::MaximalMechanism;
//!
//! // Q(x1, x2) = x2 + 1, policy allow(2): information about x2 only.
//! let q = FnProgram::new(2, |a: &[i64]| a[1] + 1);
//! let policy = Allow::new(2, [2]);
//! let grid = Grid::hypercube(2, -3..=3);
//!
//! // The maximal sound mechanism accepts everywhere: Q never reveals x1.
//! let m = MaximalMechanism::build(&q, &policy, &grid);
//! assert_eq!(m.run(&[1, 2]), MechOutput::Value(3));
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ambiguity;
pub mod chaos;
pub mod checkpoint;
pub mod completeness;
pub mod domain;
pub mod error;
pub mod indexset;
pub mod integrity;
pub mod join;
pub mod json;
pub mod label;
pub mod lattice;
pub mod maximal;
pub mod mechanism;
pub mod notice;
pub mod observability;
pub mod par;
pub mod policy;
pub mod program;
pub mod quantitative;
pub mod schedule;
pub mod soundness;
pub mod value;

pub use checkpoint::{atomic_write_text, fingerprint};
pub use completeness::{
    acceptance_set, acceptance_set_with, compare, compare_with, try_acceptance_set_with,
    try_compare_with, CompletenessReport, MechOrdering,
};
pub use domain::{Explicit, Grid, InputDomain};
pub use error::{Coverage, EnfError, Verdict};
pub use indexset::IndexSet;
pub use integrity::{check_preservation, PreservationReport};
pub use join::{Join, JoinAll};
pub use json::Json;
pub use label::{
    check_soundness_lattice_with, Classification, Compartmented, IntransitiveFlow, Label,
    LatticePolicy, Level,
};
pub use maximal::MaximalMechanism;
pub use mechanism::{FnMechanism, Identity, MechOutput, Mechanism, Plug};
pub use notice::Notice;
pub use observability::{Timed, TimedProgram, WithTime};
pub use par::{CancelToken, EvalConfig};
pub use policy::{Allow, FnPolicy, Policy};
pub use program::{FnProgram, Program};
pub use quantitative::{measure_leak, LeakReport};
pub use schedule::{
    check_soundness_scheduled, try_check_soundness_scheduled, validate_scheduled_witness, Schedule,
    ScheduledObs, ScheduledProgram, ScheduledReport, ScheduledWitness,
};
pub use soundness::{
    check_protection, check_protection_with, check_soundness, check_soundness_with,
    try_check_protection_with, try_check_soundness_with, SoundnessReport,
};
pub use value::V;
