//! # enforcement — security policies and protection mechanisms
//!
//! A Rust reproduction of Anita K. Jones & Richard J. Lipton, *The
//! Enforcement of Security Policies for Computation* (SOSP 1975; JCSS
//! 17:35–55, 1978).
//!
//! The paper gives the security field its load-bearing vocabulary — a
//! *program* is a total function, a *security policy* is an information
//! filter, a *protection mechanism* is a gatekeeper returning either the
//! program's output or a violation notice, and a mechanism is **sound**
//! exactly when it factors through the policy's filtered view. On top of
//! those definitions it builds the **surveillance mechanism** (dynamic
//! taint tracking with a labeled program counter), proves it sound with
//! and without observable running time, orders mechanisms by
//! **completeness**, and shows the maximal sound mechanism exists but
//! cannot be effectively constructed.
//!
//! This workspace makes all of that executable:
//!
//! * [`core`] — the formal framework: programs, policies,
//!   mechanisms, empirical soundness checking, the completeness order,
//!   joins (Theorem 1), the finite-domain maximal mechanism (Theorem 2)
//!   and the Theorem 4 obstruction.
//! * [`flowchart`] — the paper's flowchart language:
//!   parser, interpreter with observable step counts, analyses, and every
//!   program the paper discusses.
//! * [`surveillance`] — the surveillance mechanism as a
//!   taint-tracking interpreter *and* as the paper's literal
//!   source-to-source instrumentation; the timed variant M′; the
//!   high-water-mark baseline.
//! * [`staticflow`] — static certification and the transform
//!   library of Examples 7–9, plus the heuristic search Theorem 4 caps.
//! * [`policy`] — the typed embedding surface: untrusted data
//!   enters as `Tainted`, only monitor-backed paths mint `Verified`, and
//!   releases flow through capability-gated sinks into a tamper-evident
//!   audit trail.
//! * [`minsky`] — Fenton's data-mark machine and the
//!   negative-inference leak (Example 1).
//! * [`filesys`] — the Example 2 file system with its
//!   content-dependent policy and leaky-notice pitfall (Example 4).
//! * [`channels`] — the observability postulate's covert
//!   channels: timing, tape seeks, page faults, and the n^k → n·k
//!   password attack.
//! * [`serve`] — enforcement as a service: a fault-tolerant
//!   multi-tenant policy server (supervised workers, admission control,
//!   crash-recoverable jobs) with a retrying client and a deterministic
//!   fault-injecting proxy.
//!
//! # Quickstart
//!
//! ```
//! use enforcement::prelude::*;
//!
//! // A program leaking x1 only on the x2 == 0 path…
//! let fc = parse("program(2) { y := x1; if x2 == 0 { y := 0; } }").unwrap();
//! let program = FlowchartProgram::new(fc);
//!
//! // …under the policy "reveal x2 only".
//! let policy = Allow::new(2, [2]);
//!
//! // The surveillance mechanism enforces it; check soundness empirically.
//! let mech = Surveillance::new(program, policy.allowed());
//! let grid = Grid::hypercube(2, -3..=3);
//! assert!(check_soundness(&mech, &policy, &grid, false).is_sound());
//!
//! // It accepts exactly the runs where the denied value was forgotten.
//! assert!(mech.run(&[9, 0]).is_value());
//! assert!(mech.run(&[9, 5]).is_violation());
//! ```

#![warn(missing_docs)]

pub use enf_channels as channels;
pub use enf_core as core;
pub use enf_filesys as filesys;
pub use enf_flowchart as flowchart;
pub use enf_minsky as minsky;
pub use enf_policy as policy;
pub use enf_serve as serve;
pub use enf_static as staticflow;
pub use enf_surveillance as surveillance;

/// The items most programs need, re-exported flat.
///
/// One `use enforcement::prelude::*;` covers the whole embedding surface:
/// the formal framework (programs, policies, mechanisms, soundness
/// checking and its verdict types), the flowchart language, the dynamic
/// and static enforcement engines with their verdict/witness types, and
/// the typed `enf_policy` pipeline (`Tainted` → `Verified` → `Sink` with
/// the audit trail).
pub mod prelude {
    pub use enf_core::{
        check_protection, check_soundness, check_soundness_scheduled, compare,
        try_check_soundness_with, validate_scheduled_witness, Allow, CancelToken, Coverage,
        EnfError, EvalConfig, FnMechanism, FnPolicy, FnProgram, Grid, IndexSet, InputDomain, Join,
        MaximalMechanism, MechOrdering, MechOutput, Mechanism, Notice, Policy, Program, Schedule,
        ScheduledReport, ScheduledWitness, Timed, TimedProgram, Verdict, WithTime, V,
    };
    pub use enf_flowchart::{parse, Flowchart, FlowchartProgram};
    pub use enf_policy::{
        verify_chain, AuditLog, Capability, ChainVerdict, Enforcer, Evidence, FlushPolicy, Refusal,
        RunVerdict, Sink, Tainted, Verified,
    };
    pub use enf_static::{
        certify, refute, verify, Analysis, Certification, LeakWitness, RelationalVerdict,
    };
    pub use enf_surveillance::{instrument, Surveillance, TimedMechanism};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_is_usable() {
        let fc = parse("program(1) { y := x1; }").unwrap();
        let p = FlowchartProgram::new(fc);
        let m = Surveillance::new(p, IndexSet::single(1));
        assert!(m.run(&[3]).is_value());
    }

    #[test]
    fn prelude_covers_the_whole_embedding_surface() {
        // One `use` suffices for the typed pipeline, the certifiers, the
        // relational refuter, and the scheduled oracle — no reaching into
        // sub-crates.
        let fc = parse("program(1) { y := x1; }").unwrap();
        assert!(certify(&fc, IndexSet::single(1), Analysis::Surveillance).is_certified());
        let verdict = verify(
            &fc,
            IndexSet::single(1),
            &Grid::hypercube(1, -1..=1),
            100,
            &EvalConfig::default(),
            &CancelToken::new(),
        );
        assert!(matches!(verdict, Ok(RelationalVerdict::Certified)));
        let report = check_soundness_scheduled(
            &FlowchartProgram::new(fc.clone()),
            &Allow::new(1, [1]),
            &Grid::hypercube(1, -1..=1),
            &EvalConfig::default(),
            Some(2),
        );
        assert!(matches!(report, ScheduledReport::Sound { .. }));
        let mut log = AuditLog::in_memory();
        let enforcer = Enforcer::new(fc, IndexSet::single(1)).unwrap();
        let cap = Capability::issue("test", &mut log).unwrap();
        match enforcer.surveil(Tainted::new(vec![3]), &mut log).unwrap() {
            RunVerdict::Released(v) => {
                assert_eq!(Sink::new(cap, &mut log).release(v).unwrap(), 3);
            }
            RunVerdict::Refused(r) => panic!("refused: {r:?}"),
        }
        assert!(verify_chain(&log.render()).is_intact());
    }
}
