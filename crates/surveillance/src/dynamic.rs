//! The taint-tracking interpreter realizing the surveillance mechanism.
//!
//! One engine covers the paper's three dynamic mechanisms, selected by two
//! knobs:
//!
//! * [`Style`]: `Replace` (surveillance — assignment *replaces* the target's
//!   taint, enabling "forgetting") or `Accumulate` (high-water mark — taints
//!   only ever grow);
//! * [`CheckAt`]: `Halt` (Theorem 3's M: check `ȳ ∪ C̄ ⊆ J` at HALT) or
//!   `EveryDecision` (Theorem 3′'s M′: additionally check `C̄ ⊆ J` at each
//!   decision and abort immediately, which keeps the mechanism sound when
//!   running time — and even termination — is observable).
//!
//! # Divergence
//!
//! A run that exhausts its fuel reports [`SurvOutcome::OutOfFuel`]; the
//! mechanism adapters map it to the program's own `Diverged` output. For
//! `CheckAt::Halt` this opens the classic *termination channel* (a loop
//! guarded by denied data diverges or halts depending on the secret), so
//! Theorem 3 soundness is stated — and property-tested — for terminating
//! programs. `CheckAt::EveryDecision` closes the channel: a loop guard
//! tainted with denied data is killed before it can branch.

use crate::monitor::TaintMonitor;
use enf_core::{IndexSet, Schedule, V};
use enf_flowchart::graph::{Flowchart, NodeId};
use enf_flowchart::stepper::Stepper;

/// Assignment taint discipline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Style {
    /// Surveillance: `v̄ ← w̄1 ∪ … ∪ w̄s ∪ C̄` (the old `v̄` is forgotten).
    Replace,
    /// High-water mark: `v̄ ← v̄ ∪ w̄1 ∪ … ∪ w̄s ∪ C̄`.
    Accumulate,
}

/// Where the release check happens.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckAt {
    /// Only at HALT (Theorem 3's M; time must be unobservable).
    Halt,
    /// At every decision box as well, aborting immediately (Theorem 3′'s
    /// M′; sound under observable time).
    EveryDecision,
}

/// Configuration of a surveillance run.
#[derive(Clone, Copy, Debug)]
pub struct SurvConfig {
    /// The allowed index set `J` of the policy `allow(J)`.
    pub allowed: IndexSet,
    /// Assignment discipline.
    pub style: Style,
    /// Check placement.
    pub check: CheckAt,
    /// Fuel bound on executed boxes.
    pub fuel: u64,
}

impl SurvConfig {
    /// Surveillance M for `allow(J)` (Theorem 3).
    pub fn surveillance(allowed: IndexSet) -> Self {
        SurvConfig {
            allowed,
            style: Style::Replace,
            check: CheckAt::Halt,
            fuel: 1_000_000,
        }
    }

    /// Timed surveillance M′ for `allow(J)` (Theorem 3′).
    pub fn timed(allowed: IndexSet) -> Self {
        SurvConfig {
            allowed,
            style: Style::Replace,
            check: CheckAt::EveryDecision,
            fuel: 1_000_000,
        }
    }

    /// High-water mark M_h for `allow(J)`.
    pub fn highwater(allowed: IndexSet) -> Self {
        SurvConfig {
            allowed,
            style: Style::Accumulate,
            check: CheckAt::Halt,
            fuel: 1_000_000,
        }
    }

    /// Replaces the fuel bound.
    #[must_use]
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }
}

/// Result of a surveillance run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SurvOutcome {
    /// The check passed; the program output is released.
    Accepted {
        /// The released value of `y`.
        y: V,
        /// Boxes executed by the *mechanism* (original boxes; the
        /// instrumented flowchart form has its own, larger count).
        steps: u64,
    },
    /// A check failed; the output is suppressed.
    Violation {
        /// Where the failing check fired (a decision box for
        /// `CheckAt::EveryDecision` aborts, a HALT box otherwise).
        site: NodeId,
        /// The offending taint set (`C̄` at a decision, `ȳ ∪ C̄` at HALT).
        taint: IndexSet,
        /// Boxes executed up to and including the check.
        steps: u64,
    },
    /// Fuel exhausted before any check fired.
    OutOfFuel,
}

impl SurvOutcome {
    /// The released value, if accepted.
    pub fn accepted(&self) -> Option<V> {
        match self {
            SurvOutcome::Accepted { y, .. } => Some(*y),
            _ => None,
        }
    }

    /// Whether the run ended in a violation.
    pub fn is_violation(&self) -> bool {
        matches!(self, SurvOutcome::Violation { .. })
    }

    /// Boxes executed before the run ended, when it ended at a check
    /// (`None` for [`SurvOutcome::OutOfFuel`], whose step count is the
    /// caller's fuel bound).
    pub fn steps(&self) -> Option<u64> {
        match self {
            SurvOutcome::Accepted { steps, .. } | SurvOutcome::Violation { steps, .. } => {
                Some(*steps)
            }
            SurvOutcome::OutOfFuel => None,
        }
    }

    /// Machine-readable lowercase tag, stable across releases — audit
    /// records and the trace JSONL verdict line key on it.
    pub fn tag(&self) -> &'static str {
        match self {
            SurvOutcome::Accepted { .. } => "accepted",
            SurvOutcome::Violation { .. } => "violation",
            SurvOutcome::OutOfFuel => "out_of_fuel",
        }
    }
}

/// Runs a flowchart under the surveillance discipline.
///
/// # Examples
///
/// ```
/// use enf_core::IndexSet;
/// use enf_flowchart::parse;
/// use enf_surveillance::dynamic::{run_surveillance, SurvConfig};
///
/// // y := x1 under allow(2): the output is tainted {1} ⊄ {2}.
/// let fc = parse("program(2) { y := x1; }").unwrap();
/// let out = run_surveillance(&fc, &[5, 0], &SurvConfig::surveillance(IndexSet::single(2)));
/// assert!(out.is_violation());
/// ```
pub fn run_surveillance(fc: &Flowchart, inputs: &[V], cfg: &SurvConfig) -> SurvOutcome {
    Stepper::new(fc)
        .with_fuel(cfg.fuel)
        .run(inputs, &mut TaintMonitor::new(fc, *cfg))
}

/// Runs a flowchart under the surveillance discipline with an external
/// policy schedule resolving `setpolicy p{i}` slot boxes. The schedule's
/// initial policy replaces `cfg.allowed` as the starting active set.
pub fn run_surveillance_scheduled(
    fc: &Flowchart,
    inputs: &[V],
    cfg: &SurvConfig,
    schedule: &Schedule,
) -> SurvOutcome {
    Stepper::new(fc).with_fuel(cfg.fuel).run(
        inputs,
        &mut TaintMonitor::new(fc, *cfg).with_schedule(schedule.clone()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use enf_flowchart::parse;

    fn surv(src: &str, inputs: &[V], allowed: &[usize]) -> SurvOutcome {
        let fc = parse(src).unwrap();
        run_surveillance(
            &fc,
            inputs,
            &SurvConfig::surveillance(allowed.iter().copied().collect()),
        )
    }

    #[test]
    fn allowed_direct_flow_accepts() {
        let out = surv("program(2) { y := x2 + 1; }", &[9, 4], &[2]);
        assert_eq!(out.accepted(), Some(5));
    }

    #[test]
    fn denied_direct_flow_violates() {
        let out = surv("program(2) { y := x1; }", &[9, 4], &[2]);
        assert!(out.is_violation());
    }

    #[test]
    fn constants_are_untainted() {
        let out = surv("program(2) { y := 7; }", &[9, 4], &[]);
        assert_eq!(out.accepted(), Some(7));
    }

    #[test]
    fn implicit_flow_through_pc_is_caught() {
        // y never reads x1, but the branch does: C̄ = {1} at HALT.
        let src = "program(1) { if x1 == 0 { y := 0; } else { y := 1; } }";
        assert!(surv(src, &[0], &[]).is_violation());
        assert!(surv(src, &[1], &[]).is_violation());
    }

    #[test]
    fn forgetting_clears_old_taint() {
        // y := x1 then y := 0 under a branch on x2: final ȳ = {2} (the PC),
        // x1 is forgotten.
        let src = "program(2) { y := x1; if x2 == 0 { y := 0; } }";
        assert_eq!(surv(src, &[9, 0], &[2]).accepted(), Some(0));
        // On the other path y keeps x1's taint.
        assert!(surv(src, &[9, 5], &[2]).is_violation());
    }

    #[test]
    fn pc_taint_is_monotone_through_join_points() {
        // The paper's C̄ never shrinks: after a branch on x1 rejoins, an
        // assignment of a constant still picks up {1}.
        let src = "program(2) { if x1 == 0 { r1 := 1; } else { r1 := 2; } y := 7; }";
        assert!(surv(src, &[0, 0], &[2]).is_violation());
        assert!(surv(src, &[3, 0], &[2]).is_violation());
    }

    #[test]
    fn violation_reports_site_and_taint() {
        let fc = parse("program(1) { y := x1; }").unwrap();
        match run_surveillance(&fc, &[3], &SurvConfig::surveillance(IndexSet::empty())) {
            SurvOutcome::Violation { site, taint, .. } => {
                assert_eq!(fc.node(site), &enf_flowchart::graph::Node::Halt);
                assert_eq!(taint, IndexSet::single(1));
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn ite_expression_taints_with_selector() {
        // Example 8 transformed: the ite carries both taints on every run.
        let src = "program(2) { y := ite(x2 == 1, 1, x1); }";
        assert!(surv(src, &[5, 1], &[2]).is_violation());
        assert!(surv(src, &[5, 0], &[2]).is_violation());
    }

    #[test]
    fn ite_on_register_frees_pc() {
        // Example 7 transformed: taint flows into r1 but never into y or C̄.
        let src = "program(2) { r1 := ite(x1 == 1, 1, 2); y := 1; }";
        assert_eq!(surv(src, &[1, 0], &[2]).accepted(), Some(1));
        assert_eq!(surv(src, &[9, 0], &[2]).accepted(), Some(1));
    }

    #[test]
    fn timed_check_aborts_at_decision() {
        let fc = parse("program(1) { if x1 == 0 { y := 0; } else { y := 0; } }").unwrap();
        let cfg = SurvConfig::timed(IndexSet::empty());
        let a = run_surveillance(&fc, &[0], &cfg);
        let b = run_surveillance(&fc, &[5], &cfg);
        // Both runs die at the same decision after the same number of
        // steps: nothing, including time, distinguishes them.
        assert_eq!(a, b);
        match a {
            SurvOutcome::Violation { steps, .. } => assert_eq!(steps, 2),
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn timed_check_closes_the_termination_channel() {
        // while x1 != 0 {} — under CheckAt::Halt the x1 = 0 run violates at
        // HALT while x1 ≠ 0 diverges (a leak); under EveryDecision both die
        // identically at the guard.
        let fc = parse("program(1) { while x1 != 0 { skip; } y := 1; }").unwrap();
        let halt_cfg = SurvConfig::surveillance(IndexSet::empty()).with_fuel(500);
        let zero = run_surveillance(&fc, &[0], &halt_cfg);
        let nonzero = run_surveillance(&fc, &[1], &halt_cfg);
        assert!(zero.is_violation());
        assert_eq!(nonzero, SurvOutcome::OutOfFuel);
        let timed_cfg = SurvConfig::timed(IndexSet::empty()).with_fuel(500);
        assert_eq!(
            run_surveillance(&fc, &[0], &timed_cfg),
            run_surveillance(&fc, &[1], &timed_cfg)
        );
    }

    #[test]
    fn highwater_never_forgets() {
        let src = "program(2) { y := x1; if x2 == 0 { y := 0; } }";
        let fc = parse(src).unwrap();
        let cfg = SurvConfig::highwater(IndexSet::single(2));
        assert!(run_surveillance(&fc, &[9, 0], &cfg).is_violation());
        assert!(run_surveillance(&fc, &[9, 5], &cfg).is_violation());
    }

    #[test]
    fn highwater_accepts_clean_programs() {
        let fc = parse("program(2) { y := x2 * 2; }").unwrap();
        let cfg = SurvConfig::highwater(IndexSet::single(2));
        assert_eq!(run_surveillance(&fc, &[9, 3], &cfg).accepted(), Some(6));
    }

    #[test]
    fn fuel_exhaustion_reported() {
        let fc = parse("program(0) { while true { skip; } }").unwrap();
        let cfg = SurvConfig::surveillance(IndexSet::empty()).with_fuel(50);
        assert_eq!(run_surveillance(&fc, &[], &cfg), SurvOutcome::OutOfFuel);
    }

    #[test]
    fn allowed_decision_passes_timed_check() {
        let fc = parse("program(2) { if x2 == 0 { y := 1; } else { y := 2; } }").unwrap();
        let cfg = SurvConfig::timed(IndexSet::single(2));
        assert_eq!(run_surveillance(&fc, &[9, 0], &cfg).accepted(), Some(1));
        assert_eq!(run_surveillance(&fc, &[9, 3], &cfg).accepted(), Some(2));
    }

    #[test]
    fn assigning_to_input_retaints_it() {
        // x1 := x2 makes later reads of x1 carry {2} (plus nothing else).
        let src = "program(2) { x1 := x2; y := x1; }";
        assert_eq!(surv(src, &[9, 4], &[2]).accepted(), Some(4));
    }
}
