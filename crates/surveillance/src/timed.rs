//! Theorem 3′: the mechanism as a timed observable.
//!
//! When running time is observable, the right object of study is the
//! mechanism-as-program: its output is the pair (result-or-notice, steps),
//! and soundness means *that pair* factors through the policy view.
//! [`TimedMechanism`] wraps the dynamic engine accordingly; the
//! instrumented flowchart of [`mod@crate::instrument`] provides the same view
//! through its own `Program` impl (with the literal flowchart's step
//! count).
//!
//! Theorem 3′'s content, checkable here: with the per-decision guard the
//! pair is constant on every `allow(J)`-class; without it, the step count
//! (or even termination) can vary within a class — a covert channel.

use crate::dynamic::{run_surveillance, SurvConfig, SurvOutcome};
use enf_core::{IndexSet, MechOutput, Notice, Program, Timed, V};
use enf_flowchart::graph::Flowchart;
use enf_flowchart::interp::ExecValue;
use std::sync::Arc;

/// A surveillance run exposed as a program whose output includes the
/// mechanism's own running time.
#[derive(Clone, Debug)]
pub struct TimedMechanism {
    fc: Arc<Flowchart>,
    cfg: SurvConfig,
}

impl TimedMechanism {
    /// Theorem 3′'s M′ (per-decision checks) as a timed observable.
    pub fn new(fc: Flowchart, allowed: IndexSet) -> Self {
        TimedMechanism::from_config(fc, SurvConfig::timed(allowed))
    }

    /// Theorem 3's M (HALT-only check) as a timed observable — the thing
    /// Theorem 3 does *not* claim is sound; provided for the contrast
    /// experiments.
    pub fn halt_checked(fc: Flowchart, allowed: IndexSet) -> Self {
        TimedMechanism::from_config(fc, SurvConfig::surveillance(allowed))
    }

    /// `fc` under any discipline `cfg`, whose fuel bound it keeps.
    pub fn from_config(fc: Flowchart, cfg: SurvConfig) -> Self {
        TimedMechanism {
            fc: Arc::new(fc),
            cfg,
        }
    }

    /// Replaces the fuel bound.
    #[must_use]
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.cfg = self.cfg.with_fuel(fuel);
        self
    }

    /// The run configuration in use.
    pub fn config(&self) -> &SurvConfig {
        &self.cfg
    }
}

impl Program for TimedMechanism {
    type Out = Timed<MechOutput<ExecValue>>;

    fn arity(&self) -> usize {
        self.fc.arity()
    }

    fn eval(&self, input: &[V]) -> Timed<MechOutput<ExecValue>> {
        match run_surveillance(&self.fc, input, &self.cfg) {
            SurvOutcome::Accepted { y, steps } => {
                Timed::new(MechOutput::Value(ExecValue::Value(y)), steps)
            }
            SurvOutcome::Violation { steps, .. } => {
                Timed::new(MechOutput::Violation(Notice::lambda()), steps)
            }
            SurvOutcome::OutOfFuel => {
                Timed::new(MechOutput::Value(ExecValue::Diverged), self.cfg.fuel)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enf_core::{check_soundness, Allow, Grid, Identity};
    use enf_flowchart::corpus;
    use enf_flowchart::generate::{random_flowchart, GenConfig};
    use enf_flowchart::parse;

    fn sound(tm: &TimedMechanism, policy: &Allow, grid: &Grid) -> bool {
        check_soundness(&Identity::new(tm), policy, grid, false).is_sound()
    }

    #[test]
    fn theorem_3_prime_on_timing_constant() {
        let pp = corpus::timing_constant();
        let g = Grid::hypercube(1, 0..=6);
        let m_prime = TimedMechanism::new(pp.flowchart.clone(), pp.policy.allowed());
        assert!(sound(&m_prime, &pp.policy, &g), "M′ must be sound");
        let m = TimedMechanism::halt_checked(pp.flowchart, pp.policy.allowed());
        assert!(!sound(&m, &pp.policy, &g), "M leaks via its running time");
    }

    #[test]
    fn theorem_3_prime_property_over_random_programs() {
        // M′'s (output, steps) pair must be constant on every policy class
        // for random terminating programs and several policies.
        let gen_cfg = GenConfig::default();
        let g = Grid::hypercube(2, -1..=1);
        for seed in 300..360 {
            let fc = random_flowchart(seed, &gen_cfg);
            for j in [IndexSet::empty(), IndexSet::single(1), IndexSet::single(2)] {
                let policy = Allow::from_set(2, j);
                let m = TimedMechanism::new(fc.clone(), j);
                assert!(
                    sound(&m, &policy, &g),
                    "M′ unsound on seed {seed} with J = {j}"
                );
            }
        }
    }

    #[test]
    fn theorem_3_prime_closes_termination_channel() {
        let fc = parse("program(1) { while x1 != 0 { skip; } y := 1; }").unwrap();
        let g = Grid::hypercube(1, 0..=4);
        let policy = Allow::none(1);
        let m_prime = TimedMechanism::new(fc.clone(), IndexSet::empty()).with_fuel(500);
        assert!(sound(&m_prime, &policy, &g));
        let m = TimedMechanism::halt_checked(fc, IndexSet::empty()).with_fuel(500);
        assert!(!sound(&m, &policy, &g));
    }

    #[test]
    fn m_prime_accepts_fully_allowed_programs() {
        let fc = parse("program(2) { if x1 > x2 { y := x1; } else { y := x2; } }").unwrap();
        let m = TimedMechanism::new(fc, IndexSet::full(2));
        let out = m.eval(&[3, 5]);
        assert_eq!(out.value, MechOutput::Value(ExecValue::Value(5)));
        assert!(out.steps > 0);
    }

    #[test]
    fn violation_time_is_class_constant_not_global() {
        // Different *allowed* prefixes may reach the failing check at
        // different times — that is fine; only within-class variation is a
        // leak.
        let fc = parse(
            "program(2) {
                r1 := x2;
                while r1 > 0 { r1 := r1 - 1; }
                if x1 == 0 { y := 1; } else { y := 2; }
            }",
        )
        .unwrap();
        let policy = Allow::new(2, [2]);
        let g = Grid::new(vec![0..=3, 0..=3]);
        let m = TimedMechanism::new(fc, IndexSet::single(2));
        assert!(sound(&m, &policy, &g));
        // And the violation step count genuinely differs across classes.
        let t0 = m.eval(&[0, 0]).steps;
        let t3 = m.eval(&[0, 3]).steps;
        assert_ne!(t0, t3);
    }
}
