//! Bounded leak refutation: a deterministic search for a *witness pair*.
//!
//! Certification ([`mod@crate::certify`]) can only answer "certified" or
//! "don't know" — a rejection names a suspicious taint, not a proof that
//! the program actually leaks. This module decides the third case on a
//! finite domain: it looks for a pair of inputs that agree on `J` and
//! whose runs release different values (or show different divergence
//! behaviour). A hit is a constructive refutation of soundness — precisely
//! a [`Witness`](enf_core::soundness) in the sense of `check_soundness`,
//! but found by the static layer and replayable on demand.
//!
//! The program is sound for `allow(J)` exactly when, run as its own
//! mechanism, it is constant on every `J`-class (PAPER.md §1, item 2), so
//! [`refute`] needs no pair domain: it is the soundness sweep
//! ([`enf_core::try_check_soundness_with`]) of the bare compiled program,
//! and its witness is that sweep's first conflict. The witness is
//! bit-identical for any thread count, the determinism contract the rest
//! of the workspace's parallel sweeps keep, and the sweep is linear in
//! `|D|`.
//!
//! [`verify`] combines both layers into the three-valued verdict
//! [`RelationalVerdict`]: `Certified` (relational analysis proves
//! noninterference), `Leak` (replay-validated witness pair), or `Unknown`
//! (rejected but no counterexample on the searched domain — on an
//! exhaustively enumerated grid this means the program *is* sound there,
//! which is what makes the verdict differentially honest against
//! `check_soundness`). A sweep cut short by its [`CancelToken`] reports
//! the first conflict of the inputs it swept, or `Unknown` with how many
//! it checked.

use crate::certify::{certify, Analysis, Certification};
use enf_core::{
    try_check_soundness_with, Allow, CancelToken, Coverage, EnfError, EvalConfig, FnMechanism,
    IndexSet, InputDomain, MechOutput, SoundnessReport, V,
};
use enf_flowchart::bytecode::Compiled;
use enf_flowchart::graph::Flowchart;
use enf_flowchart::interp::{run, ExecConfig, ExecValue, Outcome};

/// A replay-validated counterexample to soundness under `allow(J)`: two
/// inputs agreeing on `J` with observably different outcomes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeakWitness {
    /// First run's inputs.
    pub a: Vec<V>,
    /// Second run's inputs (equal to `a` on every index in `J`).
    pub b: Vec<V>,
    /// First run's released outcome (`Diverged` = out of fuel).
    pub out_a: ExecValue,
    /// Second run's released outcome.
    pub out_b: ExecValue,
}

impl LeakWitness {
    /// Re-runs both executions and checks every part of the claim: the
    /// inputs agree on `J`, differ somewhere, and the recorded outcomes
    /// are reproduced and distinct.
    pub fn replays(&self, fc: &Flowchart, allowed: IndexSet, fuel: u64) -> bool {
        let agree = allowed
            .iter()
            .all(|i| self.a.get(i - 1) == self.b.get(i - 1));
        let cfg = ExecConfig::with_fuel(fuel);
        let out_a = released(&run(fc, &self.a, &cfg));
        let out_b = released(&run(fc, &self.b, &cfg));
        agree && self.a != self.b && out_a == self.out_a && out_b == self.out_b && out_a != out_b
    }
}

/// The observable of one run under the totalized semantics: the released
/// value, or `Diverged` when the fuel budget runs out.
fn released(outcome: &Outcome) -> ExecValue {
    match outcome {
        Outcome::Halted(h) => ExecValue::Value(h.y),
        Outcome::OutOfFuel => ExecValue::Diverged,
    }
}

/// The first conflict of `domain` under `allow(J)`: the `J`-agreeing
/// pair `(a, b)` with `a` before `b` and different released outcomes that
/// is least by `b`'s index, then by `a`'s.
///
/// Runs with budget `fuel` that do not halt count as the distinct
/// observable `Diverged`, so divergence leaks (one run halts, the other
/// does not) are found too. The program runs once per input on the
/// compiled VM until the conflict, so a leak reports `checked` at `b`'s
/// index plus one. A cut (`ctl`) reports the first conflict of its
/// contiguous swept prefix, or `Unknown`; `Confirmed` means no pair on
/// the domain leaks.
pub fn refute(
    fc: &Flowchart,
    allowed: IndexSet,
    domain: &dyn InputDomain,
    fuel: u64,
    config: &EvalConfig,
    ctl: &CancelToken,
) -> Result<Coverage<LeakWitness>, EnfError> {
    let vm = Compiled::new(fc);
    let exec = ExecConfig::with_fuel(fuel);
    let program = FnMechanism::new(fc.arity(), move |a: &[V]| {
        MechOutput::Value(released(&vm.run(a, &exec)))
    });
    let policy = Allow::from_set(fc.arity(), allowed);
    let found = try_check_soundness_with(&program, &policy, domain, false, config, ctl)?;
    let value = |out: MechOutput<ExecValue>| *out.value().expect("a bare program refuses nothing");
    Ok(Coverage {
        checked: found.checked,
        total: found.total,
        verdict: found.verdict,
        report: match found.report {
            Some(SoundnessReport::Unsound(w)) => Some(LeakWitness {
                a: w.a,
                b: w.b,
                out_a: value(w.out_a),
                out_b: value(w.out_b),
            }),
            _ => None,
        },
    })
}

/// The three-valued outcome of relational verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RelationalVerdict {
    /// The relational analysis proves noninterference w.r.t. `J` — for
    /// *all* inputs, not just the searched domain.
    Certified,
    /// A concrete, replay-validated counterexample: the program leaks.
    Leak {
        /// The witness pair.
        witness: LeakWitness,
    },
    /// Certification failed but no counterexample exists on the searched
    /// domain (at the given fuel): sound there, undecided beyond it. When
    /// `checked < total` the sweep was cut short and only its first
    /// `checked` inputs were searched.
    Unknown {
        /// The static disagreement the certifier could not discharge.
        taint: IndexSet,
        /// Inputs the sweep covered: `total` unless it was cut short, or
        /// stopped at a pair that then failed replay.
        checked: usize,
        /// Inputs in the searched domain.
        total: usize,
    },
}

impl RelationalVerdict {
    /// One-word tag (`certified` / `leak` / `unknown`), the stable CLI
    /// vocabulary.
    pub fn tag(&self) -> &'static str {
        match self {
            RelationalVerdict::Certified => "certified",
            RelationalVerdict::Leak { .. } => "leak",
            RelationalVerdict::Unknown { .. } => "unknown",
        }
    }
}

/// Certify-then-refute: the complete three-valued verifier.
///
/// A `Leak` verdict is always replay-validated on the AST interpreter
/// before being returned; a witness that fails replay (impossible unless
/// the two engines disagree) degrades to `Unknown` rather than report a
/// false proof. A run that panics is the sweep's quarantine error. `ctl`
/// cuts the sweep as in [`refute`].
pub fn verify(
    fc: &Flowchart,
    allowed: IndexSet,
    domain: &dyn InputDomain,
    fuel: u64,
    config: &EvalConfig,
    ctl: &CancelToken,
) -> Result<RelationalVerdict, EnfError> {
    let taint = match certify(fc, allowed, Analysis::Relational) {
        Certification::Certified => return Ok(RelationalVerdict::Certified),
        Certification::Rejected { taint } => taint,
    };
    let found = refute(fc, allowed, domain, fuel, config, ctl)?;
    Ok(match found.report {
        Some(witness) if witness.replays(fc, allowed, fuel) => RelationalVerdict::Leak { witness },
        _ => RelationalVerdict::Unknown {
            taint,
            checked: found.checked,
            total: found.total,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use enf_core::Grid;
    use enf_flowchart::parse;

    const FUEL: u64 = 10_000;

    fn grid(k: usize) -> Grid {
        Grid::hypercube(k, -2..=2)
    }

    fn verdict(src: &str, allowed: IndexSet) -> RelationalVerdict {
        let fc = parse(src).unwrap();
        let g = grid(fc.arity());
        verify(
            &fc,
            allowed,
            &g,
            FUEL,
            &EvalConfig::default(),
            &CancelToken::new(),
        )
        .unwrap()
    }

    #[test]
    fn cancelling_is_certified() {
        assert_eq!(
            verdict("program(1) { y := x1 - x1; }", IndexSet::empty()),
            RelationalVerdict::Certified
        );
    }

    #[test]
    fn two_path_leak_yields_least_witness() {
        let v = verdict(
            "program(2) { if x1 > 0 { y := 1; } else { y := 2; } }",
            IndexSet::single(2),
        );
        match v {
            RelationalVerdict::Leak { witness } => {
                // Least index on the -2..=2 square: a = [-2, -2] (index 0)
                // paired with the first J-agreeing b whose outcome differs,
                // b = [1, -2].
                assert_eq!(witness.a, vec![-2, -2]);
                assert_eq!(witness.b, vec![1, -2]);
                assert_eq!(witness.out_a, ExecValue::Value(2));
                assert_eq!(witness.out_b, ExecValue::Value(1));
            }
            other => panic!("expected leak, got {other:?}"),
        }
    }

    #[test]
    fn divergence_difference_is_a_leak() {
        // Halts iff x1 <= 0: a divergence channel, observable as
        // Value vs Diverged.
        let v = verdict(
            "program(1) { while x1 > 0 { r1 := r1 + 1; } y := 0; }",
            IndexSet::empty(),
        );
        match v {
            RelationalVerdict::Leak { witness } => {
                assert!(
                    matches!(witness.out_a, ExecValue::Value(_))
                        != matches!(witness.out_b, ExecValue::Value(_)),
                    "expected one halting and one diverging run: {witness:?}"
                );
            }
            other => panic!("expected divergence leak, got {other:?}"),
        }
    }

    #[test]
    fn unknown_when_grid_too_small_to_leak() {
        // y := x1 / 3 leaks in general but is constant 0 on [-2, 2]:
        // rejected statically, no witness on the grid.
        let v = verdict("program(1) { y := x1 / 3; }", IndexSet::empty());
        match v {
            RelationalVerdict::Unknown {
                taint,
                checked,
                total,
            } => {
                assert_eq!(taint, IndexSet::single(1));
                assert_eq!((checked, total), (5, 5), "an uncut sweep covers the grid");
            }
            other => panic!("expected unknown, got {other:?}"),
        }
    }

    #[test]
    fn a_cut_sweep_is_unknown_with_its_coverage_or_a_leak_of_its_prefix() {
        // Input 0's class (x1 = -2) releases 0 throughout; the leak lies
        // in a later class.
        let fc = parse("program(2) { if x1 == -2 { y := 0; } else { y := x2; } }").unwrap();
        let allowed = IndexSet::single(1);
        let cut = |limit| {
            let ctl = CancelToken::new().with_index_limit(limit);
            verify(&fc, allowed, &grid(2), FUEL, &EvalConfig::default(), &ctl).unwrap()
        };
        assert_eq!(
            cut(5),
            RelationalVerdict::Unknown {
                taint: IndexSet::single(2),
                checked: 5,
                total: 25,
            }
        );
        match cut(7) {
            RelationalVerdict::Leak { witness } => {
                assert_eq!((witness.a, witness.b), (vec![-1, -2], vec![-1, -1]));
            }
            other => panic!("expected the prefix's leak, got {other:?}"),
        }
    }

    fn witness(src: &str, allowed: IndexSet, config: &EvalConfig) -> Option<LeakWitness> {
        let fc = parse(src).unwrap();
        let g = grid(fc.arity());
        refute(&fc, allowed, &g, FUEL, config, &CancelToken::new())
            .unwrap()
            .report
    }

    #[test]
    fn witness_is_identical_for_every_thread_count() {
        let src = "program(2) { y := x1 * x2; }";
        let baseline = witness(src, IndexSet::single(2), &EvalConfig::default());
        assert!(baseline.is_some());
        for t in 1..=8 {
            let cfg = EvalConfig::with_threads(t).seq_threshold(0);
            assert_eq!(
                witness(src, IndexSet::single(2), &cfg),
                baseline,
                "threads = {t}"
            );
        }
    }

    #[test]
    fn leak_witnesses_replay() {
        for (src, j) in [
            ("program(2) { if x1 > 0 { y := 1; } else { y := 2; } }", 2),
            ("program(2) { y := x1 + x2; }", 2),
        ] {
            let fc = parse(src).unwrap();
            let allowed = IndexSet::single(j);
            let w = witness(src, allowed, &EvalConfig::default()).expect("leak");
            assert!(w.replays(&fc, allowed, FUEL), "{src}: {w:?}");
            assert!(!w.replays(&fc, allowed.union(&IndexSet::single(1)), FUEL));
        }
    }
}
