//! Differential pinning of the stepper-based engine against the seed's
//! hand-rolled loops.
//!
//! `run_reference` is the original `run_surveillance` body, kept verbatim;
//! the properties here demand the `Monitor`-based engine be *bit-identical*
//! to it — same outcome variant, same released value, same step count, same
//! violation site and taint — across all four `Style` × `CheckAt`
//! configurations, random flowcharts and inputs, searched with the parallel
//! evaluation engine at every thread count 1..=8. `explain` gets the same
//! treatment against a verbatim copy of its former two-pass loop.

use enf_core::par::find_first;
use enf_core::{EvalConfig, Grid, IndexSet, InputDomain, V};
use enf_flowchart::generate::{random_flowchart, GenConfig};
use enf_flowchart::graph::PolicySpec;
use enf_flowchart::graph::{Flowchart, Node, Succ};
use enf_flowchart::interp::Store;
use enf_flowchart::pretty::{declassify_to_string, expr_to_string, pred_to_string};
use enf_surveillance::dynamic::{run_surveillance, CheckAt, Style, SurvConfig, SurvOutcome};
use enf_surveillance::explain::{explain, Explanation, FlowEvent};
use enf_surveillance::monitor::run_trace;
use enf_surveillance::TaintState;
use proptest::prelude::*;

/// All four discipline configurations for the policy `allow(J)`.
fn all_configs(allowed: IndexSet, fuel: u64) -> [SurvConfig; 4] {
    [
        SurvConfig::surveillance(allowed).with_fuel(fuel),
        SurvConfig::timed(allowed).with_fuel(fuel),
        SurvConfig::highwater(allowed).with_fuel(fuel),
        SurvConfig {
            allowed,
            style: Style::Accumulate,
            check: CheckAt::EveryDecision,
            fuel,
        },
    ]
}

fn policy_from_mask(mask: u8) -> IndexSet {
    let mut j = IndexSet::empty();
    if mask & 1 != 0 {
        j.insert(1);
    }
    if mask & 2 != 0 {
        j.insert(2);
    }
    j
}

/// Forced-parallel configuration with exactly `t` workers.
fn par(t: usize) -> EvalConfig {
    EvalConfig::with_threads(t).seq_threshold(0)
}

/// The seed's hand-rolled surveillance loop, kept verbatim as the
/// differential oracle for the stepper-based engine.
///
/// [`run_surveillance`] is the supported entry point; this one exists so
/// the properties below can pin the refactor bit-for-bit — outcome, step
/// count and violation site must match on every run. Do not "improve"
/// this function: its value is that it does not change.
fn run_reference(fc: &Flowchart, inputs: &[V], cfg: &SurvConfig) -> SurvOutcome {
    let mut store = Store::init(fc, inputs);
    let mut taints = TaintState::init(fc.arity(), fc.max_reg());
    let mut allowed = cfg.allowed;
    let mut at = fc.start();
    let mut steps: u64 = 0;
    loop {
        if steps >= cfg.fuel {
            return SurvOutcome::OutOfFuel;
        }
        steps += 1;
        match fc.node(at) {
            Node::Start => {
                at = match fc.succ(at) {
                    Succ::One(n) => n,
                    _ => unreachable!("validated START"),
                };
            }
            Node::Assign { var, expr } => {
                // Transformation (2): v̄ ← w̄1 ∪ … ∪ w̄s ∪ C̄ (∪ v̄ for
                // the high-water discipline), then the value update.
                let mut t = taints.expr_taint(expr).union(&taints.pc);
                if cfg.style == Style::Accumulate {
                    t.union_with(&taints.get(*var));
                }
                taints.set(*var, t);
                let v = expr.eval(&|w| store.get(w));
                store.set(*var, v);
                at = match fc.succ(at) {
                    Succ::One(n) => n,
                    _ => unreachable!("validated assignment"),
                };
            }
            Node::Decision { pred } => {
                // Transformation (3): C̄ ← C̄ ∪ w̄1 ∪ … ∪ w̄s.
                let t = taints.pred_taint(pred);
                taints.pc.union_with(&t);
                if cfg.check == CheckAt::EveryDecision && !taints.pc.is_subset(&allowed) {
                    // Theorem 3′: abort before the disallowed test is taken.
                    return SurvOutcome::Violation {
                        site: at,
                        taint: taints.pc,
                        steps,
                    };
                }
                let taken = pred.eval(&|w| store.get(w));
                at = match fc.succ(at) {
                    Succ::Cond { then_, else_ } => {
                        if taken {
                            then_
                        } else {
                            else_
                        }
                    }
                    _ => unreachable!("validated decision"),
                };
            }
            Node::SetPolicy { spec } => {
                // The active allowed set is replaced; slot boxes resolve to
                // allow() here (this reference loop has no schedule).
                allowed = match spec {
                    PolicySpec::Concrete(s) => *s,
                    PolicySpec::Slot(_) => IndexSet::empty(),
                };
                at = match fc.succ(at) {
                    Succ::One(n) => n,
                    _ => unreachable!("validated setpolicy"),
                };
            }
            Node::Declassify { var, from, to } => {
                // Relabel v̄ ← (v̄ \ A) ∪ B; the store is untouched.
                let t = taints.get(*var);
                taints.set(*var, t.difference(from).union(to));
                at = match fc.succ(at) {
                    Succ::One(n) => n,
                    _ => unreachable!("validated declassify"),
                };
            }
            Node::Halt => {
                // Transformation (4): release y only if ȳ ∪ C̄ ⊆ J.
                let t = taints.halt_taint();
                if t.is_subset(&allowed) {
                    return SurvOutcome::Accepted {
                        y: store.output(),
                        steps,
                    };
                }
                return SurvOutcome::Violation {
                    site: at,
                    taint: t,
                    steps,
                };
            }
        }
    }
}

/// A verbatim copy of the seed's two-pass `explain` loop, the oracle for
/// the one-pass `EventMonitor` reimplementation.
fn explain_reference(fc: &Flowchart, inputs: &[V], cfg: &SurvConfig) -> Explanation {
    let mut store = Store::init(fc, inputs);
    let mut taints = TaintState::init(fc.arity(), fc.max_reg());
    let mut at = fc.start();
    let mut steps: u64 = 0;
    let mut allowed = cfg.allowed;
    let mut events: Vec<FlowEvent> = Vec::new();
    loop {
        if steps >= cfg.fuel {
            return Explanation {
                accepted: false,
                offending: IndexSet::empty(),
                events,
            };
        }
        steps += 1;
        match fc.node(at) {
            Node::Start => {
                at = match fc.succ(at) {
                    Succ::One(n) => n,
                    _ => unreachable!("validated START"),
                };
            }
            Node::Assign { var, expr } => {
                let before = taints.get(*var);
                let mut t = taints.expr_taint(expr).union(&taints.pc);
                if cfg.style == Style::Accumulate {
                    t.union_with(&before);
                }
                if t != before {
                    events.push(FlowEvent {
                        step: steps,
                        site: at,
                        what: format!("{var} := {}", expr_to_string(expr)),
                        before,
                        after: t,
                    });
                }
                taints.set(*var, t);
                let v = expr.eval(&|w| store.get(w));
                store.set(*var, v);
                at = match fc.succ(at) {
                    Succ::One(n) => n,
                    _ => unreachable!("validated assignment"),
                };
            }
            Node::Decision { pred } => {
                let before = taints.pc;
                let t = taints.pred_taint(pred);
                taints.pc.union_with(&t);
                if taints.pc != before {
                    events.push(FlowEvent {
                        step: steps,
                        site: at,
                        what: format!("branch on {}", pred_to_string(pred)),
                        before,
                        after: taints.pc,
                    });
                }
                if cfg.check == CheckAt::EveryDecision && !taints.pc.is_subset(&allowed) {
                    return Explanation {
                        accepted: false,
                        offending: taints.pc.difference(&allowed),
                        events,
                    };
                }
                let taken = pred.eval(&|w| store.get(w));
                at = match fc.succ(at) {
                    Succ::Cond { then_, else_ } => {
                        if taken {
                            then_
                        } else {
                            else_
                        }
                    }
                    _ => unreachable!("validated decision"),
                };
            }
            Node::Halt => {
                let t = taints.halt_taint();
                if t.is_subset(&allowed) {
                    return Explanation {
                        accepted: true,
                        offending: IndexSet::empty(),
                        events,
                    };
                }
                return Explanation {
                    accepted: false,
                    offending: t.difference(&allowed),
                    events,
                };
            }
            Node::SetPolicy { spec } => {
                allowed = match spec {
                    PolicySpec::Concrete(s) => *s,
                    PolicySpec::Slot(_) => IndexSet::empty(),
                };
                at = match fc.succ(at) {
                    Succ::One(n) => n,
                    _ => unreachable!("validated setpolicy"),
                };
            }
            Node::Declassify { var, from, to } => {
                let before = taints.get(*var);
                let after = before.difference(from).union(to);
                if after != before {
                    events.push(FlowEvent {
                        step: steps,
                        site: at,
                        what: declassify_to_string(*var, from, to),
                        before,
                        after,
                    });
                }
                taints.set(*var, after);
                at = match fc.succ(at) {
                    Succ::One(n) => n,
                    _ => unreachable!("validated declassify"),
                };
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The stepper engine is bit-identical to the pinned reference loop —
    /// outcome, released value, step count, violation site and taint — for
    /// every configuration, searched in parallel at threads 1..=8.
    #[test]
    fn stepper_engine_is_bit_identical_to_reference(seed in 0u64..20_000, mask in 0u8..4) {
        let fc = random_flowchart(seed, &GenConfig::default());
        let g = Grid::hypercube(2, -2..=2);
        for cfg in all_configs(policy_from_mask(mask), 2_000) {
            for t in 1..=8usize {
                let mismatch = find_first(&g, &par(t), |_, a| {
                    let new = run_surveillance(&fc, a, &cfg);
                    let old = run_reference(&fc, a, &cfg);
                    (new != old).then(|| (a.to_vec(), new, old))
                });
                prop_assert!(
                    mismatch.is_none(),
                    "seed {}, cfg {:?}, threads {}: {:?}",
                    seed, cfg, t, mismatch
                );
            }
        }
    }

    /// The one-pass `explain` (taint + event monitors paired) reproduces
    /// the two-pass loop's output exactly: verdict, offending set, and the
    /// full `FlowEvent` list the carrier chain is drawn from.
    #[test]
    fn one_pass_explain_matches_two_pass_reference(seed in 0u64..20_000, mask in 0u8..4) {
        let fc = random_flowchart(seed, &GenConfig::default());
        for cfg in all_configs(policy_from_mask(mask), 2_000) {
            for a in Grid::hypercube(2, -1..=1).iter_inputs() {
                let one = explain(&fc, &a, &cfg);
                let two = explain_reference(&fc, &a, &cfg);
                prop_assert_eq!(
                    &one, &two,
                    "seed {}, cfg {:?}, input {:?}", seed, &cfg, &a
                );
            }
        }
    }

    /// The trace stream is complete: one event per executed box, agreeing
    /// with the mechanism's own step count, and the verdicts of the paired
    /// run match the plain engine.
    #[test]
    fn trace_stream_covers_every_step(seed in 0u64..20_000, mask in 0u8..4) {
        let fc = random_flowchart(seed, &GenConfig::default());
        for cfg in all_configs(policy_from_mask(mask), 2_000) {
            for a in Grid::hypercube(2, -1..=1).iter_inputs() {
                let (out, events) = run_trace(&fc, &a, &cfg);
                prop_assert_eq!(&out, &run_surveillance(&fc, &a, &cfg));
                match out {
                    SurvOutcome::Accepted { steps, .. }
                    | SurvOutcome::Violation { steps, .. } => {
                        prop_assert_eq!(events.len() as u64, steps);
                    }
                    SurvOutcome::OutOfFuel => {
                        prop_assert_eq!(events.len() as u64, cfg.fuel);
                    }
                }
            }
        }
    }
}
