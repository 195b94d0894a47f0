//! Policy schedules and scheduled soundness — soundness for *dynamic*
//! policies.
//!
//! The paper fixes one policy `I` for the lifetime of a computation. This
//! module generalizes the empirical soundness check to programs whose
//! active policy *changes mid-run*: a program may traverse `setpolicy`
//! boxes (replacing the active `allow` set) and `declassify` edges
//! (sanctioning the release of one value). Concrete `setpolicy` boxes fix
//! their own policy; *slot* boxes (`setpolicy p1;`) leave the choice to an
//! external [`Schedule`], and soundness must hold for **every** bounded
//! schedule.
//!
//! # Observation model
//!
//! A scheduled run of a subject yields a [`ScheduledObs`]: the output, the
//! policy active at HALT, and the *declassification trace* — the sequence
//! of `(site, value)` pairs released by the declassify edges the run
//! crossed. The observer of a finished run under final policy `P` learns
//! exactly `filter_P(input)` plus the trace; soundness demands the output
//! be a function of that knowledge. Concretely, for each final policy `P`
//! reached by some run, partition **all** inputs by
//! `(filter_P(input), trace)`; every class containing an *anchored* member
//! (one whose own run ends in `P`) must be output-constant. A violating
//! pair is a leak: the anchored run's observer cannot distinguish the two
//! inputs, yet sees different outputs.
//!
//! With no policy boxes and no declassify edges every run ends in the
//! initial policy with an empty trace, all inputs are anchored, and the
//! check degenerates *exactly* to [`crate::check_soundness`]: same classes,
//! same verdict, same least-index witness.
//!
//! # Schedule enumeration
//!
//! With `k` inputs and `m` slots there are `(2^k)^m` assignments. They are
//! enumerated canonically — slot-major, subset-bitmask ascending — and the
//! sweep over schedules is the engine's witness scan ([`crate::par`]), so
//! the reported witness is the least-schedule-index one for every thread
//! count.

use crate::domain::{Grid, InputDomain};
use crate::error::{Coverage, EnfError, Verdict};
use crate::indexset::IndexSet;
use crate::par::{first, plain, CancelToken, EvalConfig, Guard, Guarded, Plain};
use crate::policy::{Allow, Policy};
use crate::value::V;
use std::collections::HashMap;

/// A policy schedule: the initial active policy plus one `allow` set per
/// schedule slot (`p1`, `p2`, …, 1-based).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Schedule {
    /// Policy active from START until the first `setpolicy` box.
    pub initial: IndexSet,
    /// Assignment for slot `p{i+1}`. A slot a program references but the
    /// schedule does not bind reads as `allow()` — the most restrictive
    /// choice.
    pub slots: Vec<IndexSet>,
}

impl Schedule {
    /// The fixed-policy schedule: no slots, the initial policy throughout.
    pub fn fixed(initial: IndexSet) -> Self {
        Schedule {
            initial,
            slots: Vec::new(),
        }
    }

    /// The policy bound to 1-based slot `i`: the schedule's assignment, or
    /// `allow()` when unbound.
    pub fn slot(&self, i: usize) -> IndexSet {
        assert!(i >= 1, "slots are 1-based");
        self.slots.get(i - 1).copied().unwrap_or(IndexSet::EMPTY)
    }

    /// Number of schedules in the canonical bounded enumeration: one per
    /// assignment of a subset of `{1, …, arity}` to each of `slots` slots,
    /// i.e. `(2^arity)^slots`. `None` on overflow.
    pub fn count(arity: usize, slots: usize) -> Option<u128> {
        assert!(arity <= IndexSet::MAX_INDEX, "arity {arity} out of range");
        (1u128 << arity).checked_pow(u32::try_from(slots).ok()?)
    }

    /// The `n`-th schedule of the canonical enumeration: slot-major, subset
    /// bitmask ascending (slot 1 varies fastest).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn nth(initial: IndexSet, arity: usize, slots: usize, n: u128) -> Self {
        let subsets = 1u128 << arity;
        let total = Schedule::count(arity, slots).unwrap_or(u128::MAX);
        assert!(n < total, "schedule index {n} out of range");
        let mut rest = n;
        let mut assigned = Vec::with_capacity(slots);
        for _ in 0..slots {
            let mask = (rest % subsets) as u64;
            rest /= subsets;
            assigned.push(IndexSet::from_bits(mask << 1));
        }
        Schedule {
            initial,
            slots: assigned,
        }
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "initial {}", self.initial)?;
        for (i, s) in self.slots.iter().enumerate() {
            write!(f, ", p{} = {}", i + 1, s)?;
        }
        Ok(())
    }
}

/// What one scheduled run reveals to its observer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScheduledObs<O> {
    /// The run's output (divergence folded in by the subject).
    pub out: O,
    /// The policy active when the run finished.
    pub final_policy: IndexSet,
    /// Declassification trace: `(site, released value)` per declassify edge
    /// crossed, in execution order. Sites are subject-defined (flowchart
    /// node ids); two runs with equal traces released the same information.
    pub declass: Vec<(usize, V)>,
}

/// A program evaluated under an external policy schedule.
///
/// The subject owns its execution semantics (fuel, divergence folding); the
/// oracle only demands that equal `(input, schedule)` pairs yield equal
/// observations.
pub trait ScheduledProgram: Sync {
    /// Output type, divergence included.
    type Out: Clone + Eq + std::hash::Hash + Send + std::fmt::Debug;

    /// Input arity `k`.
    fn arity(&self) -> usize;

    /// Number of schedule slots the program references (0 for fixed-policy
    /// programs).
    fn slot_count(&self) -> usize;

    /// Runs the program on `input` under `schedule`.
    fn eval_scheduled(&self, input: &[V], schedule: &Schedule) -> ScheduledObs<Self::Out>;
}

impl<S: ScheduledProgram> ScheduledProgram for &S {
    type Out = S::Out;
    fn arity(&self) -> usize {
        (**self).arity()
    }
    fn slot_count(&self) -> usize {
        (**self).slot_count()
    }
    fn eval_scheduled(&self, input: &[V], schedule: &Schedule) -> ScheduledObs<Self::Out> {
        (**self).eval_scheduled(input, schedule)
    }
}

/// A concrete counterexample to scheduled soundness: a schedule and two
/// inputs indistinguishable to the anchored run's observer, with different
/// outputs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScheduledWitness<O> {
    /// Index of the schedule in the canonical enumeration.
    pub schedule_index: usize,
    /// The offending schedule.
    pub schedule: Schedule,
    /// The policy active at HALT of the anchored run.
    pub final_policy: IndexSet,
    /// The anchored input (its run ends in `final_policy`).
    pub a: Vec<V>,
    /// An input with the same `filter_{final_policy}` view and declass
    /// trace but a different output.
    pub b: Vec<V>,
    /// Output on `a`.
    pub out_a: O,
    /// Output on `b`, different from `out_a`.
    pub out_b: O,
}

/// Outcome of a scheduled soundness check.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ScheduledReport<O> {
    /// Every enumerated schedule passed the anchored-class check.
    Sound {
        /// Number of schedules swept.
        schedules: usize,
        /// Number of inputs enumerated per schedule.
        inputs: usize,
    },
    /// Some schedule admits a leak.
    Unsound(ScheduledWitness<O>),
}

impl<O> ScheduledReport<O> {
    /// Whether the check passed.
    pub fn is_sound(&self) -> bool {
        matches!(self, ScheduledReport::Sound { .. })
    }

    /// The witness, if the check failed.
    pub fn witness(&self) -> Option<&ScheduledWitness<O>> {
        match self {
            ScheduledReport::Sound { .. } => None,
            ScheduledReport::Unsound(w) => Some(w),
        }
    }
}

/// One schedule's conflict: the final policy, the anchored representative
/// and conflicting input indices, and both outputs.
type ScheduleConflict<O> = (IndexSet, usize, usize, O, O);

/// An anchored-class key: the final policy's view of the input plus the
/// run's declassification trace.
type ClassKey<'a> = (Vec<V>, &'a [(usize, V)]);

/// The anchored-class check for one schedule. Returns the deterministic
/// least witness: among all `(final policy, class)` conflicts, the one
/// whose conflicting input has the least enumeration index, final policies
/// compared bitmask-ascending on ties.
fn check_one_schedule<S: ScheduledProgram>(
    subject: &S,
    schedule: &Schedule,
    domain: &dyn InputDomain,
) -> Option<ScheduleConflict<S::Out>> {
    let n = domain.len();
    let mut inputs: Vec<Vec<V>> = Vec::with_capacity(n);
    let mut runs: Vec<ScheduledObs<S::Out>> = Vec::with_capacity(n);
    domain.visit_range(0..n, &mut |_, a| {
        inputs.push(a.to_vec());
        runs.push(subject.eval_scheduled(a, schedule));
        true
    });

    let mut policies: Vec<IndexSet> = runs.iter().map(|r| r.final_policy).collect();
    policies.sort_unstable();
    policies.dedup();

    // (final policy, anchored rep index, conflict index) minimized by
    // conflict index; the ascending policy loop breaks ties toward the
    // smaller final policy.
    let mut best: Option<(IndexSet, usize, usize)> = None;
    for p in policies {
        let mut classes: HashMap<ClassKey, Vec<usize>> = HashMap::new();
        for (i, input) in inputs.iter().enumerate() {
            let view: Vec<V> = p.iter().map(|k| input[k - 1]).collect();
            classes
                .entry((view, runs[i].declass.as_slice()))
                .or_default()
                .push(i);
        }
        for members in classes.values() {
            // Members are in ascending index order. The class constrains
            // the subject only if some member's own run ends in `p`.
            let Some(&rep) = members.iter().find(|&&i| runs[i].final_policy == p) else {
                continue;
            };
            if let Some(&c) = members.iter().find(|&&i| runs[i].out != runs[rep].out) {
                if best.is_none_or(|(_, _, bc)| c < bc) {
                    best = Some((p, rep, c));
                }
            }
        }
    }
    best.map(|(p, rep, c)| (p, rep, c, runs[rep].out.clone(), runs[c].out.clone()))
}

/// Checks scheduled soundness of `subject` for initial policy `initial`
/// over `domain`, quantifying over every schedule of the canonical bounded
/// enumeration (optionally capped at `max_schedules`).
///
/// The schedule sweep is parallelized with [`crate::par::find_first`]'s
/// witness scan over schedule indices; within one schedule the input sweep
/// is sequential and deterministic. The reported witness is therefore the
/// least-schedule-index one — identical for every thread count.
///
/// With `slot_count() == 0` exactly one schedule (the fixed initial policy)
/// is checked, and the verdict coincides with [`crate::check_soundness`] of
/// the subject as its own mechanism.
///
/// # Panics
///
/// Panics if the arities of subject, policy and domain disagree, or if the
/// (possibly capped) schedule count overflows `usize`.
pub fn check_soundness_scheduled<S: ScheduledProgram>(
    subject: &S,
    initial: &Allow,
    domain: &dyn InputDomain,
    config: &EvalConfig,
    max_schedules: Option<usize>,
) -> ScheduledReport<S::Out> {
    let ctl = CancelToken::new();
    let found = plain(scheduled::<Plain, _>(
        subject,
        initial,
        domain,
        config,
        max_schedules,
        &ctl,
    ));
    found.report.unwrap_or(ScheduledReport::Sound {
        schedules: found.total,
        inputs: domain.len(),
    })
}

/// Fault-tolerant [`check_soundness_scheduled`]: the bounded-schedule
/// sweep under the cancellation and quarantine discipline of
/// [`crate::try_check_soundness_with`]. Coverage counts *schedules*, not
/// inputs: `checked` is the contiguous prefix of the canonical schedule
/// enumeration that was fully swept.
///
/// * `Refuted` with `Some(Unsound(w))` — a genuine leak; under a
///   deterministic cut (index limit) it is the least-schedule-index one
///   for every thread count.
/// * `Confirmed` with `Some(Sound { .. })` — every schedule swept clean;
///   the **only** way this function reports soundness.
/// * `Unknown` — the token fired before any schedule failed; nothing is
///   claimed.
/// * `Err(SubjectPanicked)` — the subject panicked while sweeping a
///   schedule with index below any failing one (`input_index` is the
///   schedule index).
///
/// # Panics
///
/// Panics under the same arity/overflow conditions as
/// [`check_soundness_scheduled`].
pub fn try_check_soundness_scheduled<S: ScheduledProgram>(
    subject: &S,
    initial: &Allow,
    domain: &dyn InputDomain,
    config: &EvalConfig,
    max_schedules: Option<usize>,
    ctl: &CancelToken,
) -> Result<Coverage<ScheduledReport<S::Out>>, EnfError> {
    let mut found = scheduled::<Guarded, _>(subject, initial, domain, config, max_schedules, ctl)?;
    // The witness scan confirms with an empty report (absence of a witness
    // is its evidence); a confirmed schedule sweep carries the full Sound
    // report like the plain entry point.
    if found.verdict == Verdict::Confirmed {
        found.report = Some(ScheduledReport::Sound {
            schedules: found.total,
            inputs: domain.len(),
        });
    }
    Ok(found)
}

/// The body of both forms of [`check_soundness_scheduled`]: the witness
/// scan over schedule indices, reporting the least failing schedule's
/// witness. Coverage counts schedules.
fn scheduled<G: Guard, S: ScheduledProgram>(
    subject: &S,
    initial: &Allow,
    domain: &dyn InputDomain,
    config: &EvalConfig,
    max_schedules: Option<usize>,
    ctl: &CancelToken,
) -> Result<Coverage<ScheduledReport<S::Out>>, EnfError> {
    let arity = subject.arity();
    assert_eq!(
        arity,
        initial.arity(),
        "subject arity {arity} does not match policy arity {}",
        initial.arity()
    );
    assert_eq!(
        arity,
        domain.arity(),
        "domain arity {} does not match subject arity {arity}",
        domain.arity()
    );

    let slots = subject.slot_count();
    let total = Schedule::count(arity, slots).unwrap_or(u128::MAX);
    let capped = match max_schedules {
        Some(cap) => total.min(cap as u128),
        None => total,
    };
    let count = usize::try_from(capped).unwrap_or_else(|_| {
        panic!("schedule count {capped} overflows usize; pass a max_schedules cap")
    });
    assert!(count > 0, "schedule enumeration is empty");
    let init_set = initial.allowed();

    // A 1-D grid over schedule indices: the witness scan then yields the
    // least-index failing schedule deterministically across thread counts.
    let sched_domain = Grid::new(vec![0..=(count - 1) as V]);
    let found = first::<G, _>(&sched_domain, config, ctl, |_, a| {
        let schedule = Schedule::nth(init_set, arity, slots, a[0] as u128);
        check_one_schedule(subject, &schedule, domain).map(|conflict| (schedule, conflict))
    })?;
    Ok(found.map(
        |(schedule_index, (schedule, (final_policy, rep, c, out_a, out_b)))| {
            let mut buf = Vec::new();
            domain.nth_input(rep, &mut buf);
            let a = buf.clone();
            domain.nth_input(c, &mut buf);
            ScheduledReport::Unsound(ScheduledWitness {
                schedule_index,
                schedule,
                final_policy,
                a,
                b: buf,
                out_a,
                out_b,
            })
        },
    ))
}

/// Replays a scheduled witness against the subject, confirming it is a
/// real leak: the two runs end with the anchored final policy reachable,
/// agree on the anchored view and trace, and disagree on output.
pub fn validate_scheduled_witness<S: ScheduledProgram>(
    subject: &S,
    witness: &ScheduledWitness<S::Out>,
) -> bool {
    let ra = subject.eval_scheduled(&witness.a, &witness.schedule);
    let rb = subject.eval_scheduled(&witness.b, &witness.schedule);
    let p = witness.final_policy;
    let view = |input: &[V]| -> Vec<V> { p.iter().map(|k| input[k - 1]).collect() };
    ra.final_policy == p
        && ra.out == witness.out_a
        && rb.out == witness.out_b
        && ra.out != rb.out
        && ra.declass == rb.declass
        && view(&witness.a) == view(&witness.b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_soundness;
    use crate::mechanism::{Identity, MechOutput};
    use crate::program::FnProgram;

    /// A test subject built from closures: output plus an optional policy
    /// transition and declass trace, both functions of input and schedule.
    struct FnScheduled<F> {
        arity: usize,
        slots: usize,
        run: F,
    }

    impl<F> ScheduledProgram for FnScheduled<F>
    where
        F: Fn(&[V], &Schedule) -> ScheduledObs<V> + Sync,
    {
        type Out = V;
        fn arity(&self) -> usize {
            self.arity
        }
        fn slot_count(&self) -> usize {
            self.slots
        }
        fn eval_scheduled(&self, input: &[V], schedule: &Schedule) -> ScheduledObs<V> {
            (self.run)(input, schedule)
        }
    }

    fn fixed_obs(out: V, p: IndexSet) -> ScheduledObs<V> {
        ScheduledObs {
            out,
            final_policy: p,
            declass: Vec::new(),
        }
    }

    #[test]
    fn schedule_enumeration_is_slot_major() {
        // arity 2, 2 slots: 16 schedules; slot 1 varies fastest.
        assert_eq!(Schedule::count(2, 2), Some(16));
        let s0 = Schedule::nth(IndexSet::EMPTY, 2, 2, 0);
        assert_eq!(s0.slots, vec![IndexSet::EMPTY, IndexSet::EMPTY]);
        let s1 = Schedule::nth(IndexSet::EMPTY, 2, 2, 1);
        assert_eq!(s1.slots, vec![IndexSet::single(1), IndexSet::EMPTY]);
        let s4 = Schedule::nth(IndexSet::EMPTY, 2, 2, 4);
        assert_eq!(s4.slots, vec![IndexSet::EMPTY, IndexSet::single(1)]);
        let s15 = Schedule::nth(IndexSet::EMPTY, 2, 2, 15);
        assert_eq!(s15.slots, vec![IndexSet::full(2), IndexSet::full(2)]);
    }

    #[test]
    fn unbound_slot_reads_empty() {
        let s = Schedule::fixed(IndexSet::single(1));
        assert_eq!(s.slot(3), IndexSet::EMPTY);
        assert_eq!(s.slot(1), IndexSet::EMPTY);
        assert_eq!(s.initial, IndexSet::single(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn nth_schedule_bounds_checked() {
        let _ = Schedule::nth(IndexSet::EMPTY, 1, 1, 2);
    }

    #[test]
    fn schedule_display() {
        let s = Schedule {
            initial: IndexSet::single(1),
            slots: vec![IndexSet::EMPTY, IndexSet::from_iter([1, 2])],
        };
        assert_eq!(s.to_string(), "initial {1}, p1 = {}, p2 = {1, 2}");
    }

    #[test]
    fn degenerate_matches_classic_check_soundness() {
        // No slots, no declass, fixed final policy: same verdict and same
        // witness pair as the classic checker on the same program.
        let grid = Grid::hypercube(2, 0..=2);
        let policy = Allow::new(2, [1]);
        for leaky in [false, true] {
            let f = move |a: &[V]| if leaky { a[0] + a[1] } else { a[0] };
            let subject = FnScheduled {
                arity: 2,
                slots: 0,
                run: move |a: &[V], s: &Schedule| fixed_obs(f(a), s.initial),
            };
            let classic =
                check_soundness(&Identity::new(FnProgram::new(2, f)), &policy, &grid, false);
            let scheduled =
                check_soundness_scheduled(&subject, &policy, &grid, &EvalConfig::default(), None);
            assert_eq!(classic.is_sound(), scheduled.is_sound(), "leaky={leaky}");
            if let (Some(cw), Some(sw)) = (classic.witness(), scheduled.witness()) {
                assert_eq!(cw.a, sw.a);
                assert_eq!(cw.b, sw.b);
                assert_eq!(cw.out_a, MechOutput::Value(sw.out_a));
                assert_eq!(cw.out_b, MechOutput::Value(sw.out_b));
                assert_eq!(sw.schedule_index, 0);
                assert_eq!(sw.schedule, Schedule::fixed(policy.allowed()));
            }
        }
    }

    #[test]
    fn slot_leak_found_at_least_schedule_index() {
        // Output reveals x1 whenever the slot policy does NOT allow x1;
        // schedule 0 binds p1 = {} and is the least failing index.
        let subject = FnScheduled {
            arity: 1,
            slots: 1,
            run: |a: &[V], s: &Schedule| {
                let p = s.slot(1);
                fixed_obs(if p.contains(1) { 0 } else { a[0] }, p)
            },
        };
        let grid = Grid::hypercube(1, 0..=3);
        for threads in [1, 2, 8] {
            let cfg = EvalConfig::with_threads(threads).seq_threshold(0);
            let report = check_soundness_scheduled(&subject, &Allow::none(1), &grid, &cfg, None);
            let w = report.witness().expect("leak must be found");
            assert_eq!(w.schedule_index, 0, "threads={threads}");
            assert_eq!(w.schedule.slot(1), IndexSet::EMPTY);
            assert_eq!((w.a.as_slice(), w.b.as_slice()), (&[0][..], &[1][..]));
            assert!(validate_scheduled_witness(&subject, w));
        }
    }

    #[test]
    fn slot_sound_when_output_respects_every_binding() {
        // Output reveals x1 only when the slot allows it: sound under all
        // 2^1 bindings.
        let subject = FnScheduled {
            arity: 1,
            slots: 1,
            run: |a: &[V], s: &Schedule| {
                let p = s.slot(1);
                fixed_obs(if p.contains(1) { a[0] } else { 0 }, p)
            },
        };
        let report = check_soundness_scheduled(
            &subject,
            &Allow::none(1),
            &Grid::hypercube(1, 0..=3),
            &EvalConfig::default(),
            None,
        );
        assert_eq!(
            report,
            ScheduledReport::Sound {
                schedules: 2,
                inputs: 4
            }
        );
    }

    #[test]
    fn declass_trace_sanctions_release() {
        // Output = x1, but every run declassifies x1's value at site 7:
        // runs differing in x1 have different traces, so no class merges
        // them — sound despite policy allow().
        let subject = FnScheduled {
            arity: 1,
            slots: 0,
            run: |a: &[V], s: &Schedule| ScheduledObs {
                out: a[0],
                final_policy: s.initial,
                declass: vec![(7, a[0])],
            },
        };
        let report = check_soundness_scheduled(
            &subject,
            &Allow::none(1),
            &Grid::hypercube(1, 0..=3),
            &EvalConfig::default(),
            None,
        );
        assert!(report.is_sound());
    }

    #[test]
    fn partial_declass_still_leaks() {
        // Trace releases x1's parity only, output reveals all of x1:
        // inputs 0 and 2 share view and trace but differ in output.
        let subject = FnScheduled {
            arity: 1,
            slots: 0,
            run: |a: &[V], s: &Schedule| ScheduledObs {
                out: a[0],
                final_policy: s.initial,
                declass: vec![(3, a[0] % 2)],
            },
        };
        let report = check_soundness_scheduled(
            &subject,
            &Allow::none(1),
            &Grid::hypercube(1, 0..=3),
            &EvalConfig::default(),
            None,
        );
        let w = report.witness().expect("parity declass must not cover x1");
        assert_eq!((w.a.as_slice(), w.b.as_slice()), (&[0][..], &[2][..]));
        assert!(validate_scheduled_witness(&subject, w));
    }

    #[test]
    fn anchored_member_constrains_cross_policy_class() {
        // Final policy depends on the input: x1 = 0 runs end in allow()
        // while others end in allow(1). The allow() observer cannot see
        // x1, and the x1 = 0 run anchors the whole-domain class — outputs
        // revealing x1 leak even though other runs end more permissive.
        let subject = FnScheduled {
            arity: 1,
            slots: 0,
            run: |a: &[V], _: &Schedule| {
                let p = if a[0] == 0 {
                    IndexSet::EMPTY
                } else {
                    IndexSet::single(1)
                };
                fixed_obs(a[0], p)
            },
        };
        let report = check_soundness_scheduled(
            &subject,
            &Allow::none(1),
            &Grid::hypercube(1, 0..=2),
            &EvalConfig::default(),
            None,
        );
        let w = report.witness().expect("anchored class must flag the leak");
        assert_eq!(w.final_policy, IndexSet::EMPTY);
        assert_eq!(w.a, vec![0]);
        assert!(validate_scheduled_witness(&subject, w));
    }

    #[test]
    fn max_schedules_caps_the_sweep() {
        // Leak only under the lexicographically last binding p1 = {1}…
        let subject = FnScheduled {
            arity: 1,
            slots: 1,
            run: |a: &[V], s: &Schedule| {
                let p = s.slot(1);
                // Reveals x1 while claiming final policy allow(): leaks
                // only when the binding is {1} (schedule index 1).
                if p.contains(1) {
                    fixed_obs(a[0], IndexSet::EMPTY)
                } else {
                    fixed_obs(0, IndexSet::EMPTY)
                }
            },
        };
        let grid = Grid::hypercube(1, 0..=2);
        let cfg = EvalConfig::default();
        // …so capping the sweep at 1 schedule misses it.
        let capped = check_soundness_scheduled(&subject, &Allow::none(1), &grid, &cfg, Some(1));
        assert_eq!(
            capped,
            ScheduledReport::Sound {
                schedules: 1,
                inputs: 3
            }
        );
        let full = check_soundness_scheduled(&subject, &Allow::none(1), &grid, &cfg, None);
        assert_eq!(full.witness().map(|w| w.schedule_index), Some(1));
    }

    #[test]
    fn witness_validation_rejects_tampering() {
        let subject = FnScheduled {
            arity: 1,
            slots: 0,
            run: |a: &[V], s: &Schedule| fixed_obs(a[0], s.initial),
        };
        let report = check_soundness_scheduled(
            &subject,
            &Allow::none(1),
            &Grid::hypercube(1, 0..=1),
            &EvalConfig::default(),
            None,
        );
        let w = report.witness().expect("identity leaks under allow()");
        assert!(validate_scheduled_witness(&subject, w));
        let mut bad = w.clone();
        bad.out_b = bad.out_a;
        assert!(!validate_scheduled_witness(&subject, &bad));
    }

    #[test]
    fn try_scheduled_matches_plain_every_thread_count() {
        let grid = Grid::hypercube(1, 0..=3);
        for leaky in [false, true] {
            let subject = FnScheduled {
                arity: 1,
                slots: 1,
                run: move |a: &[V], s: &Schedule| {
                    let p = s.slot(1);
                    let out = if p.contains(1) || leaky { a[0] } else { 0 };
                    fixed_obs(out, p)
                },
            };
            let plain = check_soundness_scheduled(
                &subject,
                &Allow::none(1),
                &grid,
                &EvalConfig::default(),
                None,
            );
            for t in [1usize, 2, 8] {
                let cfg = EvalConfig::with_threads(t).seq_threshold(0);
                let r = try_check_soundness_scheduled(
                    &subject,
                    &Allow::none(1),
                    &grid,
                    &cfg,
                    None,
                    &CancelToken::new(),
                )
                .expect("no faults injected");
                assert!(r.is_complete() || leaky, "threads={t}");
                assert_eq!(r.report.as_ref(), Some(&plain), "leaky={leaky} threads={t}");
                if !leaky {
                    assert_eq!(r.verdict, crate::error::Verdict::Confirmed);
                }
            }
        }
    }

    #[test]
    fn try_scheduled_index_limit_reports_unknown() {
        // Leak only at schedule index 1; cap evaluation at index 1 so the
        // failing schedule is never swept — Unknown, nothing claimed.
        let subject = FnScheduled {
            arity: 1,
            slots: 1,
            run: |a: &[V], s: &Schedule| {
                let p = s.slot(1);
                if p.contains(1) {
                    fixed_obs(a[0], IndexSet::EMPTY)
                } else {
                    fixed_obs(0, IndexSet::EMPTY)
                }
            },
        };
        let grid = Grid::hypercube(1, 0..=2);
        for t in [1usize, 2, 4] {
            let cfg = EvalConfig::with_threads(t).seq_threshold(0);
            let ctl = CancelToken::new().with_index_limit(1);
            let r =
                try_check_soundness_scheduled(&subject, &Allow::none(1), &grid, &cfg, None, &ctl)
                    .expect("no faults injected");
            assert_eq!(r.verdict, crate::error::Verdict::Unknown, "threads={t}");
            assert_eq!((r.checked, r.total), (1, 2), "threads={t}");
            assert!(r.report.is_none());
        }
    }

    #[test]
    fn try_scheduled_quarantines_panicking_subject() {
        crate::chaos::silence_chaos_panics();
        // Panic while sweeping schedule index 2 (binding p1 = {} of a
        // 2-slot arity-1 subject is index 0; the trigger fires on the
        // schedule whose first slot is {1}).
        let subject = FnScheduled {
            arity: 1,
            slots: 1,
            run: |_: &[V], s: &Schedule| {
                if s.slot(1).contains(1) {
                    panic!("{}: scheduled subject fault", crate::chaos::CHAOS_MARKER);
                }
                fixed_obs(0, s.initial)
            },
        };
        let grid = Grid::hypercube(1, 0..=2);
        for t in [1usize, 2, 4] {
            let cfg = EvalConfig::with_threads(t).seq_threshold(0);
            let r = try_check_soundness_scheduled(
                &subject,
                &Allow::none(1),
                &grid,
                &cfg,
                None,
                &CancelToken::new(),
            );
            match r {
                Err(crate::error::EnfError::SubjectPanicked { input_index, .. }) => {
                    assert_eq!(input_index, 1, "threads={t}")
                }
                other => panic!("expected quarantine, got {other:?} (threads={t})"),
            }
        }
    }
}
