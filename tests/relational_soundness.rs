//! Acceptance properties for the three-valued relational verifier: the
//! verdict never contradicts the exhaustive soundness oracle on the same
//! grid, every `Leak` witness replays, and the refuter reports exactly the
//! first conflict, at every thread count and under index limits.
//!
//! The oracle is a pair search: a self-composition domain whose index
//! `j·|D| + i` is the pair of inputs `i` and `j`, scanned for the first
//! pair with `i < j` that agrees on `J` and whose two AST runs release
//! different outcomes. That pair, least by `j` and then by `i`, is the
//! first conflict.

use enforcement::core::par::find_first;
use enforcement::core::{
    try_check_soundness_with, CancelToken, EvalConfig, Identity, IndexSet, InputDomain, MechOutput,
    Verdict, V,
};
use enforcement::flowchart::generate::{random_flowchart, GenConfig};
use enforcement::flowchart::graph::Flowchart;
use enforcement::flowchart::interp::{run, ExecConfig, ExecValue, Outcome};
use enforcement::prelude::*;
use enforcement::staticflow::{refute, verify, LeakWitness, RelationalVerdict};
use proptest::prelude::*;

/// Shared fuel bound: the verifier and the oracle must observe the same
/// totalized semantics, or divergence leaks would classify differently.
const FUEL: u64 = 10_000;

fn policy_from_mask(mask: u8) -> IndexSet {
    let mut j = IndexSet::empty();
    for i in 1..=3 {
        if mask & (1 << (i - 1)) != 0 {
            j.insert(i);
        }
    }
    j
}

/// Forced-parallel configuration with exactly `t` workers.
fn par(t: usize) -> EvalConfig {
    EvalConfig::with_threads(t).seq_threshold(0)
}

/// The first `len` inputs of a base domain: the prefix an index limit
/// leaves a sweep.
struct Prefix<'a> {
    base: &'a dyn InputDomain,
    len: usize,
}

impl InputDomain for Prefix<'_> {
    fn arity(&self) -> usize {
        self.base.arity()
    }

    fn len(&self) -> usize {
        self.len
    }

    fn iter_inputs(&self) -> Box<dyn Iterator<Item = Vec<V>> + '_> {
        Box::new(self.base.iter_inputs().take(self.len))
    }

    fn nth_input(&self, idx: usize, buf: &mut Vec<V>) {
        assert!(idx < self.len, "index {idx} past the prefix");
        self.base.nth_input(idx, buf);
    }
}

/// The product domain `D × D`, ordered by the second input: pair index
/// `j·|D| + i` decodes to the concatenation of tuples `i` and `j` of the
/// base domain.
struct PairDomain<'a> {
    base: &'a dyn InputDomain,
}

impl InputDomain for PairDomain<'_> {
    fn arity(&self) -> usize {
        self.base.arity() * 2
    }

    fn len(&self) -> usize {
        self.base.len() * self.base.len()
    }

    fn iter_inputs(&self) -> Box<dyn Iterator<Item = Vec<V>> + '_> {
        Box::new(self.base.iter_inputs().flat_map(move |b| {
            self.base.iter_inputs().map(move |mut a| {
                a.extend_from_slice(&b);
                a
            })
        }))
    }

    fn nth_input(&self, idx: usize, buf: &mut Vec<V>) {
        let n = self.base.len();
        self.base.nth_input(idx % n, buf);
        let mut second = Vec::with_capacity(self.base.arity());
        self.base.nth_input(idx / n, &mut second);
        buf.extend_from_slice(&second);
    }
}

fn released(outcome: &Outcome) -> ExecValue {
    match outcome {
        Outcome::Halted(h) => ExecValue::Value(h.y),
        Outcome::OutOfFuel => ExecValue::Diverged,
    }
}

/// The pair search: among the pairs `(i, j)` of `J`-agreeing inputs of
/// `domain` with `i < j` whose AST runs release different outcomes, the
/// one least by `j` and then by `i`, with `j`.
fn first_conflict(
    fc: &Flowchart,
    allowed: IndexSet,
    domain: &dyn InputDomain,
) -> Option<(LeakWitness, usize)> {
    let (k, n) = (fc.arity(), domain.len());
    let cfg = ExecConfig::with_fuel(FUEL);
    find_first(&PairDomain { base: domain }, &par(1), |idx, pair| {
        let (a, b) = pair.split_at(k);
        if idx % n >= idx / n || !allowed.iter().all(|i| a.get(i - 1) == b.get(i - 1)) {
            return None;
        }
        let out_a = released(&run(fc, a, &cfg));
        let out_b = released(&run(fc, b, &cfg));
        (out_a != out_b).then(|| LeakWitness {
            a: a.to_vec(),
            b: b.to_vec(),
            out_a,
            out_b,
        })
    })
    .map(|(idx, w)| (w, idx / n))
}

/// Refutes `fc` at threads 1–8, uncut and under the index limits in
/// `limits`, and compares every report with the pair search over the
/// same prefix, and with the soundness sweep of the bare program on the
/// AST interpreter.
fn assert_refute_matches_the_pair_search(
    fc: &Flowchart,
    allowed: IndexSet,
    g: &Grid,
    limits: &[usize],
) -> Result<(), TestCaseError> {
    let total = g.len();
    let program = Identity::new(FlowchartProgram::with_fuel(fc.clone(), FUEL));
    let policy = Allow::from_set(fc.arity(), allowed);
    for &limit in [total].iter().chain(limits) {
        let limit = limit.min(total);
        let found = first_conflict(
            fc,
            allowed,
            &Prefix {
                base: g,
                len: limit,
            },
        );
        let verdict = match (&found, limit == total) {
            (Some(_), _) => Verdict::Refuted,
            (None, true) => Verdict::Confirmed,
            (None, false) => Verdict::Unknown,
        };
        // A leak ends the sweep at the pair's second input.
        let want = (verdict, found.as_ref().map_or(limit, |(_, j)| j + 1), total);
        let found = found.map(|(w, _)| w);
        for t in 1..=8usize {
            let ctl = CancelToken::new().with_index_limit(limit);
            let got = refute(fc, allowed, g, FUEL, &par(t), &ctl)
                .map_err(|e| TestCaseError::fail(format!("quarantined: {e}")))?;
            prop_assert_eq!(
                (got.verdict, got.checked, got.total),
                want,
                "J = {}, limit {}, threads {}",
                allowed,
                limit,
                t
            );
            prop_assert_eq!(
                &got.report,
                &found,
                "J = {}, limit {}, threads {}: not the first conflict",
                allowed,
                limit,
                t
            );
            let swept = try_check_soundness_with(&program, &policy, g, false, &par(t), &ctl)
                .map_err(|e| TestCaseError::fail(format!("quarantined: {e}")))?;
            let witness = swept.report.as_ref().and_then(|r| r.witness()).map(|w| {
                let value = |out: &MechOutput<ExecValue>| *out.value().expect("accepted");
                LeakWitness {
                    a: w.a.clone(),
                    b: w.b.clone(),
                    out_a: value(&w.out_a),
                    out_b: value(&w.out_b),
                }
            });
            prop_assert_eq!(
                (swept.verdict, swept.checked, swept.total),
                want,
                "J = {}, limit {}, threads {}: the AST sweep",
                allowed,
                limit,
                t
            );
            prop_assert_eq!(
                &witness,
                &found,
                "J = {}, limit {}, threads {}: not the AST sweep's witness",
                allowed,
                limit,
                t
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The three-valued verdict agrees with `check_soundness` run on the
    /// same grid with the same fuel: `Certified` and `Unknown` imply the
    /// grid is sound, `Leak` implies it is not and the witness replays.
    #[test]
    fn verdict_never_contradicts_the_exhaustive_oracle(
        seed in 0u64..20_000,
        mask in 0u8..4,
    ) {
        let fc = random_flowchart(seed, &GenConfig::default());
        let allowed = policy_from_mask(mask);
        let g = Grid::hypercube(fc.arity(), -2..=2);
        let verdict = verify(&fc, allowed, &g, FUEL, &EvalConfig::default(), &CancelToken::new())
            .map_err(|e| TestCaseError::fail(format!("quarantined: {e}")))?;
        let oracle = check_soundness(
            &Identity::new(FlowchartProgram::with_fuel(fc.clone(), FUEL)),
            &Allow::from_set(fc.arity(), allowed),
            &g,
            false,
        );
        match verdict {
            RelationalVerdict::Certified | RelationalVerdict::Unknown { .. } => {
                prop_assert!(
                    oracle.is_sound(),
                    "seed {}, J = {}: verdict claimed grid-soundness, oracle found {:?}",
                    seed, allowed, oracle.witness()
                );
            }
            RelationalVerdict::Leak { witness } => {
                prop_assert!(
                    !oracle.is_sound(),
                    "seed {}, J = {}: Leak verdict but the oracle says sound",
                    seed, allowed
                );
                prop_assert!(
                    witness.replays(&fc, allowed, FUEL),
                    "seed {}, J = {}: witness {:?} failed replay",
                    seed, allowed, witness
                );
            }
        }
    }

    /// The refuter's witness is the pair search's first conflict, value
    /// for value, for every worker count 1..=8; under an index limit it is
    /// the first conflict inside the prefix, and a prefix without one is
    /// `Unknown`. At arity 3 a policy that leaves out `x1` has classes
    /// whose members interleave, so a class's first conflict can come
    /// after another class's.
    #[test]
    fn witness_is_bit_identical_at_every_thread_count(
        seed in 0u64..20_000,
        arity in 2usize..=3,
        mask in 0u8..8,
        limits in proptest::collection::vec(0usize..=27, 2),
    ) {
        let fc = random_flowchart(seed, &GenConfig { arity, ..GenConfig::default() });
        let span = if arity == 2 { 2 } else { 1 };
        let g = Grid::hypercube(arity, -span..=span);
        let allowed = policy_from_mask(mask & ((1 << arity) - 1));
        assert_refute_matches_the_pair_search(&fc, allowed, &g, &limits)?;
    }

    /// The same on programs built so that the classes of allow(2) conflict
    /// in any order: the class `x2 = c` releases `x1 >= t_c`, so it first
    /// conflicts at `x1 = t_c`, and the first conflict often lies in a
    /// class whose first member is not the least of the leaking classes'.
    #[test]
    fn refute_reports_the_least_pair_when_classes_conflict_out_of_order(
        thresholds in proptest::collection::vec(-2i64..=3, 5),
        mask in 0u8..4,
        limits in proptest::collection::vec(0usize..=25, 2),
    ) {
        let mut body = "y := 0;".to_string();
        for (c, t) in (-2i8..=2).zip(&thresholds).rev() {
            body = format!(
                "if x2 == {c} {{ if x1 >= {t} {{ y := 1; }} else {{ y := 0; }} }} else {{ {body} }}"
            );
        }
        let fc = enforcement::flowchart::parse(&format!("program(2) {{ {body} }}")).unwrap();
        let g = Grid::hypercube(2, -2..=2);
        assert_refute_matches_the_pair_search(&fc, policy_from_mask(mask), &g, &limits)?;
    }
}

/// The same differential on every corpus program under its policy and
/// under `allow()`.
#[test]
fn refute_reports_the_least_pair_on_the_corpus() {
    for pp in enforcement::flowchart::corpus::all() {
        let fc = &pp.flowchart;
        let span = if fc.arity() <= 2 { 2 } else { 1 };
        let g = Grid::hypercube(fc.arity(), -span..=span);
        let limits = [g.len() / 3, g.len() / 2 + 1];
        for allowed in [pp.policy.allowed(), IndexSet::empty()] {
            assert_refute_matches_the_pair_search(fc, allowed, &g, &limits)
                .unwrap_or_else(|e| panic!("{}: {e}", pp.name));
        }
    }
}
