//! First-class label lattices: security labels, intransitive flow
//! relations, and the lattice policy they induce.
//!
//! The paper's `allow(J)` policies are the two-point case of the lattice
//! policies its reference list points at (Denning's "A lattice model of
//! secure information flow", reference \[2\]; Bell's model, reference
//! \[1\]). This module provides the general form: each input carries a
//! label from a join-semilattice, an observer holds a clearance, and the
//! policy is "reveal exactly the inputs whose label flows to the
//! clearance".
//!
//! Two reductions keep every paper theorem applicable:
//!
//! * **Transitive:** for a fixed clearance `c` the lattice policy **is**
//!   `allow(J_c)` with `J_c = { i : label(i) ⊑ c }`
//!   ([`Classification::induced_allow`]) — the MLS reduction the
//!   surveillance crate has always used.
//! * **Intransitive:** with sanctioned release edges
//!   (`Secret ⇝ Declass ⇝ Public`, after Eggert et al., "Complexity and
//!   Unwinding for Intransitive Noninterference") the induced set grows to
//!   `J_c = { i : label(i) ⇝* c }` ([`IntransitiveFlow::reaches`],
//!   [`Classification::readable_allow`]): an input whose label has a
//!   sanctioned release chain down to the clearance is *permitted* to
//!   reach it. The static certifier in `enf_static` is strictly stricter —
//!   it additionally demands a `declassify` box on every carrying path —
//!   so certification implies soundness for this oracle by construction.
//!
//! [`check_soundness_lattice_with`] is the exhaustive ground truth:
//! **one** soundness sweep shared across *all* clearances at once. The
//! subject is evaluated once per input and its output recorded into one
//! class partition per *distinct* induced allow-set (clearances inducing
//! the same `J` share one) — bit-identical to `|L|` independent
//! [`check_soundness_with`](crate::check_soundness_with) sweeps at every
//! thread count, at a fraction of the subject evaluations.

use crate::domain::Grid;
use crate::indexset::IndexSet;
use crate::mechanism::Mechanism;
use crate::par::EvalConfig;
use crate::policy::{Allow, Policy};
use crate::soundness::{plain_sweep, SoundnessReport};
use crate::value::V;

/// A security label: an element of a join-semilattice with a bottom.
pub trait Label: Clone + Eq + std::fmt::Debug {
    /// The least label (public).
    fn bottom() -> Self;

    /// Least upper bound.
    #[must_use]
    fn join(&self, other: &Self) -> Self;

    /// The flow ordering `self ⊑ other`.
    fn flows_to(&self, other: &Self) -> bool;
}

/// The classic totally-ordered hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum Level {
    /// Public.
    Unclassified,
    /// Confidential.
    Confidential,
    /// Secret.
    Secret,
    /// Top secret.
    TopSecret,
}

impl Level {
    /// Every level, ascending — the order clearance sweeps use.
    pub const ALL: [Level; 4] = [
        Level::Unclassified,
        Level::Confidential,
        Level::Secret,
        Level::TopSecret,
    ];

    /// Machine-readable lowercase name, stable across releases.
    pub fn name(self) -> &'static str {
        match self {
            Level::Unclassified => "unclassified",
            Level::Confidential => "confidential",
            Level::Secret => "secret",
            Level::TopSecret => "topsecret",
        }
    }

    /// Parses a level from its [`Level::name`] (case-insensitive); the
    /// `.fc` label surface and the CLI `--clearance` flag use this.
    pub fn parse_name(s: &str) -> Option<Level> {
        let lower = s.to_ascii_lowercase();
        Level::ALL.into_iter().find(|l| l.name() == lower)
    }
}

impl Label for Level {
    fn bottom() -> Self {
        Level::Unclassified
    }

    fn join(&self, other: &Self) -> Self {
        *self.max(other)
    }

    fn flows_to(&self, other: &Self) -> bool {
        self <= other
    }
}

/// Level plus a compartment set — the standard *non-total* military
/// lattice: `(l1, C1) ⊑ (l2, C2)` iff `l1 ≤ l2` and `C1 ⊆ C2`.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct Compartmented {
    /// Hierarchical level.
    pub level: Level,
    /// Need-to-know compartments (reusing [`IndexSet`] as a small set).
    pub compartments: IndexSet,
}

impl Compartmented {
    /// Builds a label.
    pub fn new(level: Level, compartments: impl IntoIterator<Item = usize>) -> Self {
        Compartmented {
            level,
            compartments: compartments.into_iter().collect(),
        }
    }
}

impl Label for Compartmented {
    fn bottom() -> Self {
        Compartmented {
            level: Level::Unclassified,
            compartments: IndexSet::empty(),
        }
    }

    fn join(&self, other: &Self) -> Self {
        Compartmented {
            level: self.level.join(&other.level),
            compartments: self.compartments.union(&other.compartments),
        }
    }

    fn flows_to(&self, other: &Self) -> bool {
        self.level.flows_to(&other.level) && self.compartments.is_subset(&other.compartments)
    }
}

/// A flow relation with sanctioned release edges — the intransitive part
/// of an information-flow policy (Eggert et al.). An edge `(a, b)` says
/// "information at `a` may be *released* to `b`", over and above the
/// lattice order; release is only *exercised* through a `declassify` box,
/// which is what the static verifier enforces.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct IntransitiveFlow<L: Label> {
    edges: Vec<(L, L)>,
}

impl<L: Label> IntransitiveFlow<L> {
    /// The purely transitive relation: no release edges, `⇝` is `⊑`.
    pub fn transitive() -> Self {
        IntransitiveFlow { edges: Vec::new() }
    }

    /// Builds the relation from release edges.
    pub fn new(edges: impl IntoIterator<Item = (L, L)>) -> Self {
        IntransitiveFlow {
            edges: edges.into_iter().collect(),
        }
    }

    /// Adds a release edge `from ⇝ to`.
    pub fn add_edge(&mut self, from: L, to: L) {
        self.edges.push((from, to));
    }

    /// The release edges, in insertion order.
    pub fn edges(&self) -> &[(L, L)] {
        &self.edges
    }

    /// Whether the relation has any release edge.
    pub fn is_transitive(&self) -> bool {
        self.edges.is_empty()
    }

    /// One sanctioned step: `a ⊑ b` directly, or a single release edge
    /// `(e1, e2)` with `a ⊑ e1` and `e2 ⊑ b`. This is the condition a
    /// single `declassify` box must satisfy to be *sanctioned*.
    pub fn may_step(&self, a: &L, b: &L) -> bool {
        a.flows_to(b)
            || self
                .edges
                .iter()
                .any(|(e1, e2)| a.flows_to(e1) && e2.flows_to(b))
    }

    /// The reflexive-transitive closure `a ⇝* b`: `a ⊑ b`, or a chain of
    /// release edges stepping down to `b`. Antitone in `a` and monotone
    /// in `b`, so `a' ⊑ a ∧ a ⇝* b ∧ b ⊑ b' ⟹ a' ⇝* b'`.
    pub fn reaches(&self, a: &L, b: &L) -> bool {
        if a.flows_to(b) {
            return true;
        }
        // BFS over edge targets; the frontier only ever holds edge target
        // labels (finitely many), so this terminates.
        let mut seen: Vec<&L> = Vec::new();
        let mut frontier: Vec<&L> = vec![a];
        while let Some(l) = frontier.pop() {
            if l.flows_to(b) {
                return true;
            }
            for (e1, e2) in &self.edges {
                if l.flows_to(e1) && !seen.contains(&e2) {
                    seen.push(e2);
                    frontier.push(e2);
                }
            }
        }
        false
    }
}

/// A labeling of a `k`-input program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Classification<L: Label> {
    labels: Vec<L>,
}

impl<L: Label> Classification<L> {
    /// One label per input, in order.
    pub fn new(labels: Vec<L>) -> Self {
        Classification { labels }
    }

    /// The all-public labeling of a `k`-input program.
    pub fn public(k: usize) -> Self {
        Classification {
            labels: vec![L::bottom(); k],
        }
    }

    /// Number of inputs.
    pub fn arity(&self) -> usize {
        self.labels.len()
    }

    /// The label of input `i` (1-based).
    pub fn label(&self, i: usize) -> &L {
        &self.labels[i - 1]
    }

    /// All labels, in input order.
    pub fn labels(&self) -> &[L] {
        &self.labels
    }

    /// The join of the labels of the given inputs — `⊥` for the empty
    /// set. This is the label of a value influenced by exactly those
    /// inputs.
    pub fn join_of(&self, indices: &IndexSet) -> L {
        indices
            .iter()
            .fold(L::bottom(), |acc, i| acc.join(self.label(i)))
    }

    /// The paper-facing reduction: the allow-set an observer with
    /// `clearance` induces, `J_c = { i : label(i) ⊑ c }`.
    pub fn induced_allow(&self, clearance: &L) -> IndexSet {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, l)| l.flows_to(clearance))
            .map(|(i, _)| i + 1)
            .collect()
    }

    /// The induced `allow(J_c)` policy.
    pub fn induced_policy(&self, clearance: &L) -> Allow {
        Allow::from_set(self.arity(), self.induced_allow(clearance))
    }

    /// The intransitive reduction: `J_c = { i : label(i) ⇝* c }` — every
    /// input whose label reaches the clearance through the lattice order
    /// *or* a chain of sanctioned release edges. With no edges this is
    /// exactly [`Classification::induced_allow`].
    pub fn readable_allow(&self, flow: &IntransitiveFlow<L>, clearance: &L) -> IndexSet {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, l)| flow.reaches(l, clearance))
            .map(|(i, _)| i + 1)
            .collect()
    }
}

/// A label lattice promoted to a first-class [`Policy`]: a labeling, an
/// intransitive flow relation, and a fixed observer clearance. The
/// fixed-clearance reduction `J_c = { i : label(i) ⇝* c }` makes the
/// policy an [`Allow`] projection, so every paper theorem (soundness,
/// completeness, maximality) applies verbatim.
///
/// # Examples
///
/// ```
/// use enf_core::label::{Classification, IntransitiveFlow, LatticePolicy, Level};
/// use enf_core::{IndexSet, Policy};
///
/// let labeling = Classification::new(vec![Level::Secret, Level::Unclassified]);
/// // No release edges: a public observer sees only x2.
/// let p = LatticePolicy::new(
///     labeling.clone(),
///     IntransitiveFlow::transitive(),
///     Level::Unclassified,
/// );
/// assert_eq!(p.induced(), IndexSet::single(2));
/// assert_eq!(p.filter(&[7, 9]), vec![9]);
///
/// // A sanctioned Secret ⇝ Unclassified release edge widens the view.
/// let p = LatticePolicy::new(
///     labeling,
///     IntransitiveFlow::new([(Level::Secret, Level::Unclassified)]),
///     Level::Unclassified,
/// );
/// assert_eq!(p.induced(), IndexSet::full(2));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatticePolicy<L: Label> {
    labeling: Classification<L>,
    flow: IntransitiveFlow<L>,
    clearance: L,
    /// Cached `allow(J_c)` reduction.
    induced: IndexSet,
}

impl<L: Label> LatticePolicy<L> {
    /// Builds the policy, computing the fixed-clearance reduction once.
    pub fn new(labeling: Classification<L>, flow: IntransitiveFlow<L>, clearance: L) -> Self {
        let induced = labeling.readable_allow(&flow, &clearance);
        LatticePolicy {
            labeling,
            flow,
            clearance,
            induced,
        }
    }

    /// The input labeling.
    pub fn labeling(&self) -> &Classification<L> {
        &self.labeling
    }

    /// The flow relation.
    pub fn flow(&self) -> &IntransitiveFlow<L> {
        &self.flow
    }

    /// The observer clearance.
    pub fn clearance(&self) -> &L {
        &self.clearance
    }

    /// The induced allow-set `J_c = { i : label(i) ⇝* c }`.
    pub fn induced(&self) -> IndexSet {
        self.induced
    }

    /// The induced [`Allow`] policy — the paper-facing reduction.
    pub fn induced_policy(&self) -> Allow {
        Allow::from_set(self.labeling.arity(), self.induced)
    }
}

impl<L: Label> Policy for LatticePolicy<L> {
    type View = Vec<V>;

    fn arity(&self) -> usize {
        self.labeling.arity()
    }

    fn filter(&self, input: &[V]) -> Vec<V> {
        assert_eq!(
            input.len(),
            self.labeling.arity(),
            "arity mismatch: policy over {} inputs, got {}",
            self.labeling.arity(),
            input.len()
        );
        self.induced.iter().map(|i| input[i - 1]).collect()
    }

    fn projection(&self) -> Option<IndexSet> {
        Some(self.induced)
    }
}

/// Checks the mechanism against the lattice policy of **every** clearance
/// in one shared sweep over the domain.
///
/// Each clearance `c` induces `allow(J_c)` with
/// `J_c = { i : label(i) ⇝* c }`; clearances inducing the same `J` share
/// one class partition. The subject is evaluated **once** per input and
/// the output recorded into each distinct partition, so the sweep costs
/// one pass of subject evaluations plus one cheap mixed-radix record per
/// distinct policy — instead of `|clearances|` full sweeps.
///
/// The returned reports are positionally aligned with `clearances` and
/// **bit-identical** — verdict, class count, witness tuples and outputs —
/// to running [`check_soundness_with`](crate::check_soundness_with) once
/// per clearance, at every thread count (the workspace property tests pin
/// this at threads 1–8).
pub fn check_soundness_lattice_with<M, L>(
    mechanism: &M,
    labeling: &Classification<L>,
    flow: &IntransitiveFlow<L>,
    clearances: &[L],
    domain: &Grid,
    collapse_notices: bool,
    config: &EvalConfig,
) -> Vec<SoundnessReport<M::Out>>
where
    M: Mechanism + Sync,
    M::Out: PartialEq + Clone + Send,
    L: Label + Sync,
{
    assert_eq!(
        mechanism.arity(),
        labeling.arity(),
        "mechanism arity {} does not match labeling arity {}",
        mechanism.arity(),
        labeling.arity()
    );
    // Deduplicate clearances by induced policy: slot[k] is the policy
    // clearance k reads its verdict from.
    let mut policies: Vec<Allow> = Vec::new();
    let mut slot: Vec<usize> = Vec::with_capacity(clearances.len());
    for c in clearances {
        let policy = Allow::from_set(labeling.arity(), labeling.readable_allow(flow, c));
        let at = policies
            .iter()
            .position(|p| *p == policy)
            .unwrap_or_else(|| {
                policies.push(policy);
                policies.len() - 1
            });
        slot.push(at);
    }
    let reports = plain_sweep(mechanism, &policies, domain, collapse_notices, config);
    slot.into_iter().map(|k| reports[k].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_soundness_with;
    use crate::mechanism::{FnMechanism, MechOutput};

    #[test]
    fn level_names_round_trip() {
        for l in Level::ALL {
            assert_eq!(Level::parse_name(l.name()), Some(l));
            assert_eq!(Level::parse_name(&l.name().to_uppercase()), Some(l));
        }
        assert_eq!(Level::parse_name("classified"), None);
    }

    #[test]
    fn transitive_flow_is_the_lattice_order() {
        let f: IntransitiveFlow<Level> = IntransitiveFlow::transitive();
        assert!(f.is_transitive());
        assert!(f.reaches(&Level::Unclassified, &Level::Secret));
        assert!(!f.reaches(&Level::Secret, &Level::Unclassified));
        assert!(f.may_step(&Level::Confidential, &Level::Confidential));
    }

    #[test]
    fn release_edge_opens_a_downward_path() {
        let f = IntransitiveFlow::new([(Level::Secret, Level::Unclassified)]);
        assert!(f.may_step(&Level::Secret, &Level::Unclassified));
        assert!(f.reaches(&Level::Secret, &Level::Unclassified));
        // Antitone in the source: anything below Secret rides the edge.
        assert!(f.reaches(&Level::Confidential, &Level::Unclassified));
        // TopSecret is above the edge source: no release.
        assert!(!f.reaches(&Level::TopSecret, &Level::Unclassified));
    }

    #[test]
    fn release_chains_compose_in_reaches_but_not_in_may_step() {
        // TopSecret ⇝ Secret ⇝ Unclassified: the closure chains, one
        // step does not.
        let f = IntransitiveFlow::new([
            (Level::TopSecret, Level::Secret),
            (Level::Secret, Level::Unclassified),
        ]);
        assert!(f.reaches(&Level::TopSecret, &Level::Unclassified));
        assert!(f.may_step(&Level::TopSecret, &Level::Secret));
        assert!(!f.may_step(&Level::TopSecret, &Level::Unclassified));
    }

    #[test]
    fn readable_allow_extends_induced_allow() {
        let c = Classification::new(vec![Level::Secret, Level::Unclassified]);
        let f = IntransitiveFlow::new([(Level::Secret, Level::Unclassified)]);
        assert_eq!(c.induced_allow(&Level::Unclassified), IndexSet::single(2));
        assert_eq!(
            c.readable_allow(&f, &Level::Unclassified),
            IndexSet::full(2)
        );
        // With no edges the two coincide at every clearance.
        let t = IntransitiveFlow::transitive();
        for l in Level::ALL {
            assert_eq!(c.readable_allow(&t, &l), c.induced_allow(&l));
        }
    }

    #[test]
    fn join_of_indices() {
        let c = Classification::new(vec![Level::Secret, Level::Confidential]);
        assert_eq!(c.join_of(&IndexSet::empty()), Level::Unclassified);
        assert_eq!(c.join_of(&IndexSet::single(2)), Level::Confidential);
        assert_eq!(c.join_of(&IndexSet::full(2)), Level::Secret);
    }

    #[test]
    fn lattice_policy_filters_through_the_reduction() {
        let p = LatticePolicy::new(
            Classification::new(vec![Level::Secret, Level::Unclassified]),
            IntransitiveFlow::transitive(),
            Level::Unclassified,
        );
        assert_eq!(p.filter(&[10, 20]), vec![20]);
        assert_eq!(p.arity(), 2);
        assert_eq!(p.induced_policy(), Allow::new(2, [2]));
    }

    /// The shared sweep must be bit-identical to per-clearance class
    /// sweeps at every thread count.
    fn assert_lattice_matches_per_clearance<M>(
        m: &M,
        labeling: &Classification<Level>,
        flow: &IntransitiveFlow<Level>,
        g: &Grid,
    ) where
        M: Mechanism + Sync,
        M::Out: Eq + std::hash::Hash + Send + std::fmt::Debug,
    {
        for threads in [1usize, 2, 3, 8] {
            let cfg = EvalConfig::with_threads(threads).seq_threshold(0);
            let shared =
                check_soundness_lattice_with(m, labeling, flow, &Level::ALL, g, false, &cfg);
            for (c, got) in Level::ALL.iter().zip(&shared) {
                let policy = Allow::from_set(labeling.arity(), labeling.readable_allow(flow, c));
                let solo = check_soundness_with(m, &policy, g, false, &cfg);
                assert_eq!(got, &solo, "clearance {c:?}, threads {threads}");
            }
        }
    }

    #[test]
    fn shared_sweep_matches_per_clearance_sound_and_unsound() {
        let labeling = Classification::new(vec![Level::Secret, Level::Unclassified]);
        let g = Grid::hypercube(2, -2..=2);
        let t = IntransitiveFlow::transitive();
        // Reads only the public input: sound at every clearance.
        let clean = FnMechanism::new(2, |a: &[V]| MechOutput::Value(a[1]));
        assert_lattice_matches_per_clearance(&clean, &labeling, &t, &g);
        // Reads both: unsound below Secret, sound above.
        let leaky = FnMechanism::new(2, |a: &[V]| MechOutput::Value(a[0] + a[1]));
        assert_lattice_matches_per_clearance(&leaky, &labeling, &t, &g);
        // Release edge: the same leaky mechanism becomes sound everywhere.
        let f = IntransitiveFlow::new([(Level::Secret, Level::Unclassified)]);
        assert_lattice_matches_per_clearance(&leaky, &labeling, &f, &g);
    }

    #[test]
    fn shared_sweep_verdicts_follow_the_reduction() {
        let labeling = Classification::new(vec![Level::Secret, Level::Unclassified]);
        let g = Grid::hypercube(2, -1..=1);
        let leaky = FnMechanism::new(2, |a: &[V]| MechOutput::Value(a[0]));
        let reports = check_soundness_lattice_with(
            &leaky,
            &labeling,
            &IntransitiveFlow::transitive(),
            &Level::ALL,
            &g,
            false,
            &EvalConfig::default(),
        );
        assert!(!reports[0].is_sound(), "public observer must not see x1");
        assert!(!reports[1].is_sound());
        assert!(reports[2].is_sound(), "secret clearance covers x1");
        assert!(reports[3].is_sound());
    }

    #[test]
    fn duplicate_clearances_share_a_table() {
        let labeling = Classification::new(vec![Level::Secret, Level::Unclassified]);
        let g = Grid::hypercube(2, 0..=2);
        let m = FnMechanism::new(2, |a: &[V]| MechOutput::Value(a[1]));
        // Confidential and Unclassified induce the same J = {2};
        // Secret and TopSecret the same J = {1, 2}.
        let reports = check_soundness_lattice_with(
            &m,
            &labeling,
            &IntransitiveFlow::transitive(),
            &[
                Level::Unclassified,
                Level::Confidential,
                Level::Secret,
                Level::TopSecret,
            ],
            &g,
            false,
            &EvalConfig::default(),
        );
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[2], reports[3]);
        assert_ne!(
            reports[0], reports[2],
            "distinct J must count distinct classes"
        );
    }

    #[test]
    fn soundness_is_monotone_in_clearance() {
        // Higher clearance ⇒ larger J ⇒ finer policy partition: a sound
        // verdict at a low clearance need not lift, but an unsound one at
        // a *high* clearance implies unsound below it on chain lattices
        // with monotone mechanisms. Spot-check the direction we rely on:
        // once sound, higher stays sound for a projection mechanism.
        let labeling = Classification::new(vec![Level::Secret, Level::Confidential]);
        let g = Grid::hypercube(2, -1..=1);
        let m = FnMechanism::new(2, |a: &[V]| MechOutput::Value(a[0]));
        let reports = check_soundness_lattice_with(
            &m,
            &labeling,
            &IntransitiveFlow::transitive(),
            &Level::ALL,
            &g,
            false,
            &EvalConfig::default(),
        );
        let mut sound_seen = false;
        for r in &reports {
            if sound_seen {
                assert!(r.is_sound(), "soundness lost going up the chain");
            }
            sound_seen = r.is_sound();
        }
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn lattice_sweep_checks_arity() {
        let m = FnMechanism::new(2, |a: &[V]| MechOutput::Value(a[0]));
        let g = Grid::hypercube(2, 0..=1);
        let _ = check_soundness_lattice_with(
            &m,
            &Classification::new(vec![Level::Secret]),
            &IntransitiveFlow::transitive(),
            &[Level::Secret],
            &g,
            false,
            &EvalConfig::default(),
        );
    }
}
