//! Empirical soundness checking — the bridge between policy and mechanism.
//!
//! The paper: "`M` is sound provided there is a function `M′: 𝔐 → E ∪ F`
//! such that for all `(d1, …, dk)`, `M(d1, …, dk) = M′(I(d1, …, dk))`."
//!
//! On an enumerable domain this factoring condition is decidable: partition
//! the domain by the policy view `I(a)` and require `M` to be constant on
//! every class. [`check_soundness`] does exactly that and returns a witness
//! pair on failure — two inputs the policy deems indistinguishable on which
//! the mechanism behaves differently, i.e. a concrete leak.
//!
//! Every sweep in the crate — plain, fail-closed, checkpointed
//! ([`crate::checkpoint`]) and all-clearance ([`crate::label`]) — runs
//! through the one sweep loop in this module. It names each input's class
//! by a mixed-radix index when the policy is a projection
//! ([`Policy::projection`]) and the domain a grid
//! ([`InputDomain::grid_ranges`]), and by its hashed view otherwise; both
//! partitions yield the same classes, so the choice never shows in a
//! report.
//!
//! On *unbounded* domains soundness is undecidable (Ruzzo's observation in
//! Section 4: `Q` is sound for `Q` and `allow()` iff `Q` is constant); the
//! checker is therefore exact on the supplied finite domain and nothing
//! more. Checking over a sampled sub-domain yields a sound *refuter* (a
//! found witness is a real leak) but not a verifier.

use crate::checkpoint::{CheckpointSink, ClassRow, SoundnessCheckpoint};
use crate::domain::InputDomain;
use crate::error::{Coverage, EnfError};
use crate::indexset::IndexSet;
use crate::mechanism::{MechOutput, Mechanism};
use crate::par::{self, first, plain, CancelToken, EvalConfig, Guard, Guarded, Plain};
use crate::policy::Policy;
use crate::program::Program;
use crate::value::V;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::RangeInclusive;

/// Outcome of an empirical soundness check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SoundnessReport<O> {
    /// The mechanism factored through the policy view on every enumerated
    /// input.
    Sound {
        /// Number of inputs enumerated.
        inputs: usize,
        /// Number of distinct policy views (equivalence classes) seen.
        classes: usize,
    },
    /// Two policy-indistinguishable inputs produced different mechanism
    /// outputs: a leak.
    Unsound(Witness<O>),
}

/// A concrete counterexample to soundness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness<O> {
    /// First input tuple.
    pub a: Vec<V>,
    /// Second input tuple, with `I(a) = I(b)`.
    pub b: Vec<V>,
    /// `M(a)`.
    pub out_a: MechOutput<O>,
    /// `M(b)`, different from `M(a)`.
    pub out_b: MechOutput<O>,
}

impl<O> SoundnessReport<O> {
    /// Whether the check passed.
    pub fn is_sound(&self) -> bool {
        matches!(self, SoundnessReport::Sound { .. })
    }

    /// The witness, if the check failed.
    pub fn witness(&self) -> Option<&Witness<O>> {
        match self {
            SoundnessReport::Sound { .. } => None,
            SoundnessReport::Unsound(w) => Some(w),
        }
    }
}

/// Checks that `M` is sound for policy `I` over the given domain.
///
/// If `collapse_notices` is true, all violation notices are identified
/// before comparison (adequate when the mechanism emits a single notice
/// value; the paper's Example 4 leaky-notice mechanisms are only caught with
/// `collapse_notices = false`).
///
/// # Examples
///
/// ```
/// use enf_core::{check_soundness, Allow, FnMechanism, Grid, MechOutput};
///
/// // M reveals x1 + x2 but the policy only allows x1: unsound.
/// let m = FnMechanism::new(2, |a: &[i64]| MechOutput::Value(a[0] + a[1]));
/// let report = check_soundness(&m, &Allow::new(2, [1]), &Grid::hypercube(2, 0..=2), false);
/// assert!(!report.is_sound());
///
/// // M reveals only x1: sound.
/// let m = FnMechanism::new(2, |a: &[i64]| MechOutput::Value(a[0]));
/// let report = check_soundness(&m, &Allow::new(2, [1]), &Grid::hypercube(2, 0..=2), false);
/// assert!(report.is_sound());
/// ```
pub fn check_soundness<M, P>(
    mechanism: &M,
    policy: &P,
    domain: &dyn InputDomain,
    collapse_notices: bool,
) -> SoundnessReport<M::Out>
where
    M: Mechanism + Sync,
    M::Out: Eq + std::hash::Hash + Send,
    P: Policy + Sync,
    P::View: Send,
{
    check_soundness_with(
        mechanism,
        policy,
        domain,
        collapse_notices,
        &EvalConfig::default(),
    )
}

/// Like [`check_soundness`] but with an explicit evaluation configuration.
///
/// The scan partitions the domain's index space across workers
/// ([`crate::par`]); each worker folds its contiguous range into per-class
/// `(representative, first-conflict)` state, and partials are merged in
/// range order. The merge preserves the sequential semantics exactly: the
/// reported witness is the one the single-threaded scan would return — the
/// class representative is the globally first occurrence of the class, and
/// the conflicting input is the globally least-index input that
/// disagrees with its class representative — for every thread count.
///
/// An `Allow`-shaped policy over a [`crate::Grid`] is swept by class index
/// (no view vector, no hashing); any other pair by hashed view. The report
/// is the same either way.
pub fn check_soundness_with<M, P>(
    mechanism: &M,
    policy: &P,
    domain: &dyn InputDomain,
    collapse_notices: bool,
    config: &EvalConfig,
) -> SoundnessReport<M::Out>
where
    M: Mechanism + Sync,
    M::Out: Eq + std::hash::Hash + Send,
    P: Policy + Sync,
    P::View: Send,
{
    plain_sweep(
        mechanism,
        std::slice::from_ref(policy),
        domain,
        collapse_notices,
        config,
    )
    .swap_remove(0)
}

/// Fault-tolerant [`check_soundness_with`]: a panicking mechanism or
/// policy is quarantined ([`EnfError::SubjectPanicked`]) instead of
/// unwinding, and the sweep honors the cancellation token, reporting
/// partial coverage.
///
/// Verdict semantics (deterministic for every thread count under
/// fault-free, quarantined, or index-limited runs):
///
/// * `Ok(Coverage { verdict: Refuted, report: Some(Unsound(w)), .. })` — a
///   genuine leak; `w` is the same witness the sequential scan reports,
///   and `checked` is at most the conflicting input's index plus one.
/// * `Ok(Coverage { verdict: Confirmed, report: Some(Sound { .. }), .. })`
///   — full coverage, no conflict, nothing quarantined. This is the
///   **only** way to obtain a `Sound` report from this function.
/// * `Ok(Coverage { verdict: Unknown, report: None, .. })` — cancelled
///   before any conflict; nothing is claimed.
/// * `Err(SubjectPanicked)` — a subject panicked at an index smaller than
///   any conflict.
pub fn try_check_soundness_with<M, P>(
    mechanism: &M,
    policy: &P,
    domain: &dyn InputDomain,
    collapse_notices: bool,
    config: &EvalConfig,
    ctl: &CancelToken,
) -> Result<Coverage<SoundnessReport<M::Out>>, EnfError>
where
    M: Mechanism + Sync,
    M::Out: Eq + std::hash::Hash + Send,
    P: Policy + Sync,
    P::View: Send,
{
    guarded_sweep(
        mechanism,
        policy,
        domain,
        collapse_notices,
        config,
        ctl,
        None,
    )
}

/// Block-sequential checkpointing for [`guarded_sweep`].
pub(crate) struct Checkpoints<'s, 'a, O, W> {
    /// Stamped into every checkpoint document.
    pub(crate) fingerprint: u64,
    /// Inputs per block; a checkpoint follows each completed block.
    pub(crate) block: usize,
    /// A validated checkpoint of this sweep to continue from.
    pub(crate) resume: Option<&'s SoundnessCheckpoint<O, W>>,
    /// Receives each checkpoint; an error aborts the sweep.
    pub(crate) sink: &'s mut CheckpointSink<'a, O, W>,
}

/// The fail-closed sweep of one policy, checkpointed when asked: the body
/// of [`try_check_soundness_with`] and
/// [`check_soundness_checkpointed`](crate::checkpoint::check_soundness_checkpointed).
pub(crate) fn guarded_sweep<M, P>(
    mechanism: &M,
    policy: &P,
    domain: &dyn InputDomain,
    collapse_notices: bool,
    config: &EvalConfig,
    ctl: &CancelToken,
    checkpoints: Option<Checkpoints<'_, '_, M::Out, P::View>>,
) -> Result<Coverage<SoundnessReport<M::Out>>, EnfError>
where
    M: Mechanism + Sync,
    M::Out: Send,
    P: Policy + Sync,
    P::View: Send,
{
    let swept = sweep::<Guarded, _, _>(
        mechanism,
        std::slice::from_ref(policy),
        domain,
        collapse_notices,
        config,
        ctl,
        checkpoints,
    )?;
    let (checked, total, complete) = (swept.checked, swept.total, swept.complete);
    Ok(match swept.into_reports(domain).pop() {
        Some(report @ SoundnessReport::Unsound(_)) => Coverage::refuted(checked, total, report),
        Some(report) if complete => Coverage::confirmed(total, report),
        _ => Coverage::unknown(checked, total),
    })
}

/// The infallible sweep of several policies at once, one subject
/// evaluation per input: the body of [`check_soundness_with`] and of the
/// all-clearance [`crate::label::check_soundness_lattice_with`]. Reports
/// are aligned with `policies`; a subject panic unwinds to the caller.
pub(crate) fn plain_sweep<M, P>(
    mechanism: &M,
    policies: &[P],
    domain: &dyn InputDomain,
    collapse_notices: bool,
    config: &EvalConfig,
) -> Vec<SoundnessReport<M::Out>>
where
    M: Mechanism + Sync,
    M::Out: Send,
    P: Policy + Sync,
    P::View: Send,
{
    let swept = sweep::<Plain, _, _>(
        mechanism,
        policies,
        domain,
        collapse_notices,
        config,
        &CancelToken::new(),
        None,
    );
    plain(swept).into_reports(domain)
}

/// What a sweep leaves behind: one merged table per policy plus coverage.
struct Sweep<W, O> {
    tables: Vec<ClassTable<W, O>>,
    /// Every index in `0..checked` was evaluated; after a refutation, no
    /// more than the deciding conflict's index plus one.
    checked: usize,
    /// Every input was evaluated with nothing quarantined.
    complete: bool,
    total: usize,
}

impl<W: Eq + std::hash::Hash, O: Clone + PartialEq> Sweep<W, O> {
    /// One report per policy: the least-index conflict as a witness, else
    /// `Sound` with the class count.
    fn into_reports(self, domain: &dyn InputDomain) -> Vec<SoundnessReport<O>> {
        let total = self.total;
        self.tables
            .into_iter()
            .map(|table| {
                let classes = table.classes();
                match table.least_conflict() {
                    Some((rep, conflict)) => {
                        SoundnessReport::Unsound(decode_witness(domain, rep, conflict))
                    }
                    None => SoundnessReport::Sound {
                        inputs: total,
                        classes,
                    },
                }
            })
            .collect()
    }
}

/// The soundness sweep: every entry point of this module runs it.
///
/// The index space is folded one checkpoint block at a time (a single
/// one unless checkpointing) through [`par::fold`]. Each worker runs the
/// subject once per input, a fold block at a time through
/// [`Mechanism::run_rows`], and records each output in one class table
/// per policy; a table stops
/// taking inputs once it holds a conflict in the worker's range, and the
/// input that gives the last table its conflict decides the fold, so
/// sibling workers stop past it. Partials merge in range order, so each
/// class's representative is its globally first occurrence and each
/// table's least conflict the one the sequential scan meets first. A
/// quarantine ranks against the conflicts by input index.
fn sweep<G, M, P>(
    mechanism: &M,
    policies: &[P],
    domain: &dyn InputDomain,
    collapse_notices: bool,
    config: &EvalConfig,
    ctl: &CancelToken,
    mut checkpoints: Option<Checkpoints<'_, '_, M::Out, P::View>>,
) -> Result<Sweep<P::View, M::Out>, EnfError>
where
    G: Guard,
    M: Mechanism + Sync,
    M::Out: Send,
    P: Policy + Sync,
    P::View: Send,
{
    for policy in policies {
        assert_soundness_arities(mechanism.arity(), policy.arity(), domain.arity());
    }
    let total = domain.len();
    let parts: Vec<Partition<'_, P>> = policies.iter().map(|p| Partition::of(p, domain)).collect();
    let mut merged: Vec<ClassTable<P::View, M::Out>> = parts.iter().map(Partition::table).collect();
    let mut start = 0;
    let mut block = total;
    if let Some(c) = &checkpoints {
        block = c.block;
        if let (Some(ckpt), Some(part), Some(table)) = (c.resume, parts.first(), merged.first_mut())
        {
            table.resume(part, ckpt, domain)?;
            start = ckpt.next_index;
        }
    }

    // With no policy there is nothing to record, so the subject never runs.
    while start < total && !parts.is_empty() {
        let span = start..start.saturating_add(block).min(total);
        let mut partials = par::fold::<G, _>(
            domain,
            span.clone(),
            config,
            ctl,
            // Per policy: its table, and whether it still takes inputs; and
            // the outputs of the block in hand.
            || {
                let tables = parts.iter().map(|p| (p.table(), true)).collect::<Vec<_>>();
                (tables, Vec::with_capacity(par::BLOCK_ROWS))
            },
            |(lanes, outs), start, rows| {
                // A block whose run panicked may have left outputs behind.
                outs.clear();
                mechanism.run_rows(rows, outs);
                assert_eq!(outs.len(), rows.len(), "run_rows gives one output per row");
                // The policy is part of the subject, so its view is taken
                // under the guard too. A view is taken before the record it
                // keys, and a table that has a conflict takes nothing more,
                // so a block stepped again after a panic records each input
                // to the same effect.
                for (k, (a, out)) in rows.iter().zip(outs.drain(..)).enumerate() {
                    let out = if collapse_notices {
                        out.collapse_notice()
                    } else {
                        out
                    };
                    let mut open = 0;
                    for (part, (table, taking)) in parts.iter().zip(lanes.iter_mut()) {
                        if *taking && part.record(table, a, start + k, &out) {
                            *taking = false;
                        }
                        open += usize::from(*taking);
                    }
                    if open == 0 {
                        return Some(k);
                    }
                }
                None
            },
        );

        for (part, _) in std::mem::take(&mut partials.parts) {
            for (m, (p, _)) in merged.iter_mut().zip(part) {
                m.merge(p);
            }
        }
        // The sweep is decided once every table holds a conflict: no later
        // input can change a verdict.
        let decided = merged
            .iter()
            .try_fold(0, |acc, t| t.least_conflict_idx().map(|c| acc.max(c)));
        partials.resolve_quarantine(decided)?;
        let frontier = span.start + partials.checked;
        if decided.is_some() || !partials.complete {
            return Ok(Sweep {
                tables: merged,
                checked: decided.map_or(frontier, |d| frontier.min(d + 1)),
                complete: false,
                total,
            });
        }
        start = span.end;
        if let (Some(c), Some(policy), Some(table)) =
            (checkpoints.as_mut(), policies.first(), merged.first())
        {
            (c.sink)(&SoundnessCheckpoint {
                fingerprint: c.fingerprint,
                total,
                next_index: start,
                classes: table.rows(policy, domain),
            })?;
        }
    }
    Ok(Sweep {
        tables: merged,
        checked: total,
        complete: true,
        total,
    })
}

/// Asserts the three arities agree; shared by every soundness entry point.
fn assert_soundness_arities(mech_arity: usize, policy_arity: usize, domain_arity: usize) {
    assert_eq!(
        mech_arity, policy_arity,
        "mechanism arity {mech_arity} does not match policy arity {policy_arity}"
    );
    assert_eq!(
        domain_arity, policy_arity,
        "domain arity {domain_arity} does not match policy arity {policy_arity}"
    );
}

/// Largest class count for which a table keeps its classes in a flat
/// array; beyond it class indices are hashed. 2^16 slots keep a
/// per-worker table within a few megabytes for any output type.
const FLAT_CLASS_LIMIT: u128 = 1 << 16;

/// How a sweep names an input's class.
enum Partition<'p, P> {
    /// A projection policy over a grid: every class is a sub-grid, and a
    /// tuple's class is a mixed-radix number over the allowed coordinates.
    Classes(ClassLayout),
    /// Any other policy: the class is the view itself.
    Views(&'p P),
}

impl<'p, P: Policy> Partition<'p, P> {
    /// The class index when the policy is a projection and the domain a
    /// grid, the hashed view otherwise.
    fn of(policy: &'p P, domain: &dyn InputDomain) -> Self {
        match (policy.projection(), domain.grid_ranges()) {
            (Some(allowed), Some(ranges)) => Partition::Classes(ClassLayout::new(allowed, ranges)),
            _ => Partition::Views(policy),
        }
    }

    /// Records input `idx` (the tuple `a`) with output `out` in `table`.
    /// Each arm calls [`ClassTable::record`] with a key of known shape,
    /// so the class-index path carries no view and no drop glue.
    #[inline(always)]
    fn record<O: Clone + PartialEq>(
        &self,
        table: &mut ClassTable<P::View, O>,
        a: &[V],
        idx: usize,
        out: &MechOutput<O>,
    ) -> bool {
        match self {
            Partition::Classes(layout) => {
                table.record(ClassKey::Index(layout.class_of(a)), idx, out)
            }
            Partition::Views(policy) => table.record(ClassKey::View(policy.filter(a)), idx, out),
        }
    }

    /// An empty table, flat when the classes are few enough to number.
    fn table<O>(&self) -> ClassTable<P::View, O> {
        let flat = match self {
            Partition::Classes(ClassLayout { count: Some(n), .. }) if *n <= FLAT_CLASS_LIMIT => {
                *n as usize
            }
            _ => 0,
        };
        let mut slots = Vec::new();
        slots.resize_with(flat, || None);
        ClassTable {
            flat: slots,
            hashed: HashMap::new(),
        }
    }
}

/// The class arithmetic of a projection `allow(J)` over a grid: a
/// mixed-radix number over the allowed coordinates.
struct ClassLayout {
    /// `(tuple position, range start, span)` per allowed coordinate,
    /// ascending — the same order [`crate::Allow::filter`] projects in.
    coords: Vec<(usize, V, u128)>,
    /// Total class count, `None` if it overflows `u128`.
    count: Option<u128>,
}

impl ClassLayout {
    fn new(allowed: IndexSet, ranges: &[RangeInclusive<V>]) -> Self {
        let mut coords = Vec::new();
        let mut count: Option<u128> = Some(1);
        for i in allowed.iter() {
            let r = &ranges[i - 1];
            let span = (*r.end() as i128 - *r.start() as i128) as u128 + 1;
            count = count.and_then(|c| c.checked_mul(span));
            coords.push((i - 1, *r.start(), span));
        }
        ClassLayout { coords, count }
    }

    /// The class index of `a`: injective on policy views, so two tuples
    /// share a class index iff the projection maps them to the same view.
    #[inline]
    fn class_of(&self, a: &[V]) -> u128 {
        let mut ci: u128 = 0;
        for &(pos, start, span) in &self.coords {
            ci = ci * span + (a[pos] as i128 - start as i128) as u128;
        }
        ci
    }
}

/// An input's class: a class index or a view.
#[derive(PartialEq, Eq, Hash)]
enum ClassKey<W> {
    Index(u128),
    View(W),
}

/// An input tuple seen by the sweep: its enumeration index and the
/// mechanism's output on it. The tuple itself is recovered from the index
/// only when a witness or checkpoint needs it, so the hot loop allocates
/// nothing per class.
struct Occurrence<O> {
    idx: usize,
    out: MechOutput<O>,
}

/// One class's state over an index range.
struct Class<O> {
    /// First occurrence of the class.
    rep: Occurrence<O>,
    /// First occurrence whose output differs from `rep`'s.
    conflict: Option<Occurrence<O>>,
}

impl<O: PartialEq> Class<O> {
    /// Folds in the same class's state from the next range in order.
    fn absorb(&mut self, later: Class<O>) {
        // The least index of `later`'s range disagreeing with this
        // representative: its own first occurrence if that already
        // disagrees, else its recorded conflict (which disagrees with the
        // shared representative output).
        let candidate = if later.rep.out != self.rep.out {
            Some(later.rep)
        } else {
            later.conflict
        };
        if let Some(c) = candidate {
            if self.conflict.as_ref().is_none_or(|mc| c.idx < mc.idx) {
                self.conflict = Some(c);
            }
        }
    }
}

/// A worker's or the merged per-class state. Numbered classes sit in a
/// flat array, the rest in a hash map.
struct ClassTable<W, O> {
    flat: Vec<Option<Class<O>>>,
    hashed: HashMap<ClassKey<W>, Class<O>>,
}

impl<W: Eq + std::hash::Hash, O: Clone + PartialEq> ClassTable<W, O> {
    /// Records input `idx` with output `out`: the first occurrence of a
    /// class becomes its representative, the first disagreeing one its
    /// conflict. Returns `true` when this input became the conflict.
    #[inline(always)]
    fn record(&mut self, key: ClassKey<W>, idx: usize, out: &MechOutput<O>) -> bool {
        let first = || Class {
            rep: Occurrence {
                idx,
                out: out.clone(),
            },
            conflict: None,
        };
        let class = match key {
            ClassKey::Index(ci) if ci < self.flat.len() as u128 => {
                match &mut self.flat[ci as usize] {
                    Some(class) => class,
                    slot => {
                        *slot = Some(first());
                        return false;
                    }
                }
            }
            key => match self.hashed.entry(key) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    e.insert(first());
                    return false;
                }
            },
        };
        if class.conflict.is_none() && class.rep.out != *out {
            class.conflict = Some(Occurrence {
                idx,
                out: out.clone(),
            });
            return true;
        }
        false
    }

    /// Merges the table of the next range in order.
    fn merge(&mut self, partial: ClassTable<W, O>) {
        for (m, p) in self.flat.iter_mut().zip(partial.flat) {
            match (m, p) {
                (Some(m), Some(p)) => m.absorb(p),
                (m @ None, p) => *m = p,
                (Some(_), None) => {}
            }
        }
        for (key, p) in partial.hashed {
            match self.hashed.entry(key) {
                Entry::Occupied(mut e) => e.get_mut().absorb(p),
                Entry::Vacant(e) => {
                    e.insert(p);
                }
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = &Class<O>> {
        self.flat.iter().flatten().chain(self.hashed.values())
    }

    fn classes(&self) -> usize {
        self.iter().count()
    }

    fn least_conflict_idx(&self) -> Option<usize> {
        self.iter()
            .filter_map(|c| c.conflict.as_ref().map(|o| o.idx))
            .min()
    }

    /// The least-index conflict with its class representative.
    fn least_conflict(self) -> Option<(Occurrence<O>, Occurrence<O>)> {
        self.flat
            .into_iter()
            .flatten()
            .chain(self.hashed.into_values())
            .filter_map(|c| c.conflict.map(|conflict| (c.rep, conflict)))
            .min_by_key(|(_, c)| c.idx)
    }

    /// One checkpoint row per class, sorted by representative index. The
    /// view is the policy's view of the representative, whichever
    /// partition the table was keyed by, so the document is the same.
    fn rows<P: Policy<View = W>>(
        &self,
        policy: &P,
        domain: &dyn InputDomain,
    ) -> Vec<ClassRow<O, W>> {
        let mut input = Vec::new();
        let mut rows: Vec<ClassRow<O, W>> = self
            .iter()
            .map(|c| {
                domain.nth_input(c.rep.idx, &mut input);
                (
                    policy.filter(&input),
                    c.rep.idx,
                    input.clone(),
                    c.rep.out.clone(),
                )
            })
            .collect();
        rows.sort_by_key(|(_, idx, _, _)| *idx);
        rows
    }

    /// Refills an empty table from a checkpoint's class representatives.
    /// Each row's class is re-derived from its index, so a checkpoint
    /// written under either partition resumes under either.
    fn resume<P: Policy<View = W>>(
        &mut self,
        part: &Partition<'_, P>,
        ckpt: &SoundnessCheckpoint<O, W>,
        domain: &dyn InputDomain,
    ) -> Result<(), EnfError> {
        let mut input = Vec::new();
        for (_, idx, _, out) in &ckpt.classes {
            if *idx >= ckpt.next_index {
                return Err(EnfError::Checkpoint {
                    reason: format!(
                        "class representative {idx} lies past the frontier {}",
                        ckpt.next_index
                    ),
                });
            }
            domain.nth_input(*idx, &mut input);
            part.record(self, &input, *idx, out);
        }
        if self.classes() != ckpt.classes.len() {
            return Err(EnfError::Checkpoint {
                reason: "checkpoint lists a class twice".to_string(),
            });
        }
        Ok(())
    }
}

/// Materializes a witness from a `(representative, conflict)` pair by
/// decoding the stored enumeration indices — one scratch buffer, two
/// decodes, the only input allocations of an entire unsound sweep.
fn decode_witness<O>(
    domain: &dyn InputDomain,
    rep: Occurrence<O>,
    conflict: Occurrence<O>,
) -> Witness<O> {
    let mut buf = Vec::new();
    domain.nth_input(rep.idx, &mut buf);
    let a = buf.clone();
    domain.nth_input(conflict.idx, &mut buf);
    Witness {
        a,
        b: buf,
        out_a: rep.out,
        out_b: conflict.out,
    }
}

/// Checks clause (1) of the mechanism definition: whenever `M` accepts, its
/// output equals `Q(a)`.
///
/// Returns the first offending input, if any.
pub fn check_protection<M, Q>(
    mechanism: &M,
    program: &Q,
    domain: &dyn InputDomain,
) -> Result<(), Vec<V>>
where
    M: Mechanism + Sync,
    Q: Program<Out = M::Out> + Sync,
{
    check_protection_with(mechanism, program, domain, &EvalConfig::default())
}

/// Like [`check_protection`] but with an explicit evaluation configuration.
///
/// Returns the same first offending input (in enumeration order) as the
/// sequential scan, for every thread count.
pub fn check_protection_with<M, Q>(
    mechanism: &M,
    program: &Q,
    domain: &dyn InputDomain,
    config: &EvalConfig,
) -> Result<(), Vec<V>>
where
    M: Mechanism + Sync,
    Q: Program<Out = M::Out> + Sync,
{
    let found = protection::<Plain, _, _>(mechanism, program, domain, config, &CancelToken::new());
    plain(found).report.map_or(Ok(()), Err)
}

/// Fault-tolerant [`check_protection_with`]: quarantines panics in the
/// mechanism or program and honors the cancellation token.
///
/// The verdict is `Refuted` with the first offending input when clause
/// (1) fails, `Confirmed` when the whole domain was scanned clean, and
/// `Unknown` when cancelled first; a subject panicking below any offender
/// surfaces as `Err(SubjectPanicked)`.
pub fn try_check_protection_with<M, Q>(
    mechanism: &M,
    program: &Q,
    domain: &dyn InputDomain,
    config: &EvalConfig,
    ctl: &CancelToken,
) -> Result<Coverage<Vec<V>>, EnfError>
where
    M: Mechanism + Sync,
    Q: Program<Out = M::Out> + Sync,
{
    protection::<Guarded, _, _>(mechanism, program, domain, config, ctl)
}

/// The body of both forms of [`check_protection_with`]: the first input
/// on which `M` accepts with a value other than `Q(a)`.
fn protection<G, M, Q>(
    mechanism: &M,
    program: &Q,
    domain: &dyn InputDomain,
    config: &EvalConfig,
    ctl: &CancelToken,
) -> Result<Coverage<Vec<V>>, EnfError>
where
    G: Guard,
    M: Mechanism + Sync,
    Q: Program<Out = M::Out> + Sync,
{
    assert_eq!(
        mechanism.arity(),
        program.arity(),
        "mechanism arity {} does not match program arity {}",
        mechanism.arity(),
        program.arity()
    );
    let found = first::<G, _>(domain, config, ctl, |_, a| match mechanism.run(a) {
        MechOutput::Value(v) if v != program.eval(a) => Some(a.to_vec()),
        _ => None,
    })?;
    Ok(found.map(|(_, offender)| offender))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{Explicit, Grid};
    use crate::error::Verdict;
    use crate::label::{Classification, IntransitiveFlow, LatticePolicy, Level};
    use crate::mechanism::{FnMechanism, Identity, Plug};
    use crate::notice::Notice;
    use crate::policy::{Allow, FnPolicy};
    use crate::program::FnProgram;

    /// The view-hash reference for a projection policy: the same classes,
    /// with the projection hidden behind a closure.
    fn views(policy: &Allow) -> FnPolicy<Vec<V>> {
        let policy = policy.clone();
        FnPolicy::new(policy.arity(), move |a: &[V]| policy.filter(a))
    }

    #[test]
    fn partition_is_picked_from_the_inputs() {
        let g = Grid::hypercube(2, 0..=2);
        let allow = Allow::new(2, [1]);
        assert!(matches!(Partition::of(&allow, &g), Partition::Classes(_)));
        assert!(matches!(Partition::of(&&allow, &&g), Partition::Classes(_)));
        let lattice = LatticePolicy::new(
            Classification::new(vec![Level::Secret, Level::Unclassified]),
            IntransitiveFlow::transitive(),
            Level::Unclassified,
        );
        assert!(matches!(Partition::of(&lattice, &g), Partition::Classes(_)));
        assert!(matches!(
            Partition::of(&views(&allow), &g),
            Partition::Views(_)
        ));
        let listed = Explicit::new(2, vec![vec![0, 0], vec![1, 2]]);
        assert!(matches!(
            Partition::of(&allow, &listed),
            Partition::Views(_)
        ));
    }

    #[test]
    fn plug_is_sound_for_any_policy() {
        let m: Plug<V> = Plug::new(2);
        let g = Grid::hypercube(2, -2..=2);
        assert!(check_soundness(&m, &Allow::none(2), &g, false).is_sound());
        assert!(check_soundness(&m, &Allow::all(2), &g, false).is_sound());
        assert!(check_soundness(&m, &Allow::new(2, [2]), &g, false).is_sound());
    }

    #[test]
    fn identity_sound_iff_program_respects_policy() {
        let g = Grid::hypercube(2, -2..=2);
        // Q depends only on x2.
        let q = FnProgram::new(2, |a: &[V]| a[1] * 3);
        let m = Identity::new(q);
        assert!(check_soundness(&m, &Allow::new(2, [2]), &g, false).is_sound());
        assert!(!check_soundness(&m, &Allow::new(2, [1]), &g, false).is_sound());
        assert!(!check_soundness(&m, &Allow::none(2), &g, false).is_sound());
    }

    #[test]
    fn witness_is_a_real_counterexample() {
        let g = Grid::hypercube(1, 0..=3);
        let q = FnProgram::new(1, |a: &[V]| a[0]);
        let m = Identity::new(q);
        let policy = Allow::none(1);
        match check_soundness(&m, &policy, &g, false) {
            SoundnessReport::Unsound(w) => {
                assert_eq!(policy.filter(&w.a), policy.filter(&w.b));
                assert_ne!(w.out_a, w.out_b);
            }
            SoundnessReport::Sound { .. } => panic!("expected unsound"),
        }
    }

    #[test]
    fn leaky_notice_caught_only_without_collapsing() {
        // Example-4-style: the notice text encodes the denied input.
        let m = FnMechanism::new(1, |a: &[V]| {
            MechOutput::<V>::Violation(if a[0] == 0 {
                Notice::new(1, "denied (x was zero)")
            } else {
                Notice::new(1, "denied (x was nonzero)")
            })
        });
        let g = Grid::hypercube(1, 0..=3);
        let p = Allow::none(1);
        assert!(!check_soundness(&m, &p, &g, false).is_sound());
        // Collapsing notices hides the leak — which is exactly why the
        // single-notice assumption must be established, not assumed.
        assert!(check_soundness(&m, &p, &g, true).is_sound());
    }

    #[test]
    fn sound_report_counts_classes() {
        let m = FnMechanism::new(2, |a: &[V]| MechOutput::Value(a[0]));
        let g = Grid::hypercube(2, 0..=2);
        match check_soundness(&m, &Allow::new(2, [1]), &g, false) {
            SoundnessReport::Sound { inputs, classes } => {
                assert_eq!(inputs, 9);
                assert_eq!(classes, 3);
            }
            SoundnessReport::Unsound(w) => panic!("unexpected witness {w:?}"),
        }
    }

    #[test]
    fn content_dependent_policy_soundness() {
        // Example 2: release the file (x2) only when the directory (x1)
        // says YES (1). The reference monitor does the same check.
        let p = FnPolicy::new(2, |a: &[V]| (a[0], if a[0] == 1 { a[1] } else { 0 }));
        let monitor = FnMechanism::new(2, |a: &[V]| {
            if a[0] == 1 {
                MechOutput::Value(a[1])
            } else {
                MechOutput::Violation(Notice::lambda())
            }
        });
        let g = Grid::new(vec![0..=1, 0..=5]);
        assert!(check_soundness(&monitor, &p, &g, false).is_sound());
        // A monitor that ignores the directory is unsound for this policy.
        let open = FnMechanism::new(2, |a: &[V]| MechOutput::Value(a[1]));
        assert!(!check_soundness(&open, &p, &g, false).is_sound());
    }

    #[test]
    fn protection_check_accepts_genuine_mechanism() {
        let q = FnProgram::new(1, |a: &[V]| a[0] + 1);
        let m = FnMechanism::new(1, |a: &[V]| {
            if a[0] >= 0 {
                MechOutput::Value(a[0] + 1)
            } else {
                MechOutput::Violation(Notice::lambda())
            }
        });
        let g = Grid::hypercube(1, -3..=3);
        assert!(check_protection(&m, &q, &g).is_ok());
    }

    #[test]
    fn protection_check_rejects_output_alteration() {
        // "Mechanism" that rounds the output — not a protection mechanism
        // for Q since its accepted values differ from Q's.
        let q = FnProgram::new(1, |a: &[V]| a[0]);
        let m = FnMechanism::new(1, |a: &[V]| MechOutput::Value(a[0] / 2 * 2));
        let g = Grid::hypercube(1, 0..=3);
        let err = check_protection(&m, &q, &g).unwrap_err();
        assert_eq!(err, vec![1]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn arity_mismatch_panics() {
        let m: Plug<V> = Plug::new(2);
        let g = Grid::hypercube(2, 0..=1);
        let _ = check_soundness(&m, &Allow::none(3), &g, false);
    }

    /// Every class-partition report — verdict, class count, witness tuples
    /// and outputs — must equal the view partition's, at every thread
    /// count.
    fn assert_classes_match<M>(m: &M, policy: &Allow, g: &Grid, collapse: bool)
    where
        M: Mechanism + Sync,
        M::Out: Eq + std::hash::Hash + Send + std::fmt::Debug,
    {
        for threads in [1, 2, 3, 8] {
            let cfg = EvalConfig::with_threads(threads).seq_threshold(0);
            let generic = check_soundness_with(m, &views(policy), g, collapse, &cfg);
            let classes = check_soundness_with(m, policy, g, collapse, &cfg);
            assert_eq!(generic, classes, "thread count {threads}");
        }
    }

    #[test]
    fn class_evaluator_matches_generic_sweep_when_sound() {
        let m = FnMechanism::new(2, |a: &[V]| MechOutput::Value(a[0]));
        let g = Grid::hypercube(2, 0..=2);
        assert_classes_match(&m, &Allow::new(2, [1]), &g, false);
        assert_classes_match(&m, &Allow::all(2), &g, false);
        let plug: Plug<V> = Plug::new(2);
        assert_classes_match(&plug, &Allow::none(2), &g, false);
    }

    #[test]
    fn class_evaluator_matches_generic_sweep_when_unsound() {
        let q = FnProgram::new(2, |a: &[V]| a[1] * 3);
        let m = Identity::new(q);
        let g = Grid::hypercube(2, -2..=2);
        assert_classes_match(&m, &Allow::new(2, [1]), &g, false);
        assert_classes_match(&m, &Allow::none(2), &g, false);
        // Asymmetric ranges exercise the mixed-radix class arithmetic.
        let g2 = Grid::new(vec![-1..=3, 0..=6]);
        assert_classes_match(&m, &Allow::new(2, [1]), &g2, false);
    }

    #[test]
    fn class_evaluator_collapses_notices_like_generic_sweep() {
        let m = FnMechanism::new(1, |a: &[V]| {
            MechOutput::<V>::Violation(if a[0] == 0 {
                Notice::new(1, "denied (x was zero)")
            } else {
                Notice::new(1, "denied (x was nonzero)")
            })
        });
        let g = Grid::hypercube(1, 0..=3);
        assert_classes_match(&m, &Allow::none(1), &g, false);
        assert_classes_match(&m, &Allow::none(1), &g, true);
    }

    #[test]
    fn class_evaluator_hashed_fallback_matches_generic_sweep() {
        // A wide first coordinate pushes the class count of allow(1) past
        // FLAT_CLASS_LIMIT, forcing the hashed table; verdicts, class
        // counts and witnesses must not change.
        let wide = Grid::new(vec![0..=((1 << 17) - 1), 0..=1]);
        let policy = Allow::new(2, [1]);
        assert!(ClassLayout::new(policy.allowed(), wide.ranges())
            .count
            .is_some_and(|c| c > FLAT_CLASS_LIMIT));
        // Sound: the output reads only the allowed coordinate.
        let sound_m = FnMechanism::new(2, |a: &[V]| MechOutput::Value(a[0] & 0xff));
        assert_eq!(
            check_soundness(&sound_m, &views(&policy), &wide, false),
            check_soundness(&sound_m, &policy, &wide, false),
        );
        // Unsound: the output also reads the denied coordinate.
        let leaky_m = FnMechanism::new(2, |a: &[V]| MechOutput::Value((a[0] & 0xff) ^ a[1]));
        let generic = check_soundness(&leaky_m, &views(&policy), &wide, false);
        let classes = check_soundness(&leaky_m, &policy, &wide, false);
        assert_eq!(generic, classes);
        assert!(!classes.is_sound());
    }

    fn established<R>(coverage: &Coverage<R>) -> bool {
        coverage.verdict == Verdict::Confirmed && coverage.is_complete()
    }

    #[test]
    fn try_classes_matches_plain_classes_every_thread_count() {
        let g = Grid::hypercube(2, -2..=2);
        for leaky in [false, true] {
            let m = FnMechanism::new(2, move |a: &[V]| {
                MechOutput::Value(if leaky { a[0] + a[1] } else { a[0] })
            });
            let policy = Allow::new(2, [1]);
            let plain = check_soundness(&m, &policy, &g, false);
            for t in [1usize, 2, 4, 8] {
                let cfg = EvalConfig::with_threads(t).seq_threshold(0);
                let r = try_check_soundness_with(&m, &policy, &g, false, &cfg, &CancelToken::new())
                    .expect("no faults injected");
                if leaky {
                    assert_eq!(r.verdict, Verdict::Refuted, "threads={t}");
                } else {
                    assert!(established(&r), "threads={t}");
                }
                assert_eq!(r.report.as_ref(), Some(&plain), "threads={t}");
            }
        }
    }

    #[test]
    fn try_classes_index_limit_is_deterministic() {
        // Sound mechanism, limit strictly inside the domain: Unknown with
        // exactly `limit` checked, identical for every thread count.
        let m = FnMechanism::new(2, |a: &[V]| MechOutput::Value(a[0]));
        let policy = Allow::new(2, [1]);
        let g = Grid::hypercube(2, -2..=2);
        let limit = 7;
        for t in [1usize, 2, 4, 8] {
            let cfg = EvalConfig::with_threads(t).seq_threshold(0);
            let ctl = CancelToken::new().with_index_limit(limit);
            let r = try_check_soundness_with(&m, &policy, &g, false, &cfg, &ctl)
                .expect("no faults injected");
            assert_eq!(r.verdict, Verdict::Unknown, "threads={t}");
            assert_eq!(r.checked, limit, "threads={t}");
            assert!(!established(&r));
        }
    }

    #[test]
    fn try_classes_quarantines_panicking_mechanism() {
        crate::chaos::silence_chaos_panics();
        let g = Grid::hypercube(1, 0..=9);
        let m = crate::chaos::PanicOn::at_index(
            FnMechanism::new(1, |a: &[V]| MechOutput::Value(a[0] % 2)),
            &g,
            Some(5),
        );
        for t in [1usize, 2, 4] {
            let cfg = EvalConfig::with_threads(t).seq_threshold(0);
            let r =
                try_check_soundness_with(&m, &Allow::all(1), &g, false, &cfg, &CancelToken::new());
            match r {
                Err(EnfError::SubjectPanicked { input_index, .. }) => {
                    assert_eq!(input_index, 5, "threads={t}")
                }
                other => panic!("expected quarantine, got {other:?} (threads={t})"),
            }
        }
    }

    #[test]
    fn try_sweep_quarantines_panicking_policy() {
        crate::chaos::silence_chaos_panics();
        // A content-dependent policy is swept by view; its filter is part
        // of the subject and fails closed like the mechanism does.
        let policy = FnPolicy::new(1, |a: &[V]| {
            if a[0] == 5 {
                panic!("{}: policy fault", crate::chaos::CHAOS_MARKER);
            }
            a[0] % 2
        });
        let m = FnMechanism::new(1, |a: &[V]| MechOutput::Value(a[0] % 2));
        let g = Grid::hypercube(1, 0..=9);
        for t in [1usize, 2, 4] {
            let cfg = EvalConfig::with_threads(t).seq_threshold(0);
            match try_check_soundness_with(&m, &policy, &g, false, &cfg, &CancelToken::new()) {
                Err(EnfError::SubjectPanicked { input_index, .. }) => {
                    assert_eq!(input_index, 5, "threads={t}")
                }
                other => panic!("expected quarantine, got {other:?} (threads={t})"),
            }
        }
    }

    #[test]
    fn try_classes_conflict_below_panic_still_refutes() {
        crate::chaos::silence_chaos_panics();
        // Leak is decided at index 1 (under allow() all inputs share one
        // class, and outputs 0 then 1 conflict); the panic at index 8 is
        // moot.
        let g = Grid::hypercube(1, 0..=9);
        let m = crate::chaos::PanicOn::at_index(
            FnMechanism::new(1, |a: &[V]| MechOutput::Value(a[0])),
            &g,
            Some(8),
        );
        for t in [1usize, 2, 4] {
            let cfg = EvalConfig::with_threads(t).seq_threshold(0);
            let r =
                try_check_soundness_with(&m, &Allow::none(1), &g, false, &cfg, &CancelToken::new())
                    .expect("conflict precedes the fault");
            assert_eq!(r.verdict, Verdict::Refuted, "threads={t}");
            assert_eq!(r.checked, 2, "threads={t}");
            let Some(SoundnessReport::Unsound(w)) = r.report else {
                panic!("refuted without witness");
            };
            assert_eq!((w.a.as_slice(), w.b.as_slice()), (&[0][..], &[1][..]));
        }
    }
}
