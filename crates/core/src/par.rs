//! The parallel domain-evaluation engine.
//!
//! Every exhaustive checker in this crate is a fold over the tuple index
//! space `0..domain.len()`: evaluate something at each tuple, accumulate
//! per-class or first-witness state, and reduce. Because
//! [`InputDomain`] gives random access by index ([`InputDomain::nth_input`])
//! and in-order range visits ([`InputDomain::visit_range`]), that index
//! space can be partitioned into contiguous per-worker ranges with zero
//! coordination and zero per-tuple allocation; each worker folds its range
//! into a partial state and the partials are merged **in range order**, so
//! the reduction is deterministic: the result is bit-for-bit identical for
//! every thread count, including 1.
//!
//! The engine is std-only: workers are scoped threads
//! (`std::thread::scope`), so borrowed mechanisms, policies, and domains
//! cross into workers without `'static` bounds or reference counting.
//!
//! Early exit is cooperative. Checkers that stop at the first witness (in
//! enumeration order) share a [`Cutoff`] — an atomic upper bound on the
//! index of the best witness found so far. Any *locally discovered* witness
//! is a valid global witness, so its index bounds the final answer; workers
//! abandon their range once their ascending cursor passes the bound. The
//! merge still selects the minimal index, so early exit never changes the
//! reported witness, only the work done.

use crate::domain::InputDomain;
use crate::error::{Coverage, EnfError, Verdict};
use crate::value::V;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Name of the environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "ENF_THREADS";

/// Domains smaller than this run sequentially by default: thread spawn and
/// merge overhead dwarfs the scan itself.
pub const DEFAULT_SEQ_THRESHOLD: usize = 1 << 14;

/// Configuration for the evaluation engine.
///
/// The default resolves the worker count from the `ENF_THREADS` environment
/// variable if set, else from [`std::thread::available_parallelism`], and
/// falls back to sequential evaluation for domains smaller than
/// [`DEFAULT_SEQ_THRESHOLD`] tuples.
#[derive(Clone, Debug, Default)]
pub struct EvalConfig {
    threads: Option<NonZeroUsize>,
    seq_threshold: Option<usize>,
}

impl EvalConfig {
    /// The default configuration (auto thread count).
    pub fn new() -> Self {
        EvalConfig::default()
    }

    /// A configuration with an explicit worker count.
    pub fn with_threads(threads: usize) -> Self {
        EvalConfig {
            threads: NonZeroUsize::new(threads),
            seq_threshold: None,
        }
    }

    /// Sets the worker count (`0` restores auto resolution).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = NonZeroUsize::new(threads);
        self
    }

    /// Sets the domain size below which evaluation is sequential.
    #[must_use]
    pub fn seq_threshold(mut self, threshold: usize) -> Self {
        self.seq_threshold = Some(threshold);
        self
    }

    /// The configured or environment-resolved worker count.
    pub fn resolved_threads(&self) -> usize {
        if let Some(n) = self.threads {
            return n.get();
        }
        if let Some(n) = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .and_then(NonZeroUsize::new)
        {
            return n.get();
        }
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// How many workers a domain of `len` tuples actually gets: capped by
    /// the resolved thread count, the sequential threshold, and the number
    /// of tuples.
    pub fn workers_for(&self, len: usize) -> usize {
        let threshold = self.seq_threshold.unwrap_or(DEFAULT_SEQ_THRESHOLD);
        if len < threshold {
            return 1;
        }
        self.resolved_threads().min(len).max(1)
    }
}

/// Shared upper bound on the index of the best (least-index) witness found
/// so far, for cooperative early exit.
pub struct Cutoff(AtomicUsize);

impl Cutoff {
    /// A cutoff with no witness yet (bound = `usize::MAX`).
    pub fn new() -> Self {
        Cutoff(AtomicUsize::new(usize::MAX))
    }

    /// Records a witness at `idx`, tightening the bound.
    pub fn propose(&self, idx: usize) {
        self.0.fetch_min(idx, Ordering::Relaxed);
    }

    /// Whether a worker whose ascending cursor reached `idx` can stop:
    /// every index it would still visit exceeds the best witness bound.
    pub fn passed(&self, idx: usize) -> bool {
        idx > self.0.load(Ordering::Relaxed)
    }
}

impl Default for Cutoff {
    fn default() -> Self {
        Cutoff::new()
    }
}

/// Splits `0..len` into `workers` contiguous, near-equal, in-order ranges.
fn split_ranges(len: usize, workers: usize) -> Vec<Range<usize>> {
    let workers = workers.clamp(1, len.max(1));
    let base = len / workers;
    let extra = len % workers;
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let size = base + usize::from(w < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Folds each partition of the domain's index space into a partial state.
///
/// `worker` is called once per partition with its index range and the shared
/// [`Cutoff`]; partials are returned **in range order**, ready for a
/// deterministic left-to-right merge. With one worker the fold runs on the
/// calling thread — the sequential path is the parallel path with a single
/// partition, not separate code.
///
/// Worker panics (e.g. a failed arity assertion inside a mechanism)
/// propagate to the caller.
pub fn partition_fold<T, F>(domain: &dyn InputDomain, config: &EvalConfig, worker: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>, &Cutoff) -> T + Sync,
{
    let len = domain.len();
    let workers = config.workers_for(len);
    let cutoff = Cutoff::new();
    if workers <= 1 {
        return vec![worker(0..len, &cutoff)];
    }
    let ranges = split_ranges(len, workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                let worker = &worker;
                let cutoff = &cutoff;
                scope.spawn(move || worker(range, cutoff))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(partial) => partial,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    })
}

/// Finds the least-index tuple on which `test` returns a payload.
///
/// The shared witness-first pattern of `check_protection` and the static
/// equivalence checker: scan for the first offending tuple, in enumeration
/// order, with cooperative early exit across workers.
///
/// With a single worker (one thread, or a domain under the sequential
/// threshold) the scan takes a dedicated fast path: an in-order visit that
/// stops at the first hit, with no shared [`Cutoff`] and no atomic
/// operations on the per-tuple path.
pub fn find_first<T, F>(
    domain: &dyn InputDomain,
    config: &EvalConfig,
    test: F,
) -> Option<(usize, T)>
where
    T: Send,
    F: Fn(usize, &[V]) -> Option<T> + Sync,
{
    let len = domain.len();
    if config.workers_for(len) <= 1 {
        let mut found: Option<(usize, T)> = None;
        domain.visit_range(0..len, &mut |idx, a| match test(idx, a) {
            Some(payload) => {
                found = Some((idx, payload));
                false
            }
            None => true,
        });
        return found;
    }
    partition_fold(domain, config, |range, cutoff| {
        let mut found: Option<(usize, T)> = None;
        domain.visit_range(range, &mut |idx, a| {
            if cutoff.passed(idx) {
                return false;
            }
            match test(idx, a) {
                Some(payload) => {
                    cutoff.propose(idx);
                    found = Some((idx, payload));
                    false
                }
                None => true,
            }
        });
        found
    })
    .into_iter()
    .flatten()
    .min_by_key(|(idx, _)| *idx)
}

/// How many tuples a worker evaluates between wall-clock deadline polls.
///
/// Cancellation flags and index limits are checked on every tuple (they
/// are a relaxed atomic load and an integer compare); only the
/// `Instant::now()` syscall is amortized over this stride.
pub const DEADLINE_STRIDE: usize = 256;

/// Cooperative cancellation for long sweeps.
///
/// A token combines three triggers, any of which stops the sweep at the
/// next per-tuple check:
///
/// * an explicit flag ([`CancelToken::cancel`]), settable from another
///   thread or a signal handler via [`CancelToken::handle`];
/// * an optional wall-clock deadline;
/// * an optional **index limit** — "stop before evaluating index `n`" —
///   the deterministic trigger: the set of evaluated indices is exactly
///   `0..n` for *every* thread count, which is what the chaos harness
///   and the `--budget` CLI flag use to make partial verdicts
///   reproducible. Flag and deadline cancellation are inherently timing
///   dependent; coverage under them is genuine but not reproducible.
///
/// Tokens are cheap to clone; clones share the flag.
#[derive(Clone, Debug)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
    index_limit: usize,
}

impl CancelToken {
    /// A token that never fires on its own.
    pub fn new() -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: None,
            index_limit: usize::MAX,
        }
    }

    /// Adds a wall-clock deadline `d` from now.
    #[must_use]
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Instant::now().checked_add(d);
        self
    }

    /// Adds a deterministic evaluation budget: indices `>= limit` are
    /// never evaluated.
    #[must_use]
    pub fn with_index_limit(mut self, limit: usize) -> Self {
        self.index_limit = limit;
        self
    }

    /// Trips the cancellation flag.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// The shared flag, for wiring into signal handlers or watchdogs.
    pub fn handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }

    /// Whether the flag is set or the deadline has passed (polls the
    /// clock; workers amortize this via [`DEADLINE_STRIDE`]).
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The configured index limit (`usize::MAX` when unlimited).
    pub fn index_limit(&self) -> usize {
        self.index_limit
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

/// Shared quarantine record: the least-index input whose evaluation
/// panicked. Workers wind down past a quarantined index through the
/// shared [`Cutoff`] (see [`WorkerCtx::guard`]), which keeps the least
/// index deterministic for every thread count.
#[derive(Default)]
struct PanicSlot {
    least: Mutex<Option<(usize, String)>>,
}

impl PanicSlot {
    fn record(&self, idx: usize, payload: String) {
        if let Ok(mut slot) = self.least.lock() {
            if slot.as_ref().is_none_or(|(i, _)| idx < *i) {
                *slot = Some((idx, payload));
            }
        }
    }

    fn take(&self) -> Option<(usize, String)> {
        match self.least.lock() {
            Ok(mut slot) => slot.take(),
            Err(_) => None,
        }
    }
}

/// Renders a panic payload for [`EnfError::SubjectPanicked`].
fn payload_string(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Per-worker context handed to guarded fold workers.
///
/// The context owns the worker's bookkeeping — how many tuples it
/// evaluated, whether it was cut short — and exposes the two operations
/// a fault-tolerant scan needs: [`WorkerCtx::stop_requested`] (poll the
/// shared cancellation and quarantine state) and [`WorkerCtx::guard`]
/// (evaluate the subject with panic isolation).
pub struct WorkerCtx<'a> {
    cutoff: &'a Cutoff,
    ctl: &'a CancelToken,
    faults: &'a PanicSlot,
    evaluated: Cell<usize>,
    since_poll: Cell<usize>,
    cut: Cell<bool>,
}

impl<'a> WorkerCtx<'a> {
    fn new(cutoff: &'a Cutoff, ctl: &'a CancelToken, faults: &'a PanicSlot) -> Self {
        WorkerCtx {
            cutoff,
            ctl,
            faults,
            evaluated: Cell::new(0),
            since_poll: Cell::new(0),
            cut: Cell::new(false),
        }
    }

    /// The shared early-exit bound (see [`Cutoff`]).
    pub fn cutoff(&self) -> &Cutoff {
        self.cutoff
    }

    /// Whether the sweep should stop before evaluating `idx`: the
    /// token's flag or index limit fired, or — polled every
    /// [`DEADLINE_STRIDE`] tuples — the deadline passed.
    ///
    /// A quarantined subject does **not** trip this check: scans must
    /// keep evaluating indices *below* the quarantined one (the
    /// quarantine bounds the scan through the shared [`Cutoff`] instead),
    /// otherwise a panic at index `p` could race a witness — or an
    /// earlier panic — at `w < p` differently per thread count. Guarded
    /// workers therefore always pair this check with
    /// `ctx.cutoff().passed(idx)`.
    ///
    /// Marks the worker as cut short when it returns `true`.
    pub fn stop_requested(&self, idx: usize) -> bool {
        let stop = if idx >= self.ctl.index_limit || self.ctl.flag.load(Ordering::Relaxed) {
            true
        } else if self.ctl.deadline.is_some() {
            let n = self.since_poll.get() + 1;
            if n >= DEADLINE_STRIDE {
                self.since_poll.set(0);
                self.ctl.is_cancelled()
            } else {
                self.since_poll.set(n);
                false
            }
        } else {
            false
        };
        if stop {
            self.cut.set(true);
        }
        stop
    }

    /// Evaluates the subject at `idx` with panic isolation.
    ///
    /// On panic the input is quarantined: the least offending index (and
    /// its payload) is recorded for [`EnfError::SubjectPanicked`], the
    /// index is proposed to the cutoff so sibling workers stop competing
    /// past it, and `None` is returned — the worker should end its range.
    pub fn guard<R>(&self, idx: usize, f: impl FnOnce() -> R) -> Option<R> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(r) => {
                self.evaluated.set(self.evaluated.get() + 1);
                Some(r)
            }
            Err(p) => {
                self.faults.record(idx, payload_string(p));
                self.cutoff.propose(idx);
                self.cut.set(true);
                None
            }
        }
    }

    /// [`WorkerCtx::guard`] without the panic isolation, for infallible
    /// sweeps: a panicking subject unwinds out of the fold to its caller.
    /// The evaluation still counts toward coverage.
    pub(crate) fn call<R>(&self, f: impl FnOnce() -> R) -> R {
        let r = f();
        self.evaluated.set(self.evaluated.get() + 1);
        r
    }
}

/// Result of a guarded fold: partials in range order plus what the sweep
/// managed to cover before any fault or cancellation.
#[derive(Clone, Debug)]
pub struct FoldPartials<T> {
    /// One partial per worker, in range order.
    pub parts: Vec<T>,
    /// Size of the contiguous evaluated prefix of the folded span: every
    /// index in `span.start..span.start + checked` was evaluated.
    pub checked: usize,
    /// Whether every index in the span was evaluated (no cancellation,
    /// no quarantine, no early cut).
    pub complete: bool,
    /// The least-index quarantined input, if any subject panicked.
    pub quarantined: Option<(usize, String)>,
}

impl<T> FoldPartials<T> {
    /// Converts the quarantine record into an error unless a decisive
    /// event (e.g. a witness) at a strictly smaller index outranks it.
    ///
    /// Sequential semantics order events by input index: a witness found
    /// at index 3 makes a panic at index 7 unreachable, and vice versa.
    /// Comparing indices here keeps guarded sweeps bit-identical for
    /// every thread count.
    pub fn resolve_quarantine(&self, decisive_at: Option<usize>) -> Result<(), EnfError> {
        match &self.quarantined {
            Some((idx, payload)) if decisive_at.is_none_or(|d| *idx < d) => {
                Err(EnfError::SubjectPanicked {
                    input_index: *idx,
                    payload: payload.clone(),
                })
            }
            _ => Ok(()),
        }
    }
}

/// Like [`partition_fold`], but fault tolerant: subject panics are
/// quarantined instead of unwinding, and the fold stops cooperatively at
/// the token's deadline, flag, or index limit.
///
/// Workers receive a [`WorkerCtx`] and are expected to call
/// [`WorkerCtx::stop_requested`] before and [`WorkerCtx::guard`] around
/// each subject evaluation. The returned [`FoldPartials`] carries the
/// partials in range order plus coverage bookkeeping; callers decide how
/// a quarantine ranks against their own witnesses via
/// [`FoldPartials::resolve_quarantine`].
pub fn try_partition_fold<T, F>(
    domain: &dyn InputDomain,
    config: &EvalConfig,
    ctl: &CancelToken,
    worker: F,
) -> FoldPartials<T>
where
    T: Send,
    F: Fn(Range<usize>, &WorkerCtx) -> T + Sync,
{
    try_partition_fold_range(domain, 0..domain.len(), config, ctl, worker)
}

/// [`try_partition_fold`] over an explicit sub-span of the index space —
/// the building block of block-sequential checkpointed sweeps.
pub fn try_partition_fold_range<T, F>(
    _domain: &dyn InputDomain,
    span: Range<usize>,
    config: &EvalConfig,
    ctl: &CancelToken,
    worker: F,
) -> FoldPartials<T>
where
    T: Send,
    F: Fn(Range<usize>, &WorkerCtx) -> T + Sync,
{
    let len = span.len();
    let workers = config.workers_for(len);
    let cutoff = Cutoff::new();
    let faults = PanicSlot::default();
    // (partial, evaluated, cut) per worker, in range order.
    let results: Vec<(T, usize, bool)> = if workers <= 1 {
        let ctx = WorkerCtx::new(&cutoff, ctl, &faults);
        let part = worker(span.clone(), &ctx);
        vec![(part, ctx.evaluated.get(), ctx.cut.get())]
    } else {
        let ranges: Vec<Range<usize>> = split_ranges(len, workers)
            .into_iter()
            .map(|r| span.start + r.start..span.start + r.end)
            .collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .into_iter()
                .map(|range| {
                    let worker = &worker;
                    let cutoff = &cutoff;
                    let faults = &faults;
                    scope.spawn(move || {
                        let ctx = WorkerCtx::new(cutoff, ctl, faults);
                        let part = worker(range, &ctx);
                        (part, ctx.evaluated.get(), ctx.cut.get())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    // A panic that escapes the worker closure itself (not
                    // a guarded subject call) is an engine bug: propagate.
                    Err(panic) => std::panic::resume_unwind(panic),
                })
                .collect()
        })
    };
    // Contiguous frontier: ranges are in order, so the prefix extends
    // through every fully evaluated range plus the leading evaluations of
    // the first cut-short one. (A worker that early-exited via the cutoff
    // counts as cut only if it flagged so; witness-driven cutoff exits
    // leave `cut` false and are handled by the caller's merge.)
    let mut checked = 0usize;
    let mut complete = true;
    let range_sizes = split_ranges(len, results.len().max(1));
    for ((_, evaluated, cut), size) in results.iter().zip(range_sizes.iter().map(Range::len)) {
        if *cut || *evaluated < size {
            checked += *evaluated;
            complete = false;
            break;
        }
        checked += size;
    }
    let quarantined = faults.take();
    if quarantined.is_some() {
        complete = false;
    }
    FoldPartials {
        parts: results.into_iter().map(|(t, _, _)| t).collect(),
        checked,
        complete,
        quarantined,
    }
}

/// Fault-tolerant [`find_first`]: quarantines subject panics, honors the
/// cancellation token, and reports coverage with its verdict.
///
/// * [`Verdict::Refuted`] with `report = Some((idx, payload))` — a
///   witness was found. Under deterministic cancellation (index limit)
///   the witness is the least-index one among evaluated inputs for every
///   thread count; under wall-clock cancellation it is a genuine witness
///   but which one may depend on timing. `checked` is at most `idx + 1`,
///   what the sequential scan reports: inputs a sibling worker evaluated
///   past the witness before it heard of it do not count.
/// * [`Verdict::Confirmed`] — the whole domain was scanned, no witness.
/// * [`Verdict::Unknown`] — cut short before any witness.
/// * `Err(SubjectPanicked)` — the subject panicked at an index smaller
///   than any witness.
pub fn try_find_first<T, F>(
    domain: &dyn InputDomain,
    config: &EvalConfig,
    ctl: &CancelToken,
    test: F,
) -> Result<Coverage<(usize, T)>, EnfError>
where
    T: Send,
    F: Fn(usize, &[V]) -> Option<T> + Sync,
{
    let total = domain.len();
    let partials = try_partition_fold(domain, config, ctl, |range, ctx| {
        let mut found: Option<(usize, T)> = None;
        domain.visit_range(range, &mut |idx, a| {
            if ctx.cutoff().passed(idx) || ctx.stop_requested(idx) {
                return false;
            }
            let Some(result) = ctx.guard(idx, || test(idx, a)) else {
                return false;
            };
            match result {
                Some(payload) => {
                    ctx.cutoff().propose(idx);
                    found = Some((idx, payload));
                    false
                }
                None => true,
            }
        });
        found
    });
    let witness = partials.parts.iter().flatten().map(|(idx, _)| *idx).min();
    partials.resolve_quarantine(witness)?;
    let hit = partials
        .parts
        .into_iter()
        .flatten()
        .min_by_key(|(idx, _)| *idx);
    Ok(match hit {
        Some(w) => Coverage::refuted(partials.checked.min(w.0 + 1), total, w),
        None if partials.complete => Coverage {
            checked: total,
            total,
            verdict: Verdict::Confirmed,
            report: None,
        },
        None => Coverage::unknown(partials.checked, total),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Grid;

    fn seq_cfg() -> EvalConfig {
        EvalConfig::with_threads(1)
    }

    fn par_cfg(n: usize) -> EvalConfig {
        EvalConfig::with_threads(n).seq_threshold(0)
    }

    #[test]
    fn split_ranges_partitions_exactly() {
        for len in [0usize, 1, 7, 100, 101] {
            for workers in [1usize, 2, 3, 8, 200] {
                let ranges = split_ranges(len, workers);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, len, "len={len} workers={workers}");
            }
        }
    }

    #[test]
    fn workers_respect_seq_threshold() {
        let cfg = EvalConfig::with_threads(8);
        assert_eq!(cfg.workers_for(100), 1);
        let cfg = cfg.seq_threshold(64);
        assert_eq!(cfg.workers_for(100), 8);
        assert_eq!(cfg.workers_for(4), 1);
    }

    #[test]
    fn partition_fold_covers_every_index_once() {
        let g = Grid::hypercube(2, 0..=31); // 1024 tuples
        for threads in 1..=8 {
            let partials = partition_fold(&g, &par_cfg(threads), |range, _| {
                let mut sum = 0u64;
                let mut count = 0usize;
                g.visit_range(range, &mut |idx, _| {
                    sum += idx as u64;
                    count += 1;
                    true
                });
                (sum, count)
            });
            let total: u64 = partials.iter().map(|p| p.0).sum();
            let count: usize = partials.iter().map(|p| p.1).sum();
            assert_eq!(count, 1024);
            assert_eq!(total, (1024 * 1023) / 2);
        }
    }

    #[test]
    fn find_first_returns_minimal_index() {
        let g = Grid::hypercube(3, 0..=9); // 1000 tuples
        for threads in [1, 2, 3, 8] {
            let hit = find_first(&g, &par_cfg(threads), |_, a| {
                (a[0] >= 5 && a[2] == 7).then(|| a.to_vec())
            });
            let (idx, a) = hit.expect("witness exists");
            assert_eq!(a, vec![5, 0, 7]);
            assert_eq!(idx, 507);
        }
    }

    #[test]
    fn find_first_none_when_absent() {
        let g = Grid::hypercube(2, 0..=9);
        assert!(find_first(&g, &par_cfg(4), |_, a| (a[0] > 100).then_some(())).is_none());
    }

    #[test]
    fn find_first_sequential_fast_path_matches_parallel() {
        let g = Grid::hypercube(3, 0..=9);
        let test = |_: usize, a: &[V]| (a[0] >= 5 && a[2] == 7).then(|| a.to_vec());
        // seq_cfg and a large seq_threshold both select the fast path; both
        // must agree with the parallel scan, witness and index alike.
        let par = find_first(&g, &par_cfg(4), test);
        assert_eq!(find_first(&g, &seq_cfg(), test), par);
        assert_eq!(
            find_first(&g, &EvalConfig::with_threads(8), test),
            par,
            "domain below DEFAULT_SEQ_THRESHOLD must use the fast path"
        );
        assert_eq!(par.map(|(idx, _)| idx), Some(507));
        // The fast path stops at the first hit like the cutoff does.
        let visits = std::sync::atomic::AtomicUsize::new(0);
        let counted = find_first(&g, &seq_cfg(), |idx, _| {
            visits.fetch_add(1, Ordering::Relaxed);
            (idx == 507).then_some(())
        });
        assert_eq!(counted.map(|(idx, ())| idx), Some(507));
        assert_eq!(visits.load(Ordering::Relaxed), 508);
    }

    #[test]
    fn sequential_config_runs_on_caller_thread() {
        let g = Grid::hypercube(2, 0..=9);
        let caller = std::thread::current().id();
        let partials = partition_fold(&g, &seq_cfg(), |range, _| {
            assert_eq!(std::thread::current().id(), caller);
            range.len()
        });
        assert_eq!(partials, vec![100]);
    }

    #[test]
    fn cutoff_bounds() {
        let c = Cutoff::new();
        assert!(!c.passed(usize::MAX - 1));
        c.propose(100);
        c.propose(300);
        assert!(c.passed(101));
        assert!(!c.passed(100));
        assert!(!c.passed(5));
    }

    #[test]
    fn cancel_token_flag_and_limit() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.index_limit(), usize::MAX);
        t.cancel();
        assert!(t.is_cancelled());
        let t = CancelToken::new().with_index_limit(10);
        assert_eq!(t.index_limit(), 10);
        assert!(!t.is_cancelled());
        // Clones share the flag; the handle does too.
        let t = CancelToken::new();
        let clone = t.clone();
        t.handle().store(true, Ordering::Relaxed);
        assert!(clone.is_cancelled());
        // An already-expired deadline cancels immediately.
        let t = CancelToken::new().with_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
    }

    fn count_fold(g: &Grid, threads: usize, ctl: &CancelToken) -> FoldPartials<usize> {
        try_partition_fold(g, &par_cfg(threads), ctl, |range, ctx| {
            let mut n = 0usize;
            g.visit_range(range, &mut |idx, _| {
                if ctx.cutoff().passed(idx) || ctx.stop_requested(idx) {
                    return false;
                }
                if ctx.guard(idx, || ()).is_none() {
                    return false;
                }
                n += 1;
                true
            });
            n
        })
    }

    #[test]
    fn try_partition_fold_clean_run_is_complete() {
        let g = Grid::hypercube(2, 0..=31);
        for threads in 1..=8 {
            let p = count_fold(&g, threads, &CancelToken::new());
            assert!(p.complete, "threads={threads}");
            assert_eq!(p.checked, 1024);
            assert_eq!(p.parts.iter().sum::<usize>(), 1024);
            assert!(p.quarantined.is_none());
            assert!(p.resolve_quarantine(None).is_ok());
        }
    }

    #[test]
    fn try_partition_fold_index_limit_frontier_is_exact() {
        let g = Grid::hypercube(2, 0..=31);
        for threads in 1..=8 {
            let ctl = CancelToken::new().with_index_limit(137);
            let p = count_fold(&g, threads, &ctl);
            assert!(!p.complete, "threads={threads}");
            assert_eq!(p.checked, 137, "threads={threads}");
        }
    }

    #[test]
    fn try_partition_fold_quarantines_panics() {
        crate::chaos::silence_chaos_panics();
        let g = Grid::hypercube(2, 0..=31);
        for threads in 1..=8 {
            let p = try_partition_fold(&g, &par_cfg(threads), &CancelToken::new(), |range, ctx| {
                let mut n = 0usize;
                g.visit_range(range, &mut |idx, _| {
                    if ctx.cutoff().passed(idx) || ctx.stop_requested(idx) {
                        return false;
                    }
                    let evaluated = ctx.guard(idx, || {
                        // Two faulty indices: the least one must win for
                        // every thread count.
                        if idx == 700 || idx == 300 {
                            panic!("{}: boom at {idx}", crate::chaos::CHAOS_MARKER);
                        }
                    });
                    if evaluated.is_none() {
                        return false;
                    }
                    n += 1;
                    true
                });
                n
            });
            assert!(!p.complete);
            let (idx, payload) = p.quarantined.clone().expect("quarantined");
            assert_eq!(idx, 300, "threads={threads}");
            assert!(payload.contains("boom at 300"));
            // A witness below the panic outranks it; one above does not.
            assert!(p.resolve_quarantine(Some(120)).is_ok());
            assert!(matches!(
                p.resolve_quarantine(Some(500)),
                Err(EnfError::SubjectPanicked {
                    input_index: 300,
                    ..
                })
            ));
            assert!(p.resolve_quarantine(None).is_err());
        }
    }

    #[test]
    fn try_find_first_matches_find_first_when_clean() {
        let g = Grid::hypercube(3, 0..=9);
        for threads in 1..=8 {
            let cov = try_find_first(&g, &par_cfg(threads), &CancelToken::new(), |_, a| {
                (a[0] >= 5 && a[2] == 7).then(|| a.to_vec())
            })
            .expect("no faults");
            assert_eq!(cov.verdict, Verdict::Refuted);
            let (idx, a) = cov.report.expect("witness");
            assert_eq!((idx, a), (507, vec![5, 0, 7]));
            assert_eq!(cov.checked, 508, "threads={threads}");
        }
    }

    #[test]
    fn try_find_first_confirms_clean_full_scan() {
        let g = Grid::hypercube(2, 0..=9);
        for threads in 1..=8 {
            let cov = try_find_first(&g, &par_cfg(threads), &CancelToken::new(), |_, a| {
                (a[0] > 100).then_some(())
            })
            .expect("no faults");
            assert_eq!(cov.verdict, Verdict::Confirmed);
            assert!(cov.is_complete());
        }
    }

    #[test]
    fn try_find_first_unknown_under_index_limit() {
        let g = Grid::hypercube(2, 0..=9);
        for threads in 1..=8 {
            let ctl = CancelToken::new().with_index_limit(40);
            // Witness exists at idx 73, beyond the budget: Unknown.
            let cov = try_find_first(&g, &par_cfg(threads), &ctl, |idx, _| {
                (idx == 73).then_some(())
            })
            .expect("no faults");
            assert_eq!(cov.verdict, Verdict::Unknown);
            assert_eq!(cov.checked, 40, "threads={threads}");
            assert!(cov.report.is_none());
            // Witness inside the budget is still found.
            let ctl = CancelToken::new().with_index_limit(40);
            let cov = try_find_first(&g, &par_cfg(threads), &ctl, |idx, _| {
                (idx == 7).then_some(())
            })
            .expect("no faults");
            assert_eq!(cov.verdict, Verdict::Refuted);
            assert_eq!(cov.report.map(|(i, ())| i), Some(7));
        }
    }

    #[test]
    fn try_find_first_panic_vs_witness_ordering() {
        crate::chaos::silence_chaos_panics();
        let g = Grid::hypercube(2, 0..=9);
        for threads in 1..=8 {
            // Panic below the witness: the panic wins.
            let err = try_find_first(&g, &par_cfg(threads), &CancelToken::new(), |idx, _| {
                if idx == 20 {
                    panic!("{}", crate::chaos::CHAOS_MARKER);
                }
                (idx == 60).then_some(())
            })
            .expect_err("panic below witness");
            assert!(matches!(
                err,
                EnfError::SubjectPanicked {
                    input_index: 20,
                    ..
                }
            ));
            // Witness below the panic: the witness wins.
            let cov = try_find_first(&g, &par_cfg(threads), &CancelToken::new(), |idx, _| {
                if idx == 60 {
                    panic!("{}", crate::chaos::CHAOS_MARKER);
                }
                (idx == 20).then_some(())
            })
            .expect("witness below panic");
            assert_eq!(cov.verdict, Verdict::Refuted);
            assert_eq!(cov.report.map(|(i, ())| i), Some(20));
        }
    }
}
