//! The parallel domain-evaluation engine.
//!
//! Every exhaustive checker in this crate is a fold over the tuple index
//! space `0..domain.len()`: evaluate something at each tuple, accumulate
//! per-class or first-witness state, and reduce. This module's fold is the
//! one per-input loop behind all of them. Because [`InputDomain`] gives
//! random access by index ([`InputDomain::nth_input`]) and in-order range
//! visits ([`InputDomain::visit_range`]), the index space can be
//! partitioned into contiguous per-worker ranges with zero coordination
//! and zero per-tuple allocation; each worker folds its range into a
//! partial state and the partials are merged **in range order**, so the
//! reduction is deterministic: the result is bit-for-bit identical for
//! every thread count, including 1.
//!
//! A checker says only what it records per input: an initial state and a
//! step. The fold owns the rest: the cancellation check, the panic guard,
//! early exit and the coverage count. How it calls the step is a type
//! parameter, so each checker keeps one body for both of its forms: the
//! fail-closed `try_` forms poll a [`CancelToken`] and quarantine a
//! panicking subject, while the infallible forms call the subject directly
//! and let a panic unwind to their caller with its own payload.
//!
//! The fold hands the step blocks of up to [`BLOCK_ROWS`] consecutive
//! inputs ([`Rows`]), so a subject that shares work between inputs (the
//! lane-group surveillance VM) sees many at once. Every per-input check
//! (cutoff, cancellation, index limit) still runs before an input joins a
//! block, and a block whose step panics is run again one input at a time,
//! so coverage, witnesses and quarantines are those of the per-input loop.
//!
//! The engine is std-only: workers are scoped threads
//! (`std::thread::scope`), so borrowed mechanisms, policies, and domains
//! cross into workers without `'static` bounds or reference counting.
//!
//! Early exit is cooperative. A step that decides the fold (a witness, or
//! the last class table taking a conflict) and a quarantined panic both
//! publish their index to a shared atomic upper bound. Any locally found
//! event is a valid global one, so its index bounds the final answer;
//! workers abandon their range once their ascending cursor passes the
//! bound. The merge still selects the minimal index, so early exit never
//! changes a report, only the work done.

use crate::domain::{InputDomain, Rows};
use crate::error::{Coverage, EnfError, Verdict};
use crate::value::V;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
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

/// Shared upper bound on the least index at which a worker decided the
/// fold or quarantined a panic, for cooperative early exit.
struct Cutoff(AtomicUsize);

impl Cutoff {
    /// A cutoff with no event yet (bound = `usize::MAX`).
    fn new() -> Self {
        Cutoff(AtomicUsize::new(usize::MAX))
    }

    /// Records an event at `idx`, tightening the bound.
    fn propose(&self, idx: usize) {
        self.0.fetch_min(idx, Ordering::Relaxed);
    }

    /// Whether a worker whose ascending cursor reached `idx` can stop:
    /// every index it would still visit exceeds the bound.
    fn passed(&self, idx: usize) -> bool {
        idx > self.0.load(Ordering::Relaxed)
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

/// Most inputs the fold hands a step at once. 64 is the lane count of the
/// surveillance VM's lane groups, which keep their lanes in a `u64` mask.
pub const BLOCK_ROWS: usize = 64;

/// How many tuples a worker evaluates between wall-clock deadline polls.
///
/// Cancellation flags and index limits are checked on every tuple (they
/// are a relaxed atomic load and an integer compare); only the
/// `Instant::now()` syscall is amortized over this stride. The first
/// tuple a worker is offered in each fold call polls too.
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

    /// Whether a worker should stop before evaluating `idx`: the flag or
    /// the index limit fired, or the deadline passed. A worker reads the
    /// clock at the first input of each fold call (`since_poll` starts at
    /// 0) and then once per [`DEADLINE_STRIDE`] inputs, so a sweep folded
    /// in short blocks still sees its deadline.
    fn stop_requested(&self, idx: usize, since_poll: &mut usize) -> bool {
        if idx >= self.index_limit || self.flag.load(Ordering::Relaxed) {
            return true;
        }
        if self.deadline.is_none() {
            return false;
        }
        let poll = *since_poll == 0;
        *since_poll = (*since_poll + 1) % DEADLINE_STRIDE;
        poll && self.is_cancelled()
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

/// Shared quarantine record: the least-index input whose evaluation
/// panicked. Workers wind down past a quarantined index through the
/// shared cutoff, which keeps the least index deterministic for every
/// thread count.
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

/// How the fold calls a step. A type parameter rather than a flag, so the
/// infallible forms compile to a plain call.
pub(crate) trait Guard {
    /// Whether the fold polls the cancellation token.
    const POLLS: bool;
    /// Runs `f`, or returns the text of its panic.
    fn call<R>(f: impl FnOnce() -> R) -> Result<R, String>;
}

/// The fail-closed forms: poll the cancellation token, quarantine panics.
pub(crate) struct Guarded;

impl Guard for Guarded {
    const POLLS: bool = true;

    #[inline]
    fn call<R>(f: impl FnOnce() -> R) -> Result<R, String> {
        std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(payload_string)
    }
}

/// The infallible forms: no token, and a panic unwinds to the caller with
/// its own payload.
pub(crate) struct Plain;

impl Guard for Plain {
    const POLLS: bool = false;

    #[inline]
    fn call<R>(f: impl FnOnce() -> R) -> Result<R, String> {
        Ok(f())
    }
}

/// Unwraps the result of a [`Plain`] instantiation: it polls no token,
/// lets a panic unwind instead of quarantining it and writes no
/// checkpoint, so it cannot fail.
pub(crate) fn plain<R>(folded: Result<R, EnfError>) -> R {
    folded.unwrap_or_else(|e| unreachable!("a plain fold failed: {e}"))
}

/// What a fold leaves behind: partials in range order plus what it
/// covered before a decision, a fault or a cancellation.
pub(crate) struct FoldPartials<S> {
    /// One partial per worker, in range order.
    pub(crate) parts: Vec<S>,
    /// Size of the contiguous evaluated prefix of the folded span: every
    /// index in `span.start..span.start + checked` was evaluated.
    pub(crate) checked: usize,
    /// Whether every index in the span was evaluated (no cancellation,
    /// no quarantine, no decision before the end).
    pub(crate) complete: bool,
    /// The least-index quarantined input, if any step panicked.
    quarantined: Option<(usize, String)>,
}

impl<S> FoldPartials<S> {
    /// Converts the quarantine record into an error unless a decisive
    /// event (e.g. a witness) at a strictly smaller index outranks it.
    ///
    /// Sequential semantics order events by input index: a witness found
    /// at index 3 makes a panic at index 7 unreachable, and vice versa.
    /// Comparing indices here keeps guarded folds bit-identical for every
    /// thread count.
    pub(crate) fn resolve_quarantine(&self, decisive_at: Option<usize>) -> Result<(), EnfError> {
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

    /// The coverage of a checker whose report is a statement about the
    /// whole domain: the reduced partials on full coverage, `Unknown`
    /// when cut short, and an error on any quarantine. Such a report built
    /// from part of the domain would be wrong, not just partial, so a cut
    /// fold has none. The infallible forms of these checkers reduce
    /// `parts` directly: a [`Plain`] fold whose step never decides covers
    /// its whole span.
    pub(crate) fn whole<R>(
        self,
        total: usize,
        reduce: impl FnOnce(Vec<S>) -> R,
    ) -> Result<Coverage<R>, EnfError> {
        self.resolve_quarantine(None)?;
        Ok(if self.complete {
            Coverage::confirmed(total, reduce(self.parts))
        } else {
            Coverage::unknown(self.checked, total)
        })
    }
}

/// Folds `span` of the domain's index space: the per-input loop of every
/// exhaustive checker.
///
/// Each worker folds one contiguous range, in order, into a state made by
/// `init`. It gathers the inputs it admits into blocks of up to
/// [`BLOCK_ROWS`] and calls `step(&mut state, first_index, rows)` once per
/// block. A step returns `Some(k)` when row `k` decides the fold, for
/// example on a witness; the rows after it count as not evaluated, the
/// index bounds every worker's scan and this worker's range ends. With one
/// worker the fold runs on the calling thread: the sequential path is the
/// parallel path with a single partition, not separate code.
///
/// An input joins a block only after the per-input checks: the shared
/// cutoff and, under [`Guarded`], `ctl`. So an index limit `n` evaluates
/// exactly the indices below `n`.
///
/// A block may panic on an input that a decision earlier in the same block
/// would have kept the per-input loop from reaching. So a block whose step
/// panics is stepped again one input at a time, from its first input, and
/// the first of those that panics is the one reported: [`Guarded`]
/// quarantines it (the least such index is kept for
/// [`FoldPartials::resolve_quarantine`], and workers wind down past it),
/// while under [`Plain`] it unwinds to the caller with its own payload. A
/// step must therefore bear seeing part of a block twice: the class
/// tables record an input twice to the same effect, the witness scan
/// records only at a decision, and the other checkers drop their state on
/// any panic.
pub(crate) fn fold<G, S>(
    domain: &dyn InputDomain,
    span: Range<usize>,
    config: &EvalConfig,
    ctl: &CancelToken,
    init: impl Fn() -> S + Sync,
    step: impl Fn(&mut S, usize, Rows<'_>) -> Option<usize> + Sync,
) -> FoldPartials<S>
where
    G: Guard,
    S: Send,
{
    let ranges: Vec<Range<usize>> = split_ranges(span.len(), config.workers_for(span.len()))
        .into_iter()
        .map(|r| span.start + r.start..span.start + r.end)
        .collect();
    let cutoff = Cutoff::new();
    let faults = PanicSlot::default();
    // Steps the pending block and empties it. Returns `false` once the
    // block decided the fold or was quarantined.
    let flush = |state: &mut S, block: &mut Block, evaluated: &mut usize| {
        let (start, len) = (block.start, block.len);
        if len == 0 {
            return true;
        }
        let rows = block.rows();
        let stepped = match len {
            1 => G::call(|| step(state, start, rows)).map_err(|payload| (0, payload)),
            _ => std::panic::catch_unwind(AssertUnwindSafe(|| step(state, start, rows))).or_else(
                |_| {
                    for k in 0..len {
                        match G::call(|| step(state, start + k, rows.slice(k..k + 1))) {
                            Ok(Some(_)) => return Ok(Some(k)),
                            Ok(None) => {}
                            Err(payload) => return Err((k, payload)),
                        }
                    }
                    Ok(None)
                },
            ),
        };
        block.clear();
        match stepped {
            Ok(None) => {
                *evaluated += len;
                true
            }
            Ok(Some(k)) => {
                *evaluated += k + 1;
                cutoff.propose(start + k);
                false
            }
            Err((k, payload)) => {
                *evaluated += k;
                faults.record(start + k, payload);
                cutoff.propose(start + k);
                false
            }
        }
    };
    // One worker's pass: its partial and how many inputs it evaluated.
    let worker = |range: Range<usize>| {
        let mut state = init();
        let mut block = Block::new(domain.arity());
        let (mut evaluated, mut since_poll) = (0, 0);
        domain.visit_range(range, &mut |idx, a| {
            // A quarantine bounds the scan through the cutoff alone: inputs
            // below it are still evaluated, so a panic at `p` ranks against
            // a witness, or an earlier panic, at `w < p` the same way for
            // every thread count.
            if cutoff.passed(idx) || (G::POLLS && ctl.stop_requested(idx, &mut since_poll)) {
                return false;
            }
            block.push(idx, a);
            block.len < BLOCK_ROWS || flush(&mut state, &mut block, &mut evaluated)
        });
        // The inputs admitted before the range ended or a stop.
        flush(&mut state, &mut block, &mut evaluated);
        (state, evaluated)
    };
    let results: Vec<(S, usize)> = match ranges.as_slice() {
        [range] => vec![worker(range.clone())],
        _ => std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .iter()
                .map(|range| {
                    let (worker, range) = (&worker, range.clone());
                    scope.spawn(move || worker(range))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        }),
    };
    // Contiguous frontier: ranges are in order, so the prefix extends
    // through every fully evaluated range plus the leading evaluations of
    // the first one cut short.
    let mut checked = 0;
    let mut complete = true;
    for ((_, evaluated), range) in results.iter().zip(&ranges) {
        checked += evaluated;
        if *evaluated < range.len() {
            complete = false;
            break;
        }
    }
    let quarantined = faults.take();
    FoldPartials {
        parts: results.into_iter().map(|(state, _)| state).collect(),
        checked,
        complete: complete && quarantined.is_none(),
        quarantined,
    }
}

/// A worker's pending block: consecutive admitted inputs, row after row.
struct Block {
    /// Index of the first row.
    start: usize,
    len: usize,
    arity: usize,
    values: Vec<V>,
}

impl Block {
    fn new(arity: usize) -> Self {
        Block {
            start: 0,
            len: 0,
            arity,
            values: Vec::with_capacity(arity * BLOCK_ROWS),
        }
    }

    fn push(&mut self, idx: usize, a: &[V]) {
        if self.len == 0 {
            self.start = idx;
        }
        self.values.extend_from_slice(a);
        self.len += 1;
    }

    fn rows(&self) -> Rows<'_> {
        Rows::new(&self.values, self.arity, self.len)
    }

    fn clear(&mut self) {
        self.values.clear();
        self.len = 0;
    }
}

/// A per-input step as a block step: `step` runs on each row in order,
/// and the first row on which it returns `true` decides the block.
pub(crate) fn each<S>(
    step: impl Fn(&mut S, usize, &[V]) -> bool + Sync,
) -> impl Fn(&mut S, usize, Rows<'_>) -> Option<usize> + Sync {
    move |state, start, rows| {
        rows.iter()
            .enumerate()
            .position(|(k, a)| step(state, start + k, a))
    }
}

/// The witness scan on the fold: the least-index tuple on which `test`
/// returns a payload, with the coverage rules of [`try_find_first`].
pub(crate) fn first<G, T>(
    domain: &dyn InputDomain,
    config: &EvalConfig,
    ctl: &CancelToken,
    test: impl Fn(usize, &[V]) -> Option<T> + Sync,
) -> Result<Coverage<(usize, T)>, EnfError>
where
    G: Guard,
    T: Send,
{
    let total = domain.len();
    let mut folded = fold::<G, _>(
        domain,
        0..total,
        config,
        ctl,
        || None,
        each(|found, idx, a| {
            *found = test(idx, a).map(|payload| (idx, payload));
            found.is_some()
        }),
    );
    let hit = std::mem::take(&mut folded.parts)
        .into_iter()
        .flatten()
        .min_by_key(|(idx, _)| *idx);
    folded.resolve_quarantine(hit.as_ref().map(|(idx, _)| *idx))?;
    Ok(match hit {
        Some(w) => Coverage::refuted(folded.checked.min(w.0 + 1), total, w),
        None if folded.complete => Coverage {
            checked: total,
            total,
            verdict: Verdict::Confirmed,
            report: None,
        },
        None => Coverage::unknown(folded.checked, total),
    })
}

/// Finds the least-index tuple on which `test` returns a payload.
///
/// The shared witness-first pattern of `check_protection`, the schedule
/// oracle and the static equivalence checker: scan for the first offending
/// tuple, in enumeration order, with cooperative early exit across
/// workers. A panic in `test` unwinds to the caller.
pub fn find_first<T, F>(
    domain: &dyn InputDomain,
    config: &EvalConfig,
    test: F,
) -> Option<(usize, T)>
where
    T: Send,
    F: Fn(usize, &[V]) -> Option<T> + Sync,
{
    plain(first::<Plain, _>(domain, config, &CancelToken::new(), test)).report
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
    first::<Guarded, _>(domain, config, ctl, test)
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
    fn fold_covers_every_index_once() {
        let g = Grid::hypercube(2, 0..=31); // 1024 tuples
        for threads in 1..=8 {
            let partials = fold::<Plain, _>(
                &g,
                0..g.len(),
                &par_cfg(threads),
                &CancelToken::new(),
                || (0u64, 0usize),
                each(|(sum, count), idx, _| {
                    *sum += idx as u64;
                    *count += 1;
                    false
                }),
            )
            .parts;
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
        // seq_cfg and a large seq_threshold both select one worker on the
        // calling thread; both must agree with the parallel scan, witness
        // and index alike.
        let par = find_first(&g, &par_cfg(4), test);
        assert_eq!(find_first(&g, &seq_cfg(), test), par);
        assert_eq!(
            find_first(&g, &EvalConfig::with_threads(8), test),
            par,
            "domain below DEFAULT_SEQ_THRESHOLD must use one worker"
        );
        assert_eq!(par.map(|(idx, _)| idx), Some(507));
        // One worker stops at the first hit.
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
        let partials = fold::<Plain, _>(
            &g,
            0..g.len(),
            &seq_cfg(),
            &CancelToken::new(),
            || 0usize,
            each(|n, _, _| {
                assert_eq!(std::thread::current().id(), caller);
                *n += 1;
                false
            }),
        )
        .parts;
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
        fold::<Guarded, _>(
            g,
            0..g.len(),
            &par_cfg(threads),
            ctl,
            || 0usize,
            each(|n, _, _| {
                *n += 1;
                false
            }),
        )
    }

    #[test]
    fn guarded_fold_clean_run_is_complete() {
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
    fn guarded_fold_index_limit_frontier_is_exact() {
        let g = Grid::hypercube(2, 0..=31);
        for threads in 1..=8 {
            let ctl = CancelToken::new().with_index_limit(137);
            let p = count_fold(&g, threads, &ctl);
            assert!(!p.complete, "threads={threads}");
            assert_eq!(p.checked, 137, "threads={threads}");
        }
    }

    #[test]
    fn an_expired_deadline_stops_every_fold_call_at_its_first_input() {
        // Folds of one short span each, as a checkpointed sweep makes:
        // the first input of every call reads the clock.
        let g = Grid::hypercube(2, 0..=31);
        let ctl = CancelToken::new().with_deadline(Duration::ZERO);
        for threads in [1, 2, 8] {
            for span in [0..64, 64..128, 1000..1024] {
                let p = fold::<Guarded, _>(
                    &g,
                    span.clone(),
                    &par_cfg(threads),
                    &ctl,
                    || 0usize,
                    each(|n, _, _| {
                        *n += 1;
                        false
                    }),
                );
                assert!(!p.complete, "threads={threads}, span {span:?}");
                assert_eq!(p.checked, 0, "threads={threads}, span {span:?}");
                assert_eq!(p.parts.iter().sum::<usize>(), 0);
            }
        }
    }

    #[test]
    fn guarded_fold_quarantines_panics() {
        crate::chaos::silence_chaos_panics();
        let g = Grid::hypercube(2, 0..=31);
        for threads in 1..=8 {
            let p = fold::<Guarded, _>(
                &g,
                0..g.len(),
                &par_cfg(threads),
                &CancelToken::new(),
                || 0usize,
                each(|n, idx, _| {
                    // Two faulty indices: the least one must win for every
                    // thread count.
                    if idx == 700 || idx == 300 {
                        panic!("{}: boom at {idx}", crate::chaos::CHAOS_MARKER);
                    }
                    *n += 1;
                    false
                }),
            );
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
