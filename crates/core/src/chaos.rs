//! Deterministic chaos harness: seeded fault injection for the checkers.
//!
//! The resilience layer claims that no fault — a panicking subject, a
//! deadline, a kill-and-resume — can corrupt a verdict. Claims like that
//! are only worth as much as the adversary they were tested against, so
//! this module provides a *reproducible* adversary: a [`FaultPlan`] seeded
//! with a single `u64` derives every injection point (which input panics,
//! how much fuel a stepper run gets, where a sweep is cancelled or killed)
//! through [`splitmix64`], and wrapper subjects ([`PanicOn`],
//! [`PanicOnProgram`]) realize the plan. The same seed always produces the
//! same faults, so a failing chaos proptest case is a one-number repro.
//!
//! Panics injected here carry [`CHAOS_MARKER`] in their payload;
//! [`silence_chaos_panics`] installs a process-wide panic hook that keeps
//! the default reporting for every *other* panic but drops the noise from
//! intentional ones, so chaos test output stays readable.

use crate::domain::{InputDomain, Rows};
use crate::mechanism::{MechOutput, Mechanism};
use crate::program::Program;
use crate::value::V;
use std::fmt::Debug;

/// Marker substring carried by every intentionally injected panic payload.
pub const CHAOS_MARKER: &str = "enf-chaos-injected-fault";

/// One step of the splitmix64 generator: updates `state` and returns the
/// next 64-bit output. Small, seedable, and statistically adequate for
/// picking injection points — and entirely deterministic across platforms.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded plan for where faults strike.
///
/// Every derivation is a pure function of `(seed, salt, bound)`, so two
/// plans with the same seed agree on every injection point regardless of
/// the order the points are queried in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
}

impl FaultPlan {
    /// A plan derived from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed }
    }

    /// The plan's seed, for error messages and repro lines.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives a value in `0..bound` for the given salt (`bound` must be
    /// non-zero). Distinct salts give independent streams, so one plan can
    /// place a panic, a cancellation point, and a fuel budget without the
    /// choices correlating.
    pub fn pick(&self, salt: u64, bound: usize) -> usize {
        assert!(bound > 0, "FaultPlan::pick needs a non-empty range");
        let mut state = self.seed ^ salt.wrapping_mul(0xa076_1d64_78bd_642f);
        // Multiply-shift range reduction; bias is irrelevant here.
        let r = splitmix64(&mut state);
        ((u128::from(r) * bound as u128) >> 64) as usize
    }

    /// The input index (in `0..total`) whose evaluation panics.
    pub fn panic_index(&self, total: usize) -> usize {
        self.pick(0x70616e, total)
    }

    /// The index at which a sweep is cancelled or killed (in `0..=total`,
    /// so "never" — the full sweep — is a possible draw).
    pub fn cut_index(&self, total: usize) -> usize {
        self.pick(0x637574, total + 1)
    }

    /// A fuel budget in `0..bound` for stepper fuel-exhaustion faults.
    pub fn fuel_budget(&self, bound: usize) -> usize {
        self.pick(0x6675_656c, bound)
    }

    /// The transport fault (if any) a fault-injecting proxy applies to the
    /// `frame`-th frame of the `conn`-th proxied connection. Roughly one
    /// frame in four misbehaves; the rest deliver unmolested — enough
    /// pressure to exercise every retry path without starving throughput.
    pub fn frame_fault(&self, conn: u64, frame: u64) -> FrameFault {
        let salt = 0x6672_616d_u64 // "fram"
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(conn.wrapping_mul(0x1_0001))
            .wrapping_add(frame);
        match self.pick(salt, 16) {
            0 => FrameFault::Drop,
            1 => {
                // Cut the frame somewhere strictly inside its length
                // prefix + payload; the receiver sees a truncated stream.
                FrameFault::Truncate(self.pick(salt ^ 0x7472, 64) + 1)
            }
            2 | 3 => FrameFault::Delay(self.pick(salt ^ 0x646c, 20) as u64 + 1),
            _ => FrameFault::Deliver,
        }
    }

    /// Whether the worker executing the `job`-th accepted job is killed
    /// mid-run (roughly one job in eight). The server must quarantine and
    /// replace the worker; the client sees a structured panic frame.
    pub fn worker_kill(&self, job: u64) -> bool {
        self.pick(0x6b69_6c6c ^ job.wrapping_mul(0x9e37_79b9), 8) == 0
    }

    /// The checkpoint block index after which the server process is killed
    /// during a long `check` job, or `None` for a run allowed to finish.
    /// `blocks` is the number of checkpoint blocks the job will write.
    pub fn server_kill_block(&self, blocks: u64) -> Option<u64> {
        let draw = self.pick(0x7372_7665, (blocks as usize) * 2 + 1);
        // Half the probability mass is "never"; the rest picks a block.
        if draw <= blocks as usize {
            None
        } else {
            Some((draw - blocks as usize - 1) as u64)
        }
    }
}

/// What a fault-injecting proxy does to one client→server frame. Derived
/// deterministically per `(connection, frame)` by [`FaultPlan::frame_fault`],
/// so a chaos run is a one-number repro.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameFault {
    /// Forward the frame unchanged.
    Deliver,
    /// Swallow the frame entirely (the request never reaches the server;
    /// the client must time out and retry).
    Drop,
    /// Forward only the first `n` bytes, then sever the connection.
    Truncate(usize),
    /// Forward intact after `ms` milliseconds of added latency.
    Delay(u64),
}

/// A mechanism that panics on one designated input tuple and otherwise
/// behaves exactly like the wrapped mechanism.
///
/// The trigger is an input *tuple*, not an index: tuples are intrinsic to
/// the domain, so the same wrapper misbehaves at the same enumeration
/// index under every thread count and partitioning.
#[derive(Clone, Debug)]
pub struct PanicOn<M> {
    inner: M,
    trigger: Option<Vec<V>>,
}

impl<M: Mechanism> PanicOn<M> {
    /// Panics on the tuple at enumeration index `idx` of `domain`; pass
    /// `None` for a fault-free control wrapper.
    pub fn at_index(inner: M, domain: &dyn InputDomain, idx: Option<usize>) -> Self {
        let trigger = idx.map(|i| {
            let mut tuple = vec![0; domain.arity()];
            domain.nth_input(i, &mut tuple);
            tuple
        });
        PanicOn { inner, trigger }
    }

    /// Panics on exactly `tuple`.
    pub fn on_tuple(inner: M, tuple: Vec<V>) -> Self {
        PanicOn {
            inner,
            trigger: Some(tuple),
        }
    }
}

impl<M: Mechanism> Mechanism for PanicOn<M> {
    type Out = M::Out;

    fn arity(&self) -> usize {
        self.inner.arity()
    }

    fn run(&self, input: &[V]) -> MechOutput<M::Out> {
        if self.trigger.as_deref() == Some(input) {
            panic!("{CHAOS_MARKER}: mechanism fault on {input:?}");
        }
        self.inner.run(input)
    }

    /// Panics if the block holds the trigger, before running any row;
    /// otherwise runs the whole block on the wrapped mechanism's own
    /// block path.
    fn run_rows(&self, rows: Rows<'_>, out: &mut Vec<MechOutput<M::Out>>) {
        if let Some(trigger) = self.trigger.as_deref() {
            if let Some(input) = rows.iter().find(|a| *a == trigger) {
                panic!("{CHAOS_MARKER}: mechanism fault on {input:?}");
            }
        }
        self.inner.run_rows(rows, out)
    }
}

/// A program that panics on one designated input tuple — the
/// program-under-test counterpart of [`PanicOn`], for sweeps that evaluate
/// `Q` directly ([`crate::maximal::MaximalMechanism`], soundness checks).
#[derive(Clone, Debug)]
pub struct PanicOnProgram<P> {
    inner: P,
    trigger: Option<Vec<V>>,
}

impl<P: Program> PanicOnProgram<P> {
    /// Panics on the tuple at enumeration index `idx` of `domain`; pass
    /// `None` for a fault-free control wrapper.
    pub fn at_index(inner: P, domain: &dyn InputDomain, idx: Option<usize>) -> Self {
        let trigger = idx.map(|i| {
            let mut tuple = vec![0; domain.arity()];
            domain.nth_input(i, &mut tuple);
            tuple
        });
        PanicOnProgram { inner, trigger }
    }
}

impl<P: Program> Program for PanicOnProgram<P> {
    type Out = P::Out;

    fn arity(&self) -> usize {
        self.inner.arity()
    }

    fn eval(&self, input: &[V]) -> P::Out {
        if self.trigger.as_deref() == Some(input) {
            panic!("{CHAOS_MARKER}: program fault on {input:?}");
        }
        self.inner.eval(input)
    }
}

/// Installs (once, process-wide) a panic hook that suppresses the default
/// "thread panicked" report for payloads carrying [`CHAOS_MARKER`] and
/// delegates everything else to the previous hook. Call at the top of any
/// test that injects panics on purpose.
pub fn silence_chaos_panics() {
    use std::sync::Once;
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let text = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if text.is_some_and(|t| t.contains(CHAOS_MARKER)) {
                return;
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Grid;
    use crate::mechanism::FnMechanism;
    use crate::program::FnProgram;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = 42;
        let mut b = 42;
        let xs: Vec<u64> = (0..8).map(|_| splitmix64(&mut a)).collect();
        let ys: Vec<u64> = (0..8).map(|_| splitmix64(&mut b)).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn plan_derivations_are_order_independent() {
        let plan = FaultPlan::new(7);
        let p1 = plan.panic_index(1000);
        let c1 = plan.cut_index(1000);
        let plan2 = FaultPlan::new(7);
        let c2 = plan2.cut_index(1000);
        let p2 = plan2.panic_index(1000);
        assert_eq!((p1, c1), (p2, c2));
        assert!(p1 < 1000);
        assert!(c1 <= 1000);
    }

    #[test]
    fn proxy_derivations_are_deterministic_and_in_range() {
        let plan = FaultPlan::new(0xC0FFEE);
        for conn in 0..4u64 {
            for frame in 0..64u64 {
                let a = plan.frame_fault(conn, frame);
                let b = FaultPlan::new(0xC0FFEE).frame_fault(conn, frame);
                assert_eq!(a, b);
                if let FrameFault::Truncate(n) = a {
                    assert!((1..=64).contains(&n));
                }
                if let FrameFault::Delay(ms) = a {
                    assert!((1..=20).contains(&ms));
                }
            }
        }
        // The mix must actually contain faults *and* deliveries.
        let faults: Vec<FrameFault> = (0..256).map(|f| plan.frame_fault(0, f)).collect();
        assert!(faults.contains(&FrameFault::Deliver));
        assert!(faults.iter().any(|f| *f != FrameFault::Deliver));
        assert!((0..64).any(|j| plan.worker_kill(j)));
        assert!((0..64).any(|j| !plan.worker_kill(j)));
        let kill = plan.server_kill_block(10);
        assert_eq!(kill, FaultPlan::new(0xC0FFEE).server_kill_block(10));
        if let Some(b) = kill {
            assert!(b < 10);
        }
    }

    #[test]
    fn panic_on_fires_only_on_trigger() {
        silence_chaos_panics();
        let g = Grid::hypercube(2, 0..=3);
        let m = PanicOn::at_index(
            FnMechanism::new(2, |a: &[V]| MechOutput::Value(a[0] + a[1])),
            &g,
            Some(5),
        );
        let mut tuple = vec![0; 2];
        g.nth_input(4, &mut tuple);
        assert_eq!(m.run(&tuple), MechOutput::Value(tuple[0] + tuple[1]));
        g.nth_input(5, &mut tuple);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.run(&tuple)))
            .expect_err("trigger tuple must panic");
        let payload = err.downcast_ref::<String>().expect("string payload");
        assert!(payload.contains(CHAOS_MARKER));
    }

    #[test]
    fn panic_on_program_fires_only_on_trigger() {
        silence_chaos_panics();
        let g = Grid::hypercube(1, 0..=9);
        let q = PanicOnProgram::at_index(FnProgram::new(1, |a: &[V]| a[0] * 2), &g, Some(3));
        assert_eq!(q.eval(&[2]), 4);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| q.eval(&[3]))).is_err());
        let control = PanicOnProgram::at_index(FnProgram::new(1, |a: &[V]| a[0]), &g, None);
        assert_eq!(control.eval(&[3]), 3);
    }
}
