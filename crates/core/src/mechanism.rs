//! Protection mechanisms: the paper's `M: D1 × … × Dk → E ∪ F`.
//!
//! A mechanism is a "gatekeeper": on every input it either returns the
//! protected program's output `Q(a)` or a violation [`Notice`]. The two
//! trivial mechanisms of Example 3 are provided: [`Identity`] (the program
//! as its own mechanism — no protection at all) and [`Plug`] ("pulling the
//! plug" — always a notice).
//!
//! Whether a given `M` actually *is* a protection mechanism for a given `Q`
//! (clause (1) of the definition: accepted outputs equal `Q(a)`) is checked
//! empirically by [`crate::soundness::check_protection`].

use crate::domain::Rows;
use crate::notice::Notice;
use crate::program::Program;
use crate::value::{SharedFn, V};
use std::fmt::Debug;
use std::sync::Arc;

/// The result of running a mechanism: either the protected program's output
/// or a violation notice.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum MechOutput<O> {
    /// The mechanism passed `Q(a)` through.
    Value(O),
    /// The mechanism suppressed the output.
    Violation(Notice),
}

impl<O> MechOutput<O> {
    /// Whether the mechanism accepted (returned a program output).
    pub fn is_value(&self) -> bool {
        matches!(self, MechOutput::Value(_))
    }

    /// Whether the mechanism gave a violation notice.
    pub fn is_violation(&self) -> bool {
        matches!(self, MechOutput::Violation(_))
    }

    /// Returns the accepted output, if any.
    pub fn value(&self) -> Option<&O> {
        match self {
            MechOutput::Value(v) => Some(v),
            MechOutput::Violation(_) => None,
        }
    }

    /// Returns the notice, if any.
    pub fn notice(&self) -> Option<&Notice> {
        match self {
            MechOutput::Value(_) => None,
            MechOutput::Violation(n) => Some(n),
        }
    }

    /// Collapses the notice to the canonical `Λ`.
    ///
    /// The completeness ordering "does not distinguish between different
    /// violation notices"; this is the corresponding normalization.
    #[must_use]
    pub fn collapse_notice(self) -> MechOutput<O> {
        match self {
            MechOutput::Value(v) => MechOutput::Value(v),
            MechOutput::Violation(_) => MechOutput::Violation(Notice::lambda()),
        }
    }

    /// Maps the accepted output type.
    pub fn map<T>(self, f: impl FnOnce(O) -> T) -> MechOutput<T> {
        match self {
            MechOutput::Value(v) => MechOutput::Value(f(v)),
            MechOutput::Violation(n) => MechOutput::Violation(n),
        }
    }
}

/// A protection mechanism `M: D1 × … × Dk → E ∪ F`.
///
/// Implementations must be deterministic functions of their input, exactly
/// as programs are.
pub trait Mechanism {
    /// The protected program's output range `E`.
    type Out: Clone + PartialEq + Debug;

    /// Number of inputs `k`.
    fn arity(&self) -> usize;

    /// Runs the mechanism on an input tuple.
    fn run(&self, input: &[V]) -> MechOutput<Self::Out>;

    /// Runs the mechanism on every row of a block, appending one output
    /// per row to `out`, in row order.
    ///
    /// The soundness sweeps call this once per block of consecutive
    /// inputs. The default calls [`Mechanism::run`] on each row. A
    /// mechanism that can share work between rows overrides it (the
    /// lane-group surveillance VM runs rows that take the same path as
    /// one group), and must append exactly what the default would.
    fn run_rows(&self, rows: Rows<'_>, out: &mut Vec<MechOutput<Self::Out>>) {
        out.extend(rows.iter().map(|a| self.run(a)));
    }
}

impl<M: Mechanism + ?Sized> Mechanism for &M {
    type Out = M::Out;

    fn arity(&self) -> usize {
        (**self).arity()
    }

    fn run(&self, input: &[V]) -> MechOutput<Self::Out> {
        (**self).run(input)
    }

    fn run_rows(&self, rows: Rows<'_>, out: &mut Vec<MechOutput<Self::Out>>) {
        (**self).run_rows(rows, out)
    }
}

impl<M: Mechanism + ?Sized> Mechanism for Arc<M> {
    type Out = M::Out;

    fn arity(&self) -> usize {
        (**self).arity()
    }

    fn run(&self, input: &[V]) -> MechOutput<Self::Out> {
        (**self).run(input)
    }

    fn run_rows(&self, rows: Rows<'_>, out: &mut Vec<MechOutput<Self::Out>>) {
        (**self).run_rows(rows, out)
    }
}

/// Example 3's first trivial mechanism: the program as its own protection
/// mechanism — "no protection at all".
///
/// Sound only when `Q` already factors through the policy (e.g. any constant
/// program under `allow()`).
#[derive(Clone, Debug)]
pub struct Identity<P> {
    program: P,
}

impl<P: Program> Identity<P> {
    /// Wraps a program as its own mechanism.
    pub fn new(program: P) -> Self {
        Identity { program }
    }

    /// The wrapped program.
    pub fn program(&self) -> &P {
        &self.program
    }
}

impl<P: Program> Mechanism for Identity<P> {
    type Out = P::Out;

    fn arity(&self) -> usize {
        self.program.arity()
    }

    fn run(&self, input: &[V]) -> MechOutput<P::Out> {
        MechOutput::Value(self.program.eval(input))
    }
}

/// Example 3's second trivial mechanism: always output `Λ` — "pulling the
/// plug". Sound for *every* policy, and useless.
#[derive(Clone, Debug)]
pub struct Plug<O> {
    arity: usize,
    notice: Notice,
    _marker: std::marker::PhantomData<fn() -> O>,
}

impl<O> Plug<O> {
    /// Creates the always-`Λ` mechanism for a `k`-input program.
    pub fn new(arity: usize) -> Self {
        Plug {
            arity,
            notice: Notice::lambda(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Creates a plug with a custom (but still constant) notice.
    pub fn with_notice(arity: usize, notice: Notice) -> Self {
        Plug {
            arity,
            notice,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<O: Clone + PartialEq + Debug> Mechanism for Plug<O> {
    type Out = O;

    fn arity(&self) -> usize {
        self.arity
    }

    fn run(&self, _input: &[V]) -> MechOutput<O> {
        MechOutput::Violation(self.notice.clone())
    }
}

/// A mechanism defined by a Rust closure.
///
/// # Examples
///
/// ```
/// use enf_core::{FnMechanism, MechOutput, Mechanism, Notice};
///
/// // Release x2 + 1 only when it is nonnegative.
/// let m = FnMechanism::new(2, |a: &[i64]| {
///     if a[1] >= -1 { MechOutput::Value(a[1] + 1) } else { MechOutput::Violation(Notice::lambda()) }
/// });
/// assert!(m.run(&[0, 3]).is_value());
/// assert!(m.run(&[0, -5]).is_violation());
/// ```
pub struct FnMechanism<O> {
    arity: usize,
    f: SharedFn<MechOutput<O>>,
}

impl<O> Clone for FnMechanism<O> {
    fn clone(&self) -> Self {
        FnMechanism {
            arity: self.arity,
            f: Arc::clone(&self.f),
        }
    }
}

impl<O> FnMechanism<O> {
    /// Wraps a closure as a `k`-ary mechanism.
    pub fn new(arity: usize, f: impl Fn(&[V]) -> MechOutput<O> + Send + Sync + 'static) -> Self {
        FnMechanism {
            arity,
            f: Arc::new(f),
        }
    }
}

impl<O: Clone + PartialEq + Debug> Mechanism for FnMechanism<O> {
    type Out = O;

    fn arity(&self) -> usize {
        self.arity
    }

    fn run(&self, input: &[V]) -> MechOutput<O> {
        assert_eq!(
            input.len(),
            self.arity,
            "arity mismatch: mechanism takes {} inputs, got {}",
            self.arity,
            input.len()
        );
        (self.f)(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::FnProgram;

    #[test]
    fn identity_passes_everything_through() {
        let q = FnProgram::new(1, |a: &[V]| a[0] * a[0]);
        let m = Identity::new(q);
        assert_eq!(m.run(&[3]), MechOutput::Value(9));
        assert_eq!(m.arity(), 1);
    }

    #[test]
    fn plug_always_violates() {
        let m: Plug<V> = Plug::new(2);
        assert_eq!(m.run(&[1, 2]), MechOutput::Violation(Notice::lambda()));
        assert_eq!(m.run(&[9, 9]), MechOutput::Violation(Notice::lambda()));
    }

    #[test]
    fn plug_with_custom_notice() {
        let m: Plug<V> = Plug::with_notice(1, Notice::new(3, "aborted"));
        match m.run(&[0]) {
            MechOutput::Violation(n) => assert_eq!(n.message(), "aborted"),
            MechOutput::Value(_) => panic!("plug accepted"),
        }
    }

    #[test]
    fn collapse_notice_normalizes() {
        let v: MechOutput<V> = MechOutput::Violation(Notice::new(9, "custom"));
        assert_eq!(v.collapse_notice(), MechOutput::Violation(Notice::lambda()));
        let ok: MechOutput<V> = MechOutput::Value(5);
        assert_eq!(ok.clone().collapse_notice(), ok);
    }

    #[test]
    fn accessors() {
        let v: MechOutput<V> = MechOutput::Value(5);
        assert_eq!(v.value(), Some(&5));
        assert_eq!(v.notice(), None);
        assert!(v.is_value() && !v.is_violation());
        let n: MechOutput<V> = MechOutput::Violation(Notice::lambda());
        assert_eq!(n.value(), None);
        assert!(n.notice().unwrap().is_lambda());
    }

    #[test]
    fn map_transforms_value_only() {
        let v: MechOutput<V> = MechOutput::Value(5);
        assert_eq!(v.map(|x| x + 1), MechOutput::Value(6));
        let n: MechOutput<V> = MechOutput::Violation(Notice::lambda());
        assert_eq!(n.map(|x| x + 1), MechOutput::Violation(Notice::lambda()));
    }

    #[test]
    fn mechanism_by_reference_and_rc() {
        let m: Plug<V> = Plug::new(1);
        fn arity_of<M: Mechanism>(m: M) -> usize {
            m.arity()
        }
        assert_eq!(arity_of(&m), 1);
        assert_eq!(arity_of(Arc::new(m)), 1);
    }
}
