//! The surveillance disciplines as [`Monitor`]s on the shared stepper.
//!
//! [`TaintMonitor`] is the paper's transformation (1)–(4) expressed as an
//! observer: its hooks apply the per-box rule of [`TaintState`], veto
//! disallowed tests at decision boxes (`CheckAt::EveryDecision`, Theorem
//! 3′) and make the release decision at HALT (`ȳ ∪ C̄ ⊆ J`, Theorem 3).
//! One implementation covers all four `Style` × `CheckAt` configurations.
//!
//! [`EventMonitor`] is the observability half: it wraps the `TaintMonitor`
//! it records and emits one structured [`TraceEvent`] per executed box —
//! taint deltas, the PC taint, the branch taken — serializable to JSONL,
//! every value read off the mechanism's own state. [`run_trace`] yields
//! the mechanism verdict *and* the full account of how every taint got
//! where it is, in a single pass; `explain`, the CLI `trace` subcommand and
//! `dot --taint` all draw from this one stream.

use crate::dynamic::{CheckAt, SurvConfig, SurvOutcome};
use crate::explain::FlowEvent;
use crate::state::TaintState;
use enf_core::{IndexSet, V};
use enf_flowchart::ast::{Expr, Pred, Var};
use enf_flowchart::graph::{Flowchart, Node, NodeId, PolicySpec};
use enf_flowchart::interp::Store;
use enf_flowchart::pretty::{declassify_to_string, expr_to_string, pred_to_string};
use enf_flowchart::stepper::{Monitor, Stepper};

/// The surveillance mechanism as a pluggable monitor.
///
/// Carries the taint state and the policy; the stepper carries the walk.
/// [`crate::dynamic::run_surveillance`] is the stepper with this monitor.
///
/// The *active* allowed set starts at `cfg.allowed` and is replaced by
/// every `setpolicy` box the run traverses: concrete boxes carry their own
/// set, and slot boxes read as `allow()`, the most restrictive choice.
/// `declassify(v: A ~> B)` boxes relabel `v̄ ← (v̄ \ A) ∪ B` — the store is
/// untouched.
#[derive(Clone, Debug)]
pub struct TaintMonitor {
    cfg: SurvConfig,
    taints: TaintState,
    active: IndexSet,
}

impl TaintMonitor {
    /// A monitor for `fc` under `cfg`, with freshly initialized
    /// surveillance variables (`x̄i = {i}`, everything else empty).
    pub fn new(fc: &Flowchart, cfg: SurvConfig) -> Self {
        TaintMonitor {
            cfg,
            taints: TaintState::init(fc.arity(), fc.max_reg()),
            active: cfg.allowed,
        }
    }

    /// The current taint state (e.g. for rendering).
    pub fn taints(&self) -> &TaintState {
        &self.taints
    }

    /// The currently active allowed set (`cfg.allowed` until the first
    /// `setpolicy` box).
    pub fn active(&self) -> IndexSet {
        self.active
    }
}

impl Monitor for TaintMonitor {
    type Outcome = SurvOutcome;

    fn on_assign(&mut self, _step: u64, _at: NodeId, var: Var, expr: &Expr, _store: &Store) {
        self.taints.assign(var, expr, self.cfg.style, None);
    }

    fn on_decision(
        &mut self,
        step: u64,
        at: NodeId,
        pred: &Pred,
        _store: &Store,
    ) -> Option<Self::Outcome> {
        self.taints.decide(pred);
        if self.cfg.check == CheckAt::EveryDecision && !self.taints.pc.is_subset(&self.active) {
            // Theorem 3′: abort before the disallowed test is taken.
            return Some(SurvOutcome::Violation {
                site: at,
                taint: self.taints.pc,
                steps: step,
            });
        }
        None
    }

    fn on_setpolicy(&mut self, _step: u64, _at: NodeId, spec: PolicySpec, _store: &Store) {
        self.active = match spec {
            PolicySpec::Concrete(s) => s,
            PolicySpec::Slot(_) => IndexSet::EMPTY,
        };
    }

    fn on_declassify(
        &mut self,
        _step: u64,
        _at: NodeId,
        var: Var,
        from: IndexSet,
        to: IndexSet,
        _store: &Store,
    ) {
        self.taints.declassify(var, from, to, true);
    }

    fn on_halt(&mut self, step: u64, at: NodeId, store: &Store) -> Self::Outcome {
        // Transformation (4): release y only if ȳ ∪ C̄ ⊆ J — J being the
        // *currently active* allowed set.
        let t = self.taints.halt_taint();
        if t.is_subset(&self.active) {
            SurvOutcome::Accepted {
                y: store.output(),
                steps: step,
            }
        } else {
            SurvOutcome::Violation {
                site: at,
                taint: t,
                steps: step,
            }
        }
    }

    fn on_fuel(&mut self, _steps: u64) -> Self::Outcome {
        SurvOutcome::OutOfFuel
    }
}

/// What happened at one executed box, taint-wise.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TraceKind {
    /// The START box.
    Start,
    /// An assignment: the target's taint before and after
    /// transformation (2).
    Assign {
        /// The assigned variable.
        var: Var,
        /// Its taint before the assignment.
        before: IndexSet,
        /// Its taint after.
        after: IndexSet,
    },
    /// A decision: the PC taint before and after transformation (3).
    /// `taken` is `None` when the run was vetoed at this box before the
    /// predicate was evaluated (the Theorem 3′ abort).
    Branch {
        /// Which way the branch went, if it was taken at all.
        taken: Option<bool>,
        /// `C̄` before the decision.
        before: IndexSet,
        /// `C̄` after.
        after: IndexSet,
    },
    /// A `setpolicy` box. `active` is the allowed set after the change —
    /// `None` for a slot box, whose binding is not in the program text
    /// (the mechanism reads it as `allow()`).
    SetPolicy {
        /// The new active allowed set, if statically known.
        active: Option<IndexSet>,
    },
    /// A `declassify` box: the variable's taint before and after the
    /// relabel `v̄ ← (v̄ \ A) ∪ B`.
    Declassify {
        /// The relabeled variable.
        var: Var,
        /// Its taint before.
        before: IndexSet,
        /// Its taint after.
        after: IndexSet,
    },
    /// A HALT box; `released` is the release-check set `ȳ ∪ C̄`.
    Halt {
        /// The set the release check inspects.
        released: IndexSet,
    },
}

/// One entry of the structured per-step trace stream.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// 1-based execution step (boxes executed, START and HALT included).
    pub step: u64,
    /// The executed node.
    pub node: NodeId,
    /// Human-readable description of the box (`START`, `y := x1 + 1`,
    /// `branch on x1 == 0`, `HALT`).
    pub what: String,
    /// The PC taint `C̄` after this step.
    pub pc: IndexSet,
    /// The box-specific taint delta.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// The `explain`-style [`FlowEvent`], if this step changed a taint
    /// set. START, HALT and no-op steps yield `None` — exactly the events
    /// the carrier chain never needs.
    pub fn flow_event(&self) -> Option<FlowEvent> {
        let (before, after) = match &self.kind {
            TraceKind::Assign { before, after, .. }
            | TraceKind::Branch { before, after, .. }
            | TraceKind::Declassify { before, after, .. } => (*before, *after),
            TraceKind::Start | TraceKind::SetPolicy { .. } | TraceKind::Halt { .. } => return None,
        };
        (after != before).then(|| FlowEvent {
            step: self.step,
            site: self.node,
            what: self.what.clone(),
            before,
            after,
        })
    }

    /// Serializes the event as one JSON object (one JSONL line).
    pub fn to_json_line(&self) -> String {
        let head = format!(
            "{{\"step\": {}, \"node\": {}, \"what\": \"{}\", \"pc\": {}",
            self.step,
            self.node.0,
            json_escape(&self.what),
            json_set(&self.pc)
        );
        let tail = match &self.kind {
            TraceKind::Start => "\"kind\": \"start\"}".to_string(),
            TraceKind::Assign { var, before, after } => format!(
                "\"kind\": \"assign\", \"var\": \"{var}\", \"before\": {}, \"after\": {}}}",
                json_set(before),
                json_set(after)
            ),
            TraceKind::Branch {
                taken,
                before,
                after,
            } => format!(
                "\"kind\": \"branch\", \"taken\": {}, \"before\": {}, \"after\": {}}}",
                match taken {
                    Some(t) => t.to_string(),
                    None => "null".to_string(),
                },
                json_set(before),
                json_set(after)
            ),
            TraceKind::SetPolicy { active } => format!(
                "\"kind\": \"setpolicy\", \"active\": {}}}",
                match active {
                    Some(s) => json_set(s),
                    None => "null".to_string(),
                }
            ),
            TraceKind::Declassify { var, before, after } => format!(
                "\"kind\": \"declassify\", \"var\": \"{var}\", \"before\": {}, \"after\": {}}}",
                json_set(before),
                json_set(after)
            ),
            TraceKind::Halt { released } => {
                format!("\"kind\": \"halt\", \"released\": {}}}", json_set(released))
            }
        };
        format!("{head}, {tail}")
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_set(set: &IndexSet) -> String {
    let items: Vec<String> = set.iter().map(|i| i.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// Emits one [`TraceEvent`] per executed box of the mechanism it records.
///
/// The monitor wraps a [`TaintMonitor`], forwards every hook to it, and
/// reads each event's taints off that monitor's state: it keeps no taint
/// state and applies no rule of its own, so the stream cannot disagree
/// with the verdict. Its outcome is the verdict paired with the events.
#[derive(Clone, Debug)]
pub struct EventMonitor {
    mechanism: TaintMonitor,
    events: Vec<TraceEvent>,
}

impl EventMonitor {
    /// Records the run of `mechanism`.
    pub fn new(mechanism: TaintMonitor) -> Self {
        EventMonitor {
            mechanism,
            events: Vec::new(),
        }
    }

    /// Appends the event of one box, with the mechanism's `C̄` after it.
    fn push(&mut self, step: u64, node: NodeId, what: String, kind: TraceKind) {
        self.events.push(TraceEvent {
            step,
            node,
            what,
            pc: self.mechanism.taints.pc,
            kind,
        });
    }

    /// Ends the run: the mechanism's verdict and the events so far.
    fn finish(&mut self, verdict: SurvOutcome) -> (SurvOutcome, Vec<TraceEvent>) {
        (verdict, std::mem::take(&mut self.events))
    }
}

impl Monitor for EventMonitor {
    type Outcome = (SurvOutcome, Vec<TraceEvent>);

    fn on_step(&mut self, step: u64, at: NodeId, node: &Node) {
        self.mechanism.on_step(step, at, node);
        if matches!(node, Node::Start) {
            self.push(step, at, "START".to_string(), TraceKind::Start);
        }
    }

    fn on_assign(&mut self, step: u64, at: NodeId, var: Var, expr: &Expr, store: &Store) {
        let before = self.mechanism.taints.get(var);
        self.mechanism.on_assign(step, at, var, expr, store);
        let after = self.mechanism.taints.get(var);
        let what = format!("{var} := {}", expr_to_string(expr));
        self.push(step, at, what, TraceKind::Assign { var, before, after });
    }

    fn on_decision(
        &mut self,
        step: u64,
        at: NodeId,
        pred: &Pred,
        store: &Store,
    ) -> Option<Self::Outcome> {
        let before = self.mechanism.taints.pc;
        let veto = self.mechanism.on_decision(step, at, pred, store);
        let after = self.mechanism.taints.pc;
        // `on_branch` fills in `taken`; a vetoed box is never taken, and
        // its event keeps `None`.
        let what = format!("branch on {}", pred_to_string(pred));
        let kind = TraceKind::Branch {
            taken: None,
            before,
            after,
        };
        self.push(step, at, what, kind);
        veto.map(|verdict| self.finish(verdict))
    }

    fn on_branch(&mut self, step: u64, at: NodeId, pred: &Pred, taken: bool) {
        self.mechanism.on_branch(step, at, pred, taken);
        if let Some(TraceEvent {
            kind: TraceKind::Branch { taken: slot, .. },
            ..
        }) = self.events.last_mut()
        {
            *slot = Some(taken);
        }
    }

    fn on_setpolicy(&mut self, step: u64, at: NodeId, spec: PolicySpec, store: &Store) {
        self.mechanism.on_setpolicy(step, at, spec, store);
        let active = matches!(spec, PolicySpec::Concrete(_)).then(|| self.mechanism.active());
        let kind = TraceKind::SetPolicy { active };
        self.push(step, at, format!("setpolicy {spec}"), kind);
    }

    fn on_declassify(
        &mut self,
        step: u64,
        at: NodeId,
        var: Var,
        from: IndexSet,
        to: IndexSet,
        store: &Store,
    ) {
        let before = self.mechanism.taints.get(var);
        self.mechanism.on_declassify(step, at, var, from, to, store);
        let after = self.mechanism.taints.get(var);
        let what = declassify_to_string(var, &from, &to);
        self.push(step, at, what, TraceKind::Declassify { var, before, after });
    }

    fn on_halt(&mut self, step: u64, at: NodeId, store: &Store) -> Self::Outcome {
        let verdict = self.mechanism.on_halt(step, at, store);
        let released = self.mechanism.taints.halt_taint();
        self.push(step, at, "HALT".to_string(), TraceKind::Halt { released });
        self.finish(verdict)
    }

    fn on_fuel(&mut self, steps: u64) -> Self::Outcome {
        let verdict = self.mechanism.on_fuel(steps);
        self.finish(verdict)
    }
}

/// Runs the mechanism and the event stream in one pass: the verdict of
/// [`crate::dynamic::run_surveillance`] plus one [`TraceEvent`] per
/// executed box.
///
/// # Examples
///
/// ```
/// use enf_core::IndexSet;
/// use enf_flowchart::parse;
/// use enf_surveillance::dynamic::SurvConfig;
/// use enf_surveillance::monitor::run_trace;
///
/// let fc = parse("program(2) { y := x1; }").unwrap();
/// let (out, events) = run_trace(&fc, &[5, 0], &SurvConfig::surveillance(IndexSet::single(2)));
/// assert!(out.is_violation());
/// // START, the assignment, HALT.
/// assert_eq!(events.len(), 3);
/// ```
pub fn run_trace(fc: &Flowchart, inputs: &[V], cfg: &SurvConfig) -> (SurvOutcome, Vec<TraceEvent>) {
    Stepper::new(fc)
        .with_fuel(cfg.fuel)
        .run(inputs, &mut EventMonitor::new(TaintMonitor::new(fc, *cfg)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::run_surveillance;
    use enf_flowchart::parse;

    #[test]
    fn trace_verdict_matches_mechanism() {
        let fc = parse("program(2) { y := x1; if x2 == 0 { y := 0; } }").unwrap();
        for inputs in [[9, 0], [9, 5]] {
            let cfg = SurvConfig::surveillance(IndexSet::single(2));
            let (out, _) = run_trace(&fc, &inputs, &cfg);
            assert_eq!(out, run_surveillance(&fc, &inputs, &cfg));
        }
    }

    #[test]
    fn trace_has_one_event_per_step() {
        let fc = parse("program(1) { if x1 == 0 { y := 1; } else { y := 2; } }").unwrap();
        let cfg = SurvConfig::surveillance(IndexSet::full(1));
        let (out, events) = run_trace(&fc, &[0], &cfg);
        match out {
            SurvOutcome::Accepted { steps, .. } => assert_eq!(events.len() as u64, steps),
            other => panic!("expected acceptance, got {other:?}"),
        }
        assert!(matches!(events[0].kind, TraceKind::Start));
        assert!(matches!(
            events.last().unwrap().kind,
            TraceKind::Halt { .. }
        ));
    }

    #[test]
    fn branch_event_records_the_taken_path() {
        let fc = parse("program(1) { if x1 == 0 { y := 1; } else { y := 2; } }").unwrap();
        let cfg = SurvConfig::surveillance(IndexSet::full(1));
        let (_, then_run) = run_trace(&fc, &[0], &cfg);
        let (_, else_run) = run_trace(&fc, &[7], &cfg);
        let taken = |evs: &[TraceEvent]| match evs.iter().find_map(|e| match e.kind {
            TraceKind::Branch { taken, .. } => Some(taken),
            _ => None,
        }) {
            Some(t) => t,
            None => panic!("no branch event"),
        };
        assert_eq!(taken(&then_run), Some(true));
        assert_eq!(taken(&else_run), Some(false));
    }

    #[test]
    fn vetoed_branch_keeps_taken_none() {
        let fc = parse("program(1) { if x1 == 0 { y := 1; } else { y := 2; } }").unwrap();
        let cfg = SurvConfig::timed(IndexSet::empty());
        let (out, events) = run_trace(&fc, &[0], &cfg);
        assert!(out.is_violation());
        match events.last().unwrap().kind {
            TraceKind::Branch { taken, .. } => assert_eq!(taken, None),
            ref other => panic!("expected a branch event, got {other:?}"),
        }
    }

    #[test]
    fn fuel_exhaustion_returns_events_so_far() {
        let fc = parse("program(0) { while true { skip; } }").unwrap();
        let cfg = SurvConfig::surveillance(IndexSet::empty()).with_fuel(10);
        let (out, events) = run_trace(&fc, &[], &cfg);
        assert_eq!(out, SurvOutcome::OutOfFuel);
        assert_eq!(events.len(), 10);
    }

    #[test]
    fn json_lines_are_well_formed() {
        let fc = parse("program(1) { if x1 == 0 { y := 1; } else { y := 2; } }").unwrap();
        let cfg = SurvConfig::surveillance(IndexSet::full(1));
        let (_, events) = run_trace(&fc, &[0], &cfg);
        for e in &events {
            let line = e.to_json_line();
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"step\""), "{line}");
            assert!(line.contains("\"kind\""), "{line}");
        }
        let assign = events
            .iter()
            .find(|e| matches!(e.kind, TraceKind::Assign { .. }))
            .unwrap();
        assert!(assign.to_json_line().contains("\"kind\": \"assign\""));
    }

    #[test]
    fn json_escapes_control_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("\t\r"), "\\t\\r");
    }

    #[test]
    fn accumulate_event_deltas_keep_old_taint() {
        let fc = parse("program(2) { y := x1; y := x2; }").unwrap();
        let (_, events) = run_trace(&fc, &[1, 2], &SurvConfig::highwater(IndexSet::full(2)));
        let deltas: Vec<_> = events
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::Assign { before, after, .. } => Some((before, after)),
                _ => None,
            })
            .collect();
        assert_eq!(deltas[0], (IndexSet::empty(), IndexSet::single(1)));
        assert_eq!(
            deltas[1],
            (IndexSet::single(1), IndexSet::from_iter([1, 2]))
        );
    }
}
