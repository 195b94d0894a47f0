//! Violation explanations: *why* did the mechanism say Λ?
//!
//! A bare violation notice is (deliberately) uninformative — that is what
//! soundness demands of the *user-facing* output. The *owner* of the
//! program, however, is entitled to a full account, and debugging
//! mechanisms is exactly the pain point the paper flags for Fenton's
//! ambiguous notices ("this difficulty may make it particularly hard to
//! find program bugs that cause violation notices").
//!
//! [`explain`] runs the program once under the event monitor and the
//! mechanism it records ([`crate::monitor::run_trace`]), keeps every
//! taint-acquiring event, and reconstructs the *carrier chain*: the
//! sequence of assignments and decisions through which each offending
//! input index reached the final check.

use crate::dynamic::{SurvConfig, SurvOutcome};
use crate::monitor::{run_trace, TraceEvent};
use enf_core::{IndexSet, V};
use enf_flowchart::graph::{Flowchart, NodeId};

/// One taint-acquiring event during a run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FlowEvent {
    /// Execution step at which it happened.
    pub step: u64,
    /// The node responsible.
    pub site: NodeId,
    /// Human-readable description of the event.
    pub what: String,
    /// Taint the target held before.
    pub before: IndexSet,
    /// Taint it holds after.
    pub after: IndexSet,
}

impl FlowEvent {
    /// Renders the event as one carrier-chain line. This format is shared
    /// by dynamic explanations ([`Explanation::render`]) and the static
    /// `flowlint` pass (where `step` is the node's reverse-postorder
    /// position rather than an execution step).
    pub fn render_line(&self) -> String {
        format!(
            "  step {:>3} at {}: {} [{} -> {}]",
            self.step, self.site, self.what, self.before, self.after
        )
    }
}

/// The full account of one run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Explanation {
    /// Whether the run was accepted.
    pub accepted: bool,
    /// The offending taint at the failed check (empty when accepted).
    pub offending: IndexSet,
    /// Every event that changed a taint set during the run.
    pub events: Vec<FlowEvent>,
}

impl Explanation {
    /// The events that contributed at least one offending index.
    pub fn carrier_chain(&self) -> Vec<&FlowEvent> {
        self.events
            .iter()
            .filter(|e| !e.after.intersection(&self.offending).is_empty())
            .collect()
    }

    /// Renders a human-readable report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        if self.accepted {
            let _ = writeln!(s, "run accepted; no offending flows");
            return s;
        }
        let _ = writeln!(s, "violation: offending inputs {}", self.offending);
        let _ = writeln!(s, "carrier chain:");
        for e in self.carrier_chain() {
            let _ = writeln!(s, "{}", e.render_line());
        }
        s
    }
}

/// Runs the program once under the event monitor and the mechanism it
/// records, keeping every taint change. The mechanism outcome matches
/// [`crate::dynamic::run_surveillance`] exactly; the explanation is the
/// extra.
pub fn explain(fc: &Flowchart, inputs: &[V], cfg: &SurvConfig) -> Explanation {
    let (out, events) = run_trace(fc, inputs, cfg);
    let (accepted, offending) = match out {
        SurvOutcome::Accepted { .. } => (true, IndexSet::empty()),
        SurvOutcome::Violation { taint, .. } => (false, taint.difference(&cfg.allowed)),
        SurvOutcome::OutOfFuel => (false, IndexSet::empty()),
    };
    Explanation {
        accepted,
        offending,
        events: events.iter().filter_map(TraceEvent::flow_event).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::{run_surveillance, SurvOutcome};
    use enf_core::{Grid, InputDomain};
    use enf_flowchart::generate::{random_flowchart, GenConfig};
    use enf_flowchart::parse;

    #[test]
    fn accepted_runs_have_no_offenders() {
        let fc = parse("program(2) { y := x2; }").unwrap();
        let e = explain(&fc, &[9, 4], &SurvConfig::surveillance(IndexSet::single(2)));
        assert!(e.accepted);
        assert!(e.offending.is_empty());
        assert!(e.render().contains("accepted"));
    }

    #[test]
    fn direct_flow_chain_names_the_assignment() {
        let fc = parse("program(2) { r1 := x1; y := r1; }").unwrap();
        let e = explain(&fc, &[9, 4], &SurvConfig::surveillance(IndexSet::single(2)));
        assert!(!e.accepted);
        assert_eq!(e.offending, IndexSet::single(1));
        let chain = e.carrier_chain();
        assert_eq!(chain.len(), 2);
        assert!(chain[0].what.contains("r1 := x1"));
        assert!(chain[1].what.contains("y := r1"));
    }

    #[test]
    fn implicit_flow_chain_names_the_branch() {
        let fc = parse("program(1) { if x1 == 0 { y := 0; } else { y := 1; } }").unwrap();
        let e = explain(&fc, &[0], &SurvConfig::surveillance(IndexSet::empty()));
        assert!(!e.accepted);
        let chain = e.carrier_chain();
        assert!(chain.iter().any(|ev| ev.what.contains("branch on")));
        let rendered = e.render();
        assert!(rendered.contains("offending inputs {1}"));
        assert!(rendered.contains("branch on x1 == 0"));
    }

    #[test]
    fn forgetting_drops_events_from_the_chain() {
        // y := x1 then y := 0 under allowed branch: the final offending set
        // is empty (accepted); but run under allow() everything offends.
        let fc = parse("program(2) { y := x1; if x2 == 0 { y := 0; } }").unwrap();
        let ok = explain(&fc, &[9, 0], &SurvConfig::surveillance(IndexSet::single(2)));
        assert!(ok.accepted);
        // On the violating path the chain includes the initial stash.
        let bad = explain(&fc, &[9, 5], &SurvConfig::surveillance(IndexSet::single(2)));
        assert!(!bad.accepted);
        assert!(bad
            .carrier_chain()
            .iter()
            .any(|ev| ev.what.contains("y := x1")));
    }

    #[test]
    fn explanation_outcome_matches_mechanism() {
        let cfg_all = [
            SurvConfig::surveillance(IndexSet::single(1)),
            SurvConfig::timed(IndexSet::single(1)),
            SurvConfig::highwater(IndexSet::single(1)),
        ];
        let gen = GenConfig::default();
        for seed in 800..840u64 {
            let fc = random_flowchart(seed, &gen);
            for cfg in &cfg_all {
                for a in Grid::hypercube(2, -1..=1).iter_inputs() {
                    let e = explain(&fc, &a, cfg);
                    let m = run_surveillance(&fc, &a, cfg);
                    let accepted = matches!(m, SurvOutcome::Accepted { .. });
                    assert_eq!(
                        e.accepted, accepted,
                        "seed {seed}, cfg {cfg:?}, input {a:?}"
                    );
                    if let SurvOutcome::Violation { taint, .. } = m {
                        assert_eq!(e.offending, taint.difference(&cfg.allowed));
                    }
                }
            }
        }
    }

    #[test]
    fn timed_abort_explains_the_guard() {
        let fc = parse("program(1) { while x1 != 0 { skip; } y := 1; }").unwrap();
        let e = explain(
            &fc,
            &[3],
            &SurvConfig::timed(IndexSet::empty()).with_fuel(100),
        );
        assert!(!e.accepted);
        assert!(e.render().contains("branch on x1 != 0"));
    }
}
