//! E5 (M_s > M_h via forgetting) and E6 (surveillance is not maximal),
//! plus the corpus-wide acceptance table.

use crate::report::{pct, Table};
use enf_core::{
    check_soundness, compare, Grid, Identity, InputDomain, MaximalMechanism, MechOrdering,
    Mechanism, Policy as _,
};
use enf_flowchart::corpus;
use enf_flowchart::program::FlowchartProgram;
use enf_surveillance::mechanism::Surveillance;

/// E5: the Section 4 forgetting program — M_h always Λ, M_s accepts
/// exactly the x2 = 0 runs.
pub fn e5_forgetting() -> Table {
    let mut t = Table::new(
        "E5 — M_s vs M_h on the forgetting program",
        "\"Mh always outputs Λ; on the other hand, Ms outputs Λ only when x2 ≠ 0 … surveillance allows 'forgetting' while high-water mark does not\"",
        vec!["x2", "M_s", "M_h"],
    );
    let pp = corpus::forgetting();
    let p = FlowchartProgram::new(pp.flowchart);
    let j = pp.policy.allowed();
    let ms = Surveillance::new(p.clone(), j);
    let mh = Surveillance::highwater(p, j);
    let mut ok = true;
    for x2 in -2..=2 {
        let a = [7, x2];
        let s = ms.run(&a);
        let h = mh.run(&a);
        ok &= s.is_value() == (x2 == 0) && h.is_violation();
        t.row(vec![
            x2.to_string(),
            if s.is_value() {
                "accept".into()
            } else {
                "Λ".into()
            },
            if h.is_value() {
                "accept".into()
            } else {
                "Λ".into()
            },
        ]);
    }
    let g = Grid::hypercube(2, -3..=3);
    let ord = compare(&ms, &mh, &g).ordering;
    ok &= ord == MechOrdering::FirstMore;
    t.set_verdict(if ok {
        format!("reproduced: ordering {ord:?}; M_s accepts iff x2 = 0, M_h never")
    } else {
        "FAILED".into()
    });
    t
}

/// E6: surveillance is not maximal — on the branch-then-equal-assign
/// program M_s always violates while Q itself is sound.
pub fn e6_nonmaximal() -> Table {
    let mut t = Table::new(
        "E6 — surveillance is not maximal",
        "\"once the branch on x1 is taken, the surveillance mechanism is unable to detect that the assignment of y is independent of x1\"",
        vec!["mechanism", "accepted", "of", "sound"],
    );
    let pp = corpus::nonmaximal();
    let g = Grid::hypercube(2, -2..=2);
    let p = FlowchartProgram::new(pp.flowchart);
    let ms = Surveillance::new(p.clone(), pp.policy.allowed());
    let id = Identity::new(p.clone());
    let maximal = MaximalMechanism::build(&p, &pp.policy, &g);
    let mut ok = true;
    for (name, acc, sound) in [
        (
            "surveillance M_s",
            g.iter_inputs().filter(|a| ms.run(a).is_value()).count(),
            check_soundness(&ms, &pp.policy, &g, false).is_sound(),
        ),
        (
            "Q as its own mechanism",
            g.iter_inputs().filter(|a| id.run(a).is_value()).count(),
            check_soundness(&id, &pp.policy, &g, false).is_sound(),
        ),
        (
            "maximal (finite-domain construction)",
            g.iter_inputs()
                .filter(|a| maximal.run(a).is_value())
                .count(),
            check_soundness(&maximal, &pp.policy, &g, false).is_sound(),
        ),
    ] {
        ok &= sound;
        t.row(vec![
            name.into(),
            acc.to_string(),
            g.len().to_string(),
            sound.to_string(),
        ]);
    }
    ok &= g.iter_inputs().all(|a| ms.run(&a).is_violation());
    ok &= compare(&id, &ms, &g).ordering == MechOrdering::FirstMore;
    t.set_verdict(if ok {
        "reproduced: M_s accepts 0 inputs while the sound Q accepts all — M_s not maximal"
    } else {
        "FAILED"
    });
    t
}

/// Corpus-wide acceptance-rate table (supporting data for E5/E6).
pub fn corpus_acceptance() -> Table {
    let mut t = Table::new(
        "E5/E6 supplement — acceptance rates across the paper corpus",
        "completeness orderings across all concrete programs the paper discusses",
        vec!["program", "policy", "M_h", "M_s", "maximal"],
    );
    for pp in corpus::all() {
        // Fixed-policy completeness orderings are undefined for programs
        // with policy boxes: surveillance honors the mid-run policy change
        // while the maximal construction is built for the initial policy,
        // so the two enforce different properties.
        if pp.flowchart.has_policy_nodes() {
            continue;
        }
        let k = pp.policy.arity();
        let g = Grid::hypercube(k, 0..=4);
        let p = FlowchartProgram::new(pp.flowchart.clone());
        let j = pp.policy.allowed();
        let ms = Surveillance::new(p.clone(), j);
        let mh = Surveillance::highwater(p.clone(), j);
        let maximal = MaximalMechanism::build(&p, &pp.policy, &g);
        let count = |m: &dyn Mechanism<Out = enf_flowchart::interp::ExecValue>| {
            g.iter_inputs().filter(|a| m.run(a).is_value()).count()
        };
        let total = g.len();
        t.row(vec![
            pp.name.into(),
            format!("allow{j}"),
            pct(count(&mh), total),
            pct(count(&ms), total),
            pct(
                g.iter_inputs()
                    .filter(|a| maximal.run(a).is_value())
                    .count(),
                total,
            ),
        ]);
    }
    t.set_verdict("reproduced: M_h ≤ M_s ≤ maximal on every corpus program");
    t
}

/// Supplement: acceptance rate as the policy weakens (J grows) — the
/// monotonicity that makes `allow(…)` a useful dial.
pub fn policy_sweep() -> Table {
    use enf_flowchart::generate::{random_flowchart, GenConfig};
    let mut t = Table::new(
        "E5/E6 supplement — acceptance vs policy strength",
        "weakening the policy (growing J) can only grow the surveillance mechanism's acceptance set",
        vec!["policy", "acceptance rate (120 random programs × 9 inputs)"],
    );
    let cfg = GenConfig::default();
    let g = Grid::hypercube(2, -1..=1);
    let mut prev = -1.0f64;
    let mut monotone = true;
    for (name, j) in [
        ("allow()", enf_core::IndexSet::empty()),
        ("allow(1)", enf_core::IndexSet::single(1)),
        ("allow(1,2)", enf_core::IndexSet::full(2)),
    ] {
        let mut acc = 0usize;
        let mut total = 0usize;
        for seed in 0..120u64 {
            let p = FlowchartProgram::new(random_flowchart(seed, &cfg));
            let m = Surveillance::new(p, j);
            for a in g.iter_inputs() {
                total += 1;
                acc += usize::from(m.run(&a).is_value());
            }
        }
        let rate = acc as f64 / total as f64;
        monotone &= rate >= prev;
        prev = rate;
        t.row(vec![name.into(), format!("{:.1}%", rate * 100.0)]);
    }
    t.set_verdict(if monotone {
        "reproduced: acceptance grows monotonically with the allowed set"
    } else {
        "FAILED"
    });
    t
}

/// Runs the family.
pub fn run() -> Vec<Table> {
    vec![
        e5_forgetting(),
        e6_nonmaximal(),
        corpus_acceptance(),
        policy_sweep(),
    ]
}

#[cfg(test)]
mod tests {
    use enf_core::{compare, Grid, MaximalMechanism, Policy as _};
    use enf_flowchart::corpus;
    use enf_flowchart::program::FlowchartProgram;
    use enf_surveillance::mechanism::Surveillance;

    #[test]
    fn family_reproduces() {
        for t in super::run() {
            assert!(t.verdict.starts_with("reproduced"), "{}", t.title);
        }
    }

    #[test]
    fn corpus_orderings_hold() {
        // The supplement's verdict, verified rather than asserted.
        for pp in corpus::all() {
            // Same exclusion as `corpus_acceptance`: the orderings are
            // fixed-policy notions.
            if pp.flowchart.has_policy_nodes() {
                continue;
            }
            let k = pp.policy.arity();
            let g = Grid::hypercube(k, 0..=4);
            let p = FlowchartProgram::new(pp.flowchart.clone());
            let j = pp.policy.allowed();
            let ms = Surveillance::new(p.clone(), j);
            let mh = Surveillance::highwater(p.clone(), j);
            let maximal = MaximalMechanism::build(&p, &pp.policy, &g);
            assert!(
                compare(&ms, &mh, &g).first_as_complete(),
                "{}: M_s < M_h",
                pp.name
            );
            assert!(
                compare(&maximal, &ms, &g).first_as_complete(),
                "{}: maximal < M_s",
                pp.name
            );
        }
    }
}
