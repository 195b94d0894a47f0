//! E1 (Theorem 1: joins), E2 (Theorem 2: the maximal mechanism and its
//! construction cost), E3 (Theorem 3: soundness sweep over random
//! programs).

use crate::report::{pct, Table};
use enf_core::{
    check_soundness, compare, Allow, FnMechanism, Grid, IndexSet, InputDomain, Join,
    MaximalMechanism, MechOutput, Mechanism, Notice, V,
};
use enf_flowchart::generate::{random_flowchart, GenConfig};
use enf_flowchart::program::FlowchartProgram;
use enf_surveillance::mechanism::Surveillance;
use std::time::Instant;

/// E1: join soundness and completeness on a family of sound mechanisms.
pub fn e1_join() -> Table {
    let mut t = Table::new(
        "E1 — Theorem 1: M1 ∨ M2 is sound and ≥ each operand",
        "the union of sound mechanisms is a sound mechanism at least as complete as each",
        vec![
            "pair",
            "sound(M1)",
            "sound(M2)",
            "sound(M1∨M2)",
            "M1∨M2 ≥ M1",
            "M1∨M2 ≥ M2",
            "acc(M1)",
            "acc(M2)",
            "acc(M1∨M2)",
        ],
    );
    let g = Grid::hypercube(2, -3..=3);
    let policy = Allow::new(2, [1]);
    let mechs: Vec<(&str, FnMechanism<V>)> = vec![
        ("x1 ≥ 0", accept_if(|a| a[0] >= 0)),
        ("x1 even", accept_if(|a| a[0] % 2 == 0)),
        ("x1 = 3", accept_if(|a| a[0] == 3)),
        ("never", accept_if(|_| false)),
    ];
    let mut ok = true;
    for i in 0..mechs.len() {
        for k in (i + 1)..mechs.len() {
            let (n1, m1) = &mechs[i];
            let (n2, m2) = &mechs[k];
            let j = Join::new(m1, m2);
            let s1 = check_soundness(m1, &policy, &g, false).is_sound();
            let s2 = check_soundness(m2, &policy, &g, false).is_sound();
            let sj = check_soundness(&j, &policy, &g, false).is_sound();
            let c1 = compare(&j, m1, &g);
            let c2 = compare(&j, m2, &g);
            ok &= sj && c1.first_as_complete() && c2.first_as_complete();
            t.row(vec![
                format!("{n1} ∨ {n2}"),
                s1.to_string(),
                s2.to_string(),
                sj.to_string(),
                c1.first_as_complete().to_string(),
                c2.first_as_complete().to_string(),
                c1.accepted_second.to_string(),
                c2.accepted_second.to_string(),
                c1.accepted_first.to_string(),
            ]);
        }
    }
    t.set_verdict(if ok {
        "reproduced: every join sound and dominating"
    } else {
        "FAILED"
    });
    t
}

fn accept_if(pred: impl Fn(&[V]) -> bool + Send + Sync + 'static) -> FnMechanism<V> {
    FnMechanism::new(2, move |a: &[V]| {
        if pred(a) {
            MechOutput::Value(a[0])
        } else {
            MechOutput::Violation(Notice::lambda())
        }
    })
}

/// E2: the maximal mechanism exists constructively on finite domains, and
/// its construction cost grows with the domain — the shadow of Theorem 4.
pub fn e2_maximal() -> Table {
    let mut t = Table::new(
        "E2 — Theorem 2: maximal mechanism, constructively",
        "a maximal sound mechanism exists; constructing it needs a full domain scan (impossible for unbounded domains — Theorem 4)",
        vec!["span", "inputs", "classes", "accepting", "build µs", "sound", "≥ surveillance"],
    );
    // Q leaks x1 only on the x2 == 0 stripe.
    let fc =
        enf_flowchart::parse("program(2) { if x2 == 0 { y := x1; } else { y := x2; } }").unwrap();
    let p = FlowchartProgram::new(fc);
    let policy = Allow::new(2, [2]);
    let mut ok = true;
    for span in [2i64, 4, 8, 16, 32] {
        let g = Grid::hypercube(2, -span..=span);
        let start = Instant::now();
        let maximal = MaximalMechanism::build(&p, &policy, &g);
        let us = start.elapsed().as_micros();
        let sound = check_soundness(&maximal, &policy, &g, false).is_sound();
        let ms = Surveillance::new(p.clone(), policy.allowed());
        let dominates = compare(&maximal, &ms, &g).first_as_complete();
        ok &= sound && dominates;
        t.row(vec![
            format!("±{span}"),
            g.len().to_string(),
            maximal.class_count().to_string(),
            maximal.accepting_class_count().to_string(),
            us.to_string(),
            sound.to_string(),
            dominates.to_string(),
        ]);
    }
    t.set_verdict(if ok {
        "reproduced: maximal mechanism sound and dominating at every scale; cost scales with |domain|"
    } else {
        "FAILED"
    });
    t
}

/// E3: Theorem 3 soundness sweep — surveillance and high-water over random
/// terminating programs and all allow(J) policies.
pub fn e3_soundness_sweep() -> Table {
    let mut t = Table::new(
        "E3 — Theorem 3: surveillance soundness sweep",
        "the surveillance mechanism is sound for Q and allow(J) when running time is unobservable",
        vec![
            "policy",
            "programs",
            "M_s sound",
            "M_h sound",
            "M_s acc rate",
            "M_h acc rate",
        ],
    );
    let cfg = GenConfig::default();
    let g = Grid::hypercube(2, -1..=1);
    let seeds: Vec<u64> = (0..120).collect();
    let mut all_ok = true;
    for (name, j) in [
        ("allow()", IndexSet::empty()),
        ("allow(1)", IndexSet::single(1)),
        ("allow(2)", IndexSet::single(2)),
        ("allow(1,2)", IndexSet::full(2)),
    ] {
        let policy = Allow::from_set(2, j);
        let mut sound_s = 0;
        let mut sound_h = 0;
        let mut acc_s = 0;
        let mut acc_h = 0;
        let mut total = 0;
        for &seed in &seeds {
            let fc = random_flowchart(seed, &cfg);
            let p = FlowchartProgram::new(fc);
            let ms = Surveillance::new(p.clone(), j);
            let mh = Surveillance::highwater(p, j);
            if check_soundness(&ms, &policy, &g, false).is_sound() {
                sound_s += 1;
            }
            if check_soundness(&mh, &policy, &g, false).is_sound() {
                sound_h += 1;
            }
            for a in g.iter_inputs() {
                total += 1;
                if ms.run(&a).is_value() {
                    acc_s += 1;
                }
                if mh.run(&a).is_value() {
                    acc_h += 1;
                }
            }
        }
        all_ok &= sound_s == seeds.len() && sound_h == seeds.len();
        t.row(vec![
            name.into(),
            seeds.len().to_string(),
            format!("{sound_s}/{}", seeds.len()),
            format!("{sound_h}/{}", seeds.len()),
            pct(acc_s, total),
            pct(acc_h, total),
        ]);
    }
    t.set_verdict(if all_ok {
        "reproduced: 100% sound; surveillance accepts at least as often as high-water"
    } else {
        "FAILED"
    });
    t
}

/// Runs the family.
pub fn run() -> Vec<Table> {
    vec![e1_join(), e2_maximal(), e3_soundness_sweep()]
}

#[cfg(test)]
mod tests {
    #[test]
    fn family_reproduces() {
        for t in super::run() {
            assert!(t.verdict.starts_with("reproduced"), "{}", t.title);
        }
    }
}
