//! E19: relational certification — the verdict matrix of every analysis
//! over the corpus, and the three-valued certify-then-refute verifier.

use crate::report::Table;
use enf_core::{CancelToken, EvalConfig, Grid};
use enf_static::certify::{certify, Analysis};
use enf_static::refute::{verify, RelationalVerdict};

/// E19: per-program classification by each certifier plus the refuter.
///
/// The relational analysis certifies a superset of every one-run analysis
/// (two runs of the same expression cancel; one abstract run cannot see
/// that), and the refuter turns each remaining rejection into either a
/// replay-validated counterexample or a grid-soundness statement.
pub fn e19_classification_matrix() -> Table {
    let mut t = Table::new(
        "E19 — relational certification and leak refutation",
        "self-composition proves noninterference as a property of run *pairs*; programs like y := x1 - x1 are certified only relationally, and every rejection is refuted with a concrete witness pair or declared sound on the searched grid",
        vec![
            "program",
            "surveillance",
            "scoped",
            "value-refined",
            "relational",
            "verifier",
        ],
    );
    let fuel = 10_000;
    let cfg = EvalConfig::default();
    let mut ok = true;
    for pp in enf_flowchart::corpus::all() {
        let j = pp.policy.allowed();
        let fc = &pp.flowchart;
        let word = |a: Analysis| {
            if certify(fc, j, a).is_certified() {
                "certified"
            } else {
                "rejected"
            }
        };
        let (surv, scoped, refined, rel) = (
            word(Analysis::Surveillance),
            word(Analysis::Scoped),
            word(Analysis::ValueRefined),
            word(Analysis::Relational),
        );
        // Relational dominates the value-refined analysis on the corpus.
        ok &= refined == "rejected" || rel == "certified";
        let g = Grid::hypercube(fc.arity(), -2..=2);
        let verdict =
            verify(fc, j, &g, fuel, &cfg, &CancelToken::new()).expect("every corpus run completes");
        // The three values are mutually consistent with certification and
        // with replay.
        match &verdict {
            RelationalVerdict::Certified => ok &= rel == "certified",
            RelationalVerdict::Leak { witness } => {
                ok &= rel == "rejected" && witness.replays(fc, j, fuel);
            }
            RelationalVerdict::Unknown { .. } => ok &= rel == "rejected",
        }
        if pp.name == "cancelling" {
            // The separating witness: every one-run analysis rejects it.
            ok &= refined == "rejected" && rel == "certified";
        }
        if pp.name == "two_path_leak" {
            ok &= matches!(verdict, RelationalVerdict::Leak { .. });
        }
        t.row(vec![
            pp.name.into(),
            surv.into(),
            scoped.into(),
            refined.into(),
            rel.into(),
            verdict.tag().into(),
        ]);
    }
    t.set_verdict(if ok {
        "reproduced: relational ⊇ value-refined on the corpus; cancelling certifies only relationally; every leak verdict replays"
    } else {
        "FAILED"
    });
    t
}

/// Runs the family.
pub fn run() -> Vec<Table> {
    vec![e19_classification_matrix()]
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
