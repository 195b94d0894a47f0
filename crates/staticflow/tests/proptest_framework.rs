//! Properties of the monotone-framework solver on randomized flowcharts:
//! its fixed point is independent of the iteration order it is given, it
//! converges well inside the `nodes × height` bound, and every certifier
//! gives a program's text the verdict it gives the program it was printed
//! from. (The taint problem is pinned against the pre-framework worklist
//! by the differential in `enf_static::dataflow`'s unit tests.)

use enf_core::IndexSet;
use enf_flowchart::generate::{
    random_flowchart, random_policy_structured, random_structured, GenConfig, SplitMix,
};
use enf_flowchart::graph::{Flowchart, Node, NodeId};
use enf_flowchart::parse;
use enf_flowchart::pretty::structured_to_string;
use enf_static::certify::{certify, Analysis};
use enf_static::framework::{reverse_postorder, solve, solve_in_order, DataflowProblem};
use enf_static::value::analyze_values;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Forward "decisions seen on some path here" — a set-union analysis whose
/// fixed point is rich enough to notice ordering bugs (it grows around
/// loops), defined over the public framework API.
struct DecisionsSeen;

impl DataflowProblem for DecisionsSeen {
    type Fact = Option<BTreeSet<usize>>;

    fn bottom(&self, _fc: &Flowchart) -> Self::Fact {
        None
    }

    fn boundary(&self, fc: &Flowchart, n: NodeId) -> Option<Self::Fact> {
        (n == fc.start()).then(|| Some(BTreeSet::new()))
    }

    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool {
        match (into.as_mut(), from) {
            (_, None) => false,
            (None, Some(f)) => {
                *into = Some(f.clone());
                true
            }
            (Some(i), Some(f)) => {
                let before = i.len();
                i.extend(f.iter().copied());
                i.len() != before
            }
        }
    }

    fn flow(
        &self,
        fc: &Flowchart,
        n: NodeId,
        _edge: usize,
        _to: NodeId,
        fact: &Self::Fact,
    ) -> Option<Self::Fact> {
        let mut seen = fact.clone()?;
        if matches!(fc.node(n), Node::Decision { .. }) {
            seen.insert(n.0);
        }
        Some(Some(seen))
    }
}

/// A seed-derived permutation of the node table (Fisher–Yates over
/// SplitMix, no external RNG needed).
fn shuffled_order(fc: &Flowchart, seed: u64) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = (0..fc.len()).map(NodeId).collect();
    let mut rng = SplitMix::new(seed);
    for i in (1..order.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The least fixed point is iteration-order independent: random
    /// permutations of the worklist priority yield identical facts.
    #[test]
    fn fixed_point_is_order_independent(seed in 0u64..10_000, shuffle in 0u64..1000) {
        let fc = random_flowchart(seed, &GenConfig::default());
        let baseline = solve(&fc, &DecisionsSeen);
        let order = shuffled_order(&fc, shuffle);
        let permuted = solve_in_order(&fc, &DecisionsSeen, &order);
        prop_assert_eq!(&permuted.facts, &baseline.facts, "seed {} shuffle {}", seed, shuffle);
        // Reverse postorder is itself a valid order and must agree too.
        let rpo = reverse_postorder(&fc);
        prop_assert_eq!(&solve_in_order(&fc, &DecisionsSeen, &rpo).facts, &baseline.facts);
    }

    /// Convergence sanity: the solver's work is bounded well below the
    /// worst-case `nodes × height` even on adversarial orders.
    #[test]
    fn solver_converges_quickly(seed in 0u64..10_000) {
        let fc = random_flowchart(seed, &GenConfig::default());
        let sol = solve(&fc, &DecisionsSeen);
        let decisions = fc.iter().filter(|(_, n, _)| matches!(n, Node::Decision { .. })).count();
        // Height of the per-node lattice is |decisions| + 1; edges ≤ 2n.
        let bound = 2 * fc.len() * (decisions + 2);
        prop_assert!(sol.iterations <= bound, "{} transfer steps > bound {}", sol.iterations, bound);
    }
}

/// Programs of the size the repository benchmark certifies.
const BENCH_SIZE: GenConfig = GenConfig {
    arity: 4,
    regs: 3,
    stmts: 60,
    expr_depth: 2,
    loop_bound: 3,
};

/// Programs each case of the round-trip property certifies: with the
/// default 128 cases, 2 048 programs, half of them policy programs.
const ROUND_TRIP_BATCH: u64 = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Printing a program and parsing it back changes no verdict. The text
    /// spells a negative constant `(-3)`, which parses to `Neg(Const 3)`
    /// where lowering the structured program keeps `Const(-3)`; an analysis
    /// that reads constants off the syntax (the value analysis's widening
    /// thresholds) must fold the two alike. A verdict turns on such a
    /// difference in a few programs in ten thousand, the value facts in a
    /// few in a hundred, so the facts are compared too.
    #[test]
    fn certification_survives_the_text_round_trip(batch in 0u64..1 << 40) {
        for seed in batch * ROUND_TRIP_BATCH..(batch + 1) * ROUND_TRIP_BATCH {
            let allowed = IndexSet::from_bits(SplitMix::new(seed).below(16) << 1);
            for sp in [random_structured(seed, &BENCH_SIZE), random_policy_structured(seed, &BENCH_SIZE)] {
                let text = structured_to_string(&sp);
                let parsed = parse(&text).expect("printed programs reparse");
                let lowered = sp.lower().expect("generated programs lower");
                prop_assert!(
                    analyze_values(&parsed).env_at == analyze_values(&lowered).env_at,
                    "seed {}: value facts differ:\n{}", seed, text
                );
                for a in Analysis::ALL {
                    prop_assert_eq!(
                        certify(&parsed, allowed, a),
                        certify(&lowered, allowed, a),
                        "seed {} {:?} allow({}):\n{}", seed, a, allowed, text
                    );
                }
            }
        }
    }
}
