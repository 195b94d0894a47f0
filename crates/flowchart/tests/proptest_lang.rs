//! Property-based tests of the flowchart language: totality, printing,
//! parsing, lowering, and interpreter invariants.

use enf_flowchart::ast::{CmpOp, Expr, Pred, Var};
use enf_flowchart::generate::{random_policy_structured, random_structured, GenConfig};
use enf_flowchart::interp::{run, ExecConfig};
use enf_flowchart::parser::parse_structured;
use enf_flowchart::pretty::{expr_to_string, pred_to_string, structured_to_string};
use enf_flowchart::structured::lower;
use proptest::prelude::*;

fn arb_var() -> impl Strategy<Value = Var> {
    prop_oneof![
        (1usize..=3).prop_map(Var::Input),
        (1usize..=3).prop_map(Var::Reg),
        Just(Var::Out),
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-20i64..=20).prop_map(Expr::Const),
        arb_var().prop_map(Expr::Var),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Div(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mod(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::BOr(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::BAnd(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| Expr::Neg(Box::new(a))),
            (arb_cmp(), inner.clone(), inner.clone(), inner).prop_map(|(p, c, t, e)| {
                Expr::Ite(
                    Box::new(Pred::cmp(p, c.clone(), c)),
                    Box::new(t),
                    Box::new(e),
                )
            }),
        ]
    })
}

fn arb_cmp() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn arb_pred() -> impl Strategy<Value = Pred> {
    let leaf = prop_oneof![
        Just(Pred::True),
        Just(Pred::False),
        (arb_cmp(), arb_expr(), arb_expr()).prop_map(|(op, a, b)| Pred::cmp(op, a, b)),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Pred::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Pred::Or(Box::new(a), Box::new(b))),
            inner.prop_map(|a| Pred::Not(Box::new(a))),
        ]
    })
}

fn env_from(vals: &[i64; 7]) -> impl Fn(Var) -> i64 + '_ {
    move |v| match v {
        Var::Input(i) => vals[i - 1],
        Var::Reg(j) => vals[2 + j],
        Var::Out => vals[6],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Expressions are total: evaluation never panics, whatever the
    /// operands (division by zero, overflow, MIN / -1 …).
    #[test]
    fn expr_eval_is_total(e in arb_expr(), vals in any::<[i64; 7]>()) {
        let _ = e.eval(&env_from(&vals));
    }

    /// Predicates are total too.
    #[test]
    fn pred_eval_is_total(p in arb_pred(), vals in any::<[i64; 7]>()) {
        let _ = p.eval(&env_from(&vals));
    }

    /// `negated` complements evaluation exactly.
    #[test]
    fn negation_complements(p in arb_pred(), vals in proptest::array::uniform7(-3i64..=3)) {
        prop_assert_eq!(p.clone().negated().eval(&env_from(&vals)), !p.eval(&env_from(&vals)));
    }

    /// Printed expressions re-parse to something with identical semantics.
    #[test]
    fn printed_expr_reparses(e in arb_expr(), vals in proptest::array::uniform7(-3i64..=3)) {
        let printed = expr_to_string(&e);
        let src = format!("program(3) {{ r1 := x1; y := {printed}; }}");
        let sp = parse_structured(&src)
            .map_err(|err| TestCaseError::fail(format!("`{printed}`: {err}")))?;
        match &sp.body[1] {
            enf_flowchart::structured::Stmt::Assign(Var::Out, back) => {
                prop_assert_eq!(
                    back.eval(&env_from(&vals)),
                    e.eval(&env_from(&vals)),
                    "printed `{}`", printed
                );
            }
            other => prop_assert!(false, "unexpected stmt {:?}", other),
        }
    }

    /// Printed predicates re-parse with identical semantics.
    #[test]
    fn printed_pred_reparses(p in arb_pred(), vals in proptest::array::uniform7(-3i64..=3)) {
        let printed = pred_to_string(&p);
        let src = format!("program(3) {{ if {printed} {{ y := 1; }} else {{ y := 0; }} }}");
        let sp = parse_structured(&src)
            .map_err(|err| TestCaseError::fail(format!("`{printed}`: {err}")))?;
        match &sp.body[0] {
            enf_flowchart::structured::Stmt::If(back, _, _) => {
                prop_assert_eq!(
                    back.eval(&env_from(&vals)),
                    p.eval(&env_from(&vals)),
                    "printed `{}`", printed
                );
            }
            other => prop_assert!(false, "unexpected stmt {:?}", other),
        }
    }

    /// `vars()` is complete: evaluation only depends on listed variables.
    #[test]
    fn vars_is_complete(e in arb_expr(), vals in proptest::array::uniform7(-3i64..=3), other in proptest::array::uniform7(-3i64..=3)) {
        let listed = e.vars();
        // Build an environment agreeing with `vals` on listed vars and
        // with `other` elsewhere.
        let base = env_from(&vals);
        let alt = env_from(&other);
        let mixed = |v: Var| if listed.contains(&v) { base(v) } else { alt(v) };
        prop_assert_eq!(e.eval(&base), e.eval(&mixed));
    }

    /// Generated programs print, re-parse and lower to graphs with
    /// identical behaviour (full pipeline round trip). The policy boxes of
    /// policy programs must also reprint to the same text: runs alone
    /// cannot see a `declassify` box that came back with the wrong index
    /// sets.
    #[test]
    fn full_pipeline_roundtrip(seed in 0u64..20_000) {
        let cfg = GenConfig::default();
        for (p, policy) in [
            (random_structured(seed, &cfg), false),
            (random_policy_structured(seed, &cfg), true),
        ] {
            let printed = structured_to_string(&p);
            let back = parse_structured(&printed)
                .map_err(|err| TestCaseError::fail(format!("seed {seed}: {err}")))?;
            if policy {
                // Expressions need not reprint verbatim (`(-3)` comes back
                // as `-3`), so compare the policy statements' lines.
                let boxes = |text: &str| -> Vec<String> {
                    text.lines()
                        .filter(|l| l.contains("setpolicy") || l.contains("declassify"))
                        .map(str::to_owned)
                        .collect()
                };
                prop_assert_eq!(boxes(&structured_to_string(&back)), boxes(&printed), "seed {}", seed);
            }
            let fa = lower(&p).unwrap();
            let fb = lower(&back).unwrap();
            let cfg = ExecConfig::with_fuel(200_000);
            for x1 in -1..=1 {
                for x2 in -1..=1 {
                    prop_assert_eq!(
                        run(&fa, &[x1, x2], &cfg).value(),
                        run(&fb, &[x1, x2], &cfg).value(),
                        "seed {} at ({}, {})", seed, x1, x2
                    );
                }
            }
        }
    }

    /// Interpreter invariants: step counts are deterministic and traces
    /// have exactly `steps` entries ending at the reported HALT.
    #[test]
    fn interpreter_invariants(seed in 0u64..20_000, x1 in -1i64..=1, x2 in -1i64..=1) {
        let fc = enf_flowchart::generate::random_flowchart(seed, &GenConfig::default());
        let cfg = ExecConfig { fuel: 200_000 };
        let (a, trace) = enf_flowchart::interp::run_traced(&fc, &[x1, x2], &cfg);
        let b = run(&fc, &[x1, x2], &cfg);
        prop_assert_eq!(&a, &b, "traced and plain runs disagree");
        if let enf_flowchart::interp::Outcome::Halted(h) = a {
            prop_assert_eq!(trace.len() as u64, h.steps);
            prop_assert_eq!(*trace.last().unwrap(), h.halt);
            prop_assert_eq!(trace[0], fc.start());
        }
    }

    /// Lowered graphs always validate.
    #[test]
    fn lowering_validates(seed in 0u64..20_000) {
        let p = random_structured(seed, &GenConfig::default());
        let fc = lower(&p).unwrap();
        prop_assert!(fc.validate().is_ok());
    }

    /// The parser never panics, on arbitrary input bytes…
    #[test]
    fn parser_never_panics_on_garbage(s in "\\PC*") {
        let _ = enf_flowchart::parse(&s);
    }

    /// …or on token-shaped soup.
    #[test]
    fn parser_never_panics_on_token_soup(
        toks in proptest::collection::vec(
            prop_oneof![
                Just("program"), Just("("), Just(")"), Just("{"), Just("}"),
                Just("if"), Just("else"), Just("while"), Just(":="), Just(";"),
                Just("x1"), Just("r1"), Just("y"), Just("0"), Just("1"),
                Just("=="), Just("+"), Just("ite"), Just(","), Just("halt"),
            ],
            0..30,
        )
    ) {
        let src = toks.join(" ");
        let _ = enf_flowchart::parse(&src);
    }
}
