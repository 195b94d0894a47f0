//! The verifier's own cost: empirical soundness checking and the join
//! combinator (Theorem 1) as domains grow.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use enf_core::{
    check_soundness, check_soundness_with, Allow, EvalConfig, FnMechanism, FnPolicy, Grid,
    IndexSet, InputDomain, Join, MechOutput, Mechanism, Notice, Policy,
};
use enf_flowchart::parse;
use enf_flowchart::program::FlowchartProgram;
use enf_surveillance::mechanism::Surveillance;
use enf_surveillance::VmSurveillance;
use std::hint::black_box;

fn bench_soundness(c: &mut Criterion) {
    let fc = parse("program(2) { y := x1; if x2 == 0 { y := 0; } }").unwrap();
    let p = FlowchartProgram::new(fc);
    let m = Surveillance::new(p, IndexSet::single(2));
    let policy = Allow::new(2, [2]);

    let mut group = c.benchmark_group("check_soundness");
    for span in [4i64, 16, 64] {
        let g = Grid::hypercube(2, -span..=span);
        group.bench_with_input(BenchmarkId::from_parameter(g.len()), &g, |b, g| {
            b.iter(|| black_box(check_soundness(&m, &policy, g, false)))
        });
    }
    group.finish();

    // Sequential vs parallel engine on a ~10^6-tuple grid. `seq` pins one
    // worker; `par` uses every available core (or ENF_THREADS).
    let span = 511i64;
    let g = Grid::hypercube(2, -span..=span);
    let seq = EvalConfig::with_threads(1);
    let par = EvalConfig::default().seq_threshold(0);
    let mut group = c.benchmark_group("check_soundness_engine");
    group.bench_with_input(BenchmarkId::new("seq", g.len()), &g, |b, g| {
        b.iter(|| black_box(check_soundness_with(&m, &policy, g, false, &seq)))
    });
    group.bench_with_input(BenchmarkId::new("par", g.len()), &g, |b, g| {
        b.iter(|| black_box(check_soundness_with(&m, &policy, g, false, &par)))
    });
    group.finish();

    // Class partition vs the view partition (the policy behind an
    // `FnPolicy`), one worker on both sides (acceptance bar ≥10× tuples/s
    // on the compiled hot path); the VM-backed mechanism row compounds
    // both compiled layers.
    let views = {
        let policy = policy.clone();
        FnPolicy::new(2, move |a: &[i64]| policy.filter(a))
    };
    let span = 127i64;
    let g = Grid::hypercube(2, -span..=span);
    let vm = VmSurveillance::new(
        FlowchartProgram::new(parse("program(2) { y := x1; if x2 == 0 { y := 0; } }").unwrap()),
        IndexSet::single(2),
    );
    let mut group = c.benchmark_group("class_eval");
    group.bench_with_input(BenchmarkId::new("generic_sweep", g.len()), &g, |b, g| {
        b.iter(|| black_box(check_soundness_with(&m, &views, g, false, &seq)))
    });
    group.bench_with_input(BenchmarkId::new("class_eval_ast", g.len()), &g, |b, g| {
        b.iter(|| black_box(check_soundness_with(&m, &policy, g, false, &seq)))
    });
    group.bench_with_input(BenchmarkId::new("class_eval_vm", g.len()), &g, |b, g| {
        b.iter(|| black_box(check_soundness_with(&vm, &policy, g, false, &seq)))
    });
    group.finish();

    // Join overhead: M1 ∨ M2 where M1 usually answers.
    let m1 = FnMechanism::new(2, |a: &[i64]| {
        if a[0] % 2 == 0 {
            MechOutput::Value(a[0])
        } else {
            MechOutput::Violation(Notice::lambda())
        }
    });
    let m2 = FnMechanism::new(2, |a: &[i64]| MechOutput::Value(a[0]));
    let j = Join::new(&m1, &m2);
    let mut group = c.benchmark_group("join_combinator");
    group.bench_function("first_accepts", |b| b.iter(|| black_box(j.run(&[2, 0]))));
    group.bench_function("fallback_to_second", |b| {
        b.iter(|| black_box(j.run(&[3, 0])))
    });
    group.finish();
}

criterion_group!(benches, bench_soundness);
criterion_main!(benches);
