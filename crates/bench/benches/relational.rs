//! Relational verification pricing: the self-composition fixed point as
//! the CFG grows, and the certify-then-refute verifier as the searched
//! grid grows — the one-off proof vs the linear sweep it avoids.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use enf_core::{CancelToken, EvalConfig, Grid, IndexSet, InputDomain};
use enf_flowchart::generate::diamond_chain;
use enf_flowchart::parse;
use enf_static::refute::{refute, verify};
use enf_static::relational::analyze_relational;
use std::hint::black_box;

fn bench_relational(c: &mut Criterion) {
    // The fixed point scales with the CFG, not with any input domain.
    let mut group = c.benchmark_group("relational");
    for d in [8usize, 32, 128] {
        let fc = diamond_chain(d);
        group.bench_with_input(BenchmarkId::new("analysis", d), &fc, |b, fc| {
            b.iter(|| black_box(analyze_relational(fc)))
        });
    }

    // The refutation sweep on a sound program: |grid| compiled runs, the
    // work a relational certificate makes unnecessary.
    let fc = parse("program(2) { y := x2 * x2 + x2; }").unwrap();
    let cfg = EvalConfig::default();
    for span in [1i64, 2, 4] {
        let g = Grid::hypercube(2, -span..=span);
        group.bench_with_input(BenchmarkId::new("refute_sweep", g.len()), &g, |b, g| {
            b.iter(|| {
                let ctl = CancelToken::new();
                black_box(refute(&fc, IndexSet::single(2), g, 10_000, &cfg, &ctl))
            })
        });
    }

    // The three-valued verifier end to end on the two separating corpus
    // programs: a relational certificate (no sweep at all) and a leak
    // refutation (one sweep of the grid).
    for pp in enf_flowchart::corpus::all() {
        if pp.name != "cancelling" && pp.name != "two_path_leak" {
            continue;
        }
        let g = Grid::hypercube(pp.flowchart.arity(), -3..=3);
        group.bench_with_input(
            BenchmarkId::new("verify", pp.name),
            &pp.flowchart,
            |b, fc| {
                b.iter(|| {
                    let ctl = CancelToken::new();
                    black_box(verify(fc, pp.policy.allowed(), &g, 10_000, &cfg, &ctl))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_relational);
criterion_main!(benches);
