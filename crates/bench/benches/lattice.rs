//! Multi-clearance sweep scaling: the lattice certifier, the shared
//! sweep judging all four clearances in one pass, and the per-clearance
//! `check_soundness_with` loop it replaces, as the grid grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use enf_bench::lattice_eval::{lattice_labeling, lattice_subject};
use enf_core::{
    check_soundness_lattice_with, check_soundness_with, Allow, EvalConfig, Grid, Identity, Level,
};
use enf_flowchart::corpus;
use enf_static::certify_lattice;
use std::hint::black_box;

fn bench_lattice(c: &mut Criterion) {
    let mut group = c.benchmark_group("lattice");

    // The static certifier itself, on the headline intransitive program.
    let lp = corpus::password_release_labeled();
    group.bench_function("certify_lattice/password_release", |b| {
        b.iter(|| {
            black_box(certify_lattice(
                &lp.flowchart,
                &lp.classification,
                &lp.flow,
                &Level::Unclassified,
            ))
        })
    });

    // Shared sweep vs per-clearance loop over the same grid.
    let (labeling, flow) = lattice_labeling();
    let mech = Identity::new(lattice_subject());
    let cfg = EvalConfig::default();
    for side in [4i64, 8] {
        let grid = Grid::hypercube(2, 0..=side);
        group.bench_with_input(BenchmarkId::new("shared_sweep", side), &grid, |b, grid| {
            b.iter(|| {
                black_box(check_soundness_lattice_with(
                    &mech,
                    &labeling,
                    &flow,
                    &Level::ALL,
                    grid,
                    false,
                    &cfg,
                ))
            })
        });
        group.bench_with_input(
            BenchmarkId::new("per_clearance_loop", side),
            &grid,
            |b, grid| {
                b.iter(|| {
                    for c in &Level::ALL {
                        black_box(check_soundness_with(
                            &mech,
                            &Allow::from_set(labeling.arity(), labeling.readable_allow(&flow, c)),
                            grid,
                            false,
                            &cfg,
                        ));
                    }
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_lattice);
criterion_main!(benches);
