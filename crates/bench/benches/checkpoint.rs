//! Checkpointed-sweep overhead: `check_soundness_checkpointed` (block
//! sweep + per-block serialization) against the plain guarded sweep
//! (`try_check_soundness_with`) on the same domain.
//!
//! The acceptance bar for the fault-tolerance layer is ≤3% overhead at a
//! production block size (1048576); `exp_all` records the same comparison
//! in `BENCH_results.json` under `"checkpoint_overhead"`.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use enf_core::checkpoint::{check_soundness_checkpointed, PlainCodec};
use enf_core::soundness::try_check_soundness_with;
use enf_core::{
    Allow, CancelToken, EvalConfig, FnMechanism, FnPolicy, Grid, MechOutput, Policy, V,
};
use std::hint::black_box;

fn bench_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint_overhead");
    for half in [512i64, 1024] {
        let grid = Grid::hypercube(2, -half..=half);
        let policy = Allow::new(2, [1]);
        let views = {
            let policy = policy.clone();
            FnPolicy::new(2, move |a: &[V]| policy.filter(a))
        };
        // `view` hides the projection, so both sweeps hash views; `class`
        // numbers classes.
        bench_partition(&mut group, &grid, "view", &views);
        bench_partition(&mut group, &grid, "class", &policy);
    }
    group.finish();
}

fn bench_partition<P>(group: &mut BenchmarkGroup<'_>, grid: &Grid, partition: &str, policy: &P)
where
    P: Policy<View = Vec<V>> + Sync,
{
    let mech = FnMechanism::new(2, |a: &[V]| MechOutput::Value(a[0]));
    let config = EvalConfig::default();
    let ctl = CancelToken::new();
    let id = format!("{partition}/{}", grid.ranges()[0].clone().count());
    group.bench_with_input(BenchmarkId::new("plain_sweep", &id), grid, |b, grid| {
        b.iter(|| {
            black_box(try_check_soundness_with(
                &mech, policy, grid, false, &config, &ctl,
            ))
        })
    });
    group.bench_with_input(
        BenchmarkId::new("checkpointed_sweep", &id),
        grid,
        |b, grid| {
            b.iter(|| {
                black_box(check_soundness_checkpointed(
                    &mech,
                    policy,
                    grid,
                    false,
                    &config,
                    &ctl,
                    0xbe7c,
                    1 << 20,
                    None,
                    &mut |ckpt| {
                        black_box(ckpt.to_json(&PlainCodec).render());
                        Ok(())
                    },
                ))
            })
        },
    );
}

criterion_group!(benches, bench_checkpoint);
criterion_main!(benches);
