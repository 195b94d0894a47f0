//! Certification allocates per node, not per transfer.
//!
//! A dataflow transfer writes into a scratch fact the solver owns, and
//! every fact's `clone_from` reuses its buffers, so what a `certify`
//! allocates is the per-node facts, the iteration order and the worklist:
//! a linear function of the program's size, however many times the solver
//! goes round its loops. This binary counts the allocations of each
//! `certify` call with a thread-local counting global allocator and holds
//! them to `per_node(analysis) · nodes + BASE` on loop-heavy programs,
//! whose solves apply many transfers per node, on generated programs and
//! on the paper's corpus.

use enf_core::IndexSet;
use enf_flowchart::generate::{random_policy_structured, random_structured, GenConfig};
use enf_flowchart::graph::Flowchart;
use enf_flowchart::parse;
use enf_flowchart::pretty::structured_to_string;
use enf_static::certify::{certify, Analysis};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations each thread makes.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation() {
    // Never panics: a thread being torn down just goes uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the arguments it was
// given; the count touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (reallocations included) per node a `certify` under
/// `analysis` may make. A fact holds two buffers, its input and register
/// slots, and a solve keeps one fact per node: Surveillance solves once,
/// and the value-refined analyses also run the value analysis's solve and
/// narrowing pass, with a policy set per node under DynamicPolicy.
fn per_node(analysis: Analysis) -> usize {
    match analysis {
        Analysis::Surveillance => 3,
        _ => 8,
    }
}

/// Allocations a `certify` may make whatever the program's size: orders,
/// worklists, threshold and halt lists.
const BASE: usize = 64;

/// The analyses `enforce certify` runs: the three fixed-policy ones on a
/// policy-free program, the schedule analysis on a policy program.
const ANALYSES: [Analysis; 4] = [
    Analysis::Surveillance,
    Analysis::ValueRefined,
    Analysis::Relational,
    Analysis::DynamicPolicy,
];

/// What one `certify` call allocated on this thread.
fn allocations(fc: &Flowchart, allowed: IndexSet, analysis: Analysis) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    std::hint::black_box(certify(fc, allowed, analysis));
    ALLOCATIONS.with(Cell::get) - before
}

/// Holds every analysis that applies to `fc` to its bound.
fn assert_linear(name: &str, fc: &Flowchart, allowed: IndexSet) {
    for analysis in ANALYSES {
        if fc.has_policy_nodes() != (analysis == Analysis::DynamicPolicy) {
            continue;
        }
        let bound = per_node(analysis) * fc.len() + BASE;
        let n = allocations(fc, allowed, analysis);
        assert!(
            n <= bound,
            "{name} under {analysis:?}: {n} allocations for {} nodes, bound {bound}",
            fc.len()
        );
    }
}

/// `depth` nested loops, each of whose bodies passes a value down a chain
/// of `chain` registers, so the taint and value facts take about `chain`
/// passes round each loop to settle.
fn loop_heavy(depth: usize, chain: usize) -> String {
    let mut body = String::from("y := y + r1;");
    for d in (1..=depth).rev() {
        let counter = 40 + d;
        let mut rotate = String::new();
        for j in 1..chain {
            rotate.push_str(&format!("r{j} := r{} + {d};", j + 1));
        }
        rotate.push_str(&format!("r{chain} := x{};", 1 + d % 3));
        body = format!(
            "r{counter} := 0; while r{counter} < {} {{ {rotate} {body} r{counter} := r{counter} + 1; }}",
            20 * d
        );
    }
    format!("program(3) {{ {body} if r1 > 5 {{ y := x3; }} }}")
}

#[test]
fn loop_heavy_programs_allocate_per_node() {
    for depth in 1..=3 {
        for chain in [2, 6, 12] {
            let src = loop_heavy(depth, chain);
            let fc = parse(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert_linear(&src, &fc, IndexSet::single(1));
        }
    }
}

#[test]
fn generated_programs_allocate_per_node() {
    let cfg = GenConfig {
        arity: 4,
        stmts: 60,
        loop_bound: 50,
        ..GenConfig::default()
    };
    for seed in 0..40 {
        for sp in [
            random_structured(seed, &cfg),
            random_policy_structured(seed, &cfg),
        ] {
            let fc = parse(&structured_to_string(&sp)).expect("printed programs parse");
            assert_linear(&format!("seed {seed}"), &fc, IndexSet::single(2));
        }
    }
}

#[test]
fn corpus_programs_allocate_per_node() {
    for p in enf_flowchart::corpus::all() {
        assert_linear(p.name, &p.flowchart, p.policy.allowed());
    }
}
