//! Seeded inputs: `.fc` program text, policies and input tuples.
//!
//! Every input is a pure function of the run seed and the job index, so a
//! seed names the same workload on every machine and every commit. The
//! program under test only ever sees the rendered text.

use enf_core::{IndexSet, V};
use enf_flowchart::generate::{random_policy_structured, random_structured, GenConfig, SplitMix};
use enf_flowchart::pretty::structured_to_string;
use enf_flowchart::{Stmt, StructuredProgram};

/// Derives an independent stream seed from the run seed, a stream tag and
/// an index, so streams never overlap however many values each draws.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut s = SplitMix::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    s.next_u64() ^ SplitMix::new(index.wrapping_add(s.next_u64())).next_u64()
}

pub fn rng(seed: u64, stream: u64, index: u64) -> SplitMix {
    SplitMix::new(derive(seed, stream, index))
}

/// A random allow set over `1..=arity` (possibly empty).
pub fn allow(rng: &mut SplitMix, arity: usize) -> IndexSet {
    IndexSet::from_bits(rng.below(1 << arity) << 1)
}

/// A random allow set that leaves at least one input out.
pub fn proper_allow(rng: &mut SplitMix, arity: usize) -> IndexSet {
    IndexSet::from_bits(rng.below((1 << arity) - 1) << 1)
}

/// A random input tuple with entries in `-bound..=bound`.
pub fn input(rng: &mut SplitMix, arity: usize, bound: i64) -> Vec<V> {
    (0..arity)
        .map(|_| rng.below(2 * bound as u64 + 1) as V - bound)
        .collect()
}

/// A `declassify` whose source set is empty renders as text the parser
/// rejects (`declassify(x: ~> 1)`: the grammar wants at least one source
/// index). Such programs are left out so that no operation of a workload
/// fails on an input the generator, not a user, produced.
fn renders_reparseable(p: &StructuredProgram) -> bool {
    !p.body
        .iter()
        .any(|s| matches!(s, Stmt::Declassify(_, from, _) if from.is_empty()))
}

/// One generated program: its source text and the structured form it was
/// rendered from (the oracle lowers the latter directly).
pub struct Program {
    pub text: String,
    pub structured: StructuredProgram,
}

/// The `index`-th program of a stream, skipping past any that would not
/// reparse. Policy programs carry `setpolicy` and `declassify` boxes.
pub fn program(seed: u64, stream: u64, index: u64, cfg: &GenConfig, policy: bool) -> Program {
    (0u64..)
        .map(|attempt| {
            let s = derive(seed, stream ^ (attempt << 48), index);
            if policy {
                random_policy_structured(s, cfg)
            } else {
                random_structured(s, cfg)
            }
        })
        .find(renders_reparseable)
        .map(|structured| Program {
            text: structured_to_string(&structured),
            structured,
        })
        .expect("an endless stream of candidates")
}

/// Programs of the given arity in the generator's default size.
pub fn small(arity: usize) -> GenConfig {
    GenConfig {
        arity,
        ..GenConfig::default()
    }
}

/// Exponential inter-arrival gap (seconds) of a Poisson process at `rate`
/// per second.
pub fn poisson_gap(rng: &mut SplitMix, rate: f64) -> f64 {
    // 53 random bits → U in (0, 1]; -ln(U)/rate.
    let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
    -u.ln() / rate
}
