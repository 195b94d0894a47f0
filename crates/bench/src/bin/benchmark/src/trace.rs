//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A span is a name, a start, an end, the span that caused it and the id
//! of the request it belongs to. Spans stay in memory until the run ends;
//! a layer's self time is its span's duration minus the part of that
//! interval its child spans cover. Nothing here reaches inside the
//! program: every span wraps one call to a public function.

use enf_core::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// The causing span, 0 for a root.
    pub parent: u64,
    /// The request the span belongs to; spans of one request share it.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span recorder; a disabled one records nothing and costs one branch.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id, for a parent whose interval is recorded later with
    /// [`Tracer::record`].
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records an interval measured by the caller.
    pub fn record(&self, id: u64, parent: u64, req: u64, name: &'static str, start: Instant) {
        if !self.on {
            return;
        }
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns: self.now_ns(),
        };
        self.spans.lock().expect("span list lock").push(span);
    }

    /// Times `f` as a child of `parent` within request `req`.
    pub fn span<R>(&self, name: &'static str, req: u64, parent: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = self.id();
        let start = Instant::now();
        let out = f();
        self.record(id, parent, req, name, start);
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list lock"))
    }
}

/// Whether job `i` of a closed loop is traced in a traced run. Blocks of
/// [`TRACE_BLOCK`] jobs alternate, and every workload's job mix repeats
/// within a block, so the traced and untraced halves see the same mix and
/// their ratio is the cost of tracing.
pub fn traced_job(tr: &Tracer, i: usize) -> bool {
    tr.on() && (i / TRACE_BLOCK).is_multiple_of(2)
}

pub const TRACE_BLOCK: usize = 20;

/// Self time of every span, in microseconds, grouped by span name.
pub fn self_times_us(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            // Union of the child intervals, clipped to the parent's.
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let dur = s.end_ns.saturating_sub(s.start_ns);
        out.entry(s.name)
            .or_default()
            .push(dur.saturating_sub(covered) as f64 / 1e3);
    }
    out
}

/// Writes spans as JSON lines, one span per line.
pub fn write_jsonl(path: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut text = String::new();
    for s in spans {
        let doc = Json::Obj(vec![
            ("id".to_string(), Json::Int(i128::from(s.id))),
            ("parent".to_string(), Json::Int(i128::from(s.parent))),
            ("req".to_string(), Json::Int(i128::from(s.req))),
            ("name".to_string(), Json::Str(s.name.to_string())),
            ("start_ns".to_string(), Json::Int(i128::from(s.start_ns))),
            ("end_ns".to_string(), Json::Int(i128::from(s.end_ns))),
        ]);
        text.push_str(&doc.render());
        text.push('\n');
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "request", 0, 10_000),
            span(2, 1, "write", 1_000, 3_000),
            span(3, 1, "await", 2_000, 6_000), // overlaps "write"
            span(4, 1, "read", 8_000, 12_000), // runs past the parent
        ];
        let t = self_times_us(&spans);
        // Covered: 1..6 and 8..10 → 7 µs of 10.
        assert_eq!(t["request"], vec![3.0]);
        assert_eq!(t["read"], vec![4.0]);
    }
}
