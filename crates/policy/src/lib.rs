//! Typed enforcement embedding: security policies as Rust types.
//!
//! This crate is the embedding surface of the enforcement toolkit. Where
//! the engine crates answer *"is this mechanism sound?"*, `enf_policy`
//! makes the answer load-bearing: untrusted data enters as [`Tainted`],
//! the only paths to [`Verified`] are monitor-backed, and the only way to
//! read a verified value is through a capability-gated [`Sink`] that
//! appends a hash-chained record to a tamper-evident [`AuditLog`]. The
//! type system enforces, at compile time, what Jones & Lipton's monitor
//! enforces at run time: no release without a passed check.
//!
//! # The pipeline
//!
//! ```text
//! bytes ──ingest──▶ Tainted<T> ──Enforcer──▶ Verified<T, P> ──Sink──▶ T
//!                                   │                          │
//!                                   └── audit: attest/refuse   └── audit: release
//! ```
//!
//! Three proof disciplines mint `Verified` values, one per variant of
//! [`Evidence`]:
//!
//! * **[`Enforcer::certify`]** — a static analysis certifies the program,
//!   and the [`Certificate`] runs it natively
//!   ([`proof::Certified`] / [`Evidence::Certificate`]);
//! * **[`Enforcer::surveil`]** — the dynamic monitor tracks taints through
//!   one run ([`proof::Monitored`] / [`Evidence::Trace`]);
//! * **[`Enforcer::sweep`]** — an exhaustive soundness sweep yields a
//!   [`SoundnessWarrant`] ([`proof::Swept`] / [`Evidence::Coverage`]).
//!
//! # Quickstart
//!
//! ```
//! use enf_policy::{ingest, AuditLog, Capability, Enforcer, RunVerdict, Sink};
//! use enf_core::IndexSet;
//!
//! // A program that reveals only its first input; policy allows index 1.
//! let fc = enf_flowchart::parse("program(2) { y := x1 * 2; }").unwrap();
//! let enforcer = Enforcer::new(fc, IndexSet::from_iter([1])).unwrap();
//!
//! // Untrusted bytes land tainted; authority is minted against the log.
//! let mut log = AuditLog::in_memory();
//! let input = ingest::tainted_csv("21, 999").unwrap();
//! let cap = Capability::issue("stdout", &mut log).unwrap();
//!
//! // The monitor attests, the sink releases, the log remembers.
//! let verdict = enforcer.surveil(input, &mut log).unwrap();
//! let RunVerdict::Released(v) = verdict else { panic!("refused") };
//! let y = Sink::new(cap, &mut log).release(v).unwrap();
//! assert_eq!(y, 42);
//! assert!(enf_policy::verify_chain(&log.render()).is_intact());
//! ```
//!
//! # Unforgeability
//!
//! The guarantees are structural, checked by the compiler:
//!
//! * [`Tainted`] has no accessor — tainted data cannot be read outside
//!   the monitor;
//! * [`Verified`] has a crate-private constructor, no `Clone`, and no
//!   value accessor — it cannot be forged, duplicated, or peeked;
//! * there is **no deserialization** into `Verified` or [`Capability`]:
//!   a serialized claim of verification is just bytes, and bytes land in
//!   `Tainted` —
//!
//! ```compile_fail,E0599
//! // No path from a parsed document to a Verified value.
//! let doc = enf_policy::ingest::tainted_json("{\"verified\": 41}").unwrap();
//! let v: enf_policy::Verified<i64, enf_policy::proof::Monitored> =
//!     enf_policy::Verified::from_json(doc);
//! ```
//!
//! * the [`proof::Proof`] trait is sealed — no fourth discipline can be
//!   invented outside this crate;
//! * [`Capability`] is minted only by [`Capability::issue`], which records
//!   the grant, so authority flows explicitly and auditably.

pub mod audit;
pub mod capability;
pub mod enforcer;
pub mod evidence;
pub mod ingest;
pub mod proof;
pub mod sink;
pub mod tainted;
pub mod verified;

pub use audit::{verify_chain, AuditLog, ChainVerdict, FlushPolicy, GENESIS};
pub use capability::Capability;
pub use enforcer::{
    check_salt, sweep_grid, Certificate, CertifyOutcome, Discipline, Enforcer, Engine, PolicyError,
    Refusal, RunVerdict, ScheduledOutcome, SoundnessWarrant, SweepOutcome,
};
pub use evidence::Evidence;
pub use ingest::{
    tainted_csv, tainted_csv_bytes, tainted_json, tainted_json_bytes, tuple_from_json, IngestError,
};
pub use sink::{Auditable, Sink};
pub use tainted::Tainted;
pub use verified::Verified;
