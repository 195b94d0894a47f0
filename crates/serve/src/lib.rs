//! Enforcement as a service: a fault-tolerant, multi-tenant policy server.
//!
//! Jones & Lipton's enforcement mechanisms were conceived for a shared
//! installation: one surveillance monitor serving many mutually distrustful
//! callers. This crate is that deployment story. A long-running daemon
//! accepts certify / surveil / check / refute jobs over a length-prefixed
//! JSONL protocol ([`protocol`]), runs each on the connection thread that
//! read it behind one admission gate ([`server`]), and survives the faults
//! a real service meets: panicking subjects, overload, torn connections,
//! and its own untimely death.
//!
//! The failure model, in one table:
//!
//! | Fault                     | Containment                                         |
//! |---------------------------|-----------------------------------------------------|
//! | job panic mid-run         | quarantined; client gets a typed, retryable frame   |
//! | gate full / tenant quota  | shed with `Retry-After`; never silently dropped     |
//! | connection flood          | past 256 open: one `overloaded` frame, then closed  |
//! | idle connection           | closed after 60 s without a frame                   |
//! | server killed mid-sweep   | checkpoint on disk; resumed run is bit-identical    |
//! | torn / truncated frame    | length prefix detects it; connection closed         |
//! | duplicate client retry    | idempotency key replays the recorded reply          |
//! | shutdown (SIGTERM)        | drain: running and waiting jobs finish, then exit   |
//!
//! Every tenant namespace owns its own hash-chained
//! [`enf_policy::AuditLog`] and capability, so one tenant's trail can be
//! verified — and one tenant's refusals explained — without reference to
//! any other's. Crash recovery is *audit-exact*: a check job that is
//! interrupted and resumed appends exactly the records an uninterrupted
//! run would have, because only decisive verdicts are recorded.
//!
//! The [`client`] module is the other half of the fault model: timeouts,
//! jittered exponential backoff that honors the server's `Retry-After`
//! hints, and idempotent job keys so a blind retry never double-runs a
//! sweep. The [`proxy`] module is the adversary: a deterministic
//! fault-injecting forwarder (driven by [`enf_core::chaos::FaultPlan`])
//! that drops, delays, and truncates frames so the whole loop can be
//! soak-tested under a fixed seed.
//!
//! Everything is `std`-only: hand-rolled framing over `TcpListener` /
//! `UnixListener`, a `std::thread` per connection, and a `Mutex` and
//! `Condvar` for the gate.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod proxy;
pub mod server;
pub mod tenant;

pub use cache::{JobClaim, JobTable, VerdictCache, VerdictKey};
pub use client::{Client, ClientConfig, ClientError};
pub use protocol::{
    parse_allow, read_frame, reply_err, reply_is_ok, reply_ok, reply_retry_after, write_frame,
    ErrorKind, FrameError, Op, Request, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
pub use proxy::ProxyHandle;
pub use server::{serve, Conn, Listener, ServerConfig, ServerHandle, ServerStats, MAX_CONNS};
pub use tenant::TenantStore;
