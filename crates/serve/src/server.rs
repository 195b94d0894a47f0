//! The policy server: one admission gate, quarantine, drain.
//!
//! One [`serve`] call runs the whole service: an accept loop feeding
//! per-connection threads, each of which runs the jobs it reads under
//! `catch_unwind`, behind one admission gate. The structure is flat:
//!
//! ```text
//! serve() ── accept thread ── connection threads (one per socket)
//!    │                              │ admission: claim key → quota → gate
//!    │                              │ gate: ≤ workers run, ≤ queue wait (FIFO)
//!    │                              └─ catch_unwind per job; panic ⇒ quarantine
//!    └── waits for the shutdown flag, then wakes the acceptor
//! ```
//!
//! **The accept path.** The acceptor blocks in `accept`; at drain
//! [`serve`] wakes it with one connection to the listener's own address.
//! It keeps no handle of a connection thread that has finished, answers a
//! connection past [`MAX_CONNS`] with one `overloaded` frame, and a
//! connection that sends no byte of a frame for 60 s is closed.
//!
//! **Admission control.** A request is shed — with a retryable,
//! `Retry-After`-carrying frame — when its tenant is at quota or
//! [`ServerConfig::queue`] jobs already wait for a turn. Shedding happens
//! *before* any work; an admitted job always produces exactly one reply
//! frame.
//!
//! **Crash recovery.** `check`/`refute` jobs sweep through
//! [`Enforcer::sweep_checkpointed`] when the server has a state
//! directory, keyed by [`check_salt`] so a checkpoint can never resume a
//! different sweep. The engine writes its progress records into a scratch
//! log; the tenant's durable trail records *only decisive verdicts*, so
//! an interrupted-and-resumed job leaves exactly the records an
//! uninterrupted run would have — crash recovery is audit-exact.
//!
//! **Degradation is observable.** [`ServerStats`] counts everything the
//! service survived; [`ServerStats::degraded`] is the exit-code contract:
//! a drain that quarantined a job or hit internal faults exits 1, a clean
//! drain exits 0.

use crate::cache::{JobClaim, JobMaterial, JobTable, VerdictCache, VerdictKey};
use crate::protocol::{
    decode_payload, reply_err, reply_is_ok, reply_ok, write_frame, ErrorKind, FrameError, Op,
    Request,
};
use crate::tenant::{lock, Tenant, TenantStore};
use enf_core::chaos::CHAOS_MARKER;
use enf_core::{
    try_check_soundness_with, Allow, CancelToken, EvalConfig, Grid, Identity, Json, MechOutput,
    Program, SoundnessReport, Verdict,
};
use enf_flowchart::{ExecValue, Flowchart, FlowchartProgram};
use enf_policy::proof::Proof;
use enf_policy::{
    check_salt, AuditLog, Auditable, CertifyOutcome, Enforcer, PolicyError, Refusal, RunVerdict,
    Sink, Tainted, Verified,
};
use enf_static::certify::Analysis;
use std::io::{self, Read};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

/// How long a reader sleeps between polls while idle, and [`serve`]
/// between looks at the shutdown flag.
const POLL_TIMEOUT: Duration = Duration::from_millis(25);

/// Polls a mid-frame stall this many times before declaring the frame
/// torn (≈5 s at [`POLL_TIMEOUT`]).
const STALL_LIMIT: u32 = 200;

/// Polls an idle connection (no byte of its next frame yet) this many
/// times before closing it (60 s at [`POLL_TIMEOUT`]). A connection
/// running its own job, or waiting for its turn, is not reading, so a
/// long sweep is never cut off.
const IDLE_LIMIT: u32 = 2_400;

/// Bytes a reader takes from a connection per read. A frame's buffer
/// grows only as its bytes arrive, so a peer that declares a large frame
/// and sends little of it holds little memory.
const READ_CHUNK: usize = 16 * 1024;

/// Connections the server keeps open at once. A connection past the cap
/// gets one `overloaded` frame and is closed.
pub const MAX_CONNS: usize = 256;

/// The pause after a failed `accept` (EMFILE, ECONNABORTED, …), so a
/// blocking acceptor never spins.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// The connect timeout of the connection that wakes a blocked acceptor.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Jobs that execute at once, each on the connection thread that read
    /// it (at least 1).
    pub workers: usize,
    /// Jobs that may wait for one of those turns (at least 1); they start
    /// in arrival order, and a request past them is shed.
    pub queue: usize,
    /// Per-tenant in-flight job quota; an over-quota tenant is shed.
    pub tenant_quota: usize,
    /// Durable state root (tenant audit trails + job checkpoints). `None`
    /// keeps everything in memory.
    pub state_dir: Option<PathBuf>,
    /// Verdict-cache capacity (0 disables).
    pub cache_capacity: usize,
    /// Fuel bound applied when a request does not override it.
    pub default_fuel: u64,
    /// The `Retry-After` hint (milliseconds) attached to shed frames.
    pub retry_after_ms: u64,
    /// Honor chaos directives in requests (fault-injection testing only).
    pub chaos: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            queue: 64,
            tenant_quota: 8,
            state_dir: None,
            cache_capacity: 1024,
            default_fuel: 10_000,
            retry_after_ms: 25,
            chaos: false,
        }
    }
}

/// Everything the service survived, reported at drain.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Successful replies sent (including replays and cache hits).
    pub served: u64,
    /// Requests shed by admission control (queue full or tenant quota),
    /// and connections refused at [`MAX_CONNS`].
    pub shed: u64,
    /// Malformed requests rejected with usage frames.
    pub usage_errors: u64,
    /// Internal faults reported to clients.
    pub internal_errors: u64,
    /// Jobs that panicked mid-run, contained by `catch_unwind`.
    pub quarantined: u64,
    /// Sweep verdicts answered from the content-addressed cache.
    pub cache_hits: u64,
    /// Check jobs resumed from an on-disk checkpoint.
    pub resumed: u64,
    /// Replies replayed for idempotent retries of completed jobs.
    pub replayed: u64,
}

impl ServerStats {
    /// Whether the service degraded during its life: it kept serving, but
    /// only by containing faults. Drives the exit-code contract (0 clean,
    /// 1 degraded).
    pub fn degraded(&self) -> bool {
        self.quarantined > 0 || self.internal_errors > 0
    }

    /// Renders the stats as a JSON document (the drain report).
    pub fn to_json(&self) -> Json {
        let counts = [
            ("served", self.served),
            ("shed", self.shed),
            ("usage_errors", self.usage_errors),
            ("internal_errors", self.internal_errors),
            ("quarantined", self.quarantined),
            ("cache_hits", self.cache_hits),
            ("resumed", self.resumed),
            ("replayed", self.replayed),
        ];
        let mut fields: Vec<(String, Json)> = counts
            .into_iter()
            .map(|(name, n)| (name.to_string(), Json::Int(i128::from(n))))
            .collect();
        fields.push(("degraded".to_string(), Json::Bool(self.degraded())));
        Json::Obj(fields)
    }
}

/// Live counters, aggregated into [`ServerStats`] at drain.
#[derive(Default)]
struct Counters {
    served: AtomicU64,
    shed: AtomicU64,
    usage_errors: AtomicU64,
    internal_errors: AtomicU64,
    quarantined: AtomicU64,
    cache_hits: AtomicU64,
    resumed: AtomicU64,
    replayed: AtomicU64,
}

impl Counters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ServerStats {
        ServerStats {
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            usage_errors: self.usage_errors.load(Ordering::Relaxed),
            internal_errors: self.internal_errors.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            resumed: self.resumed.load(Ordering::Relaxed),
            replayed: self.replayed.load(Ordering::Relaxed),
        }
    }
}

/// A byte-stream connection the server can poll. Implemented for TCP and
/// Unix-domain streams.
pub trait Conn: Read + io::Write + Send {
    /// Sets the read timeout used by the polling frame reader.
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
    /// Sets the write timeout, which bounds a write to a peer that never
    /// reads.
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
}

impl Conn for TcpStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_write_timeout(self, timeout)
    }
}

#[cfg(unix)]
impl Conn for UnixStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        UnixStream::set_read_timeout(self, timeout)
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        UnixStream::set_write_timeout(self, timeout)
    }
}

/// The server's transport listener: TCP or (on Unix) a domain socket.
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain-socket listener.
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    /// Binds a TCP listener.
    pub fn bind_tcp(addr: impl ToSocketAddrs) -> io::Result<Listener> {
        Ok(Listener::Tcp(TcpListener::bind(addr)?))
    }

    /// Binds a Unix-domain-socket listener, replacing a stale socket file.
    #[cfg(unix)]
    pub fn bind_unix(path: impl Into<PathBuf>) -> io::Result<Listener> {
        let path = path.into();
        let _ = std::fs::remove_file(&path);
        Ok(Listener::Unix(UnixListener::bind(path)?))
    }

    /// The bound address, for logging.
    pub fn local_addr_string(&self) -> String {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<unknown>".to_string()),
            #[cfg(unix)]
            Listener::Unix(l) => l
                .local_addr()
                .ok()
                .and_then(|a| a.as_pathname().map(|p| p.display().to_string()))
                .unwrap_or_else(|| "<unix>".to_string()),
        }
    }

    /// Wakes an acceptor blocked on this listener with one connection to
    /// its own address, dropped at once.
    fn wake(&self) {
        match self {
            Listener::Tcp(l) => {
                if let Ok(addr) = l.local_addr() {
                    wake_tcp(addr);
                }
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                if let Some(path) = l.local_addr().ok().as_ref().and_then(|a| a.as_pathname()) {
                    let _ = UnixStream::connect(path);
                }
            }
        }
    }

    fn accept_conn(&self) -> io::Result<Box<dyn Conn>> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true).ok();
                Ok(Box::new(s))
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(Box::new(s))
            }
        }
    }
}

/// Wakes an acceptor blocked on `addr` with one connection, dropped at
/// once. A listener bound to every interface is reached through loopback.
pub(crate) fn wake_tcp(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, WAKE_TIMEOUT);
}

/// Blocks in `accept` until `shutdown` is raised, handing each connection
/// to `serve_conn` with the threads serving the earlier ones, less those
/// that have finished. A connection accepted after shutdown (the wake, or
/// a late client) is dropped. A failed accept backs off for
/// [`ACCEPT_BACKOFF`]. Returns once every connection thread has been
/// joined.
pub(crate) fn accept_until_shutdown<S>(
    mut accept: impl FnMut() -> io::Result<S>,
    shutdown: &AtomicBool,
    mut serve_conn: impl FnMut(S, &mut Vec<thread::JoinHandle<()>>),
) {
    let mut threads: Vec<thread::JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        match accept() {
            Ok(_) if shutdown.load(Ordering::SeqCst) => break,
            Ok(conn) => {
                threads.retain(|h| !h.is_finished());
                serve_conn(conn, &mut threads);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => thread::sleep(ACCEPT_BACKOFF),
        }
    }
    for h in threads {
        let _ = h.join();
    }
}

/// Answers a connection past [`MAX_CONNS`] with one `overloaded` frame and
/// closes it. The write times out after [`POLL_TIMEOUT`], so a peer that
/// never reads cannot stall the acceptor.
fn refuse(mut conn: Box<dyn Conn>, retry_after_ms: u64) {
    let reply = reply_err(
        "",
        ErrorKind::Overloaded,
        "server is at its connection cap",
        Some(retry_after_ms),
    );
    if conn.set_write_timeout(Some(POLL_TIMEOUT)).is_ok() {
        let _ = write_frame(&mut conn, &reply);
    }
}

/// The admission gate: at most `workers` jobs hold a turn at once, at
/// most `queue` more wait for one, and a finished turn goes to the
/// earliest waiter. Waiters hold tickets, so arrival order is start order.
struct Gate {
    workers: usize,
    queue: usize,
    state: Mutex<GateState>,
    turn_freed: Condvar,
}

#[derive(Default)]
struct GateState {
    /// Turns taken and not yet given back.
    running: usize,
    /// Tickets handed out to waiters, and the ticket that starts next;
    /// `issued - next` jobs wait.
    issued: u64,
    next: u64,
}

/// One job's turn; dropping it frees the turn for the earliest waiter.
struct Turn<'a>(&'a Gate);

impl Gate {
    fn new(workers: usize, queue: usize) -> Gate {
        Gate {
            workers: workers.max(1),
            queue: queue.max(1),
            state: Mutex::new(GateState::default()),
            turn_freed: Condvar::new(),
        }
    }

    /// Takes a turn, waiting behind every earlier waiter when all turns
    /// are taken. `None` when `queue` jobs already wait: shed the request.
    fn enter(&self) -> Option<Turn<'_>> {
        let mut s = lock(&self.state);
        let waiting = s.issued - s.next;
        if waiting == 0 && s.running < self.workers {
            s.running += 1;
            return Some(Turn(self));
        }
        if waiting >= self.queue as u64 {
            return None;
        }
        let ticket = s.issued;
        s.issued += 1;
        while s.next != ticket || s.running >= self.workers {
            s = self
                .turn_freed
                .wait(s)
                .unwrap_or_else(PoisonError::into_inner);
        }
        s.next += 1;
        s.running += 1;
        drop(s);
        // Two turns may have come free at once: the next waiter may start too.
        self.turn_freed.notify_all();
        Some(Turn(self))
    }
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        lock(&self.0.state).running -= 1;
        self.0.turn_freed.notify_all();
    }
}

/// State shared by every thread of one server instance.
struct Shared {
    cfg: ServerConfig,
    tenants: TenantStore,
    cache: VerdictCache,
    jobs: JobTable,
    gate: Gate,
    counters: Counters,
    shutdown: Arc<AtomicBool>,
}

/// Runs the service until `shutdown` is raised, then drains: the accept
/// loop stops, and each open connection finishes its in-flight and
/// waiting jobs before its thread is joined. Returns the life's
/// [`ServerStats`].
pub fn serve(listener: Listener, cfg: ServerConfig, shutdown: Arc<AtomicBool>) -> ServerStats {
    let shared = Arc::new(Shared {
        tenants: TenantStore::new(cfg.state_dir.clone(), cfg.tenant_quota),
        cache: VerdictCache::new(cfg.cache_capacity),
        jobs: JobTable::new(),
        gate: Gate::new(cfg.workers, cfg.queue),
        counters: Counters::default(),
        shutdown: Arc::clone(&shutdown),
        cfg,
    });

    // Accept loop: blocks in `accept` until the drain wakes it.
    let listener = Arc::new(listener);
    let acceptor = {
        let shared = Arc::clone(&shared);
        let listener = Arc::clone(&listener);
        thread::Builder::new()
            .name("enf-serve-accept".to_string())
            .spawn(move || {
                let accept = || listener.accept_conn();
                accept_until_shutdown(accept, &shared.shutdown, |conn, threads| {
                    if threads.len() >= MAX_CONNS {
                        Counters::bump(&shared.counters.shed);
                        refuse(conn, shared.cfg.retry_after_ms);
                        return;
                    }
                    let conn_shared = Arc::clone(&shared);
                    let spawned = thread::Builder::new()
                        .name("enf-serve-conn".to_string())
                        .spawn(move || handle_conn(conn, &conn_shared));
                    match spawned {
                        Ok(h) => threads.push(h),
                        Err(_) => Counters::bump(&shared.counters.internal_errors),
                    }
                });
            })
            .ok()
    };

    while !shutdown.load(Ordering::SeqCst) {
        thread::sleep(POLL_TIMEOUT);
    }
    // Drain: the woken acceptor returns once its connections have finished.
    if let Some(h) = acceptor {
        listener.wake();
        let _ = h.join();
    }
    shared.counters.snapshot()
}

/// Whether a reply should be recorded for idempotent replay. Partial
/// (`unknown`) sweeps stay claimable so a resubmission resumes from the
/// checkpoint instead of replaying the partial answer.
fn is_terminal(reply: &Json) -> bool {
    if !reply_is_ok(reply) {
        return false;
    }
    !matches!(reply.get("verdict").and_then(Json::as_str), Some("unknown"))
}

/// One connection: read frames, run their jobs, write replies, until EOF,
/// a torn frame, or drain.
fn handle_conn(mut conn: Box<dyn Conn>, shared: &Shared) {
    if conn.set_read_timeout(Some(POLL_TIMEOUT)).is_err() {
        return;
    }
    loop {
        match read_frame_polled(&mut *conn, &shared.shutdown) {
            Ok(Some(doc)) => {
                let reply = dispatch(shared, &doc);
                if write_frame(&mut conn, &reply).is_err() {
                    return;
                }
            }
            Ok(None) => return, // clean EOF, or idle at drain
            Err(_) => return,   // torn or malformed frame: sever, client retries
        }
    }
}

/// Admission control, then the job itself, on the calling connection's
/// thread. Always returns exactly one reply document.
fn dispatch(shared: &Shared, doc: &Json) -> Json {
    let req = match Request::from_json(doc) {
        Ok(req) => req,
        Err(detail) => {
            Counters::bump(&shared.counters.usage_errors);
            return reply_err("", ErrorKind::Usage, &detail, None);
        }
    };
    let key = req.job_key();
    let draining = shared.shutdown.load(Ordering::SeqCst);
    if req.op == Op::Ping {
        Counters::bump(&shared.counters.served);
        return reply_ok(
            &key,
            vec![
                ("pong".to_string(), Json::Bool(true)),
                ("draining".to_string(), Json::Bool(draining)),
            ],
        );
    }
    if draining {
        return reply_err(
            &key,
            ErrorKind::Draining,
            "server is draining for shutdown",
            Some(shared.cfg.retry_after_ms),
        );
    }
    match shared.jobs.claim(&req.tenant, &key, &JobMaterial::of(&req)) {
        JobClaim::Reused => {
            Counters::bump(&shared.counters.usage_errors);
            return reply_err(
                &key,
                ErrorKind::Usage,
                "job id reused with different content",
                None,
            );
        }
        JobClaim::Done(reply) => {
            Counters::bump(&shared.counters.replayed);
            Counters::bump(&shared.counters.served);
            return mark_replayed(reply);
        }
        JobClaim::Running => {
            return reply_err(
                &key,
                ErrorKind::InProgress,
                "job is already running under this key",
                Some(shared.cfg.retry_after_ms),
            );
        }
        JobClaim::Fresh => {}
    }
    match shared.tenants.try_admit(&req.tenant) {
        Ok(true) => {}
        Ok(false) => {
            shared.jobs.abort(&req.tenant, &key);
            Counters::bump(&shared.counters.shed);
            return reply_err(
                &key,
                ErrorKind::Overloaded,
                "tenant is over its in-flight quota",
                Some(shared.cfg.retry_after_ms),
            );
        }
        Err(e) => {
            shared.jobs.abort(&req.tenant, &key);
            Counters::bump(&shared.counters.internal_errors);
            return reply_err(&key, ErrorKind::Internal, &e.to_string(), None);
        }
    }
    let Some(turn) = shared.gate.enter() else {
        shared.tenants.release(&req.tenant);
        shared.jobs.abort(&req.tenant, &key);
        Counters::bump(&shared.counters.shed);
        return reply_err(
            &key,
            ErrorKind::Overloaded,
            "job queue is full",
            Some(shared.cfg.retry_after_ms),
        );
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| execute(shared, &req)));
    drop(turn);
    shared.tenants.release(&req.tenant);
    let Ok(reply) = outcome else {
        // Quarantine: the claim is released so a retry re-runs the job, and
        // the connection goes on serving.
        Counters::bump(&shared.counters.quarantined);
        shared.jobs.abort(&req.tenant, &key);
        return reply_err(
            &key,
            ErrorKind::Panicked,
            "job panicked mid-run; it was quarantined",
            Some(shared.cfg.retry_after_ms),
        );
    };
    if is_terminal(&reply) {
        shared.jobs.complete(&req.tenant, &key, reply.clone());
    } else {
        shared.jobs.abort(&req.tenant, &key);
    }
    if reply_is_ok(&reply) {
        Counters::bump(&shared.counters.served);
    }
    reply
}

fn mark_replayed(reply: Json) -> Json {
    match reply {
        Json::Obj(mut fields) => {
            fields.push(("replayed".to_string(), Json::Bool(true)));
            Json::Obj(fields)
        }
        other => other,
    }
}

/// Executes one admitted job. Runs under `catch_unwind`; a panic here
/// quarantines the job.
fn execute(shared: &Shared, req: &Request) -> Json {
    if shared.cfg.chaos && req.chaos.as_deref() == Some("panic") {
        panic!("{CHAOS_MARKER}: chaos directive panicked this job");
    }
    let key = req.job_key();
    let fuel = if req.fuel > 0 {
        req.fuel
    } else {
        shared.cfg.default_fuel
    };
    let fc = match enf_flowchart::parse(&req.program) {
        Ok(fc) => fc,
        Err(e) => {
            Counters::bump(&shared.counters.usage_errors);
            return reply_err(&key, ErrorKind::Usage, &format!("parse error: {e}"), None);
        }
    };
    // `refute` hunts for a leak witness against the *unprotected* program
    // (the identity mechanism over the raw flowchart); every other op goes
    // through the enforcer's monitor, whose refusals are the point.
    if req.op == Op::Refute {
        return run_refute(shared, req, &key, fc, fuel);
    }
    let enforcer = match Enforcer::new(fc, req.allow) {
        Ok(e) => e.with_fuel(fuel),
        Err(e) => {
            Counters::bump(&shared.counters.usage_errors);
            return reply_err(&key, ErrorKind::Usage, &e.to_string(), None);
        }
    };
    match req.op {
        Op::Ping => reply_ok(&key, vec![("pong".to_string(), Json::Bool(true))]),
        Op::Surveil => run_surveil(shared, req, &key, &enforcer),
        Op::Certify => run_certify(shared, req, &key, &enforcer),
        // `Refute` returned above; only plain checks reach this arm.
        Op::Check | Op::Refute => run_sweep(shared, req, &key, &enforcer, fuel),
    }
}

fn policy_reply(shared: &Shared, key: &str, e: PolicyError) -> Json {
    match e {
        PolicyError::Usage(detail) => {
            Counters::bump(&shared.counters.usage_errors);
            reply_err(key, ErrorKind::Usage, &detail, None)
        }
        PolicyError::Engine(err) => {
            Counters::bump(&shared.counters.internal_errors);
            reply_err(key, ErrorKind::Internal, &err.to_string(), None)
        }
    }
}

fn indexset_str(set: &enf_core::IndexSet) -> String {
    set.iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// Releases a verified value through the tenant's capability sink,
/// issuing the capability on first use. `Err` is the reply to send.
fn release<T: Auditable, P: Proof>(
    shared: &Shared,
    key: &str,
    t: &mut Tenant,
    tenant: &str,
    v: Verified<T, P>,
) -> Result<T, Json> {
    let cap = t
        .take_capability(&format!("serve:{tenant}"))
        .map_err(|e| policy_reply(shared, key, e))?;
    let mut sink = Sink::new(cap, &mut t.log);
    let released = sink.release(v);
    t.cap = Some(sink.into_capability());
    released.map_err(|e| {
        Counters::bump(&shared.counters.internal_errors);
        reply_err(key, ErrorKind::Internal, &e.to_string(), None)
    })
}

/// One monitored run, released through the tenant's capability sink.
fn run_surveil(shared: &Shared, req: &Request, key: &str, enforcer: &Enforcer) -> Json {
    let tenant = match shared.tenants.get(&req.tenant) {
        Ok(t) => t,
        Err(e) => return policy_reply(shared, key, e),
    };
    let mut t = lock(&tenant);
    let input = Tainted::new(req.input.clone());
    let verdict = match enforcer.surveil(input, &mut t.log) {
        Ok(v) => v,
        Err(e) => return policy_reply(shared, key, e),
    };
    match verdict {
        RunVerdict::Released(v) => match release(shared, key, &mut t, &req.tenant, v) {
            Ok(value) => reply_ok(
                key,
                vec![
                    ("verdict".to_string(), Json::Str("released".to_string())),
                    ("value".to_string(), Json::Int(i128::from(value))),
                ],
            ),
            Err(reply) => reply,
        },
        RunVerdict::Refused(Refusal::Violation {
            site,
            taint,
            disallowed,
            steps,
        }) => reply_ok(
            key,
            vec![
                ("verdict".to_string(), Json::Str("refused".to_string())),
                ("reason".to_string(), Json::Str("violation".to_string())),
                ("site".to_string(), Json::Str(format!("{site:?}"))),
                ("taint".to_string(), Json::Str(indexset_str(&taint))),
                (
                    "disallowed".to_string(),
                    Json::Str(indexset_str(&disallowed)),
                ),
                ("steps".to_string(), Json::Int(i128::from(steps))),
            ],
        ),
        RunVerdict::Refused(Refusal::OutOfFuel { fuel }) => reply_ok(
            key,
            vec![
                ("verdict".to_string(), Json::Str("refused".to_string())),
                ("reason".to_string(), Json::Str("out_of_fuel".to_string())),
                ("fuel".to_string(), Json::Int(i128::from(fuel))),
            ],
        ),
    }
}

/// Static certification; a certified program with an input also runs it
/// natively and releases the attested result.
fn run_certify(shared: &Shared, req: &Request, key: &str, enforcer: &Enforcer) -> Json {
    let tenant = match shared.tenants.get(&req.tenant) {
        Ok(t) => t,
        Err(e) => return policy_reply(shared, key, e),
    };
    let mut t = lock(&tenant);
    let outcome = match enforcer.certify(Analysis::Surveillance, &mut t.log) {
        Ok(o) => o,
        Err(e) => return policy_reply(shared, key, e),
    };
    match outcome {
        CertifyOutcome::Certified(cert) => {
            let mut fields = vec![("verdict".to_string(), Json::Str("certified".to_string()))];
            if !req.input.is_empty() {
                let run = cert.run(Tainted::new(req.input.clone()), &mut t.log);
                let verified = match run {
                    Ok(v) => v,
                    Err(e) => return policy_reply(shared, key, e),
                };
                match release(shared, key, &mut t, &req.tenant, verified) {
                    Ok(value) => fields.push(("value".to_string(), Json::Str(value.to_string()))),
                    Err(reply) => return reply,
                }
            }
            reply_ok(key, fields)
        }
        CertifyOutcome::Rejected { taint } => reply_ok(
            key,
            vec![
                ("verdict".to_string(), Json::Str("rejected".to_string())),
                ("taint".to_string(), Json::Str(indexset_str(&taint))),
            ],
        ),
    }
}

/// The request's deadline and budget as a sweep's cancel token.
fn cancel_token(req: &Request) -> CancelToken {
    let mut ctl = CancelToken::new();
    if let Some(ms) = req.deadline_ms {
        ctl = ctl.with_deadline(Duration::from_millis(ms));
    }
    if let Some(budget) = req.budget {
        ctl = ctl.with_index_limit(budget);
    }
    ctl
}

/// An exhaustive sweep: cache-checked, checkpoint-recoverable, and
/// audit-exact — the tenant trail records only decisive verdicts.
fn run_sweep(shared: &Shared, req: &Request, key: &str, enforcer: &Enforcer, fuel: u64) -> Json {
    let cache_key = VerdictKey::of(req, fuel);
    if let Some(cached) = shared.cache.lookup(&cache_key) {
        Counters::bump(&shared.counters.cache_hits);
        return cached_reply(key, &cached);
    }
    let salt = check_salt(&req.program, req.allow, req.span, fuel, false);
    // Touch the namespace first so the tenant directory exists for
    // checkpoints, and so a fresh tenant's trail starts at its genesis.
    let tenant = match shared.tenants.get(&req.tenant) {
        Ok(t) => t,
        Err(e) => return policy_reply(shared, key, e),
    };
    let ctl = cancel_token(req);
    let eval = EvalConfig::new();
    let ckpt = shared.tenants.checkpoint_path(&req.tenant, salt);
    let resume = ckpt.clone().filter(|p| p.exists());
    let resumed = resume.is_some();
    if resumed {
        Counters::bump(&shared.counters.resumed);
    }
    // Engine progress records go to a scratch log; only the decisive
    // verdict is recorded on the tenant's durable trail below. This is
    // what makes an interrupted-and-resumed job audit-exact.
    let mut scratch = AuditLog::in_memory();
    let outcome = if ckpt.is_some() {
        enforcer.sweep_checkpointed(
            req.span,
            &eval,
            &ctl,
            salt,
            req.block,
            resume.as_deref(),
            ckpt.as_deref(),
            &mut scratch,
        )
    } else {
        enforcer.sweep(req.span, &eval, &ctl, &mut scratch)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => return policy_reply(shared, key, e),
    };
    let (checked, total, verdict) = (outcome.checked(), outcome.total(), outcome.verdict());
    let tag = verdict.tag().to_string();
    if matches!(verdict, Verdict::Confirmed | Verdict::Refuted) {
        if let Some(p) = &ckpt {
            let _ = std::fs::remove_file(p);
        }
        let note = format!(
            "serve sweep salt={salt:016x} span={} verdict={tag} total={total}",
            req.span
        );
        let mut t = lock(&tenant);
        if let Err(e) = t.log.note(&note) {
            Counters::bump(&shared.counters.internal_errors);
            return reply_err(key, ErrorKind::Internal, &e.to_string(), None);
        }
        shared.cache.insert(
            cache_key,
            Json::Obj(vec![
                ("verdict".to_string(), Json::Str(tag.clone())),
                ("checked".to_string(), Json::Int(checked as i128)),
                ("total".to_string(), Json::Int(total as i128)),
            ]),
        );
    }
    reply_ok(
        key,
        vec![
            ("verdict".to_string(), Json::Str(tag)),
            ("checked".to_string(), Json::Int(checked as i128)),
            ("total".to_string(), Json::Int(total as i128)),
            ("cached".to_string(), Json::Bool(false)),
            ("resumed".to_string(), Json::Bool(resumed)),
        ],
    )
}

/// Witness search against the *unprotected* program.
///
/// `check` asks whether the surveillance monitor is a sound mechanism — a
/// monitor that consistently refuses a leaky run is sound, so a leaky
/// program under a good monitor still confirms. `refute` asks the prior
/// question: does the raw program leak at all? It sweeps the identity
/// mechanism over the bare flowchart, so a leak surfaces as the paper's
/// unsoundness witness — two inputs the policy view cannot distinguish
/// whose outputs differ — which is reported back to the caller.
fn run_refute(shared: &Shared, req: &Request, key: &str, fc: Flowchart, fuel: u64) -> Json {
    let cache_key = VerdictKey::of(req, fuel);
    if let Some(cached) = shared.cache.lookup(&cache_key) {
        Counters::bump(&shared.counters.cache_hits);
        return cached_reply(key, &cached);
    }
    let program = FlowchartProgram::with_fuel(fc, fuel);
    let arity = program.arity();
    if let Some(bad) = req.allow.iter().find(|&i| i == 0 || i > arity) {
        Counters::bump(&shared.counters.usage_errors);
        return reply_err(
            key,
            ErrorKind::Usage,
            &format!("allow index {bad} out of range for arity {arity}"),
            None,
        );
    }
    let tenant = match shared.tenants.get(&req.tenant) {
        Ok(t) => t,
        Err(e) => return policy_reply(shared, key, e),
    };
    let policy = Allow::from_set(arity, req.allow);
    let grid = Grid::hypercube(arity, -req.span..=req.span);
    let ctl = cancel_token(req);
    let cov = match try_check_soundness_with(
        &Identity::new(program),
        &policy,
        &grid,
        false,
        &EvalConfig::new(),
        &ctl,
    ) {
        Ok(c) => c,
        Err(e) => {
            Counters::bump(&shared.counters.internal_errors);
            return reply_err(key, ErrorKind::Internal, &e.to_string(), None);
        }
    };
    let tag = cov.verdict.tag().to_string();
    let mut fields = vec![
        ("verdict".to_string(), Json::Str(tag.clone())),
        ("checked".to_string(), Json::Int(cov.checked as i128)),
        ("total".to_string(), Json::Int(cov.total as i128)),
        (
            "leak".to_string(),
            Json::Bool(cov.verdict == Verdict::Refuted),
        ),
    ];
    if let Some(SoundnessReport::Unsound(w)) = &cov.report {
        fields.push(("witness_a".to_string(), int_array(&w.a)));
        fields.push(("witness_b".to_string(), int_array(&w.b)));
        fields.push(("out_a".to_string(), Json::Str(mech_out_str(&w.out_a))));
        fields.push(("out_b".to_string(), Json::Str(mech_out_str(&w.out_b))));
    }
    if matches!(cov.verdict, Verdict::Confirmed | Verdict::Refuted) {
        // The note's salt is distinct from `check`'s: the two ops sweep
        // different mechanisms over the same (program, allow, span, fuel).
        let salt =
            check_salt(&req.program, req.allow, req.span, fuel, false) ^ 0x7265_6675_7465_7221; // "refute!"
        let note = format!(
            "serve refute salt={salt:016x} span={} verdict={tag} total={}",
            req.span, cov.total
        );
        let mut t = lock(&tenant);
        if let Err(e) = t.log.note(&note) {
            Counters::bump(&shared.counters.internal_errors);
            return reply_err(key, ErrorKind::Internal, &e.to_string(), None);
        }
        shared.cache.insert(cache_key, Json::Obj(fields.clone()));
    }
    fields.push(("cached".to_string(), Json::Bool(false)));
    fields.push(("resumed".to_string(), Json::Bool(false)));
    reply_ok(key, fields)
}

fn int_array(values: &[enf_core::V]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Int(i128::from(v))).collect())
}

fn mech_out_str(out: &MechOutput<ExecValue>) -> String {
    match out {
        MechOutput::Value(v) => v.to_string(),
        MechOutput::Violation(_) => "violation".to_string(),
    }
}

/// Rebuilds a reply from a cached verdict document: the stored decisive
/// fields, restamped `cached: true`.
fn cached_reply(key: &str, cached: &Json) -> Json {
    let mut fields = match cached {
        Json::Obj(f) => f.clone(),
        other => vec![("verdict".to_string(), other.clone())],
    };
    fields.push(("cached".to_string(), Json::Bool(true)));
    fields.push(("resumed".to_string(), Json::Bool(false)));
    reply_ok(key, fields)
}

/// [`read_framed_bytes`], its payload decoded.
fn read_frame_polled(
    conn: &mut dyn Conn,
    shutdown: &AtomicBool,
) -> Result<Option<Json>, FrameError> {
    match read_framed_bytes(conn, shutdown)? {
        Some(framed) => decode_payload(&framed[4..]).map(Some),
        None => Ok(None),
    }
}

/// Reads one whole frame's raw bytes, length prefix included, from a
/// polling socket: idle timeouts are polls (so the shutdown flag is
/// honored between frames, and an idle connection closes after
/// `IDLE_LIMIT` of them), but a frame, once begun, is given
/// `STALL_LIMIT` polls to arrive whole before being declared torn. The
/// server decodes the payload after the prefix; the chaos proxy forwards
/// or mutilates the frame byte-exactly.
///
/// The buffer grows with the bytes that arrived, `READ_CHUNK` at a time,
/// and never past the declared length, which is at most
/// [`MAX_FRAME_BYTES`](crate::protocol::MAX_FRAME_BYTES).
pub fn read_framed_bytes(
    conn: &mut dyn Conn,
    shutdown: &AtomicBool,
) -> Result<Option<Vec<u8>>, FrameError> {
    let mut chunk = [0u8; READ_CHUNK];
    let mut framed = Vec::new();
    // The frame's whole length: the prefix until it has arrived.
    let mut want = 4;
    let mut stalls = 0u32;
    while framed.len() < want {
        let room = (want - framed.len()).min(READ_CHUNK);
        match conn.read(&mut chunk[..room]) {
            Ok(0) if framed.is_empty() => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => {
                // Doubling, capped at the frame's length.
                if framed.capacity() - framed.len() < n {
                    let target = (2 * framed.capacity()).clamp(framed.len() + n, want);
                    framed.reserve_exact(target - framed.len());
                }
                framed.extend_from_slice(&chunk[..n]);
                stalls = 0;
                if want == 4 && framed.len() == 4 {
                    let declared =
                        u32::from_be_bytes([framed[0], framed[1], framed[2], framed[3]]) as usize;
                    if declared > crate::protocol::MAX_FRAME_BYTES {
                        return Err(FrameError::Oversized { declared });
                    }
                    want = 4 + declared;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                stalls += 1;
                // Zero bytes so far means an idle connection; shutdown or
                // the idle bound closes it cleanly.
                if framed.is_empty() {
                    if shutdown.load(Ordering::SeqCst) || stalls > IDLE_LIMIT {
                        return Ok(None);
                    }
                } else if stalls > STALL_LIMIT {
                    return Err(FrameError::Truncated);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Some(framed))
}

/// A spawned in-process server, for tests, benches, and the CLI.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: thread::JoinHandle<ServerStats>,
}

impl ServerHandle {
    /// Binds `127.0.0.1:0` and runs [`serve`] on a background thread.
    pub fn spawn(cfg: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let thread = thread::Builder::new()
            .name("enf-serve-main".to_string())
            .spawn(move || serve(Listener::Tcp(listener), cfg, flag))?;
        Ok(ServerHandle {
            addr,
            shutdown,
            thread,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shutdown flag (shared with the running server).
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Raises the shutdown flag, waits for the drain, and returns the
    /// life's stats.
    pub fn stop(self) -> ServerStats {
        self.shutdown.store(true, Ordering::SeqCst);
        match self.thread.join() {
            Ok(stats) => stats,
            Err(_) => ServerStats {
                internal_errors: 1,
                ..ServerStats::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connection whose peer never sends: every read would block, and
    /// returns at once instead of after a read timeout.
    struct Silent {
        reads: u32,
    }

    impl Read for Silent {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            Err(io::ErrorKind::WouldBlock.into())
        }
    }

    impl io::Write for Silent {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Conn for Silent {
        fn set_read_timeout(&self, _: Option<Duration>) -> io::Result<()> {
            Ok(())
        }
        fn set_write_timeout(&self, _: Option<Duration>) -> io::Result<()> {
            Ok(())
        }
    }

    /// Polls until `n` jobs wait at the gate.
    fn await_waiters(gate: &Gate, n: u64) {
        loop {
            let s = lock(&gate.state);
            if s.issued - s.next >= n {
                return;
            }
            drop(s);
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn the_gate_bounds_turns_and_waiters_and_keeps_arrival_order() {
        use std::sync::atomic::AtomicUsize;

        // Never more than `workers` turns at once.
        let gate = Gate::new(2, 8);
        let (inside, most) = (AtomicUsize::new(0), AtomicUsize::new(0));
        thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..200 {
                        let turn = gate.enter().expect("a place for every job");
                        most.fetch_max(inside.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                        thread::yield_now();
                        inside.fetch_sub(1, Ordering::SeqCst);
                        drop(turn);
                    }
                });
            }
        });
        assert!(most.load(Ordering::SeqCst) <= 2, "{most:?} turns at once");

        // A job that must wait is refused when `queue` jobs already wait;
        // the waiters start in arrival order.
        let gate = Gate::new(1, 2);
        let started = Mutex::new(Vec::new());
        let first = gate.enter().expect("a free turn");
        thread::scope(|s| {
            for id in [1, 2] {
                let (gate, started) = (&gate, &started);
                s.spawn(move || {
                    let _turn = gate.enter().expect("a place to wait");
                    lock(started).push(id);
                });
                await_waiters(gate, id);
            }
            assert!(gate.enter().is_none(), "both places are taken");
            drop(first);
        });
        assert_eq!(*lock(&started), [1, 2]);

        // A freed turn goes to the earliest waiter, not to a later arrival.
        let gate = Gate::new(1, 2);
        let started = Mutex::new(Vec::new());
        let first = gate.enter().expect("a free turn");
        thread::scope(|s| {
            s.spawn(|| {
                let _turn = gate.enter().expect("a place to wait");
                lock(&started).push("waiter");
            });
            await_waiters(&gate, 1);
            drop(first);
            let _late = gate.enter().expect("a place to wait");
            lock(&started).push("late arrival");
        });
        assert_eq!(*lock(&started), ["waiter", "late arrival"]);
    }

    #[test]
    fn an_idle_connection_closes_after_the_idle_bound() {
        let mut conn = Silent { reads: 0 };
        let shutdown = AtomicBool::new(false);
        assert!(matches!(read_framed_bytes(&mut conn, &shutdown), Ok(None)));
        assert_eq!(conn.reads, IDLE_LIMIT + 1, "one read per poll, then close");
        assert_eq!(
            POLL_TIMEOUT * IDLE_LIMIT,
            Duration::from_secs(60),
            "the bound DESIGN.md §12 states"
        );
    }
}
