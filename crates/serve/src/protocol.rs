//! The wire protocol: length-prefixed JSONL frames over a byte stream.
//!
//! A frame is a 4-byte big-endian length followed by that many bytes of
//! UTF-8 JSON ending in `\n` — self-delimiting in both directions, so a
//! truncated write is always *detectable* (the length promises bytes that
//! never arrive) rather than silently reparsed as a shorter document. The
//! JSON itself is [`enf_core::json`]: deterministic rendering, integers
//! only, no external dependencies.
//!
//! Every inbound frame is bounded by [`MAX_FRAME_BYTES`] *before* any
//! allocation happens; the protocol layer is untrusted-input territory and
//! follows the same fail-closed discipline as `enf_policy::ingest`.

use enf_core::{IndexSet, Json, V};
use std::fmt;
use std::io::{self, Read, Write};

/// Hard bound on one frame's payload. Matches the ingest bound: a frame
/// that could not possibly hold a legal request is rejected before its
/// body is read.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Protocol version tag carried by every reply (for future evolution).
pub const PROTOCOL_VERSION: i128 = 1;

/// Longest `job` key a request may carry. Every reply echoes the key, so
/// the bound keeps a reply within one frame.
pub const MAX_JOB_BYTES: usize = 256;

/// Longest `detail` a rejection carries; a longer one (it may quote the
/// request) is cut at a char boundary, so the reply fits in one frame.
const MAX_DETAIL_BYTES: usize = 1024;

/// Why a frame could not be read or understood.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The declared length exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// Declared payload length.
        declared: usize,
    },
    /// The stream ended mid-frame (severed connection, torn write).
    Truncated,
    /// The payload is not valid UTF-8 or not valid JSON.
    Malformed {
        /// Parser-provided description.
        detail: String,
    },
    /// An underlying socket error.
    Io {
        /// The I/O error kind, stringified (keeps the error `Eq`).
        kind: String,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversized { declared } => {
                write!(
                    f,
                    "frame declares {declared} bytes, limit is {MAX_FRAME_BYTES}"
                )
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Malformed { detail } => write!(f, "malformed frame: {detail}"),
            FrameError::Io { kind } => write!(f, "i/o error: {kind}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::UnexpectedEof => FrameError::Truncated,
            kind => FrameError::Io {
                kind: format!("{kind:?}"),
            },
        }
    }
}

/// Writes one frame: 4-byte big-endian length, then the rendered JSON and
/// a trailing newline (the newline is included in the length).
pub fn write_frame(w: &mut impl Write, doc: &Json) -> io::Result<()> {
    let mut payload = doc.render();
    payload.push('\n');
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean end of stream (EOF before any
/// length byte); everything else that falls short is an error — a frame,
/// once begun, must arrive whole.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Json>, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            // EOF before the first byte is a clean close; EOF inside the
            // length prefix is a torn frame.
            Ok(0) => {
                return if filled == 0 {
                    Ok(None)
                } else {
                    Err(FrameError::Truncated)
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let declared = u32::from_be_bytes(len_buf) as usize;
    if declared > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized { declared });
    }
    let mut payload = vec![0u8; declared];
    r.read_exact(&mut payload)?;
    decode_payload(&payload).map(Some)
}

/// Decodes one frame's payload: UTF-8 text, its trailing newline dropped,
/// parsed as JSON.
pub(crate) fn decode_payload(payload: &[u8]) -> Result<Json, FrameError> {
    let text = std::str::from_utf8(payload).map_err(|e| FrameError::Malformed {
        detail: format!(
            "payload is not UTF-8 (valid up to byte {})",
            e.valid_up_to()
        ),
    })?;
    enf_core::json::parse(text.trim_end_matches('\n'))
        .map_err(|detail| FrameError::Malformed { detail })
}

/// The operations the server executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// Liveness probe; costs nothing, never queued.
    Ping,
    /// One monitored run; releases through the tenant's capability sink.
    Surveil,
    /// Static certification of program against policy.
    Certify,
    /// Exhaustive soundness sweep (checkpointable, cacheable).
    Check,
    /// Witness search: the same sweep, reported from the refuter's side.
    Refute,
}

impl Op {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Surveil => "surveil",
            Op::Certify => "certify",
            Op::Check => "check",
            Op::Refute => "refute",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Op> {
        Some(match s {
            "ping" => Op::Ping,
            "surveil" => Op::Surveil,
            "certify" => Op::Certify,
            "check" => Op::Check,
            "refute" => Op::Refute,
            _ => return None,
        })
    }
}

/// A parsed, validated request. Everything here came off the wire and is
/// untrusted; the program text is *parsed* but not yet trusted — it enters
/// the policy pipeline as data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// The operation.
    pub op: Op,
    /// Tenant namespace (audit trail and quota bucket). Defaults to
    /// `"default"`.
    pub tenant: String,
    /// Idempotency key, at most [`MAX_JOB_BYTES`]. Retries with the same
    /// key never re-run a completed job; empty means the server derives
    /// one from content.
    pub job: String,
    /// Flowchart source text.
    pub program: String,
    /// The `allow` policy indices.
    pub allow: IndexSet,
    /// Input tuple for `surveil`.
    pub input: Vec<V>,
    /// Sweep half-width for `check`/`refute` (domain `[-span, span]^k`).
    pub span: i64,
    /// Per-request wall-clock deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Per-request deterministic evaluation budget (index limit).
    pub budget: Option<usize>,
    /// Checkpoint block size for `check` jobs.
    pub block: usize,
    /// Fuel override (0 = server default).
    pub fuel: u64,
    /// Chaos directive (honored only when the server runs with chaos
    /// enabled): `"panic"` kills the worker mid-job.
    pub chaos: Option<String>,
}

/// Tenant names become directory components of the state dir, so they are
/// restricted to a conservative charset.
fn valid_tenant(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

/// Parses `"1,2"` (or `""` for `allow()`) into an [`IndexSet`].
pub fn parse_allow(spec: &str) -> Result<IndexSet, String> {
    let mut set = IndexSet::empty();
    if spec.trim().is_empty() {
        return Ok(set);
    }
    for part in spec.split(',') {
        let i: usize = part
            .trim()
            .parse()
            .map_err(|_| format!("bad allow index {:?}", part.trim()))?;
        if i == 0 || i > IndexSet::MAX_INDEX {
            return Err(format!("allow index {i} out of range"));
        }
        set.insert(i);
    }
    Ok(set)
}

impl Request {
    /// Parses a request document, rejecting anything malformed with a
    /// message safe to echo to the client.
    pub fn from_json(doc: &Json) -> Result<Request, String> {
        let op_name = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or("request needs an \"op\" field")?;
        let op = Op::parse(op_name).ok_or_else(|| format!("unknown op {op_name:?}"))?;
        let tenant = doc
            .get("tenant")
            .and_then(Json::as_str)
            .unwrap_or("default")
            .to_string();
        if !valid_tenant(&tenant) {
            return Err(format!("invalid tenant name {tenant:?}"));
        }
        let job = doc
            .get("job")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        if job.len() > MAX_JOB_BYTES {
            return Err(format!(
                "\"job\" is {} bytes, limit is {MAX_JOB_BYTES}",
                job.len()
            ));
        }
        let program = doc
            .get("program")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        if matches!(op, Op::Surveil | Op::Certify | Op::Check | Op::Refute) && program.is_empty() {
            return Err(format!("op {:?} needs a \"program\" field", op.name()));
        }
        let allow = match doc.get("allow") {
            Some(j) => parse_allow(
                j.as_str()
                    .ok_or("\"allow\" must be a string like \"1,2\"")?,
            )?,
            None => IndexSet::empty(),
        };
        let input = match doc.get("input") {
            Some(j) => {
                let arr = j.as_arr().ok_or("\"input\" must be an array of integers")?;
                arr.iter()
                    .enumerate()
                    .map(|(i, item)| {
                        item.as_int()
                            .and_then(|n| V::try_from(n).ok())
                            .ok_or_else(|| format!("input element {i} is not an integer"))
                    })
                    .collect::<Result<Vec<V>, String>>()?
            }
            None => Vec::new(),
        };
        let span = match doc.get("span") {
            Some(j) => j
                .as_int()
                .filter(|s| (0..=64).contains(s))
                .ok_or("\"span\" must be an integer in 0..=64")? as i64,
            None => 2,
        };
        let deadline_ms = match doc.get("deadline_ms") {
            Some(j) => Some(
                j.as_int()
                    .filter(|d| *d >= 0)
                    .ok_or("\"deadline_ms\" must be a non-negative integer")?
                    as u64,
            ),
            None => None,
        };
        let budget = match doc.get("budget") {
            Some(j) => Some(
                j.as_usize()
                    .ok_or("\"budget\" must be a non-negative integer")?,
            ),
            None => None,
        };
        let block = match doc.get("block") {
            Some(j) => j
                .as_usize()
                .filter(|b| *b > 0)
                .ok_or("\"block\" must be a positive integer")?,
            None => 256,
        };
        let fuel = match doc.get("fuel") {
            Some(j) => j
                .as_int()
                .filter(|f| *f >= 0)
                .ok_or("\"fuel\" must be a non-negative integer")? as u64,
            None => 0,
        };
        let chaos = doc.get("chaos").and_then(Json::as_str).map(str::to_string);
        Ok(Request {
            op,
            tenant,
            job,
            program,
            allow,
            input,
            span,
            deadline_ms,
            budget,
            block,
            fuel,
            chaos,
        })
    }

    /// Renders the request as a wire document.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("op".to_string(), Json::Str(self.op.name().to_string())),
            ("tenant".to_string(), Json::Str(self.tenant.clone())),
        ];
        if !self.job.is_empty() {
            fields.push(("job".to_string(), Json::Str(self.job.clone())));
        }
        if !self.program.is_empty() {
            fields.push(("program".to_string(), Json::Str(self.program.clone())));
        }
        let allow = self
            .allow
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(",");
        fields.push(("allow".to_string(), Json::Str(allow)));
        if !self.input.is_empty() {
            fields.push((
                "input".to_string(),
                Json::Arr(
                    self.input
                        .iter()
                        .map(|v| Json::Int(i128::from(*v)))
                        .collect(),
                ),
            ));
        }
        fields.push(("span".to_string(), Json::Int(i128::from(self.span))));
        if let Some(d) = self.deadline_ms {
            fields.push(("deadline_ms".to_string(), Json::Int(i128::from(d))));
        }
        if let Some(b) = self.budget {
            fields.push(("budget".to_string(), Json::Int(b as i128)));
        }
        fields.push(("block".to_string(), Json::Int(self.block as i128)));
        if self.fuel > 0 {
            fields.push(("fuel".to_string(), Json::Int(i128::from(self.fuel))));
        }
        if let Some(c) = &self.chaos {
            fields.push(("chaos".to_string(), Json::Str(c.clone())));
        }
        Json::Obj(fields)
    }

    /// A content-derived idempotency key: the FNV fingerprint of every
    /// semantically relevant field, in hex. Two identical requests share a
    /// key, so a blind client retry can never double-run a job.
    pub fn content_key(&self) -> String {
        let name = self.op.name();
        let words = [name.len() as u64]
            .into_iter()
            .chain(name.bytes().map(u64::from))
            .chain(self.program.bytes().map(u64::from))
            .chain([u64::MAX, self.allow.to_bits()])
            .chain(self.input.iter().map(|v| *v as u64))
            .chain([u64::MAX, self.span as u64, self.fuel]);
        format!("{:016x}", enf_core::checkpoint::fingerprint(words))
    }

    /// The key this request is tracked under: the explicit `job` field, or
    /// the content key when absent.
    pub fn job_key(&self) -> String {
        if self.job.is_empty() {
            self.content_key()
        } else {
            self.job.clone()
        }
    }
}

/// Machine-readable error kinds in rejection frames. Clients switch on
/// these, so the set is interface.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request is malformed or references impossible parameters; a
    /// retry cannot succeed.
    Usage,
    /// The server shed the request (queue full or tenant over quota);
    /// retry after the hinted delay.
    Overloaded,
    /// The job is already running under this key; retry after the hinted
    /// delay to pick up its result.
    InProgress,
    /// The job panicked mid-run; it was quarantined and its job key and
    /// tenant slot released, so a retry re-runs it.
    Panicked,
    /// The server is draining for shutdown; retry against a fresh instance.
    Draining,
    /// An internal fault (unwritable state dir, corrupt checkpoint).
    Internal,
}

impl ErrorKind {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Usage => "usage",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::InProgress => "in_progress",
            ErrorKind::Panicked => "panicked",
            ErrorKind::Draining => "draining",
            ErrorKind::Internal => "internal",
        }
    }

    /// Whether a later retry of the same request can succeed.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            ErrorKind::Overloaded
                | ErrorKind::InProgress
                | ErrorKind::Draining
                | ErrorKind::Panicked
        )
    }
}

/// Builds a success reply: `{"v":1,"ok":true,"job":...,<fields>}`.
pub fn reply_ok(job: &str, fields: Vec<(String, Json)>) -> Json {
    let mut all = vec![
        ("v".to_string(), Json::Int(PROTOCOL_VERSION)),
        ("ok".to_string(), Json::Bool(true)),
        ("job".to_string(), Json::Str(job.to_string())),
    ];
    all.extend(fields);
    Json::Obj(all)
}

/// Builds a rejection reply. `retry_after_ms` is the server's load-shed
/// hint; it is present exactly when the kind is retryable. `detail` is cut
/// to its first 1 KiB.
pub fn reply_err(job: &str, kind: ErrorKind, detail: &str, retry_after_ms: Option<u64>) -> Json {
    let detail = &detail[..detail.floor_char_boundary(MAX_DETAIL_BYTES)];
    let mut all = vec![
        ("v".to_string(), Json::Int(PROTOCOL_VERSION)),
        ("ok".to_string(), Json::Bool(false)),
        ("job".to_string(), Json::Str(job.to_string())),
        ("error".to_string(), Json::Str(kind.name().to_string())),
        ("detail".to_string(), Json::Str(detail.to_string())),
        ("retryable".to_string(), Json::Bool(kind.retryable())),
    ];
    if let Some(ms) = retry_after_ms {
        all.push(("retry_after_ms".to_string(), Json::Int(i128::from(ms))));
    }
    Json::Obj(all)
}

/// Whether a reply frame reports success.
pub fn reply_is_ok(doc: &Json) -> bool {
    matches!(doc.get("ok"), Some(Json::Bool(true)))
}

/// The retry hint of a rejection frame, if it is retryable.
pub fn reply_retry_after(doc: &Json) -> Option<u64> {
    if reply_is_ok(doc) || !matches!(doc.get("retryable"), Some(Json::Bool(true))) {
        return None;
    }
    Some(
        doc.get("retry_after_ms")
            .and_then(Json::as_int)
            .map(|n| n as u64)
            .unwrap_or(25),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;
    use std::io::Cursor;

    fn roundtrip(doc: &Json) -> Json {
        let mut buf = Vec::new();
        write_frame(&mut buf, doc).unwrap();
        read_frame(&mut Cursor::new(buf)).unwrap().unwrap()
    }

    #[test]
    fn frames_roundtrip() {
        let doc = Json::Obj(vec![
            ("op".into(), Json::Str("ping".into())),
            ("n".into(), Json::Int(-7)),
        ]);
        assert_eq!(roundtrip(&doc), doc);
    }

    #[test]
    fn eof_before_frame_is_clean_none() {
        assert_eq!(read_frame(&mut Cursor::new(Vec::new())).unwrap(), None);
    }

    #[test]
    fn truncated_frame_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Json::Int(42)).unwrap();
        for cut in 1..buf.len() {
            let r = read_frame(&mut Cursor::new(buf[..cut].to_vec()));
            assert_eq!(r, Err(FrameError::Truncated), "cut={cut}");
        }
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut buf = ((MAX_FRAME_BYTES + 1) as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(b"xxxx");
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn deeply_nested_frame_is_malformed() {
        // A tenth of MAX_FRAME_BYTES, far past the JSON nesting bound.
        let payload = format!("{}\n", "[".repeat(100_000));
        let mut buf = (payload.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(payload.as_bytes());
        match read_frame(&mut Cursor::new(buf)) {
            Err(FrameError::Malformed { detail }) => {
                assert!(detail.contains("nesting"), "{detail}")
            }
            other => panic!("deep frame read as {other:?}"),
        }
    }

    #[test]
    fn request_parse_roundtrip() {
        let req = Request {
            op: Op::Check,
            tenant: "acme".into(),
            job: "j1".into(),
            program: "program(1) { y := 0; }".into(),
            allow: parse_allow("1").unwrap(),
            input: vec![],
            span: 3,
            deadline_ms: Some(500),
            budget: Some(100),
            block: 64,
            fuel: 0,
            chaos: None,
        };
        assert_eq!(Request::from_json(&req.to_json()).unwrap(), req);
    }

    #[test]
    fn bad_requests_are_structured_errors() {
        for (doc, needle) in [
            ("{}", "op"),
            ("{\"op\": \"frobnicate\"}", "unknown op"),
            ("{\"op\": \"check\"}", "program"),
            (
                "{\"op\": \"check\", \"program\": \"p\", \"tenant\": \"a/b\"}",
                "tenant",
            ),
            (
                "{\"op\": \"check\", \"program\": \"p\", \"span\": 99}",
                "span",
            ),
        ] {
            let parsed = enf_core::json::parse(doc).unwrap();
            let err = Request::from_json(&parsed).unwrap_err();
            assert!(err.contains(needle), "{doc} -> {err}");
        }
    }

    #[test]
    fn content_key_is_stable_and_content_sensitive() {
        let parsed = enf_core::json::parse(
            "{\"op\": \"check\", \"program\": \"program(1) { y := 0; }\", \"allow\": \"1\"}",
        )
        .unwrap();
        let a = Request::from_json(&parsed).unwrap();
        let b = a.clone();
        assert_eq!(a.content_key(), b.content_key());
        let mut c = a.clone();
        c.span += 1;
        assert_ne!(a.content_key(), c.content_key());
        assert_eq!(a.job_key(), a.content_key());
    }

    /// The word list `content_key` collected before hashing it.
    fn collected_key_words(req: &Request) -> Vec<u64> {
        let mut words: Vec<u64> = Vec::new();
        words.push(req.op.name().len() as u64);
        words.extend(req.op.name().bytes().map(u64::from));
        words.extend(req.program.bytes().map(u64::from));
        words.push(u64::MAX);
        words.push(req.allow.to_bits());
        words.extend(req.input.iter().map(|v| *v as u64));
        words.push(u64::MAX);
        words.push(req.span as u64);
        words.push(req.fuel);
        words
    }

    proptest! {
        /// Folding the words straight into the hash keeps every key.
        #[test]
        fn content_key_hashes_the_collected_words(
            op in 0..5usize,
            program in "\\PC*",
            bits in any::<u64>(),
            input in collection::vec(any::<i64>(), 0..4),
            span in 0i64..=64,
            fuel in any::<u64>(),
        ) {
            let ops = [Op::Ping, Op::Surveil, Op::Certify, Op::Check, Op::Refute];
            let req = Request {
                op: ops[op],
                tenant: "default".to_string(),
                job: String::new(),
                program,
                allow: IndexSet::from_bits(bits),
                input,
                span,
                deadline_ms: None,
                budget: None,
                block: 64,
                fuel,
                chaos: None,
            };
            let words = collected_key_words(&req);
            prop_assert_eq!(
                req.content_key(),
                format!("{:016x}", enf_core::checkpoint::fingerprint(&words))
            );
        }
    }

    #[test]
    fn reply_shapes() {
        let ok = reply_ok("j", vec![("verdict".into(), Json::Str("confirmed".into()))]);
        assert!(reply_is_ok(&ok));
        assert_eq!(reply_retry_after(&ok), None);
        let shed = reply_err("j", ErrorKind::Overloaded, "queue full", Some(40));
        assert!(!reply_is_ok(&shed));
        assert_eq!(reply_retry_after(&shed), Some(40));
        let usage = reply_err("j", ErrorKind::Usage, "bad", None);
        assert_eq!(reply_retry_after(&usage), None);
        // A long detail is cut to 1 KiB at a char boundary (`€` is 3 bytes).
        let long = reply_err("j", ErrorKind::Usage, &"€".repeat(400), None);
        assert_eq!(long.get("detail"), Some(&Json::Str("€".repeat(341))));
    }
}
