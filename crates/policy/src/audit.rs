//! The tamper-evident audit trail: deterministic, hash-chained JSONL.
//!
//! Every capability grant, certification, attestation, refusal, sweep and
//! release in the typed pipeline appends one record to an [`AuditLog`].
//! Records are canonical [`enf_core::json`] objects rendered on a single
//! line, and each record carries
//!
//! * `seq` — its position in the log (dense from 0),
//! * `prev` — the hash of the preceding record (a genesis constant for
//!   record 0), and
//! * `hash` — the FNV-1a fingerprint of the record's own canonical
//!   rendering *without* the `hash` field, chained through `prev`.
//!
//! Because the writer is deterministic (no timestamps, no randomness, and
//! the engine's verdicts are bit-identical for every thread count), a
//! pipeline run twice produces byte-identical logs — and because every
//! record's hash covers its predecessor's, any edit, deletion, insertion
//! or reordering breaks the chain at or before the tampered record.
//! [`verify_chain`] replays the whole chain and reports the first break.
//!
//! A file-backed log is append-only. It holds its file open under an
//! exclusive lock for its whole life, and [`AuditLog::persist`] writes
//! only the records not yet on disk, each as its line plus `\n`, in one
//! write at the end of the file. One append therefore costs one write of
//! about one record, whatever the trail's length. A write that fails is
//! cut back to the last whole record, and the lock makes a second writer
//! (another process, or a second log on the same path) fail with an error
//! instead of interleaving a second chain into the file. Nothing is
//! fsynced: a record on disk is as durable as the page cache that holds
//! it.
//!
//! A kill mid-append can leave only one kind of damage: trailing bytes
//! without a newline, which are not a record. [`AuditLog::resume`] cuts
//! them off and verifies the rest; any other break is refused.

use enf_core::{EnfError, Json};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions, TryLockError};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// `prev` of the first record: the FNV-1a fingerprint of the empty word
/// sequence, rendered like every other hash.
pub const GENESIS: u64 = fnv1a(FNV_BASIS, b"");

/// FNV-1a's offset basis, the state before any byte is folded in.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from the state `hash`: the byte
/// folding inside [`enf_core::fingerprint`], the primitive the checkpoint
/// format uses, applied to a record's text rather than to 64-bit words.
const fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        i += 1;
    }
    hash
}

/// The chain hash of a record: FNV-1a over its canonical rendering with
/// the `hash` field absent. `prev` is part of the rendering, so the hash
/// transitively covers the whole log prefix. `open_body` is that
/// rendering without its closing `}`, which is how a record's line
/// begins.
fn chain_hash(open_body: &str) -> u64 {
    fnv1a(fnv1a(FNV_BASIS, open_body.as_bytes()), b"}")
}

/// 16-digit lowercase hex, the wire form of every hash in the log.
pub fn hash_hex(h: u64) -> String {
    format!("{h:016x}")
}

/// Whether `text` is `h`'s [`hash_hex`] form, compared digit by digit
/// without building that string.
fn is_hex_of(text: &str, h: u64) -> bool {
    let digits = (0..16)
        .rev()
        .map(|i| b"0123456789abcdef"[(h >> (4 * i)) as usize & 0xf]);
    text.bytes().eq(digits)
}

/// When a file-backed log writes its bytes out. Both policies write
/// through [`AuditLog::persist`]; they differ only in who calls it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlushPolicy {
    /// Persist after every appended record: one write of that record.
    /// The durable default: the on-disk log is always a complete,
    /// verifiable chain ending at most one record behind the writer.
    EveryRecord,
    /// Persist only on [`AuditLog::persist`] (and best-effort on drop),
    /// which writes every record appended since the last persist in one
    /// write. For batch embedders that release many values per
    /// transaction. A batch cut short by a kill resumes as a whole-record
    /// prefix of that batch.
    Manual,
}

/// An append-only, hash-chained audit log.
///
/// In-memory by default; [`AuditLog::create`] / [`AuditLog::resume`]
/// attach a JSONL file that the log holds open and locked, and appends
/// to. Records are appended only by the typed pipeline (grants,
/// attestations, refusals, sweeps, releases) and by [`AuditLog::note`];
/// there is no way to append an arbitrary record with a forged chain
/// position.
#[derive(Debug)]
pub struct AuditLog {
    lines: Vec<String>,
    head: u64,
    disk: Option<Disk>,
    flush: FlushPolicy,
}

/// The file behind a file-backed log.
#[derive(Debug)]
struct Disk {
    path: PathBuf,
    /// Open for appending, under an exclusive lock until dropped.
    file: File,
    /// Records already in the file.
    written: usize,
    /// The file's length when it holds exactly those records.
    len: u64,
    /// Whether a failed write may have left bytes past `len`.
    torn: bool,
}

impl Disk {
    /// Opens (creating if missing) and locks the file at `path`.
    fn open(path: PathBuf) -> Result<Disk, EnfError> {
        let fail = |what: &str, e: std::io::Error| io_error(what, &path, e);
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)
            .map_err(|e| fail("cannot open", e))?;
        match file.try_lock() {
            Ok(()) => {}
            Err(TryLockError::WouldBlock) => {
                return Err(EnfError::Checkpoint {
                    reason: format!("audit log {} is locked by another writer", path.display()),
                })
            }
            Err(TryLockError::Error(e)) => return Err(fail("cannot lock", e)),
        }
        Ok(Disk {
            path,
            file,
            written: 0,
            len: 0,
            torn: false,
        })
    }

    /// Cuts the file to `len` bytes.
    fn cut(&mut self, len: u64) -> Result<(), EnfError> {
        self.file
            .set_len(len)
            .map_err(|e| io_error("cannot truncate", &self.path, e))?;
        self.len = len;
        self.torn = false;
        Ok(())
    }

    /// Appends `pending` in one write. On failure the file is cut back to
    /// its last whole record, so no partial line stays behind.
    fn append(&mut self, pending: &[String]) -> Result<(), EnfError> {
        if self.torn {
            self.cut(self.len)?;
        }
        let mut bytes = String::with_capacity(pending.iter().map(|l| l.len() + 1).sum());
        for line in pending {
            bytes.push_str(line);
            bytes.push('\n');
        }
        if let Err(e) = self.file.write_all(bytes.as_bytes()) {
            self.torn = self.file.set_len(self.len).is_err();
            return Err(io_error("cannot append to", &self.path, e));
        }
        self.written += pending.len();
        self.len += bytes.len() as u64;
        Ok(())
    }
}

fn io_error(what: &str, path: &Path, e: std::io::Error) -> EnfError {
    EnfError::Checkpoint {
        reason: format!("{what} audit log {}: {e}", path.display()),
    }
}

impl AuditLog {
    /// A fresh in-memory log (no file attached).
    pub fn in_memory() -> AuditLog {
        AuditLog {
            lines: Vec::new(),
            head: GENESIS,
            disk: None,
            flush: FlushPolicy::EveryRecord,
        }
    }

    /// A fresh file-backed log at `path`, persisted per `flush`. The file
    /// is created (or truncated) immediately so a zero-record run still
    /// leaves a verifiable empty log behind. Fails if another log holds
    /// the file.
    pub fn create(path: impl Into<PathBuf>, flush: FlushPolicy) -> Result<AuditLog, EnfError> {
        let mut disk = Disk::open(path.into())?;
        disk.cut(0)?;
        Ok(AuditLog {
            lines: Vec::new(),
            head: GENESIS,
            disk: Some(disk),
            flush,
        })
    }

    /// Reopens an existing log at `path` and continues its chain. A
    /// missing file starts an empty log.
    ///
    /// Trailing bytes after the last newline are a torn append, not a
    /// record: they are cut from the file. Everything before them is
    /// verified first, and a tampered log is refused untouched —
    /// appending to a broken chain would launder the break. Fails if
    /// another log holds the file.
    pub fn resume(path: impl Into<PathBuf>, flush: FlushPolicy) -> Result<AuditLog, EnfError> {
        let mut disk = Disk::open(path.into())?;
        let mut bytes = Vec::new();
        disk.file
            .read_to_end(&mut bytes)
            .map_err(|e| io_error("cannot read", &disk.path, e))?;
        let whole = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let refuse = |line: usize, reason: String| EnfError::Checkpoint {
            reason: format!(
                "audit log {} fails verification at record {line}: {reason}",
                disk.path.display()
            ),
        };
        let text = std::str::from_utf8(&bytes[..whole]).map_err(|e| {
            let line = 1 + bytes[..e.valid_up_to()]
                .iter()
                .filter(|&&b| b == b'\n')
                .count();
            refuse(line, "record is not UTF-8".to_string())
        })?;
        let mut lines = Vec::new();
        match replay(text, |line| lines.push(line.to_string())) {
            ChainVerdict::Intact { records, head } => {
                debug_assert_eq!(lines.len(), records);
                disk.written = records;
                disk.len = bytes.len() as u64;
                if whole < bytes.len() {
                    disk.cut(whole as u64)?;
                }
                Ok(AuditLog {
                    lines,
                    head,
                    disk: Some(disk),
                    flush,
                })
            }
            ChainVerdict::Tampered { line, reason, .. } => Err(refuse(line, reason)),
        }
    }

    /// Number of records in the log.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the log has no records yet.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// The chain head: the hash of the last record ([`GENESIS`] when
    /// empty).
    pub fn head(&self) -> u64 {
        self.head
    }

    /// The full JSONL rendering — one canonical record per line, trailing
    /// newline after the last (an empty log renders as the empty string).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// The rendered records, one canonical JSON line each.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Appends a record. `fields` follow `seq`/`prev`/`kind` in the
    /// rendered object; the chain hash is computed and appended last.
    pub(crate) fn append(
        &mut self,
        kind: &str,
        fields: Vec<(String, Json)>,
    ) -> Result<(), EnfError> {
        let mut obj = vec![
            ("seq".to_string(), Json::Int(self.lines.len() as i128)),
            ("prev".to_string(), Json::Str(hash_hex(self.head))),
            ("kind".to_string(), Json::Str(kind.to_string())),
        ];
        obj.extend(fields);
        // The line is the body's one rendering with the hash field added
        // last: the body without its `}`, then `,"hash":"…"}`.
        let mut line = Json::Obj(obj).render();
        line.pop();
        let hash = chain_hash(&line);
        let _ = write!(line, ",\"hash\":\"{}\"}}", hash_hex(hash));
        self.lines.push(line);
        self.head = hash;
        if self.flush == FlushPolicy::EveryRecord {
            self.persist()?;
        }
        Ok(())
    }

    /// An embedder annotation record (`kind: "note"`). The only
    /// caller-authored record kind; everything else is appended by the
    /// pipeline itself.
    pub fn note(&mut self, message: &str) -> Result<(), EnfError> {
        self.append(
            "note",
            vec![("message".to_string(), Json::Str(message.to_string()))],
        )
    }

    /// Appends the records not yet in the file to it, in one write. A
    /// no-op for in-memory logs and when nothing is pending.
    pub fn persist(&mut self) -> Result<(), EnfError> {
        match &mut self.disk {
            Some(disk) if disk.written < self.lines.len() => {
                disk.append(&self.lines[disk.written..])
            }
            _ => Ok(()),
        }
    }
}

impl Drop for AuditLog {
    fn drop(&mut self) {
        // Best effort: a Manual-flush log dropped without persist() should
        // not silently lose its tail. Errors are unreportable here.
        let _ = self.persist();
    }
}

/// Outcome of replaying an audit log's hash chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChainVerdict {
    /// Every record parses canonically and the chain closes.
    Intact {
        /// Number of verified records.
        records: usize,
        /// The chain head (hash of the last record, [`GENESIS`] if none).
        head: u64,
    },
    /// The chain breaks: some record is missing, altered, reordered,
    /// malformed, or the file ends mid-record.
    Tampered {
        /// Records verified intact before the break.
        intact: usize,
        /// 1-based line number of the offending record.
        line: usize,
        /// What failed. Text quoted from the trail has its control
        /// characters escaped (`\u{1b}`), so it prints safely.
        reason: String,
    },
}

impl ChainVerdict {
    /// Whether the whole log verified.
    pub fn is_intact(&self) -> bool {
        matches!(self, ChainVerdict::Intact { .. })
    }
}

/// Replays an audit log's hash chain from the raw file text.
///
/// A record verifies only if it is the *canonical* rendering of its
/// parsed content (so whitespace-preserving edits are caught), its `seq`
/// is its line position, its `prev` equals the running chain head, and
/// its `hash` recomputes from the body. The scan stops at the first
/// failure; everything before it is reported intact.
pub fn verify_chain(text: &str) -> ChainVerdict {
    replay(text, |_| {})
}

/// [`verify_chain`]'s scan, handing each verified record's line to `keep`
/// so [`AuditLog::resume`] collects the lines it replays.
///
/// Each record costs one parse and one rendering, the canonical check.
/// A canonical line ends with its last field, the `hash`, and a `}`, so
/// the body it hashes is the line up to that field, closed with `}`.
fn replay<'t>(text: &'t str, mut keep: impl FnMut(&'t str)) -> ChainVerdict {
    let mut head = GENESIS;
    let mut intact = 0usize;
    let mut rest = text;
    while !rest.is_empty() {
        let line_no = intact + 1;
        let tampered = |reason: String| ChainVerdict::Tampered {
            intact,
            line: line_no,
            reason: escape_controls(&reason),
        };
        let (line, tail) = match rest.split_once('\n') {
            Some((line, tail)) => (line, tail),
            None => {
                return tampered(format!(
                    "truncated record: {} trailing bytes with no newline",
                    rest.len()
                ))
            }
        };
        let parsed = match enf_core::json::parse(line) {
            Ok(parsed) => parsed,
            Err(e) => return tampered(format!("malformed JSON: {e}")),
        };
        let fields = match &parsed {
            Json::Obj(fields) => fields,
            _ => return tampered("record is not an object".to_string()),
        };
        if parsed.render() != line {
            return tampered("record is not in canonical form".to_string());
        }
        let last = match fields.last() {
            Some((key, value)) if key == "hash" => value,
            _ => return tampered("missing hash field".to_string()),
        };
        let seq = parsed.get("seq").and_then(Json::as_usize);
        if seq != Some(intact) {
            return tampered(format!(
                "sequence break: expected seq {intact}, found {}",
                match seq {
                    Some(s) => s.to_string(),
                    None => "none".to_string(),
                }
            ));
        }
        let prev = parsed.get("prev").and_then(Json::as_str).unwrap_or("");
        if !is_hex_of(prev, head) {
            return tampered(format!(
                "chain break: prev {prev} does not match head {}",
                hash_hex(head)
            ));
        }
        // `"hash":` and the value's rendering, after a comma unless the
        // hash is the only field.
        let field = r#""hash":"#.len() + last.render().len() + usize::from(fields.len() > 1);
        let expected = chain_hash(&line[..line.len() - 1 - field]);
        let stored = parsed.get("hash").and_then(Json::as_str).unwrap_or("");
        if !is_hex_of(stored, expected) {
            return tampered(format!(
                "hash mismatch: stored {stored}, recomputed {}",
                hash_hex(expected)
            ));
        }
        keep(line);
        head = expected;
        intact += 1;
        rest = tail;
    }
    ChainVerdict::Intact {
        records: intact,
        head,
    }
}

/// `text` with each control and format character escaped as Rust escapes
/// it (`\n`, `\u{1b}`, `\u{202e}`): the `prev`, `hash` and parser texts a
/// break reason quotes are the trail's own bytes, and a bidi override
/// among them would reorder the reason on a terminal.
fn escape_controls(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        if c.is_control() || is_format(c) {
            out.extend(c.escape_default());
        } else {
            out.push(c);
        }
    }
    out
}

/// Whether `c` is in Unicode category Cf (format): the bidi embeddings,
/// overrides, isolates and marks, zero-width characters and tags.
fn is_format(c: char) -> bool {
    matches!(
        c,
        '\u{ad}'
            | '\u{600}'..='\u{605}'
            | '\u{61c}'
            | '\u{6dd}'
            | '\u{70f}'
            | '\u{890}'..='\u{891}'
            | '\u{8e2}'
            | '\u{180e}'
            | '\u{200b}'..='\u{200f}'
            | '\u{202a}'..='\u{202e}'
            | '\u{2060}'..='\u{2064}'
            | '\u{2066}'..='\u{206f}'
            | '\u{feff}'
            | '\u{fff9}'..='\u{fffb}'
            | '\u{110bd}'
            | '\u{110cd}'
            | '\u{13430}'..='\u{1343f}'
            | '\u{1bca0}'..='\u{1bca3}'
            | '\u{1d173}'..='\u{1d17a}'
            | '\u{e0001}'
            | '\u{e0020}'..='\u{e007f}'
    )
}

/// Renders an [`enf_core::IndexSet`] as a JSON array of indices, the
/// audit wire form of a policy or taint set.
pub(crate) fn indexset_json(set: &enf_core::IndexSet) -> Json {
    Json::Arr(set.iter().map(|i| Json::Int(i as i128)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    fn sample() -> AuditLog {
        let mut log = AuditLog::in_memory();
        log.note("first").unwrap();
        log.note("second").unwrap();
        log.note("third").unwrap();
        log
    }

    #[test]
    fn chain_verifies_and_is_deterministic() {
        let a = sample();
        let b = sample();
        assert_eq!(a.render(), b.render());
        match verify_chain(&a.render()) {
            ChainVerdict::Intact { records, head } => {
                assert_eq!(records, 3);
                assert_eq!(head, a.head());
            }
            tampered => panic!("intact log flagged: {tampered:?}"),
        }
    }

    #[test]
    fn empty_log_is_intact() {
        assert_eq!(
            verify_chain(""),
            ChainVerdict::Intact {
                records: 0,
                head: GENESIS
            }
        );
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let text = sample().render();
        let bytes = text.as_bytes();
        for i in 0..bytes.len() {
            let mut flipped = bytes.to_vec();
            flipped[i] ^= 0x20; // keeps most characters printable
            if flipped == bytes {
                continue;
            }
            if let Ok(s) = String::from_utf8(flipped) {
                assert!(
                    !verify_chain(&s).is_intact(),
                    "flip at byte {i} went undetected"
                );
            }
        }
    }

    #[test]
    fn deleting_or_swapping_records_breaks_the_chain() {
        let log = sample();
        let lines: Vec<&str> = log.lines().iter().map(String::as_str).collect();
        let drop_middle = format!("{}\n{}\n", lines[0], lines[2]);
        assert!(!verify_chain(&drop_middle).is_intact());
        let swapped = format!("{}\n{}\n{}\n", lines[1], lines[0], lines[2]);
        assert!(!verify_chain(&swapped).is_intact());
        let truncated_tail = format!("{}\n{}\n", lines[0], lines[1]);
        // A clean prefix is a valid (shorter) log — truncation of whole
        // records is only detectable against an external head.
        assert!(verify_chain(&truncated_tail).is_intact());
    }

    #[test]
    fn torn_tail_is_flagged() {
        let text = sample().render();
        let torn = &text[..text.len() - 10];
        match verify_chain(torn) {
            ChainVerdict::Tampered { intact, line, .. } => {
                assert_eq!(intact, 2);
                assert_eq!(line, 3);
            }
            other => panic!("torn log verified: {other:?}"),
        }
    }

    #[test]
    fn reformatted_record_is_not_canonical() {
        let log = sample();
        let lines = log.lines();
        // Same JSON content, extra whitespace: parses fine, fails the
        // canonical-form check.
        let spaced = lines[0].replace(':', ": ");
        let text = format!("{}\n{}\n{}\n", spaced, lines[1], lines[2]);
        match verify_chain(&text) {
            ChainVerdict::Tampered { line, reason, .. } => {
                assert_eq!(line, 1);
                assert!(reason.contains("canonical"));
            }
            other => panic!("reformatted log verified: {other:?}"),
        }
    }

    /// The clone-and-render body rule that [`replay`] replaced, kept
    /// verbatim as its oracle: it cloned each record's fields but the
    /// last, rendered them again to hash the body, and compared hashes as
    /// hex strings.
    fn verify_chain_by_render(text: &str) -> ChainVerdict {
        let mut head = GENESIS;
        let mut intact = 0usize;
        let mut rest = text;
        while !rest.is_empty() {
            let line_no = intact + 1;
            let tampered = |reason: String| ChainVerdict::Tampered {
                intact,
                line: line_no,
                reason: escape_controls(&reason),
            };
            let (line, tail) = match rest.split_once('\n') {
                Some((line, tail)) => (line, tail),
                None => {
                    return tampered(format!(
                        "truncated record: {} trailing bytes with no newline",
                        rest.len()
                    ))
                }
            };
            let parsed = match enf_core::json::parse(line) {
                Ok(parsed) => parsed,
                Err(e) => return tampered(format!("malformed JSON: {e}")),
            };
            let fields = match &parsed {
                Json::Obj(fields) => fields,
                _ => return tampered("record is not an object".to_string()),
            };
            if parsed.render() != line {
                return tampered("record is not in canonical form".to_string());
            }
            match fields.last() {
                Some((key, _)) if key == "hash" => {}
                _ => return tampered("missing hash field".to_string()),
            }
            let seq = parsed.get("seq").and_then(Json::as_usize);
            if seq != Some(intact) {
                return tampered(format!(
                    "sequence break: expected seq {intact}, found {}",
                    match seq {
                        Some(s) => s.to_string(),
                        None => "none".to_string(),
                    }
                ));
            }
            let prev = parsed.get("prev").and_then(Json::as_str).unwrap_or("");
            if prev != hash_hex(head) {
                return tampered(format!(
                    "chain break: prev {prev} does not match head {}",
                    hash_hex(head)
                ));
            }
            let body = Json::Obj(fields[..fields.len() - 1].to_vec()).render();
            let expected = fnv1a(FNV_BASIS, body.as_bytes());
            let stored = parsed.get("hash").and_then(Json::as_str).unwrap_or("");
            if stored != hash_hex(expected) {
                return tampered(format!(
                    "hash mismatch: stored {stored}, recomputed {}",
                    hash_hex(expected)
                ));
            }
            head = expected;
            intact += 1;
            rest = tail;
        }
        ChainVerdict::Intact {
            records: intact,
            head,
        }
    }

    /// The line the two-render `append` wrote: the body rendered to hash
    /// it, then the whole record rendered again with the hash field.
    fn line_by_two_renders(
        seq: usize,
        head: u64,
        kind: &str,
        fields: Vec<(String, Json)>,
    ) -> String {
        let mut obj = vec![
            ("seq".to_string(), Json::Int(seq as i128)),
            ("prev".to_string(), Json::Str(hash_hex(head))),
            ("kind".to_string(), Json::Str(kind.to_string())),
        ];
        obj.extend(fields);
        let body = Json::Obj(obj.clone()).render();
        let hash = fnv1a(FNV_BASIS, body.as_bytes());
        obj.push(("hash".to_string(), Json::Str(hash_hex(hash))));
        Json::Obj(obj).render()
    }

    /// Message fragments: quotes, backslashes, control characters, 1- to
    /// 4-byte characters, and text that looks like a hash field.
    const PIECES: &[&str] = &[
        "a",
        " ",
        "\"",
        "\\",
        "\\\"",
        "\n",
        "\t",
        "\u{0}",
        "\u{1f}",
        "\u{7f}",
        "é",
        "€",
        "中",
        "𝄞",
        "}",
        ",\"hash\":\"",
        "\"hash\":",
    ];

    fn message() -> impl Strategy<Value = String> {
        collection::vec(0..PIECES.len(), 0..8)
            .prop_map(|ix| ix.into_iter().map(|i| PIECES[i]).collect())
    }

    /// A record's fields after `kind`: messages, numbers, and objects
    /// with a `hash` key of their own, under keys that are now and then
    /// `hash` too (such a record never verifies).
    fn record_fields() -> impl Strategy<Value = Vec<(String, Json)>> {
        let key = (0..8u8, message()).prop_map(|(n, key)| match n {
            0 => "hash".to_string(),
            1..=3 => "message".to_string(),
            _ => key,
        });
        let value = prop_oneof![
            message().prop_map(Json::Str),
            any::<i64>().prop_map(|n| Json::Int(n.into())),
            (message(), message()).prop_map(|(a, b)| {
                Json::Obj(vec![("hash".to_string(), Json::Str(a)), (b, Json::Null)])
            }),
        ];
        collection::vec((key, value), 0..3)
    }

    /// One copy of a trail per kind of tampering, placed by `seed`.
    fn tamperings(text: &str, seed: u64) -> Vec<String> {
        let mut state = seed;
        let mut pick =
            |bound: usize| (enf_core::chaos::splitmix64(&mut state) % bound.max(1) as u64) as usize;
        let lines: Vec<&str> = text.lines().collect();
        let join = |lines: &[&str]| lines.iter().map(|l| format!("{l}\n")).collect::<String>();
        let mut out = Vec::new();
        // A byte flip that leaves the text UTF-8.
        let mut flipped = text.as_bytes().to_vec();
        let at = pick(flipped.len());
        flipped[at] ^= 1 << pick(8);
        out.extend(String::from_utf8(flipped));
        // Inserted whitespace.
        let mut at = pick(text.len() + 1);
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        let space = [" ", "\t", "\n", "\r"][pick(4)];
        out.push(format!("{}{space}{}", &text[..at], &text[at..]));
        // Two lines swapped.
        let mut swapped = lines.clone();
        swapped.swap(pick(lines.len()), pick(lines.len()));
        out.push(join(&swapped));
        // One record replaced by one whose only field is a hash, or whose
        // hash is a number, an object with a `hash` key of its own, or a
        // string that is not the lowercase hex of the right hash.
        let at = pick(lines.len());
        let cut = lines[at].rfind(r#","hash":"#).expect("an appended line");
        let (open, right) = (&lines[at][..cut], &lines[at][cut + 9..cut + 25]);
        for record in [
            format!(r#"{{"hash":"{right}"}}"#),
            format!(r#"{{"hash":"{}"}}"#, hash_hex(fnv1a(FNV_BASIS, b"{}"))),
            format!(r#"{open},"hash":{}}}"#, pick(1 << 20)),
            format!(r#"{open},"hash":{{"hash":"{right}"}}}}"#),
            format!(r#"{open},"hash":"{}"}}"#, right.to_uppercase()),
            format!(r#"{open},"hash":"+{}"}}"#, &right[1..]),
            format!(r#"{open},"hash":"{right}0"}}"#),
            format!(r#"{open},"hash":"z{}"}}"#, &right[1..]),
        ] {
            let mut replaced = lines.clone();
            replaced[at] = &record;
            out.push(join(&replaced));
        }
        out
    }

    proptest! {
        /// `append` writes the two-render line, and on every trail and
        /// every tampering of it, hashing the line's prefix gives the
        /// verdict that rendering the body again gave, reason included.
        #[test]
        fn prefix_body_hash_matches_the_rendered_body(
            records in collection::vec(record_fields(), 1..6),
            seed in any::<u64>(),
        ) {
            let forged = records.iter().flatten().any(|(key, _)| key == "hash");
            let mut log = AuditLog::in_memory();
            for fields in records {
                let (seq, head) = (log.len(), log.head());
                log.append("note", fields.clone()).unwrap();
                prop_assert_eq!(
                    log.lines().last().unwrap(),
                    &line_by_two_renders(seq, head, "note", fields)
                );
            }
            let text = log.render();
            let verdict = verify_chain(&text);
            prop_assert_eq!(&verdict, &verify_chain_by_render(&text));
            prop_assert_eq!(verdict.is_intact(), !forged);
            for tampered in tamperings(&text, seed) {
                prop_assert_eq!(
                    verify_chain(&tampered),
                    verify_chain_by_render(&tampered),
                    "{}",
                    tampered
                );
            }
        }
    }

    /// A fresh directory for one test's files.
    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("enf_policy_audit_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn refusal(result: Result<AuditLog, EnfError>) -> String {
        match result {
            Ok(log) => panic!("resume accepted {} records", log.len()),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn file_roundtrip_and_resume() {
        let dir = scratch("roundtrip");
        let path = dir.join("roundtrip.jsonl");
        {
            let mut log = AuditLog::create(&path, FlushPolicy::EveryRecord).unwrap();
            log.note("persisted").unwrap();
        }
        let mut log = AuditLog::resume(&path, FlushPolicy::EveryRecord).unwrap();
        assert_eq!(log.len(), 1);
        log.note("appended").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(verify_chain(&text).is_intact());
        assert_eq!(text, log.render());
        drop(log);
        // Tampered file refuses to resume.
        std::fs::write(&path, text.replace("persisted", "altered")).unwrap();
        let reason = refusal(AuditLog::resume(&path, FlushPolicy::EveryRecord));
        assert!(reason.contains("fails verification"), "{reason}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_open_log_refuses_a_second_writer() {
        let dir = scratch("locked");
        let path = dir.join("locked.jsonl");
        let mut first = AuditLog::create(&path, FlushPolicy::EveryRecord).unwrap();
        first.note("held").unwrap();
        for second in [
            AuditLog::create(&path, FlushPolicy::EveryRecord),
            AuditLog::resume(&path, FlushPolicy::Manual),
        ] {
            let reason = refusal(second);
            assert!(reason.contains("locked by another writer"), "{reason}");
        }
        // The refused writers touched nothing; the holder carries on.
        first.note("still held").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), first.render());
        drop(first);
        assert_eq!(
            AuditLog::resume(&path, FlushPolicy::EveryRecord)
                .unwrap()
                .len(),
            2
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manual_persist_writes_exactly_the_rendering() {
        let dir = scratch("manual");
        let path = dir.join("manual.jsonl");
        let mut log = AuditLog::create(&path, FlushPolicy::Manual).unwrap();
        for k in 0..1000 {
            log.note(&format!("batch record {k}")).unwrap();
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        log.persist().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), log.render());
        // A second persist with nothing pending writes nothing.
        log.persist().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), log.render());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_cuts_a_torn_tail_and_continues_the_chain() {
        let dir = scratch("torn");
        let path = dir.join("torn.jsonl");
        let full = sample().render();
        let whole = full.len() - sample().lines()[2].len() - 1;
        std::fs::write(&path, &full[..full.len() - 10]).unwrap();
        let mut log = AuditLog::resume(&path, FlushPolicy::EveryRecord).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), full[..whole]);
        log.note("third").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), full);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_too_deep_record_is_refused() {
        let dir = scratch("deep");
        let path = dir.join("deep.jsonl");
        let deep = format!("{}\n", "[".repeat(100_000));
        std::fs::write(&path, format!("{}{deep}", sample().render())).unwrap();
        let reason = refusal(AuditLog::resume(&path, FlushPolicy::EveryRecord));
        assert!(reason.contains("at record 4"), "{reason}");
        assert!(reason.contains("nesting"), "{reason}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
