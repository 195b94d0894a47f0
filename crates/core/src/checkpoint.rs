//! Checkpointed, resumable soundness sweeps.
//!
//! A multi-hour exhaustive `check_soundness` run that dies at 99% has
//! produced nothing. This module turns the sweep into a *block-sequential*
//! scan: the index space is processed in contiguous blocks, each block in
//! parallel through the guarded engine, and after every completed block
//! the accumulated per-class state (one representative occurrence per
//! policy-equivalence class — conflict-free by construction, because the
//! sweep ends at the first conflict) plus the frontier index is handed to
//! a checkpoint sink. A later run can resume from the last checkpoint and
//! produce a **byte-identical** final report, because the class
//! representatives are globally-first occurrences either way.
//!
//! Serialization is via [`crate::json`] and a small [`CheckpointCodec`]
//! that callers implement for their output/view types ([`PlainCodec`]
//! covers `Out = V`, `View = Vec<V>` — the `Allow`-policy shape the CLI
//! uses). Checkpoints embed a fingerprint of the sweep parameters, so
//! resuming against a different domain, policy, or mechanism is rejected
//! instead of silently corrupting the verdict.

use crate::domain::InputDomain;
use crate::error::{Coverage, EnfError};
use crate::json::Json;
use crate::mechanism::{MechOutput, Mechanism};
use crate::notice::Notice;
use crate::par::{CancelToken, EvalConfig};
use crate::policy::Policy;
use crate::soundness::{guarded_sweep, Checkpoints, SoundnessReport};
use crate::value::V;
use std::borrow::Borrow;
use std::hash::Hash;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Format tag embedded in every checkpoint document.
pub const FORMAT: &str = "enf-soundness-checkpoint-v1";

/// FNV-1a over a sequence of words — the sweep fingerprint primitive.
/// It takes the words as an iterator, so a caller can fold bytes or
/// fields in as they come instead of collecting them first.
pub fn fingerprint<W: Borrow<u64>>(parts: impl IntoIterator<Item = W>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for byte in part.borrow().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Encodes/decodes a checker's output and view types for checkpointing.
///
/// Implementations must round-trip: `decode(encode(x)) == x`. Violation
/// notices are handled by the checkpoint layer itself; codecs only see
/// program outputs.
pub trait CheckpointCodec<O, W> {
    /// Encodes a program output.
    fn encode_out(&self, out: &O) -> Json;
    /// Decodes a program output.
    fn decode_out(&self, json: &Json) -> Result<O, String>;
    /// Encodes a policy view.
    fn encode_view(&self, view: &W) -> Json;
    /// Decodes a policy view.
    fn decode_view(&self, json: &Json) -> Result<W, String>;
}

/// Codec for the plain shape: outputs are [`V`], views are `Vec<V>`
/// (projection policies like [`crate::Allow`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct PlainCodec;

impl CheckpointCodec<V, Vec<V>> for PlainCodec {
    fn encode_out(&self, out: &V) -> Json {
        Json::Int(i128::from(*out))
    }

    fn decode_out(&self, json: &Json) -> Result<V, String> {
        json.as_int()
            .and_then(|n| V::try_from(n).ok())
            .ok_or_else(|| "expected integer output".to_string())
    }

    fn encode_view(&self, view: &Vec<V>) -> Json {
        Json::Arr(view.iter().map(|v| Json::Int(i128::from(*v))).collect())
    }

    fn decode_view(&self, json: &Json) -> Result<Vec<V>, String> {
        json.as_arr()
            .ok_or_else(|| "expected view array".to_string())?
            .iter()
            .map(|item| {
                item.as_int()
                    .and_then(|n| V::try_from(n).ok())
                    .ok_or_else(|| "expected integer view element".to_string())
            })
            .collect()
    }
}

fn encode_mech_out<O, W, C>(codec: &C, out: &MechOutput<O>) -> Json
where
    O: Clone + PartialEq + std::fmt::Debug,
    C: CheckpointCodec<O, W> + ?Sized,
{
    match out {
        MechOutput::Value(v) => Json::Obj(vec![("v".to_string(), codec.encode_out(v))]),
        MechOutput::Violation(n) => Json::Obj(vec![(
            "n".to_string(),
            Json::Arr(vec![
                Json::Int(i128::from(n.code())),
                Json::Str(n.message().to_string()),
            ]),
        )]),
    }
}

fn decode_mech_out<O, W, C>(codec: &C, json: &Json) -> Result<MechOutput<O>, String>
where
    O: Clone + PartialEq + std::fmt::Debug,
    C: CheckpointCodec<O, W> + ?Sized,
{
    if let Some(v) = json.get("v") {
        return Ok(MechOutput::Value(codec.decode_out(v)?));
    }
    let n = json
        .get("n")
        .and_then(Json::as_arr)
        .ok_or_else(|| "expected \"v\" or \"n\" output".to_string())?;
    match n {
        [code, msg] => {
            let code = code
                .as_int()
                .and_then(|c| u32::try_from(c).ok())
                .ok_or_else(|| "bad notice code".to_string())?;
            let msg = msg
                .as_str()
                .ok_or_else(|| "bad notice message".to_string())?;
            Ok(MechOutput::Violation(Notice::new(code, msg.to_string())))
        }
        _ => Err("notice must be [code, message]".to_string()),
    }
}

/// One serialized class row: `(view, rep_index, rep_input, rep_output)`.
pub type ClassRow<O, W> = (W, usize, Vec<V>, MechOutput<O>);

/// Receiver for completed-block checkpoints; returning `Err` aborts the
/// sweep (e.g. the disk is gone — better to stop than to run on without
/// durability).
pub type CheckpointSink<'a, O, W> =
    dyn FnMut(&SoundnessCheckpoint<O, W>) -> Result<(), EnfError> + 'a;

/// In-memory image of a soundness checkpoint: the frontier plus one
/// conflict-free representative per class seen so far.
#[derive(Clone, Debug, PartialEq)]
pub struct SoundnessCheckpoint<O, W> {
    /// Fingerprint of the sweep parameters this checkpoint belongs to.
    pub fingerprint: u64,
    /// Total number of inputs in the domain.
    pub total: usize,
    /// Next index to evaluate: every index in `0..next_index` is covered.
    pub next_index: usize,
    /// One [`ClassRow`] per class, sorted by `rep_index` so serialization
    /// is deterministic.
    pub classes: Vec<ClassRow<O, W>>,
}

impl<O, W> SoundnessCheckpoint<O, W>
where
    O: Clone + PartialEq + std::fmt::Debug,
{
    /// Serializes to a deterministic JSON document.
    pub fn to_json(&self, codec: &impl CheckpointCodec<O, W>) -> Json {
        Json::Obj(vec![
            ("format".to_string(), Json::Str(FORMAT.to_string())),
            (
                "fingerprint".to_string(),
                Json::Int(i128::from(self.fingerprint)),
            ),
            ("total".to_string(), Json::Int(self.total as i128)),
            ("next_index".to_string(), Json::Int(self.next_index as i128)),
            (
                "classes".to_string(),
                Json::Arr(
                    self.classes
                        .iter()
                        .map(|(view, idx, input, out)| {
                            Json::Obj(vec![
                                ("view".to_string(), codec.encode_view(view)),
                                ("idx".to_string(), Json::Int(*idx as i128)),
                                (
                                    "input".to_string(),
                                    Json::Arr(
                                        input.iter().map(|v| Json::Int(i128::from(*v))).collect(),
                                    ),
                                ),
                                ("out".to_string(), encode_mech_out(codec, out)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserializes from a JSON document, validating the format tag.
    pub fn from_json(codec: &impl CheckpointCodec<O, W>, json: &Json) -> Result<Self, EnfError> {
        let fail = |reason: String| EnfError::Checkpoint { reason };
        if json.get("format").and_then(Json::as_str) != Some(FORMAT) {
            return Err(fail(format!("not a {FORMAT} document")));
        }
        let fingerprint = json
            .get("fingerprint")
            .and_then(Json::as_int)
            .and_then(|n| u64::try_from(n).ok())
            .ok_or_else(|| fail("missing fingerprint".to_string()))?;
        let total = json
            .get("total")
            .and_then(Json::as_usize)
            .ok_or_else(|| fail("missing total".to_string()))?;
        let next_index = json
            .get("next_index")
            .and_then(Json::as_usize)
            .ok_or_else(|| fail("missing next_index".to_string()))?;
        let mut classes = Vec::new();
        for entry in json
            .get("classes")
            .and_then(Json::as_arr)
            .ok_or_else(|| fail("missing classes".to_string()))?
        {
            let view = codec
                .decode_view(
                    entry
                        .get("view")
                        .ok_or_else(|| fail("class missing view".to_string()))?,
                )
                .map_err(fail)?;
            let idx = entry
                .get("idx")
                .and_then(Json::as_usize)
                .ok_or_else(|| fail("class missing idx".to_string()))?;
            let input = entry
                .get("input")
                .and_then(Json::as_arr)
                .ok_or_else(|| fail("class missing input".to_string()))?
                .iter()
                .map(|v| {
                    v.as_int()
                        .and_then(|n| V::try_from(n).ok())
                        .ok_or_else(|| fail("bad input element".to_string()))
                })
                .collect::<Result<Vec<V>, _>>()?;
            let out = decode_mech_out(
                codec,
                entry
                    .get("out")
                    .ok_or_else(|| fail("class missing out".to_string()))?,
            )
            .map_err(fail)?;
            classes.push((view, idx, input, out));
        }
        Ok(SoundnessCheckpoint {
            fingerprint,
            total,
            next_index,
            classes,
        })
    }
}

/// Writes `text` to `path` atomically: the bytes land in a sibling
/// temporary file which is then renamed over the target, so a kill
/// mid-write leaves the previous contents intact. Every call gets its own
/// temporary name (process id plus a process-wide counter), so concurrent
/// writers of one path each rename a whole document and the last rename
/// wins. Checkpoint documents are persisted this way.
pub fn atomic_write_text(path: &Path, text: &str) -> Result<(), EnfError> {
    // Relaxed: only the counter's uniqueness matters; it publishes no data.
    static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
    let reason = |what: &str, e: std::io::Error| EnfError::Checkpoint {
        reason: format!("{what} {}: {e}", path.display()),
    };
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(format!(
        ".{}-{}.tmp",
        std::process::id(),
        NEXT_TMP.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    let written = std::fs::write(&tmp, text)
        .map_err(|e| reason("cannot write", e))
        .and_then(|()| std::fs::rename(&tmp, path).map_err(|e| reason("cannot rename into", e)));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Writes a checkpoint document to `path` atomically via
/// [`atomic_write_text`], so a kill mid-write leaves the previous
/// checkpoint intact.
pub fn write_checkpoint_file(path: &Path, json: &Json) -> Result<(), EnfError> {
    atomic_write_text(path, &json.render())
}

/// Reads and parses a checkpoint document from `path`.
pub fn read_checkpoint_file(path: &Path) -> Result<Json, EnfError> {
    let text = std::fs::read_to_string(path).map_err(|e| EnfError::Checkpoint {
        reason: format!("cannot read {}: {e}", path.display()),
    })?;
    crate::json::parse(&text).map_err(|e| EnfError::Checkpoint {
        reason: format!("cannot parse {}: {e}", path.display()),
    })
}

/// The sweep-parameter fingerprint for a checkpointed soundness run.
///
/// Covers everything the checkpoint's meaning depends on that the engine
/// can see — domain size and arity, notice collapsing — plus a caller
/// `salt` identifying the mechanism/policy pair (the engine cannot hash
/// closures; the CLI derives the salt from its command line).
pub fn soundness_fingerprint(total: usize, arity: usize, collapse_notices: bool, salt: u64) -> u64 {
    fingerprint([
        total as u64,
        arity as u64,
        u64::from(collapse_notices),
        salt,
    ])
}

/// Checkpointed, resumable, fault-tolerant soundness check.
///
/// Processes the domain in blocks of `block` indices. Blocks run through
/// the guarded parallel engine; after each completed block, `sink`
/// receives the accumulated checkpoint (frontier + class
/// representatives). On resume, pass the decoded checkpoint as `resume`:
/// the sweep continues at its frontier and the final report is
/// byte-identical to an uninterrupted run — representatives stored in the
/// checkpoint are globally-first occurrences, exactly what the fresh sweep
/// would have accumulated.
///
/// The sweep is the one behind
/// [`try_check_soundness_with`](crate::soundness::try_check_soundness_with),
/// class-partitioned for a projection policy over a grid. A row's `view`
/// is always the policy's view of its representative, so the document
/// does not depend on the partition and resumes under either. Verdict
/// semantics match `try_check_soundness_with`; the additional failure mode
/// is `Err(Checkpoint)` when `resume` does not match the sweep fingerprint
/// or domain.
#[allow(clippy::too_many_arguments)]
pub fn check_soundness_checkpointed<M, P>(
    mechanism: &M,
    policy: &P,
    domain: &dyn InputDomain,
    collapse_notices: bool,
    config: &EvalConfig,
    ctl: &CancelToken,
    salt: u64,
    block: usize,
    resume: Option<&SoundnessCheckpoint<M::Out, P::View>>,
    sink: &mut CheckpointSink<'_, M::Out, P::View>,
) -> Result<Coverage<SoundnessReport<M::Out>>, EnfError>
where
    M: Mechanism + Sync,
    M::Out: Eq + Hash + Send,
    P: Policy + Sync,
    P::View: Send,
{
    assert!(block > 0, "checkpoint block size must be positive");
    let total = domain.len();
    let fp = soundness_fingerprint(total, domain.arity(), collapse_notices, salt);
    if let Some(ckpt) = resume {
        if ckpt.fingerprint != fp || ckpt.total != total || ckpt.next_index > total {
            return Err(EnfError::Checkpoint {
                reason: format!(
                    "checkpoint does not match this sweep \
                     (fingerprint {:#x} vs {:#x}, total {} vs {})",
                    ckpt.fingerprint, fp, ckpt.total, total
                ),
            });
        }
    }
    guarded_sweep(
        mechanism,
        policy,
        domain,
        collapse_notices,
        config,
        ctl,
        Some(Checkpoints {
            fingerprint: fp,
            block,
            resume,
            sink,
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Grid;
    use crate::mechanism::FnMechanism;
    use crate::policy::Allow;

    fn leak_free() -> FnMechanism<V> {
        FnMechanism::new(2, |a: &[V]| MechOutput::Value(a[0]))
    }

    fn leaky() -> FnMechanism<V> {
        // Leaks only inside the a[0] = 9 class (indices 90..=99 of the
        // 10×10 grid), so the conflict lands several checkpoints in.
        FnMechanism::new(2, |a: &[V]| {
            MechOutput::Value(if a[0] == 9 { a[1] } else { 0 })
        })
    }

    #[test]
    fn checkpoint_roundtrips_through_json() {
        let ckpt = SoundnessCheckpoint::<V, Vec<V>> {
            fingerprint: 0xdead_beef,
            total: 100,
            next_index: 40,
            classes: vec![
                (vec![0], 0, vec![0, -2], MechOutput::Value(7)),
                (
                    vec![1],
                    3,
                    vec![1, -2],
                    MechOutput::Violation(Notice::new(9, "denied")),
                ),
            ],
        };
        let json = ckpt.to_json(&PlainCodec);
        let text = json.render();
        let parsed = crate::json::parse(&text).expect("parses");
        let back = SoundnessCheckpoint::from_json(&PlainCodec, &parsed).expect("decodes");
        assert_eq!(back, ckpt);
        // Deterministic bytes.
        assert_eq!(back.to_json(&PlainCodec).render(), text);
    }

    #[test]
    fn from_json_rejects_foreign_documents() {
        let doc = crate::json::parse(r#"{"format": "other", "total": 3}"#).expect("parses");
        assert!(matches!(
            SoundnessCheckpoint::<V, Vec<V>>::from_json(&PlainCodec, &doc),
            Err(EnfError::Checkpoint { .. })
        ));
    }

    #[test]
    fn checkpointed_sweep_matches_unchunked_for_sound_mechanism() {
        let g = Grid::hypercube(2, 0..=9);
        let p = Allow::new(2, [1]);
        let m = leak_free();
        let mut checkpoints = Vec::new();
        let report = check_soundness_checkpointed(
            &m,
            &p,
            &g,
            false,
            &EvalConfig::with_threads(2).seq_threshold(0),
            &CancelToken::new(),
            7,
            16,
            None,
            &mut |c| {
                checkpoints.push(c.clone());
                Ok(())
            },
        )
        .expect("no faults");
        assert!(matches!(
            report.report,
            Some(SoundnessReport::Sound {
                inputs: 100,
                classes: 10
            })
        ));
        // ceil(100 / 16) completed blocks, frontier strictly increasing.
        assert_eq!(checkpoints.len(), 7);
        assert!(checkpoints
            .windows(2)
            .all(|w| w[0].next_index < w[1].next_index));
    }

    #[test]
    fn resume_is_byte_identical_to_fresh_run() {
        let g = Grid::hypercube(2, 0..=9);
        let p = Allow::new(2, [1]);
        for mech in [leak_free(), leaky()] {
            let fresh = check_soundness_checkpointed(
                &mech,
                &p,
                &g,
                false,
                &EvalConfig::with_threads(1),
                &CancelToken::new(),
                7,
                16,
                None,
                &mut |_| Ok(()),
            )
            .expect("no faults");
            // Kill after the second checkpoint, then resume from it.
            let mut kept: Option<SoundnessCheckpoint<V, Vec<V>>> = None;
            let mut seen = 0;
            let _ = check_soundness_checkpointed(
                &mech,
                &p,
                &g,
                false,
                &EvalConfig::with_threads(3).seq_threshold(0),
                &CancelToken::new(),
                7,
                16,
                None,
                &mut |c| {
                    seen += 1;
                    if seen == 2 {
                        kept = Some(c.clone());
                        Err(EnfError::Checkpoint {
                            reason: "simulated kill".to_string(),
                        })
                    } else {
                        Ok(())
                    }
                },
            );
            if let Some(ckpt) = kept {
                // Round-trip the checkpoint through its serialized form,
                // as a real resume would.
                let wire = ckpt.to_json(&PlainCodec).render();
                let decoded = SoundnessCheckpoint::from_json(
                    &PlainCodec,
                    &crate::json::parse(&wire).expect("parses"),
                )
                .expect("decodes");
                let resumed = check_soundness_checkpointed(
                    &mech,
                    &p,
                    &g,
                    false,
                    &EvalConfig::with_threads(4).seq_threshold(0),
                    &CancelToken::new(),
                    7,
                    16,
                    Some(&decoded),
                    &mut |_| Ok(()),
                )
                .expect("no faults");
                assert_eq!(format!("{fresh:?}"), format!("{resumed:?}"));
            }
        }
    }

    type Outcome = Result<Coverage<SoundnessReport<V>>, EnfError>;

    /// A checkpointed sweep of `mech` under `policy`, with every document
    /// it wrote, rendered.
    fn sweep_docs<P: Policy<View = Vec<V>> + Sync>(
        mech: &FnMechanism<V>,
        policy: &P,
        threads: usize,
        ctl: &CancelToken,
        resume: Option<&SoundnessCheckpoint<V, Vec<V>>>,
    ) -> (Outcome, Vec<String>) {
        let mut docs = Vec::new();
        let outcome = check_soundness_checkpointed(
            mech,
            policy,
            &Grid::hypercube(2, 0..=9),
            false,
            &EvalConfig::with_threads(threads).seq_threshold(0),
            ctl,
            7,
            16,
            resume,
            &mut |c| {
                docs.push(c.to_json(&PlainCodec).render());
                Ok(())
            },
        );
        (outcome, docs)
    }

    #[test]
    fn checkpoints_do_not_depend_on_the_partition() {
        let classes = Allow::new(2, [1]);
        let views = {
            let p = classes.clone();
            crate::policy::FnPolicy::new(2, move |a: &[V]| p.filter(a))
        };
        let decode = |doc: &str| {
            SoundnessCheckpoint::from_json(&PlainCodec, &crate::json::parse(doc).expect("parses"))
                .expect("decodes")
        };
        for mech in [leak_free(), leaky()] {
            for t in 1..=8 {
                let uncut = CancelToken::new();
                let (view_report, view_docs) = sweep_docs(&mech, &views, t, &uncut, None);
                let (class_report, class_docs) = sweep_docs(&mech, &classes, t, &uncut, None);
                assert_eq!(view_report, class_report, "threads {t}");
                assert_eq!(view_docs, class_docs, "threads {t}");

                // Cut inside the third block: the second checkpoint (frontier
                // 32) is the last one written, under either partition.
                let cut = CancelToken::new().with_index_limit(45);
                let (_, cut_views) = sweep_docs(&mech, &views, t, &cut, None);
                let (_, cut_classes) = sweep_docs(&mech, &classes, t, &cut, None);
                assert_eq!(cut_views, cut_classes, "threads {t}");
                assert_eq!(cut_views, view_docs[..2], "threads {t}");
                let at = decode(&cut_views[1]);
                let (resumed, docs) = sweep_docs(&mech, &classes, t, &uncut, Some(&at));
                assert_eq!(resumed, view_report, "view cut, class resume, threads {t}");
                assert_eq!(docs, view_docs[2..], "threads {t}");
                let at = decode(&cut_classes[1]);
                let (resumed, docs) = sweep_docs(&mech, &views, t, &uncut, Some(&at));
                assert_eq!(resumed, view_report, "class cut, view resume, threads {t}");
                assert_eq!(docs, view_docs[2..], "threads {t}");
            }
        }
    }

    #[test]
    fn resume_refuses_rows_past_the_frontier_or_repeated() {
        let g = Grid::hypercube(2, 0..=3);
        let bad = |classes| SoundnessCheckpoint {
            fingerprint: soundness_fingerprint(g.len(), 2, false, 7),
            total: g.len(),
            next_index: 4,
            classes,
        };
        for ckpt in [
            bad(vec![(vec![0], 9, vec![0, 9], MechOutput::Value(0))]),
            bad(vec![
                (vec![0], 0, vec![0, 0], MechOutput::Value(0)),
                (vec![0], 1, vec![0, 1], MechOutput::Value(0)),
            ]),
        ] {
            let err = check_soundness_checkpointed(
                &leak_free(),
                &Allow::new(2, [1]),
                &g,
                false,
                &EvalConfig::with_threads(1),
                &CancelToken::new(),
                7,
                4,
                Some(&ckpt),
                &mut |_| Ok(()),
            )
            .expect_err("corrupt checkpoint");
            assert!(matches!(err, EnfError::Checkpoint { .. }), "{err}");
        }
    }

    #[test]
    fn resume_with_wrong_fingerprint_is_rejected() {
        let g = Grid::hypercube(2, 0..=3);
        let p = Allow::new(2, [1]);
        let m = leak_free();
        let ckpt = SoundnessCheckpoint {
            fingerprint: 1,
            total: g.len(),
            next_index: 4,
            classes: Vec::new(),
        };
        let err = check_soundness_checkpointed(
            &m,
            &p,
            &g,
            false,
            &EvalConfig::with_threads(1),
            &CancelToken::new(),
            7,
            4,
            Some(&ckpt),
            &mut |_| Ok(()),
        )
        .expect_err("fingerprint mismatch");
        assert!(matches!(err, EnfError::Checkpoint { .. }));
    }

    #[test]
    fn concurrent_writers_of_one_path_never_collide() {
        let dir = std::env::temp_dir().join(format!("enf_core_atomic_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("job.ckpt");
        let doc = |writer: usize, k: usize| {
            Json::Obj(vec![
                ("writer".to_string(), Json::Int(writer as i128)),
                ("k".to_string(), Json::Int(k as i128)),
            ])
        };
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for writer in 0..2 {
                let (path, start) = (&path, &start);
                s.spawn(move || {
                    start.wait();
                    for k in 0..500 {
                        write_checkpoint_file(path, &doc(writer, k)).expect("every write lands");
                    }
                });
            }
        });
        let last = read_checkpoint_file(&path).expect("a whole document");
        assert!((0..2).any(|w| last == doc(w, 499)), "{}", last.render());
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .expect("list scratch dir")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(entries, vec![std::ffi::OsString::from("job.ckpt")]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
