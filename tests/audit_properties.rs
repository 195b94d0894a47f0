//! Property tests for the audit trail: determinism across thread counts
//! and tamper-evidence under torn writes.
//!
//! (a) The audit records an enforcement run appends are *byte-identical*
//!     for every `EvalConfig` thread count 1–8 — the trail contains only
//!     engine verdicts, never scheduling accidents.
//! (b) Chaos torn-append: truncating a valid trail at *any* byte offset
//!     never yields a verifier-accepted log unless the truncation lands
//!     exactly on a record boundary — a kill mid-append is always either
//!     invisible (the record never made it) or detected.
//! (c) The same cuts on disk: `AuditLog::resume` cuts the torn tail back
//!     to the whole-record prefix and continues a chain that verifies,
//!     while an edit inside the whole records is still refused.

use enf_flowchart::generate::{random_flowchart, GenConfig};
use enforcement::policy::Discipline;
use enforcement::prelude::*;
use proptest::prelude::*;

/// A file private to one property (properties run on parallel threads).
fn scratch_file(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("enf-audit-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(format!("{name}.jsonl"))
}

/// Length of the whole-record prefix of `bytes`: up to its last newline.
fn whole_records(bytes: &[u8]) -> usize {
    bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)
}

fn policy_from_mask(mask: u8) -> IndexSet {
    let mut set = IndexSet::empty();
    if mask & 1 != 0 {
        set.insert(1);
    }
    if mask & 2 != 0 {
        set.insert(2);
    }
    set
}

fn discipline_from(tag: u8) -> Discipline {
    match tag % 3 {
        0 => Discipline::Surveillance,
        1 => Discipline::Timed,
        _ => Discipline::HighWater,
    }
}

/// Runs a surveil + sweep through the typed pipeline and returns the
/// rendered audit trail.
fn enforcement_trail(seed: u64, mask: u8, disc: u8, threads: usize) -> String {
    let fc = random_flowchart(seed, &GenConfig::default());
    let allow = policy_from_mask(mask);
    let mut log = AuditLog::in_memory();
    let enforcer = Enforcer::new(fc, allow)
        .expect("valid policy")
        .with_discipline(discipline_from(disc));
    let cap = Capability::issue("stdout", &mut log).expect("issue capability");
    if let RunVerdict::Released(v) = enforcer
        .surveil(Tainted::new(vec![1, -1]), &mut log)
        .expect("arity matches")
    {
        let _ = Sink::new(cap, &mut log).release(v).expect("release");
    }
    let eval = EvalConfig::with_threads(threads).seq_threshold(0);
    let outcome = enforcer
        .sweep(1, &eval, &CancelToken::new(), &mut log)
        .expect("sweep runs");
    let _ = outcome.verdict();
    log.render()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (a) Thread-count determinism: the trail for 1 worker is the trail
    /// for t workers, byte for byte, across programs, policies and
    /// disciplines.
    #[test]
    fn audit_trail_is_identical_for_threads_1_to_8(
        seed in 0u64..2000,
        mask in 0u8..4,
        disc in 0u8..3,
        threads in 2usize..=8,
    ) {
        let base = enforcement_trail(seed, mask, disc, 1);
        let trail = enforcement_trail(seed, mask, disc, threads);
        prop_assert_eq!(&base, &trail, "threads={} diverged", threads);
        prop_assert!(verify_chain(&base).is_intact());
    }

    /// (b) Torn-append chaos: for every byte offset, the truncated trail
    /// is accepted by the verifier iff it is a whole-record prefix.
    #[test]
    fn torn_appends_never_verify(seed in 0u64..2000, mask in 0u8..4, disc in 0u8..3) {
        let trail = enforcement_trail(seed, mask, disc, 1);
        prop_assert!(trail.len() > 2, "trail unexpectedly empty");
        let boundaries: Vec<usize> = std::iter::once(0)
            .chain(trail.char_indices().filter(|(_, c)| *c == '\n').map(|(i, _)| i + 1))
            .collect();
        for cut in 0..=trail.len() {
            let torn = &trail[..cut];
            let accepted = verify_chain(torn).is_intact();
            let whole_records = boundaries.contains(&cut);
            prop_assert_eq!(
                accepted,
                whole_records,
                "cut at byte {} of {}: accepted={} but whole-record prefix={}",
                cut,
                trail.len(),
                accepted,
                whole_records
            );
        }
    }

    /// (c) File-backed resume after a torn append: at every byte cut,
    /// resume holds exactly the whole-record prefix, cuts the file back to
    /// it, and one more record leaves a trail that verifies.
    #[test]
    fn resume_cuts_any_torn_tail_to_the_whole_record_prefix(
        seed in 0u64..2000,
        mask in 0u8..4,
        disc in 0u8..3,
    ) {
        let trail = enforcement_trail(seed, mask, disc, 1);
        let path = scratch_file("torn-resume");
        for cut in 0..=trail.len() {
            let torn = &trail.as_bytes()[..cut];
            let whole = &torn[..whole_records(torn)];
            std::fs::write(&path, torn).expect("write torn trail");
            let resumed = AuditLog::resume(&path, FlushPolicy::EveryRecord);
            prop_assert!(resumed.is_ok(), "cut at byte {}: {:?}", cut, resumed.err());
            let mut log = resumed.expect("checked above");
            prop_assert_eq!(log.render(), String::from_utf8_lossy(whole), "cut at byte {}", cut);
            prop_assert_eq!(std::fs::read(&path).expect("read"), whole, "cut at byte {}", cut);
            log.note("after the cut").expect("append");
            let text = std::fs::read_to_string(&path).expect("read");
            prop_assert!(verify_chain(&text).is_intact(), "cut at byte {}", cut);
            prop_assert_eq!(&text, &log.render());
        }
        let _ = std::fs::remove_file(&path);
    }

    /// (c) Only the torn tail is forgiven: flipping a byte inside the
    /// whole records (any but their final newline) is refused, and the
    /// refused file is left as it was.
    #[test]
    fn resume_refuses_an_edit_before_the_torn_tail(
        seed in 0u64..2000,
        mask in 0u8..4,
        disc in 0u8..3,
        cut in 0usize..1 << 16,
        at in 0usize..1 << 16,
    ) {
        let trail = enforcement_trail(seed, mask, disc, 1);
        let mut torn = trail.as_bytes()[..=cut % trail.len()].to_vec();
        let whole = whole_records(&torn);
        if whole < 2 {
            return Ok(());
        }
        torn[at % (whole - 1)] ^= 0x20;
        let path = scratch_file("edited-resume");
        std::fs::write(&path, &torn).expect("write edited trail");
        let resumed = AuditLog::resume(&path, FlushPolicy::EveryRecord);
        prop_assert!(resumed.is_err(), "edit at byte {} of a {}-byte cut resumed", at % (whole - 1), torn.len());
        drop(resumed);
        prop_assert_eq!(std::fs::read(&path).expect("read"), torn);
        let _ = std::fs::remove_file(&path);
    }
}
