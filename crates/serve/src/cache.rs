//! Content-addressed verdict cache and idempotent job tracking.
//!
//! Two small, load-bearing maps:
//!
//! * [`VerdictCache`] — decisive sweep verdicts keyed by their key
//!   material, a [`VerdictKey`]: (op, program text, policy, span, fuel).
//!   The map compares keys in full, never a fingerprint of them, so a
//!   cache hit is always sound because the key covers every input the
//!   sweep depends on; a miss merely recomputes. Eviction at capacity is
//!   deliberately crude (drop an arbitrary entry): correctness never
//!   depends on what the cache remembers.
//! * [`JobTable`] — the idempotency ledger. A job key is claimed before a
//!   request is queued; a retry of a *running* job gets a retryable
//!   `in_progress` frame instead of a second execution, and a retry of a
//!   *completed* job replays the recorded reply byte-for-byte.

use crate::protocol::{Op, Request};
use enf_core::{IndexSet, Json};
use std::collections::HashMap;
use std::sync::Mutex;

use crate::tenant::lock;

/// Everything a decisive sweep verdict depends on.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct VerdictKey {
    /// `check` or `refute`: the two sweep different mechanisms.
    pub op: Op,
    /// The program text.
    pub program: String,
    /// The `allow` policy.
    pub allow: IndexSet,
    /// The sweep half-width.
    pub span: i64,
    /// The fuel bound in force.
    pub fuel: u64,
}

impl VerdictKey {
    /// The key of `req` swept under `fuel`.
    pub fn of(req: &Request, fuel: u64) -> VerdictKey {
        VerdictKey {
            op: req.op,
            program: req.program.clone(),
            allow: req.allow,
            span: req.span,
            fuel,
        }
    }
}

/// Decisive verdicts by their key material.
pub struct VerdictCache {
    map: Mutex<HashMap<VerdictKey, Json>>,
    capacity: usize,
}

impl VerdictCache {
    /// A cache holding at most `capacity` verdicts (0 disables caching).
    pub fn new(capacity: usize) -> VerdictCache {
        VerdictCache {
            map: Mutex::new(HashMap::new()),
            capacity,
        }
    }

    /// The cached verdict document for `key`, if any.
    pub fn lookup(&self, key: &VerdictKey) -> Option<Json> {
        lock(&self.map).get(key).cloned()
    }

    /// Records a decisive verdict. At capacity an arbitrary entry is
    /// evicted first — recomputation is always sound.
    pub fn insert(&self, key: VerdictKey, verdict: Json) {
        if self.capacity == 0 {
            return;
        }
        let mut map = lock(&self.map);
        if map.len() >= self.capacity && !map.contains_key(&key) {
            if let Some(evict) = map.keys().next().cloned() {
                map.remove(&evict);
            }
        }
        map.insert(key, verdict);
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        lock(&self.map).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What a job-key claim found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobClaim {
    /// The key is new; the caller now owns it and must complete or abort.
    Fresh,
    /// The key is currently executing; retry later for its result.
    Running,
    /// The key already completed with this recorded reply.
    Done(Json),
}

enum JobState {
    Running,
    Done(Json),
}

/// The idempotency ledger: `(tenant, job-key) → state`.
pub struct JobTable {
    map: Mutex<HashMap<(String, String), JobState>>,
}

impl JobTable {
    /// An empty ledger.
    pub fn new() -> JobTable {
        JobTable {
            map: Mutex::new(HashMap::new()),
        }
    }

    /// Claims `key` for `tenant`. Exactly one caller ever sees
    /// [`JobClaim::Fresh`] for a given key while it is outstanding.
    pub fn claim(&self, tenant: &str, key: &str) -> JobClaim {
        let mut map = lock(&self.map);
        match map.get(&(tenant.to_string(), key.to_string())) {
            Some(JobState::Running) => JobClaim::Running,
            Some(JobState::Done(reply)) => JobClaim::Done(reply.clone()),
            None => {
                map.insert((tenant.to_string(), key.to_string()), JobState::Running);
                JobClaim::Fresh
            }
        }
    }

    /// Records the final reply for a claimed key. Future claims replay it.
    pub fn complete(&self, tenant: &str, key: &str, reply: Json) {
        lock(&self.map).insert((tenant.to_string(), key.to_string()), JobState::Done(reply));
    }

    /// Abandons a claimed key (shed after claim, or worker death). The key
    /// becomes claimable again so a retry can re-run the job.
    pub fn abort(&self, tenant: &str, key: &str) {
        let mut map = lock(&self.map);
        if matches!(
            map.get(&(tenant.to_string(), key.to_string())),
            Some(JobState::Running)
        ) {
            map.remove(&(tenant.to_string(), key.to_string()));
        }
    }
}

impl Default for JobTable {
    fn default() -> Self {
        JobTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(span: i64) -> VerdictKey {
        VerdictKey {
            op: Op::Check,
            program: "program(1) { y := x1; }".to_string(),
            allow: IndexSet::full(1),
            span,
            fuel: 100,
        }
    }

    #[test]
    fn cache_hits_after_insert_and_respects_capacity() {
        let cache = VerdictCache::new(2);
        assert_eq!(cache.lookup(&key(1)), None);
        cache.insert(key(1), Json::Int(10));
        cache.insert(key(2), Json::Int(20));
        cache.insert(key(3), Json::Int(30));
        assert_eq!(cache.len(), 2, "eviction holds the bound");
        assert_eq!(
            cache.lookup(&key(3)),
            Some(Json::Int(30)),
            "newest survives"
        );
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = VerdictCache::new(0);
        cache.insert(key(1), Json::Int(10));
        assert!(cache.is_empty());
    }

    #[test]
    fn job_claims_are_exclusive_then_replayed() {
        let jobs = JobTable::new();
        assert_eq!(jobs.claim("t", "k"), JobClaim::Fresh);
        assert_eq!(jobs.claim("t", "k"), JobClaim::Running);
        jobs.complete("t", "k", Json::Int(7));
        assert_eq!(jobs.claim("t", "k"), JobClaim::Done(Json::Int(7)));
        // A different tenant's identical key is a different job.
        assert_eq!(jobs.claim("u", "k"), JobClaim::Fresh);
    }

    #[test]
    fn aborted_claims_become_claimable_again() {
        let jobs = JobTable::new();
        assert_eq!(jobs.claim("t", "k"), JobClaim::Fresh);
        jobs.abort("t", "k");
        assert_eq!(jobs.claim("t", "k"), JobClaim::Fresh);
        // Abort after completion must not erase the recorded reply.
        jobs.complete("t", "k", Json::Int(1));
        jobs.abort("t", "k");
        assert_eq!(jobs.claim("t", "k"), JobClaim::Done(Json::Int(1)));
    }
}
