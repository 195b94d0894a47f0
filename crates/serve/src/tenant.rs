//! Per-tenant namespaces: audit trail, capability, quota.
//!
//! Every tenant the server has ever seen owns a [`Tenant`] record holding
//! its hash-chained [`AuditLog`] (file-backed when the server has a state
//! directory, in-memory otherwise), a lazily-issued release [`Capability`],
//! and an in-flight counter for admission control. Tenants are isolated by
//! construction: there is exactly one log per tenant, records from
//! different tenants never interleave, and `enforce audit verify` can be
//! run on any single tenant's trail.
//!
//! The capability is issued *lazily* — on the first release the tenant
//! actually performs — because issuance itself appends a grant record to
//! the trail. A tenant that only ever runs `check` jobs therefore has a
//! trail containing only its decisive sweep verdicts, which is what makes
//! crash-recovery audit-exact (see [`crate::server`]).

use enf_policy::{AuditLog, Capability, FlushPolicy, PolicyError};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

/// One tenant's private state. Held behind a mutex so a tenant's jobs
/// serialize against its audit trail (the chain is strictly ordered).
pub struct Tenant {
    /// The tenant's hash-chained audit trail.
    pub log: AuditLog,
    /// The tenant's release capability, once first needed. `None` until a
    /// job actually releases a value.
    pub cap: Option<Capability>,
    /// Jobs currently admitted (waiting or running) for this tenant.
    pub inflight: usize,
}

impl Tenant {
    /// The tenant's release capability, issuing (and audit-recording) it
    /// on first use.
    pub fn take_capability(&mut self, channel: &str) -> Result<Capability, PolicyError> {
        match self.cap.take() {
            Some(cap) => Ok(cap),
            None => Capability::issue(channel, &mut self.log).map_err(PolicyError::Engine),
        }
    }
}

/// The server's tenant registry.
///
/// Namespaces are created on first contact. With a state directory, each
/// tenant gets `state/<name>/audit.log` (resumed across restarts, flushed
/// every record) and a private checkpoint directory; without one,
/// everything is in-memory and dies with the process.
pub struct TenantStore {
    state_dir: Option<PathBuf>,
    tenants: Mutex<HashMap<String, Arc<Mutex<Tenant>>>>,
    quota: usize,
}

impl TenantStore {
    /// Creates a registry. `quota` bounds each tenant's in-flight jobs.
    pub fn new(state_dir: Option<PathBuf>, quota: usize) -> TenantStore {
        TenantStore {
            state_dir,
            tenants: Mutex::new(HashMap::new()),
            quota,
        }
    }

    /// The directory holding this tenant's durable state, if any.
    pub fn tenant_dir(&self, name: &str) -> Option<PathBuf> {
        self.state_dir.as_ref().map(|d| d.join(name))
    }

    /// The checkpoint path for a job of this tenant, if state is durable.
    pub fn checkpoint_path(&self, name: &str, salt: u64) -> Option<PathBuf> {
        self.tenant_dir(name)
            .map(|d| d.join(format!("job-{salt:016x}.ckpt")))
    }

    fn open_log(&self, name: &str) -> Result<AuditLog, PolicyError> {
        let Some(dir) = self.tenant_dir(name) else {
            return Ok(AuditLog::in_memory());
        };
        std::fs::create_dir_all(&dir).map_err(|e| {
            PolicyError::Usage(format!("cannot create tenant dir {}: {e}", dir.display()))
        })?;
        let path = dir.join("audit.log");
        if path.exists() {
            AuditLog::resume(&path, FlushPolicy::EveryRecord).map_err(PolicyError::Engine)
        } else {
            AuditLog::create(&path, FlushPolicy::EveryRecord).map_err(PolicyError::Engine)
        }
    }

    /// The tenant's handle, creating (or resuming) the namespace on first
    /// contact.
    pub fn get(&self, name: &str) -> Result<Arc<Mutex<Tenant>>, PolicyError> {
        let mut map = lock(&self.tenants);
        if let Some(t) = map.get(name) {
            return Ok(Arc::clone(t));
        }
        let log = self.open_log(name)?;
        let t = Arc::new(Mutex::new(Tenant {
            log,
            cap: None,
            inflight: 0,
        }));
        map.insert(name.to_string(), Arc::clone(&t));
        Ok(t)
    }

    /// Attempts to admit one more job for `name`. `false` means the tenant
    /// is at quota and the request must be shed.
    pub fn try_admit(&self, name: &str) -> Result<bool, PolicyError> {
        let t = self.get(name)?;
        let mut t = lock(&t);
        if t.inflight >= self.quota {
            return Ok(false);
        }
        t.inflight += 1;
        Ok(true)
    }

    /// Releases one admitted slot for `name` (job finished or shed later
    /// in the pipeline).
    pub fn release(&self, name: &str) {
        if let Ok(t) = self.get(name) {
            let mut t = lock(&t);
            t.inflight = t.inflight.saturating_sub(1);
        }
    }

    /// Names of every tenant seen so far (sorted, for deterministic
    /// reporting).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = lock(&self.tenants).keys().cloned().collect();
        names.sort();
        names
    }
}

/// Locks a mutex, recovering from poisoning. A job that panics while it
/// holds a lock is already quarantined by `catch_unwind`; abandoning the
/// whole namespace over it would turn one bad job into a tenant-wide
/// outage.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_memory_tenants_are_isolated() {
        let store = TenantStore::new(None, 2);
        let a = store.get("alpha").unwrap();
        let b = store.get("beta").unwrap();
        lock(&a).log.note("alpha-only").unwrap();
        assert_eq!(lock(&a).log.len(), 1);
        assert_eq!(lock(&b).log.len(), 0);
        assert_eq!(store.names(), vec!["alpha".to_string(), "beta".to_string()]);
    }

    #[test]
    fn quota_sheds_at_bound_and_recovers() {
        let store = TenantStore::new(None, 2);
        assert!(store.try_admit("t").unwrap());
        assert!(store.try_admit("t").unwrap());
        assert!(!store.try_admit("t").unwrap());
        // Another tenant has its own budget.
        assert!(store.try_admit("u").unwrap());
        store.release("t");
        assert!(store.try_admit("t").unwrap());
    }

    #[test]
    fn file_backed_log_resumes_across_store_instances() {
        let dir = std::env::temp_dir().join(format!("enf-serve-tenant-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = TenantStore::new(Some(dir.clone()), 1);
            let t = store.get("acme").unwrap();
            lock(&t).log.note("first life").unwrap();
        }
        {
            let store = TenantStore::new(Some(dir.clone()), 1);
            let t = store.get("acme").unwrap();
            let mut g = lock(&t);
            assert_eq!(g.log.len(), 1);
            g.log.note("second life").unwrap();
            assert!(enf_policy::verify_chain(&g.log.render()).is_intact());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn capability_is_issued_once_and_recycled() {
        let store = TenantStore::new(None, 1);
        let t = store.get("acme").unwrap();
        let mut g = lock(&t);
        let cap = g.take_capability("serve:acme").unwrap();
        assert_eq!(g.log.len(), 1, "issuance is audit-recorded");
        g.cap = Some(cap);
        let _again = g.take_capability("serve:acme").unwrap();
        assert_eq!(g.log.len(), 1, "recycled capability is not re-issued");
    }
}
