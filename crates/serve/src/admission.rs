//! Admission control: bounded in-flight work per server and per tenant.
//!
//! The server executes statements on connection threads, so without a
//! bound an overload turns into unbounded concurrency and collapsing
//! tail latency. [`Admission`] keeps three caps:
//!
//! * a **global in-flight cap** — statements executing concurrently
//!   across all connections;
//! * a **per-tenant in-flight cap** — one tenant cannot occupy the whole
//!   global budget;
//! * a **per-tenant ASYNC quota** — outstanding (non-terminal) scheduled
//!   queries a tenant may hold, so a tenant cannot park unbounded work
//!   in the scheduler and starve the fair-share pool.
//!
//! A request over any cap is **shed**: the server answers
//! `SHED RETRY AFTER <seconds>` and does no work. The retry hint grows
//! with how far over cap the server is, clamped to `1..=30` seconds.
//! Accept/shed counters per tenant feed the `admission` diagnostics
//! block.

use mlss_core::estimator::Diagnostics;
use mlss_core::scheduler::QueryId;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Admission caps. `0` never admits (useful in tests); pick generous
/// defaults via [`AdmissionConfig::default`].
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Statements executing concurrently across all connections.
    pub global_inflight_cap: usize,
    /// Statements executing concurrently for one tenant.
    pub tenant_inflight_cap: usize,
    /// Outstanding (non-terminal) ASYNC queries one tenant may hold.
    pub tenant_async_quota: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            global_inflight_cap: 64,
            tenant_inflight_cap: 16,
            tenant_async_quota: 8,
        }
    }
}

#[derive(Default)]
struct TenantAdm {
    inflight: usize,
    accepted: u64,
    shed: u64,
    asyncs: Vec<QueryId>,
}

#[derive(Default)]
struct State {
    inflight: usize,
    accepted: u64,
    shed: u64,
    tenants: BTreeMap<String, TenantAdm>,
}

/// The shared admission ledger (one per [`crate::Server`]).
pub struct Admission {
    cfg: AdmissionConfig,
    state: Mutex<State>,
}

/// Outcome of an admission check.
pub enum Decision {
    /// Admitted; drop the ticket when the statement finishes.
    Admit(Ticket),
    /// Shed; the client should retry after the hinted seconds.
    Shed {
        /// Suggested client back-off in seconds (`1..=30`).
        retry_after: u64,
    },
}

/// RAII in-flight slot: releases the global and tenant counters on drop.
pub struct Ticket {
    admission: Arc<Admission>,
    tenant: String,
}

impl Drop for Ticket {
    fn drop(&mut self) {
        let mut st = self.admission.lock();
        st.inflight = st.inflight.saturating_sub(1);
        if let Some(t) = st.tenants.get_mut(&self.tenant) {
            t.inflight = t.inflight.saturating_sub(1);
        }
    }
}

impl Admission {
    /// New ledger under `cfg`.
    pub fn new(cfg: AdmissionConfig) -> Arc<Self> {
        Arc::new(Self {
            cfg,
            state: Mutex::new(State::default()),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admit or shed one statement for `tenant`. `is_async` (a parsed
    /// ASYNC `ESTIMATE` or `RANK BY` statement) requests an ASYNC-quota
    /// slot too; `is_terminal` reports whether an outstanding query id
    /// has reached a terminal state (quota slots are reclaimed lazily
    /// here, so no completion callback is needed).
    pub fn admit(
        self: &Arc<Self>,
        tenant: &str,
        is_async: bool,
        is_terminal: impl Fn(QueryId) -> bool,
    ) -> Decision {
        let mut st = self.lock();
        let global_inflight = st.inflight;
        let t = st.tenants.entry(tenant.to_string()).or_default();
        if is_async {
            t.asyncs.retain(|id| !is_terminal(*id));
        }
        let over_global = global_inflight >= self.cfg.global_inflight_cap;
        let over_tenant = t.inflight >= self.cfg.tenant_inflight_cap;
        let over_quota = is_async && t.asyncs.len() >= self.cfg.tenant_async_quota;
        if over_global || over_tenant || over_quota {
            t.shed += 1;
            // Back off harder the further over cap the server is; quota
            // sheds hint longer since scheduled queries take a while.
            let overshoot = if over_global {
                global_inflight.saturating_sub(self.cfg.global_inflight_cap) / 8
            } else if over_quota {
                1
            } else {
                0
            };
            st.shed += 1;
            return Decision::Shed {
                retry_after: (1 + overshoot as u64).clamp(1, 30),
            };
        }
        t.inflight += 1;
        t.accepted += 1;
        st.inflight += 1;
        st.accepted += 1;
        Decision::Admit(Ticket {
            admission: Arc::clone(self),
            tenant: tenant.to_string(),
        })
    }

    /// Register an outstanding ASYNC query id against its tenant's
    /// quota (called after a successful ASYNC submission).
    pub fn note_async(&self, tenant: &str, id: QueryId) {
        let mut st = self.lock();
        st.tenants
            .entry(tenant.to_string())
            .or_default()
            .asyncs
            .push(id);
    }

    /// Total statements shed so far (all causes, all tenants).
    pub fn shed_total(&self) -> u64 {
        self.lock().shed
    }

    /// The `admission` diagnostics block: global in-flight/accept/shed
    /// plus per-tenant counters.
    pub fn diagnostics(&self) -> Diagnostics {
        let st = self.lock();
        let mut details = vec![
            ("global.inflight".to_string(), st.inflight as f64),
            ("global.accepted".to_string(), st.accepted as f64),
            ("global.shed".to_string(), st.shed as f64),
        ];
        for (name, t) in &st.tenants {
            details.push((format!("{name}.inflight"), t.inflight as f64));
            details.push((format!("{name}.accepted"), t.accepted as f64));
            details.push((format!("{name}.shed"), t.shed as f64));
            details.push((format!("{name}.async_outstanding"), t.asyncs.len() as f64));
        }
        Diagnostics {
            estimator: "admission",
            skip_events: 0,
            details,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(g: usize, t: usize, q: usize) -> AdmissionConfig {
        AdmissionConfig {
            global_inflight_cap: g,
            tenant_inflight_cap: t,
            tenant_async_quota: q,
        }
    }

    #[test]
    fn global_cap_sheds_and_tickets_release() {
        let adm = Admission::new(cfg(2, 2, 8));
        let a = adm.admit("a", false, |_| true);
        let b = adm.admit("b", false, |_| true);
        let (Decision::Admit(ta), Decision::Admit(tb)) = (a, b) else {
            panic!("under cap must admit");
        };
        match adm.admit("c", false, |_| true) {
            Decision::Shed { retry_after } => assert!((1..=30).contains(&retry_after)),
            Decision::Admit(_) => panic!("over global cap must shed"),
        }
        drop(ta);
        drop(tb);
        assert!(matches!(
            adm.admit("c", false, |_| true),
            Decision::Admit(_)
        ));
        assert_eq!(adm.shed_total(), 1);
    }

    #[test]
    fn tenant_cap_isolates_tenants() {
        let adm = Admission::new(cfg(16, 1, 8));
        let Decision::Admit(_ta) = adm.admit("a", false, |_| true) else {
            panic!("first admit");
        };
        assert!(matches!(
            adm.admit("a", false, |_| true),
            Decision::Shed { .. }
        ));
        // A different tenant is unaffected.
        assert!(matches!(
            adm.admit("b", false, |_| true),
            Decision::Admit(_)
        ));
    }

    #[test]
    fn async_quota_reclaims_terminal_ids() {
        let adm = Admission::new(cfg(16, 16, 1));
        let Decision::Admit(t) = adm.admit("a", true, |_| false) else {
            panic!("quota free");
        };
        drop(t);
        adm.note_async("a", 7);
        // Outstanding id 7 not terminal: quota full.
        assert!(matches!(
            adm.admit("a", true, |_| false),
            Decision::Shed { .. }
        ));
        // Sync statements don't consume the quota.
        assert!(matches!(
            adm.admit("a", false, |_| false),
            Decision::Admit(_)
        ));
        // Once 7 is terminal the slot is reclaimed lazily.
        assert!(matches!(
            adm.admit("a", true, |id| id == 7),
            Decision::Admit(_)
        ));
    }

    #[test]
    fn diagnostics_report_per_tenant_counters() {
        let adm = Admission::new(cfg(1, 1, 1));
        let Decision::Admit(t) = adm.admit("a", false, |_| true) else {
            panic!()
        };
        assert!(matches!(
            adm.admit("b", false, |_| true),
            Decision::Shed { .. }
        ));
        drop(t);
        let d = adm.diagnostics();
        assert_eq!(d.estimator, "admission");
        let get = |k: &str| d.details.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(get("global.accepted"), Some(1.0));
        assert_eq!(get("global.shed"), Some(1.0));
        assert_eq!(get("a.accepted"), Some(1.0));
        assert_eq!(get("b.shed"), Some(1.0));
    }
}
