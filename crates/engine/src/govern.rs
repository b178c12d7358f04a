//! Per-query resource governor: memory budgets, cancellation,
//! deadlines, and fault-injection state.
//!
//! One [`QueryContext`] is created per `execute()` call and shared
//! (`Arc`) by every operator the plan binds — including all morsel
//! workers of a parallel run. It provides:
//!
//! * **Memory accounting** — stateful operators (hash-join build,
//!   aggregation hash tables, Order/TopN buffers) register a
//!   [`MemTracker`] and grow their charge as their footprint grows.
//!   Exceeding [`QueryContext::mem_budget`] aborts the query with a
//!   typed [`PlanError::ResourceExhausted`] instead of OOM-ing, and
//!   cancels sibling workers.
//! * **Cancellation & deadlines** — vectorized operators call
//!   [`QueryContext::check`] once per vector; the check is a couple of
//!   atomic loads, amortized over ~1k tuples (the same trick that makes
//!   vectorized interpretation cheap makes governance cheap).
//!   [`CancelToken`] lets a caller kill a query from another thread.
//! * **Fault injection** — carries the per-query
//!   [`x100_storage::FaultState`] consulted by chunk reads, plus a
//!   deliberate panic probe used to exercise worker-panic containment.
//!
//! Counters are published into the profiler at the end of execution:
//! `gov_mem_peak`, `gov_cancel_checks`, `io_retries`,
//! `io_faults_injected`.

// Under `--cfg loom` the governor's atomics are the loom shim's, so the
// model in `tests/loom_govern.rs` exercises this exact code with
// schedule points injected at every atomic operation.
#[cfg(loom)]
use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use x100_storage::{FaultPlan, FaultState};

use crate::compile::PlanError;
use crate::profile::Profiler;

/// The one bounded-backoff retry loop every `FaultSite` shares — chunk
/// reads, spill IO, checkpoint writes, and the durable store's
/// manifest/chunk-file steps all retry through this helper (it lives in
/// the storage crate; re-exported here because the governor owns the
/// retry policy).
pub use x100_storage::retry_with_backoff;

/// A cloneable cancellation token: cancel a running query from any
/// thread. Cloning shares the underlying flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untriggered token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trigger cancellation: the query errors with
    /// [`PlanError::Cancelled`] at its next per-vector check.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether the token has been triggered.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Shared per-query execution context (see module docs).
#[derive(Debug)]
pub struct QueryContext {
    mem_budget: Option<usize>,
    mem_used: AtomicUsize,
    mem_peak: AtomicUsize,
    /// Disk budget for spill runs; `None` disables spilling entirely
    /// (budget overflow then aborts as before the spill subsystem).
    spill_budget: Option<usize>,
    spill_used: AtomicUsize,
    spill_peak: AtomicUsize,
    /// Lazily created spill-run registry + temp-dir owner: no file or
    /// directory is touched until the first operator actually spills.
    spill: std::sync::Mutex<Option<Arc<crate::spill::SpillManager>>>,
    deadline: Option<Instant>,
    cancel: CancelToken,
    cancel_checks: AtomicU64,
    fault: Option<FaultState>,
    panic_probe: Option<u64>,
    panic_fired: AtomicBool,
    /// The checked plan tree a caller hands from `check_plan` to
    /// `Plan::bind_governed` ([`crate::check::PlanFacts`]), set once.
    /// `bind_governed` instantiates it only if it was checked for the
    /// plan, catalog state and options it is asked to bind; otherwise
    /// (or when unset) it runs the check itself.
    plan_facts: std::sync::OnceLock<crate::check::PlanFacts>,
}

impl QueryContext {
    /// Build a context from the governor knobs. `timeout` is converted
    /// to an absolute deadline now, i.e. at query start.
    pub fn new(
        mem_budget: Option<usize>,
        spill_budget: Option<usize>,
        timeout: Option<Duration>,
        cancel: Option<CancelToken>,
        fault_plan: Option<FaultPlan>,
        panic_probe: Option<u64>,
    ) -> Self {
        QueryContext {
            mem_budget,
            mem_used: AtomicUsize::new(0),
            mem_peak: AtomicUsize::new(0),
            spill_budget,
            spill_used: AtomicUsize::new(0),
            spill_peak: AtomicUsize::new(0),
            spill: std::sync::Mutex::new(None),
            deadline: timeout.map(|t| Instant::now() + t),
            cancel: cancel.unwrap_or_default(),
            cancel_checks: AtomicU64::new(0),
            fault: fault_plan.map(FaultState::new),
            panic_probe,
            panic_fired: AtomicBool::new(false),
            plan_facts: std::sync::OnceLock::new(),
        }
    }

    /// Attach the checked plan tree (first caller wins; later calls are
    /// ignored).
    pub fn provide_plan_facts(&self, facts: crate::check::PlanFacts) {
        let _ = self.plan_facts.set(facts);
    }

    /// The checked plan tree attached by
    /// [`QueryContext::provide_plan_facts`], if any.
    pub fn plan_facts(&self) -> Option<&crate::check::PlanFacts> {
        self.plan_facts.get()
    }

    /// A context with no budget, no deadline, and no faults — used by
    /// direct `Plan::bind` callers that drive operators by hand.
    pub fn unbounded() -> Arc<Self> {
        Arc::new(Self::new(None, None, None, None, None, None))
    }

    /// The query's memory budget in bytes, if any.
    pub fn mem_budget(&self) -> Option<usize> {
        self.mem_budget
    }

    /// The query's spill (disk) budget in bytes, if any. `Some` is what
    /// arms graceful degradation: operators whose [`MemTracker`] probe
    /// fails spill runs to disk instead of aborting.
    pub fn spill_budget(&self) -> Option<usize> {
        self.spill_budget
    }

    /// High-water mark of spilled disk bytes.
    pub fn spill_peak(&self) -> usize {
        self.spill_peak.load(Ordering::Relaxed)
    }

    /// The query-wide spill manager, creating its temp directory on
    /// first use. Errors are typed as spill-write I/O failures.
    pub fn spill_manager(&self) -> Result<Arc<crate::spill::SpillManager>, PlanError> {
        let mut guard = self.spill.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(m) = guard.as_ref() {
            return Ok(Arc::clone(m));
        }
        let m = Arc::new(crate::spill::SpillManager::create()?);
        *guard = Some(Arc::clone(&m));
        Ok(m)
    }

    /// The spill manager if any operator has spilled yet.
    pub fn spill_manager_if_created(&self) -> Option<Arc<crate::spill::SpillManager>> {
        self.spill
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(Arc::clone)
    }

    /// Charge `bytes` of spilled disk space. Overflowing the spill
    /// budget is the end of graceful degradation: *both* budgets are
    /// gone, so the query cancels and aborts with
    /// [`PlanError::ResourceExhausted`] like a memory overflow.
    pub fn charge_spill(&self, operator: &str, bytes: usize) -> Result<(), PlanError> {
        let total = self.spill_used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.spill_peak.fetch_max(total, Ordering::Relaxed);
        if let Some(budget) = self.spill_budget {
            if total > budget {
                self.spill_used.fetch_sub(bytes, Ordering::Relaxed);
                self.cancel.cancel();
                return Err(PlanError::ResourceExhausted {
                    operator: format!("{operator} (spill budget)"),
                    requested: total,
                    budget,
                });
            }
        }
        Ok(())
    }

    /// Return spilled bytes to the disk budget (run files deleted).
    pub fn release_spill(&self, bytes: usize) {
        self.spill_used.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// High-water mark of governed memory, in bytes.
    pub fn mem_peak(&self) -> usize {
        self.mem_peak.load(Ordering::Relaxed)
    }

    /// Per-query fault-injection state for chunk reads, if configured.
    pub fn fault_state(&self) -> Option<&FaultState> {
        self.fault.as_ref()
    }

    /// Cancel the query (also used internally: the first fatal error
    /// cancels so sibling morsel workers unwind at their next check).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// The cancellation/deadline checkpoint, called once per vector.
    /// Cost when idle: one atomic increment + one atomic load (the
    /// deadline clock is only read when a deadline exists).
    pub fn check(&self) -> Result<(), PlanError> {
        let checks = self.cancel_checks.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(n) = self.panic_probe {
            if checks > n && !self.panic_fired.swap(true, Ordering::SeqCst) {
                panic!("deliberate panic probe (ExecOptions::with_panic_probe)");
            }
        }
        if self.cancel.is_cancelled() {
            return Err(PlanError::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                self.cancel.cancel();
                return Err(PlanError::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Charge `bytes` against the budget; on overflow the charge is
    /// rolled back, siblings are cancelled, and a typed error returns.
    fn charge(&self, operator: &str, bytes: usize) -> Result<(), PlanError> {
        let total = self.mem_used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.mem_peak.fetch_max(total, Ordering::Relaxed);
        if let Some(budget) = self.mem_budget {
            if total > budget {
                self.mem_used.fetch_sub(bytes, Ordering::Relaxed);
                self.cancel.cancel();
                return Err(PlanError::ResourceExhausted {
                    operator: operator.to_string(),
                    requested: total,
                    budget,
                });
            }
        }
        Ok(())
    }

    /// Probe variant of [`QueryContext::charge`]: a would-overflow is
    /// rolled back and reported as `false` *without* cancelling the
    /// query — the caller degrades (spills to disk) instead of dying.
    fn try_charge(&self, bytes: usize) -> bool {
        let total = self.mem_used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.mem_peak.fetch_max(total, Ordering::Relaxed);
        if let Some(budget) = self.mem_budget {
            if total > budget {
                self.mem_used.fetch_sub(bytes, Ordering::Relaxed);
                return false;
            }
        }
        true
    }

    fn release(&self, bytes: usize) {
        self.mem_used.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Fold the governor counters into a profiler (end of execution).
    pub fn publish(&self, prof: &mut Profiler) {
        prof.max_counter("gov_mem_peak", self.mem_peak() as u64);
        prof.add_counter(
            "gov_cancel_checks",
            self.cancel_checks.load(Ordering::Relaxed),
        );
        if let Some(f) = &self.fault {
            prof.add_counter("io_retries", f.retries());
            prof.add_counter("io_faults_injected", f.injected());
        }
        if let Some(m) = self.spill_manager_if_created() {
            m.publish(prof);
            prof.max_counter("gov_spill_peak", self.spill_peak() as u64);
        }
    }
}

/// Best-effort human-readable cause of a caught worker panic.
pub(crate) fn panic_cause(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// One operator's handle on the query's memory budget. The operator
/// calls [`MemTracker::ensure`] with its current total footprint as it
/// grows; the tracker charges only the delta and releases everything
/// when dropped (or explicitly on `reset`).
#[derive(Debug)]
pub struct MemTracker {
    ctx: Arc<QueryContext>,
    operator: &'static str,
    charged: usize,
}

impl MemTracker {
    /// A tracker charging as `operator` against `ctx`.
    pub fn new(ctx: Arc<QueryContext>, operator: &'static str) -> Self {
        MemTracker {
            ctx,
            operator,
            charged: 0,
        }
    }

    /// Grow the charge to `total` bytes. No-op if already at or above.
    pub fn ensure(&mut self, total: usize) -> Result<(), PlanError> {
        if total > self.charged {
            self.ctx.charge(self.operator, total - self.charged)?;
            self.charged = total;
        }
        Ok(())
    }

    /// Probe-grow to `total` bytes: like [`MemTracker::ensure`], except
    /// a budget overflow rolls the delta back and returns `false`
    /// instead of cancelling the query — the spill paths use this to
    /// detect pressure and degrade, so a probe must never kill the
    /// query the way a hard [`MemTracker::ensure`] overflow does.
    pub fn try_ensure(&mut self, total: usize) -> bool {
        if total <= self.charged {
            return true;
        }
        if self.ctx.try_charge(total - self.charged) {
            self.charged = total;
            true
        } else {
            false
        }
    }

    /// The context this tracker charges against.
    pub fn context(&self) -> &Arc<QueryContext> {
        &self.ctx
    }

    /// Bytes currently charged by this tracker.
    pub fn charged(&self) -> usize {
        self.charged
    }

    /// Leave the charge on the query for the rest of its life: for state
    /// that outlives the operator that built it (a buffer cached in the
    /// checked tree, which the context itself may own).
    pub(crate) fn keep_for_query(mut self) {
        self.charged = 0;
    }

    /// Return the full charge to the budget (e.g. on operator reset).
    pub fn release_all(&mut self) {
        self.ctx.release(self.charged);
        self.charged = 0;
    }
}

impl Drop for MemTracker {
    fn drop(&mut self) {
        self.ctx.release(self.charged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_overflow_is_typed_and_rolled_back() {
        let ctx = Arc::new(QueryContext::new(Some(100), None, None, None, None, None));
        let mut t = MemTracker::new(ctx.clone(), "test-op");
        assert!(t.ensure(60).is_ok());
        let err = t.ensure(160).unwrap_err();
        match err {
            PlanError::ResourceExhausted {
                requested, budget, ..
            } => {
                assert_eq!(requested, 160);
                assert_eq!(budget, 100);
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        // Rolled back: the successful 60 is still charged, peak saw 160.
        assert_eq!(t.charged(), 60);
        assert_eq!(ctx.mem_peak(), 160);
        // A budget error cancels the query for sibling workers.
        assert_eq!(ctx.check(), Err(PlanError::Cancelled));
    }

    #[test]
    fn tracker_drop_releases_charge() {
        let ctx = Arc::new(QueryContext::new(Some(100), None, None, None, None, None));
        {
            let mut t = MemTracker::new(ctx.clone(), "a");
            t.ensure(90).unwrap();
        }
        let mut t2 = MemTracker::new(ctx, "b");
        assert!(t2.ensure(90).is_ok(), "charge was released on drop");
    }

    #[test]
    fn cancel_token_trips_check() {
        let tok = CancelToken::new();
        let ctx = QueryContext::new(None, None, None, Some(tok.clone()), None, None);
        assert!(ctx.check().is_ok());
        tok.cancel();
        assert_eq!(ctx.check(), Err(PlanError::Cancelled));
    }

    #[test]
    fn expired_deadline_trips_check() {
        let ctx = QueryContext::new(None, None, Some(Duration::ZERO), None, None, None);
        assert_eq!(ctx.check(), Err(PlanError::DeadlineExceeded));
        // Deadline expiry cancels, so later checks see Cancelled.
        assert_eq!(ctx.check(), Err(PlanError::Cancelled));
    }

    #[test]
    fn check_counts_are_published() {
        let ctx = QueryContext::new(None, None, None, None, None, None);
        for _ in 0..5 {
            ctx.check().unwrap();
        }
        let mut prof = Profiler::new(true);
        ctx.publish(&mut prof);
        assert_eq!(prof.counter("gov_cancel_checks"), Some(5));
    }
}
