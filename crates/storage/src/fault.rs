//! Fault injection for the storage access paths.
//!
//! A [`FaultPlan`] describes storage accesses that should fail: a
//! uniform probability per attempt for each [`FaultSite`], hard
//! kill-points (the `nth` check of a site fails with no retry — the
//! crash-consistency suite walks every durable write step through
//! them), and torn writes (a durable checkpoint's freshly encoded chunk
//! gets one payload byte flipped before it is verified). A failed
//! attempt retries with exponential backoff up to
//! [`FaultPlan::max_retries`] times ([`retry_with_backoff`]) and
//! surfaces a typed [`StorageFaultError`] only once retries are
//! exhausted. Mutable injection state ([`FaultState`]: RNG position,
//! torn writes left, retry counters) is per *query*, so concurrent
//! queries don't consume each other's faults. Every site tests the
//! query's `Option<FaultState>` at run time; a query without a plan
//! carries `None` and draws nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Which storage access path a fault targets. Each site fails
/// independently (different code paths, different recovery
/// characteristics), with its own rate knob on [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Insert-delta reads appended after the fragments during a scan.
    DeltaRead,
    /// Enum dictionary value lookups (code → value gather).
    DictLookup,
    /// Spill-run writes: a memory-pressured operator flushing a sorted
    /// run or a partitioned aggregate table to its temp file.
    SpillWrite,
    /// Spill-run reads: re-ingesting a run during the external merge.
    SpillRead,
    /// Durable-checkpoint manifest writes (temp write, fsync, or the
    /// committing rename).
    ManifestWrite,
    /// Durable-checkpoint manifest reads during `Table::open` recovery.
    ManifestRead,
    /// Durable segment reads: loading a replica's copy of a column at
    /// open.
    DurableChunkRead,
    /// Durable segment writes: replica writes during a disk-backed
    /// checkpoint, or rewriting a bad copy while healing at open.
    DurableChunkWrite,
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSite::DeltaRead => write!(f, "delta read"),
            FaultSite::DictLookup => write!(f, "dictionary lookup"),
            FaultSite::SpillWrite => write!(f, "spill run write"),
            FaultSite::SpillRead => write!(f, "spill run read"),
            FaultSite::ManifestWrite => write!(f, "manifest write"),
            FaultSite::ManifestRead => write!(f, "manifest read"),
            FaultSite::DurableChunkRead => write!(f, "durable chunk read"),
            FaultSite::DurableChunkWrite => write!(f, "durable chunk write"),
        }
    }
}

/// A storage access that kept failing after the full retry budget (see
/// [`FaultState::check_site`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageFaultError {
    /// The access path that failed.
    pub site: FaultSite,
    /// Column the access touched.
    pub col: u32,
    /// Attempts made (1 initial + retries).
    pub attempts: u32,
}

impl std::fmt::Display for StorageFaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} failed: column {} after {} attempts",
            self.site, self.col, self.attempts
        )
    }
}

impl std::error::Error for StorageFaultError {}

/// Run `op` with bounded exponential backoff: up to `max_retries`
/// retries after the first failed attempt, sleeping
/// `backoff_base_us << min(attempt, 5)` microseconds between attempts
/// (zero base disables sleeping, for tests). `op` receives the
/// zero-based attempt number. On success returns the value together
/// with the number of retries it took; once the budget is exhausted,
/// the last error together with the total attempts made
/// (`max_retries + 1`).
///
/// This is the single retry loop behind every [`FaultSite`]:
/// probability draws ([`FaultState::check_site`]), spill-run I/O, and
/// the durable checkpoint/recovery paths all feed it their fallible
/// step. (Re-exported by the engine as `govern::retry_with_backoff`.)
pub fn retry_with_backoff<T, E>(
    max_retries: u32,
    backoff_base_us: u64,
    mut op: impl FnMut(u32) -> Result<T, E>,
) -> Result<(T, u32), (E, u32)> {
    let mut attempt: u32 = 0;
    loop {
        match op(attempt) {
            Ok(v) => return Ok((v, attempt)),
            Err(e) => {
                if attempt >= max_retries {
                    return Err((e, attempt + 1));
                }
                if backoff_base_us > 0 {
                    let shift = attempt.min(5);
                    let us = backoff_base_us << shift;
                    std::thread::sleep(std::time::Duration::from_micros(us));
                }
                attempt += 1;
            }
        }
    }
}

/// One torn write: when a durable checkpoint encodes column `col`,
/// byte `byte` of chunk `chunk`'s payload is silently flipped. Unlike
/// an erroring write, nothing fails — the corruption is only caught by
/// the per-chunk checksum the commit verifies before it writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornWrite {
    /// Column id the torn write hits.
    pub col: u32,
    /// Chunk index within the column's encoding.
    pub chunk: u32,
    /// Payload byte offset to flip.
    pub byte: u32,
}

/// Declarative description of storage faults to inject.
///
/// Carried by the engine's `ExecOptions` (query-time sites) or passed
/// to the durable paths as a [`FaultState`] (`Table::try_open`,
/// `Table::try_checkpoint_durable`).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that one delta-read attempt fails.
    pub delta_fault_rate: f64,
    /// Probability in `[0, 1]` that one dictionary-lookup attempt fails.
    pub dict_fault_rate: f64,
    /// Probability in `[0, 1]` that one spill-run write attempt fails.
    pub spill_write_fault_rate: f64,
    /// Probability in `[0, 1]` that one spill-run read attempt fails.
    pub spill_read_fault_rate: f64,
    /// Probability in `[0, 1]` that one durable-manifest write step
    /// (temp write / fsync / committing rename) fails.
    pub manifest_write_fault_rate: f64,
    /// Probability in `[0, 1]` that one durable-manifest read fails.
    pub manifest_read_fault_rate: f64,
    /// Probability in `[0, 1]` that one durable segment read fails.
    pub durable_read_fault_rate: f64,
    /// Probability in `[0, 1]` that one durable segment write step
    /// fails.
    pub durable_write_fault_rate: f64,
    /// Seed for the deterministic xorshift RNG driving the rates.
    pub seed: u64,
    /// Chunk encodings that silently corrupt one payload byte (each
    /// fires at most once; caught by checksum, not by the write path).
    pub torn_writes: Vec<TornWrite>,
    /// Hard kill-points: `(site, nth)` — the `nth` (0-based) check of
    /// `site` fails without any retry, modelling the process dying at
    /// exactly that write step. The crash-consistency suite iterates
    /// every durable write step through this.
    pub site_pins: Vec<(FaultSite, u32)>,
    /// Retry budget per access before giving up with an error.
    pub max_retries: u32,
    /// Base backoff sleep in microseconds (doubles per attempt, capped
    /// at 32×). Zero disables sleeping, for tests.
    pub backoff_base_us: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            delta_fault_rate: 0.0,
            dict_fault_rate: 0.0,
            spill_write_fault_rate: 0.0,
            spill_read_fault_rate: 0.0,
            manifest_write_fault_rate: 0.0,
            manifest_read_fault_rate: 0.0,
            durable_read_fault_rate: 0.0,
            durable_write_fault_rate: 0.0,
            seed: 0x9E37_79B9_7F4A_7C15,
            torn_writes: Vec::new(),
            site_pins: Vec::new(),
            max_retries: 6,
            backoff_base_us: 20,
        }
    }
}

impl FaultPlan {
    /// Set the probability that a delta-insert read attempt fails.
    pub fn delta_rate(mut self, rate: f64) -> Self {
        self.delta_fault_rate = rate;
        self
    }

    /// Set the probability that a dictionary-lookup attempt fails.
    pub fn dict_rate(mut self, rate: f64) -> Self {
        self.dict_fault_rate = rate;
        self
    }

    /// Set the probability that a spill-run write attempt fails.
    pub fn spill_write_rate(mut self, rate: f64) -> Self {
        self.spill_write_fault_rate = rate;
        self
    }

    /// Set the probability that a spill-run read attempt fails.
    pub fn spill_read_rate(mut self, rate: f64) -> Self {
        self.spill_read_fault_rate = rate;
        self
    }

    /// Set the probability that a durable-manifest write step fails.
    pub fn manifest_write_rate(mut self, rate: f64) -> Self {
        self.manifest_write_fault_rate = rate;
        self
    }

    /// Set the probability that a durable-manifest read fails.
    pub fn manifest_read_rate(mut self, rate: f64) -> Self {
        self.manifest_read_fault_rate = rate;
        self
    }

    /// Set the probability that a durable segment read fails.
    pub fn durable_read_rate(mut self, rate: f64) -> Self {
        self.durable_read_fault_rate = rate;
        self
    }

    /// Set the probability that a durable segment write step fails.
    pub fn durable_write_rate(mut self, rate: f64) -> Self {
        self.durable_write_fault_rate = rate;
        self
    }

    /// Set every durable-path rate (manifest read/write, segment
    /// read/write) at once — the kill-and-restart smoke runs all four
    /// sites at the same rate.
    pub fn durable_rates(self, rate: f64) -> Self {
        self.manifest_write_rate(rate)
            .manifest_read_rate(rate)
            .durable_read_rate(rate)
            .durable_write_rate(rate)
    }

    /// Add a torn write: the next durable checkpoint's encoding of
    /// column `col` silently flips payload byte `byte` of chunk `chunk`.
    pub fn tear(mut self, col: u32, chunk: u32, byte: u32) -> Self {
        self.torn_writes.push(TornWrite { col, chunk, byte });
        self
    }

    /// Pin a hard kill-point: the `nth` (0-based) check of `site` fails
    /// immediately, with no retry — modelling the process dying at that
    /// exact write step of a durable checkpoint.
    pub fn pin_site(mut self, site: FaultSite, nth: u32) -> Self {
        self.site_pins.push((site, nth));
        self
    }

    /// The failure probability of one attempt at `site`.
    fn rate(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::DeltaRead => self.delta_fault_rate,
            FaultSite::DictLookup => self.dict_fault_rate,
            FaultSite::SpillWrite => self.spill_write_fault_rate,
            FaultSite::SpillRead => self.spill_read_fault_rate,
            FaultSite::ManifestWrite => self.manifest_write_fault_rate,
            FaultSite::ManifestRead => self.manifest_read_fault_rate,
            FaultSite::DurableChunkRead => self.durable_read_fault_rate,
            FaultSite::DurableChunkWrite => self.durable_write_fault_rate,
        }
    }
}

/// Per-query mutable injection state instantiated from a [`FaultPlan`].
///
/// Thread-safe: morsel workers share one `FaultState` per query, so the
/// retry/injection counters aggregate across threads and torn writes
/// fire exactly once query-wide.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    rng: AtomicU64,
    torn_left: Mutex<Vec<TornWrite>>,
    /// Per-site check counters, consulted only when `plan.site_pins`
    /// is non-empty (the deterministic crash-consistency suite).
    site_counts: Mutex<Vec<(FaultSite, u64)>>,
    retries: AtomicU64,
    injected: AtomicU64,
}

impl FaultState {
    /// Fresh injection state for one query execution.
    pub fn new(plan: FaultPlan) -> Self {
        FaultState {
            rng: AtomicU64::new(plan.seed | 1),
            torn_left: Mutex::new(plan.torn_writes.clone()),
            site_counts: Mutex::new(Vec::new()),
            retries: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            plan,
        }
    }

    /// The plan this state was built from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Total retried attempts so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Total faults injected so far (each retry was preceded by one).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Drain the torn writes planned for column `col`: each entry fires
    /// at most once, when the durable checkpoint that encodes the
    /// column consumes it.
    pub fn take_torn(&self, col: u32) -> Vec<TornWrite> {
        let mut torn = self.torn_left.lock().unwrap_or_else(|e| e.into_inner());
        let (hit, left) = torn.drain(..).partition(|t| t.col == col);
        *torn = left;
        if !hit.is_empty() {
            self.injected.fetch_add(hit.len() as u64, Ordering::Relaxed);
        }
        hit
    }

    /// One Bernoulli draw at `rate` from the shared RNG stream:
    /// xorshift64* over an atomic word, deterministic for a given seed
    /// and total draw count, lock-free across workers.
    fn draw(&self, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let mut x = self.rng.load(Ordering::Relaxed);
        loop {
            let mut y = x;
            y ^= y << 13;
            y ^= y >> 7;
            y ^= y << 17;
            match self
                .rng
                .compare_exchange_weak(x, y, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    let unit = (y >> 11) as f64 / (1u64 << 53) as f64;
                    return unit < rate;
                }
                Err(cur) => x = cur,
            }
        }
    }

    /// Whether this check of `site` is a pinned kill-point: counts the
    /// site's checks, consulted only when the plan pins any.
    fn killed(&self, site: FaultSite) -> bool {
        if self.plan.site_pins.is_empty() {
            return false;
        }
        let n = {
            let mut counts = self.site_counts.lock().unwrap_or_else(|e| e.into_inner());
            match counts.iter_mut().find(|(s, _)| *s == site) {
                Some((_, c)) => {
                    let n = *c;
                    *c += 1;
                    n
                }
                None => {
                    counts.push((site, 1));
                    0
                }
            }
        };
        (self.plan.site_pins.iter()).any(|&(s, k)| s == site && u64::from(k) == n)
    }

    /// Consult the plan before one storage access of column `col` at
    /// `site`: injected failures retry with the plan's
    /// exponential-backoff budget and surface a typed
    /// [`StorageFaultError`] once it is exhausted; a pinned kill-point
    /// fails at once.
    pub fn check_site(&self, site: FaultSite, col: u32) -> Result<(), StorageFaultError> {
        if self.killed(site) {
            // A kill-point models the process dying, not a transient IO
            // error — no retry can help, so fail without burning the
            // backoff budget.
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(StorageFaultError {
                site,
                col,
                attempts: 1,
            });
        }
        let rate = self.plan.rate(site);
        let step = |_attempt: u32| {
            if self.draw(rate) {
                self.injected.fetch_add(1, Ordering::Relaxed);
                Err(())
            } else {
                Ok(())
            }
        };
        match retry_with_backoff(self.plan.max_retries, self.plan.backoff_base_us, step) {
            Ok(((), retries)) => {
                self.retries.fetch_add(retries as u64, Ordering::Relaxed);
                Ok(())
            }
            Err(((), attempts)) => {
                self.retries
                    .fetch_add((attempts - 1) as u64, Ordering::Relaxed);
                Err(StorageFaultError {
                    site,
                    col,
                    attempts,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(plan: FaultPlan) -> FaultState {
        FaultState::new(FaultPlan {
            backoff_base_us: 0,
            ..plan
        })
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let injected = |seed: u64| {
            let fs = quick(FaultPlan {
                seed,
                ..FaultPlan::default().dict_rate(0.2)
            });
            for c in 0..512 {
                fs.check_site(FaultSite::DictLookup, c).unwrap();
            }
            fs.injected()
        };
        assert_eq!(injected(42), injected(42), "same seed, same faults");
        assert!(injected(42) > 0, "20% over 512 lookups injects something");
    }

    #[test]
    fn exhausted_retries_surface_a_typed_error() {
        let fs = quick(FaultPlan {
            max_retries: 3,
            ..FaultPlan::default().delta_rate(1.0)
        });
        let err = fs.check_site(FaultSite::DeltaRead, 2).unwrap_err();
        let want = StorageFaultError {
            site: FaultSite::DeltaRead,
            col: 2,
            attempts: 4,
        };
        assert_eq!(err, want);
        assert_eq!((fs.injected(), fs.retries()), (4, 3));
        // Other sites draw at their own rate: zero here.
        assert!(fs.check_site(FaultSite::DictLookup, 2).is_ok());
    }

    #[test]
    fn kill_points_fail_the_nth_check_once_without_retry() {
        let fs = quick(FaultPlan::default().pin_site(FaultSite::ManifestWrite, 1));
        assert!(fs.check_site(FaultSite::ManifestWrite, 0).is_ok());
        let err = fs.check_site(FaultSite::ManifestWrite, 0).unwrap_err();
        assert_eq!(err.attempts, 1);
        assert!(fs.check_site(FaultSite::ManifestWrite, 0).is_ok());
        assert_eq!(fs.retries(), 0);
    }

    #[test]
    fn torn_writes_fire_once_per_column() {
        let fs = quick(FaultPlan::default().tear(1, 0, 3).tear(2, 1, 0));
        assert!(fs.take_torn(0).is_empty());
        assert_eq!(
            fs.take_torn(1),
            [TornWrite {
                col: 1,
                chunk: 0,
                byte: 3
            }]
        );
        assert!(fs.take_torn(1).is_empty());
        assert_eq!(fs.injected(), 1);
    }
}
