//! ColumnBM: the chunked column buffer manager (paper §4, "Disk").
//!
//! The paper's ColumnBM I/O subsystem partitions each vertical fragment
//! into large (>1 MB) chunks and streams them sequentially, because
//! I/O bandwidth — not latency — is the scarce resource for scans.
//! The real ColumnBM was "still under development" in the paper (all
//! experiments ran on in-memory BATs); we reproduce it as an in-memory
//! *simulation* that models exactly what the paper describes:
//!
//! * fixed-size chunks per column,
//! * an LRU chunk cache of bounded capacity,
//! * per-scan accounting of logical bytes requested vs chunks "read"
//!   (cache misses), so bandwidth amplification is observable.
//!
//! This preserves the paper-relevant behaviour — sequential scans touch
//! each chunk once; vertical fragmentation means unread columns cost no
//! I/O — without requiring an actual disk.
//!
//! ## Fault injection
//!
//! A [`FaultPlan`] describes chunk reads that should fail: a uniform
//! probability per read attempt, plus pinned `(col, chunk)` slots that
//! fail a fixed number of times before succeeding (deterministic
//! "transient error" scenarios). The chunk reader retries a failed read
//! up to [`FaultPlan::max_retries`] times with exponential backoff and
//! surfaces a typed [`ChunkReadError`] only once retries are exhausted.
//! Mutable injection state ([`FaultState`]: RNG position, remaining
//! pinned failures, retry counters) is per *query*, not per buffer
//! manager, so concurrent queries don't consume each other's faults.
//! The types always compile; the injection behaviour itself is gated
//! behind the `fault-inject` cargo feature so production builds carry
//! zero probability checks.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default chunk size: 1 MiB, the paper's ">1MB chunks".
pub const DEFAULT_CHUNK_BYTES: usize = 1 << 20;

/// Identifies one chunk of one column: `(column id, chunk index)`.
pub type ChunkId = (u32, u32);

/// Counters exposed by the buffer manager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BmStats {
    /// Logical bytes requested by scans.
    pub bytes_requested: u64,
    /// Chunk-granular bytes actually "read" (cache misses × chunk size).
    pub bytes_read: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses (chunk loads).
    pub misses: u64,
    /// Chunks evicted.
    pub evictions: u64,
}

/// Which storage access path a fault targets.
///
/// Chunk reads were the original injection site; delta-insert reads and
/// enum dictionary lookups fail independently (different code paths,
/// different recovery characteristics), each with its own rate knob on
/// [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Chunked column reads through the buffer manager.
    ChunkRead,
    /// Insert-delta reads appended after the fragments during a scan.
    DeltaRead,
    /// Enum dictionary value lookups (code → value gather).
    DictLookup,
    /// Compressed-chunk reads/decodes (PFOR / PFOR-DELTA expansion
    /// inside the scan).
    CompressedRead,
    /// Compressed-chunk writes during checkpoint / reorganize.
    CheckpointWrite,
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
    /// Durable chunk-file reads: loading a replica copy at open or
    /// during a mid-query heal.
    DurableChunkRead,
    /// Durable chunk-file writes: replica writes during a disk-backed
    /// checkpoint, or rewriting a bad copy while healing.
    DurableChunkWrite,
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSite::ChunkRead => write!(f, "chunk read"),
            FaultSite::DeltaRead => write!(f, "delta read"),
            FaultSite::DictLookup => write!(f, "dictionary lookup"),
            FaultSite::CompressedRead => write!(f, "compressed chunk read"),
            FaultSite::CheckpointWrite => write!(f, "checkpoint write"),
            FaultSite::SpillWrite => write!(f, "spill run write"),
            FaultSite::SpillRead => write!(f, "spill run read"),
            FaultSite::ManifestWrite => write!(f, "manifest write"),
            FaultSite::ManifestRead => write!(f, "manifest read"),
            FaultSite::DurableChunkRead => write!(f, "durable chunk read"),
            FaultSite::DurableChunkWrite => write!(f, "durable chunk write"),
        }
    }
}

/// A non-chunk storage access that kept failing after the full retry
/// budget (see [`FaultState::check_site`]).
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
/// probability draws ([`FaultState::check_site`]), pinned chunk faults
/// ([`ColumnBM::try_access`]), spill-run I/O, and the durable
/// checkpoint/recovery paths all feed it their fallible step.
/// (Re-exported by the engine as `govern::retry_with_backoff`.)
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

/// One torn write: after a checkpoint compresses column `col`, byte
/// `byte` of chunk `chunk`'s payload is silently flipped. Unlike an
/// erroring read, the write *appears* to succeed — the corruption is
/// only caught by the per-chunk checksum on the next compressed read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornWrite {
    /// Column id the torn write hits.
    pub col: u32,
    /// Chunk index within the column's compressed rewrite.
    pub chunk: u32,
    /// Payload byte offset to flip.
    pub byte: u32,
}

/// One pinned fault: reads of chunk `(col, chunk)` fail their next
/// `failures` attempts, then succeed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinnedFault {
    /// Column id the fault is pinned to.
    pub col: u32,
    /// Chunk index within the column.
    pub chunk: u32,
    /// How many read attempts fail before the chunk reads cleanly.
    pub failures: u32,
}

/// Declarative description of chunk-read faults to inject.
///
/// Carried by the engine's `ExecOptions`; consulted by
/// [`ColumnBM::try_access`] on every chunk touch. With the
/// `fault-inject` feature disabled the plan is inert.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that any single chunk-read attempt fails.
    pub fault_rate: f64,
    /// Probability in `[0, 1]` that one delta-read attempt fails.
    pub delta_fault_rate: f64,
    /// Probability in `[0, 1]` that one dictionary-lookup attempt fails.
    pub dict_fault_rate: f64,
    /// Probability in `[0, 1]` that one compressed-chunk read/decode
    /// attempt fails.
    pub compressed_fault_rate: f64,
    /// Probability in `[0, 1]` that one compressed-chunk write during
    /// checkpoint/reorganize fails.
    pub checkpoint_fault_rate: f64,
    /// Probability in `[0, 1]` that one spill-run write attempt fails.
    pub spill_write_fault_rate: f64,
    /// Probability in `[0, 1]` that one spill-run read attempt fails.
    pub spill_read_fault_rate: f64,
    /// Probability in `[0, 1]` that one durable-manifest write step
    /// (temp write / fsync / committing rename) fails.
    pub manifest_write_fault_rate: f64,
    /// Probability in `[0, 1]` that one durable-manifest read fails.
    pub manifest_read_fault_rate: f64,
    /// Probability in `[0, 1]` that one durable chunk-file read fails.
    pub durable_read_fault_rate: f64,
    /// Probability in `[0, 1]` that one durable chunk-file write step
    /// fails.
    pub durable_write_fault_rate: f64,
    /// Seed for the deterministic xorshift RNG driving the rates.
    pub seed: u64,
    /// Chunks that fail a fixed number of times before succeeding.
    pub pinned: Vec<PinnedFault>,
    /// Checkpoint writes that silently corrupt one payload byte (each
    /// fires at most once; caught by checksum, not by the write path).
    pub torn_writes: Vec<TornWrite>,
    /// Hard kill-points: `(site, nth)` — the `nth` (0-based) check of
    /// `site` fails without any retry, modelling the process dying at
    /// exactly that write step. The crash-consistency suite iterates
    /// every durable write step through this.
    pub site_pins: Vec<(FaultSite, u32)>,
    /// Retry budget per chunk read before giving up with an error.
    pub max_retries: u32,
    /// Base backoff sleep in microseconds (doubles per attempt, capped
    /// at 32×). Zero disables sleeping, for tests.
    pub backoff_base_us: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            fault_rate: 0.0,
            delta_fault_rate: 0.0,
            dict_fault_rate: 0.0,
            compressed_fault_rate: 0.0,
            checkpoint_fault_rate: 0.0,
            spill_write_fault_rate: 0.0,
            spill_read_fault_rate: 0.0,
            manifest_write_fault_rate: 0.0,
            manifest_read_fault_rate: 0.0,
            durable_read_fault_rate: 0.0,
            durable_write_fault_rate: 0.0,
            seed: 0x9E37_79B9_7F4A_7C15,
            pinned: Vec::new(),
            torn_writes: Vec::new(),
            site_pins: Vec::new(),
            max_retries: 6,
            backoff_base_us: 20,
        }
    }
}

impl FaultPlan {
    /// A plan failing a uniform fraction of chunk-read attempts.
    pub fn with_rate(fault_rate: f64, seed: u64) -> Self {
        FaultPlan {
            fault_rate,
            seed,
            ..FaultPlan::default()
        }
    }

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

    /// Set the probability that a compressed-chunk read/decode fails.
    pub fn compressed_rate(mut self, rate: f64) -> Self {
        self.compressed_fault_rate = rate;
        self
    }

    /// Set the probability that a checkpoint/reorganize chunk write fails.
    pub fn checkpoint_rate(mut self, rate: f64) -> Self {
        self.checkpoint_fault_rate = rate;
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

    /// Set the probability that a durable chunk-file read fails.
    pub fn durable_read_rate(mut self, rate: f64) -> Self {
        self.durable_read_fault_rate = rate;
        self
    }

    /// Set the probability that a durable chunk-file write step fails.
    pub fn durable_write_rate(mut self, rate: f64) -> Self {
        self.durable_write_fault_rate = rate;
        self
    }

    /// Set every durable-path rate (manifest read/write, chunk-file
    /// read/write) at once — the CI kill-and-restart smoke runs all
    /// four sites at the same rate.
    pub fn durable_rates(self, rate: f64) -> Self {
        self.manifest_write_rate(rate)
            .manifest_read_rate(rate)
            .durable_read_rate(rate)
            .durable_write_rate(rate)
    }

    /// Add a pinned fault: `(col, chunk)` fails its next `failures`
    /// read attempts, then succeeds.
    pub fn pin(mut self, col: u32, chunk: u32, failures: u32) -> Self {
        self.pinned.push(PinnedFault {
            col,
            chunk,
            failures,
        });
        self
    }

    /// Add a torn write: the next checkpoint of column `col` silently
    /// flips payload byte `byte` of compressed chunk `chunk`.
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
}

/// Per-query mutable injection state instantiated from a [`FaultPlan`].
///
/// Thread-safe: morsel workers share one `FaultState` per query, so the
/// retry/injection counters aggregate across threads and pinned-fault
/// budgets are consumed exactly once query-wide.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    rng: AtomicU64,
    pinned_left: Mutex<Vec<PinnedFault>>,
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
            pinned_left: Mutex::new(plan.pinned.clone()),
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

    /// Total retried chunk-read attempts so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Total faults injected so far (each retry was preceded by one).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Drain the torn writes planned for column `col`: each entry fires
    /// at most once, when the checkpoint that rewrites the column
    /// consumes it. Always empty without the `fault-inject` feature.
    pub fn take_torn(&self, col: u32) -> Vec<TornWrite> {
        #[cfg(not(feature = "fault-inject"))]
        {
            let _ = col;
            Vec::new()
        }
        #[cfg(feature = "fault-inject")]
        {
            let mut torn = self.torn_left.lock().unwrap_or_else(|e| e.into_inner());
            let (hit, left) = torn.drain(..).partition(|t| t.col == col);
            *torn = left;
            if !hit.is_empty() {
                self.injected.fetch_add(hit.len() as u64, Ordering::Relaxed);
            }
            hit
        }
    }

    /// Decide whether this read attempt of `(col, chunk)` fails.
    #[cfg(feature = "fault-inject")]
    fn should_fail(&self, col: u32, chunk: u32) -> bool {
        {
            let mut pins = self.pinned_left.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(p) = pins
                .iter_mut()
                .find(|p| p.col == col && p.chunk == chunk && p.failures > 0)
            {
                p.failures -= 1;
                return true;
            }
        }
        self.draw(self.plan.fault_rate)
    }

    /// One Bernoulli draw at `rate` from the shared RNG stream:
    /// xorshift64* over an atomic word, deterministic for a given seed
    /// and total draw count, lock-free across workers.
    #[cfg(feature = "fault-inject")]
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

    #[cfg(not(feature = "fault-inject"))]
    fn should_fail(&self, _col: u32, _chunk: u32) -> bool {
        // Keep the state fields "live" for builds without the feature.
        let _ = (
            &self.rng,
            &self.pinned_left,
            &self.torn_left,
            &self.site_counts,
        );
        false
    }

    /// Consult the plan before one non-chunk storage access (a delta
    /// read or a dictionary lookup of column `col`): injected failures
    /// retry with the same exponential-backoff budget as chunk reads and
    /// surface a typed [`StorageFaultError`] once it is exhausted.
    /// Inert (always `Ok`) without the `fault-inject` feature.
    pub fn check_site(&self, site: FaultSite, col: u32) -> Result<(), StorageFaultError> {
        #[cfg(not(feature = "fault-inject"))]
        {
            let _ = (site, col);
            Ok(())
        }
        #[cfg(feature = "fault-inject")]
        {
            let rate = match site {
                FaultSite::ChunkRead => self.plan.fault_rate,
                FaultSite::DeltaRead => self.plan.delta_fault_rate,
                FaultSite::DictLookup => self.plan.dict_fault_rate,
                FaultSite::CompressedRead => self.plan.compressed_fault_rate,
                FaultSite::CheckpointWrite => self.plan.checkpoint_fault_rate,
                FaultSite::SpillWrite => self.plan.spill_write_fault_rate,
                FaultSite::SpillRead => self.plan.spill_read_fault_rate,
                FaultSite::ManifestWrite => self.plan.manifest_write_fault_rate,
                FaultSite::ManifestRead => self.plan.manifest_read_fault_rate,
                FaultSite::DurableChunkRead => self.plan.durable_read_fault_rate,
                FaultSite::DurableChunkWrite => self.plan.durable_write_fault_rate,
            };
            if !self.plan.site_pins.is_empty() {
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
                if self
                    .plan
                    .site_pins
                    .iter()
                    .any(|&(s, k)| s == site && u64::from(k) == n)
                {
                    // A kill-point models the process dying, not a
                    // transient IO error — no retry can help, so fail
                    // without burning the backoff budget.
                    self.injected.fetch_add(1, Ordering::Relaxed);
                    return Err(StorageFaultError {
                        site,
                        col,
                        attempts: 1,
                    });
                }
            }
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
}

/// A chunk read that kept failing after the full retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkReadError {
    /// Column whose chunk failed.
    pub col: u32,
    /// Chunk index within the column.
    pub chunk: u32,
    /// Read attempts made (1 initial + retries).
    pub attempts: u32,
}

impl std::fmt::Display for ChunkReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "chunk read failed: column {} chunk {} after {} attempts",
            self.col, self.chunk, self.attempts
        )
    }
}

impl std::error::Error for ChunkReadError {}

/// The simulated buffer manager. Thread-safe; shared by reference.
#[derive(Debug)]
pub struct ColumnBM {
    chunk_bytes: usize,
    capacity_chunks: usize,
    state: Mutex<BmState>,
}

#[derive(Debug, Default)]
struct BmState {
    /// LRU queue of resident chunks (front = least recently used).
    lru: VecDeque<ChunkId>,
    stats: BmStats,
}

impl ColumnBM {
    /// A buffer manager with `capacity_chunks` resident chunks of
    /// [`DEFAULT_CHUNK_BYTES`] each.
    pub fn new(capacity_chunks: usize) -> Self {
        Self::with_chunk_bytes(capacity_chunks, DEFAULT_CHUNK_BYTES)
    }

    /// A buffer manager with custom chunk size (tests use small chunks).
    pub fn with_chunk_bytes(capacity_chunks: usize, chunk_bytes: usize) -> Self {
        assert!(capacity_chunks > 0 && chunk_bytes > 0);
        ColumnBM {
            chunk_bytes,
            capacity_chunks,
            state: Mutex::new(BmState::default()),
        }
    }

    /// Chunk size in bytes.
    pub fn chunk_bytes(&self) -> usize {
        self.chunk_bytes
    }

    /// Record a scan touching `[offset, offset+len)` bytes of column
    /// `col`. Faults in the covering chunks through the LRU cache.
    /// Infallible: no fault plan is consulted.
    pub fn access(&self, col: u32, offset: u64, len: u64) {
        let ok = self.try_access(col, offset, len, None);
        debug_assert!(ok.is_ok(), "access without a fault plan cannot fail");
    }

    /// Fallible variant of [`ColumnBM::access`]: each covering chunk is
    /// read under `fault` (if any), retrying failed attempts with
    /// exponential backoff up to the plan's retry budget. Returns the
    /// first chunk whose retries were exhausted.
    pub fn try_access(
        &self,
        col: u32,
        offset: u64,
        len: u64,
        fault: Option<&FaultState>,
    ) -> Result<(), ChunkReadError> {
        if len == 0 {
            return Ok(());
        }
        let first = (offset / self.chunk_bytes as u64) as u32;
        let last = ((offset + len - 1) / self.chunk_bytes as u64) as u32;
        {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            st.stats.bytes_requested += len;
        }
        for chunk in first..=last {
            self.read_chunk_retrying(col, chunk, fault)?;
        }
        Ok(())
    }

    /// Attempt one chunk read, retrying injected failures. The LRU is
    /// only touched once the read succeeds; backoff sleeps happen
    /// outside the state lock.
    fn read_chunk_retrying(
        &self,
        col: u32,
        chunk: u32,
        fault: Option<&FaultState>,
    ) -> Result<(), ChunkReadError> {
        let Some(f) = fault else {
            self.touch_chunk((col, chunk));
            return Ok(());
        };
        let step = |_attempt: u32| {
            if f.should_fail(col, chunk) {
                f.injected.fetch_add(1, Ordering::Relaxed);
                Err(())
            } else {
                Ok(())
            }
        };
        match retry_with_backoff(f.plan.max_retries, f.plan.backoff_base_us, step) {
            Ok(((), retries)) => {
                f.retries.fetch_add(retries as u64, Ordering::Relaxed);
                self.touch_chunk((col, chunk));
                Ok(())
            }
            Err(((), attempts)) => {
                f.retries
                    .fetch_add((attempts - 1) as u64, Ordering::Relaxed);
                Err(ChunkReadError {
                    col,
                    chunk,
                    attempts,
                })
            }
        }
    }

    /// Pull one chunk through the LRU cache, updating the counters.
    fn touch_chunk(&self, id: ChunkId) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(pos) = st.lru.iter().position(|&c| c == id) {
            st.lru.remove(pos);
            st.lru.push_back(id);
            st.stats.hits += 1;
        } else {
            st.stats.misses += 1;
            st.stats.bytes_read += self.chunk_bytes as u64;
            if st.lru.len() == self.capacity_chunks {
                st.lru.pop_front();
                st.stats.evictions += 1;
            }
            st.lru.push_back(id);
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> BmStats {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).stats
    }

    /// Number of chunks currently resident.
    pub fn resident_chunks(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .lru
            .len()
    }

    /// Reset counters and drop all resident chunks.
    pub fn reset(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.lru.clear();
        st.stats = BmStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_scan_reads_each_chunk_once() {
        let bm = ColumnBM::with_chunk_bytes(16, 1024);
        // Scan 8 KiB in 1 KiB steps: 8 chunks, each missed exactly once.
        for i in 0..8u64 {
            bm.access(0, i * 1024, 1024);
        }
        let s = bm.stats();
        assert_eq!(s.misses, 8);
        assert_eq!(s.hits, 0);
        assert_eq!(s.bytes_read, 8 * 1024);
        assert_eq!(s.bytes_requested, 8 * 1024);
        // Rescan: all hits now.
        for i in 0..8u64 {
            bm.access(0, i * 1024, 1024);
        }
        let s = bm.stats();
        assert_eq!(s.misses, 8);
        assert_eq!(s.hits, 8);
    }

    #[test]
    fn vertical_fragmentation_saves_io() {
        // Touching only 2 of 16 columns costs only those columns' chunks.
        let bm = ColumnBM::with_chunk_bytes(64, 1024);
        bm.access(3, 0, 4096);
        bm.access(7, 0, 4096);
        assert_eq!(bm.stats().misses, 8);
        assert_eq!(bm.resident_chunks(), 8);
    }

    #[test]
    fn lru_eviction_under_pressure() {
        let bm = ColumnBM::with_chunk_bytes(2, 100);
        bm.access(0, 0, 100); // chunk 0
        bm.access(0, 100, 100); // chunk 1
        bm.access(0, 200, 100); // chunk 2 evicts chunk 0
        let s = bm.stats();
        assert_eq!(s.evictions, 1);
        bm.access(0, 0, 100); // chunk 0 is a miss again
        assert_eq!(bm.stats().misses, 4);
    }

    #[test]
    fn sub_vector_requests_amplify_to_chunk_reads() {
        // Reading 8 bytes still faults a whole 1 KiB chunk: bandwidth
        // amplification the chunked layout trades for sequentiality.
        let bm = ColumnBM::with_chunk_bytes(4, 1024);
        bm.access(0, 512, 8);
        let s = bm.stats();
        assert_eq!(s.bytes_requested, 8);
        assert_eq!(s.bytes_read, 1024);
    }

    #[test]
    fn range_spanning_chunks() {
        let bm = ColumnBM::with_chunk_bytes(8, 1000);
        bm.access(0, 900, 200); // spans chunks 0 and 1
        assert_eq!(bm.stats().misses, 2);
        bm.access(0, 0, 0); // zero-length: no-op
        assert_eq!(bm.stats().misses, 2);
    }

    #[test]
    fn try_access_without_fault_state_is_infallible() {
        let bm = ColumnBM::with_chunk_bytes(4, 1024);
        assert!(bm.try_access(0, 0, 4096, None).is_ok());
        assert_eq!(bm.stats().misses, 4);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn pinned_fault_fails_then_succeeds_under_retry() {
        let bm = ColumnBM::with_chunk_bytes(4, 1024);
        let plan = FaultPlan {
            backoff_base_us: 0,
            ..FaultPlan::default()
        }
        .pin(0, 0, 2);
        let fs = FaultState::new(plan);
        // Two injected failures, two retries, then the read lands.
        assert!(bm.try_access(0, 0, 1024, Some(&fs)).is_ok());
        assert_eq!(fs.injected(), 2);
        assert_eq!(fs.retries(), 2);
        assert_eq!(bm.stats().misses, 1);
        // The pinned budget is consumed: the next read is clean.
        assert!(bm.try_access(0, 0, 1024, Some(&fs)).is_ok());
        assert_eq!(fs.injected(), 2);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn exhausted_retries_surface_a_typed_error() {
        let bm = ColumnBM::with_chunk_bytes(4, 1024);
        let plan = FaultPlan {
            max_retries: 3,
            backoff_base_us: 0,
            ..FaultPlan::default()
        }
        .pin(2, 1, 100);
        let fs = FaultState::new(plan);
        let err = bm.try_access(2, 1024, 512, Some(&fs)).unwrap_err();
        assert_eq!(
            err,
            ChunkReadError {
                col: 2,
                chunk: 1,
                attempts: 4
            }
        );
        // The failed chunk never entered the cache.
        assert_eq!(bm.stats().misses, 0);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn fault_rate_is_deterministic_per_seed() {
        let bm = ColumnBM::with_chunk_bytes(1024, 64);
        let draws = |seed: u64| {
            let fs = FaultState::new(FaultPlan {
                backoff_base_us: 0,
                ..FaultPlan::with_rate(0.2, seed)
            });
            for c in 0..512u64 {
                bm.try_access(0, c * 64, 64, Some(&fs)).unwrap();
            }
            fs.injected()
        };
        let a = draws(42);
        let b = draws(42);
        assert_eq!(a, b, "same seed, same injected fault count");
        assert!(a > 0, "20% rate over 512 chunk reads injects something");
    }

    #[cfg(not(feature = "fault-inject"))]
    #[test]
    fn fault_plan_is_inert_without_the_feature() {
        let bm = ColumnBM::with_chunk_bytes(4, 1024);
        let fs = FaultState::new(FaultPlan::with_rate(1.0, 7).pin(0, 0, 9));
        assert!(bm.try_access(0, 0, 4096, Some(&fs)).is_ok());
        assert_eq!(fs.injected(), 0);
    }

    #[test]
    fn reset_clears_everything() {
        let bm = ColumnBM::with_chunk_bytes(4, 1024);
        bm.access(0, 0, 4096);
        bm.reset();
        assert_eq!(bm.stats(), BmStats::default());
        assert_eq!(bm.resident_chunks(), 0);
    }
}
