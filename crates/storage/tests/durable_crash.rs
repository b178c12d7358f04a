//! Crash-consistency suite for the durable chunk store.
//!
//! `FaultPlan::pin_site(site, nth)` makes the nth governor check of a
//! durable fault site fail *hard* (one attempt, no retry) — the
//! process-model equivalent of SIGKILL at that exact write step.
//! `write_atomic` checks its site twice per file (before the temp
//! write, before the commit rename), so sweeping `nth` upward kills
//! the checkpoint at every distinct on-disk state it can leave behind:
//! partial `.tmp`, complete-but-unrenamed temp, each chunk replica,
//! and the manifest itself. After every kill, `Table::open` must
//! recover the *previous* checkpoint byte-identically.
//!
//! Exercised sites: [`FaultSite::DurableChunkWrite`],
//! [`FaultSite::ManifestWrite`], [`FaultSite::ManifestRead`],
//! [`FaultSite::DurableChunkRead`] (xtask lint rule 8 requires each
//! durable variant by name here). The fault-driven tests need
//! `cargo test --features fault-inject`; the on-disk corruption tests
//! run in every build.

use std::path::PathBuf;

use x100_storage::{encode_str, DurableError, DurableOptions, FaultSite, Table, TableBuilder};
use x100_vector::Vector;

/// Fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("x100-durable-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic sample table; `seed` perturbs every value so
/// successive checkpoints are distinguishable byte-for-byte.
fn sample_table(seed: i64) -> Table {
    let n = 4000usize;
    let ids: Vec<i64> = (0..n as i64).map(|i| i + seed).collect();
    let vals: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25 + seed as f64).collect();
    let flags: Vec<String> = (0..n)
        .map(|i| format!("F{}", (i as i64 + seed) % 7))
        .collect();
    let enc = encode_str(&flags).expect("low cardinality");
    TableBuilder::new("crash")
        .column("id", Vector::I64(ids))
        .column("val", Vector::F64(vals))
        .enum_column("flag", enc.codes, enc.dict)
        .build()
}

/// Bit-exact image of every column's physical fragment.
fn snapshot(t: &Table) -> Vec<(String, Vec<u8>)> {
    (0..t.num_columns())
        .map(|i| {
            let sc = t.column(i);
            let rows = sc.physical().len();
            let mut v = Vector::with_capacity(sc.physical_type(), rows);
            sc.physical().read_into(0, rows, &mut v);
            let bytes = match &v {
                Vector::I64(x) => x.iter().flat_map(|p| p.to_le_bytes()).collect(),
                Vector::F64(x) => x.iter().flat_map(|p| p.to_bits().to_le_bytes()).collect(),
                Vector::U8(x) => x.clone(),
                Vector::U16(x) => x.iter().flat_map(|p| p.to_le_bytes()).collect(),
                other => format!("{other:?}").into_bytes(),
            };
            (sc.field().name.clone(), bytes)
        })
        .collect()
}

/// Kill the checkpoint at the nth check of `site`, for every nth until
/// the checkpoint finally succeeds; after each kill the directory must
/// still open to the exact previous checkpoint.
#[cfg(feature = "fault-inject")]
fn sweep_kill_points(site: FaultSite, tag: &str) {
    use x100_storage::{FaultPlan, FaultState};
    let dir = scratch(tag);
    let opts = DurableOptions::default();
    let mut t1 = sample_table(0);
    t1.checkpoint_durable(&dir, &opts).expect("seed checkpoint");
    let mut base = snapshot(&Table::open(&dir).expect("seed open"));

    let mut kills = 0u32;
    for nth in 0..256u32 {
        let seed = 1 + i64::from(nth);
        let mut t2 = sample_table(seed);
        let fault = FaultState::new(FaultPlan::default().pin_site(site, nth));
        match t2.try_checkpoint_durable(&dir, &opts, Some(&fault)) {
            Err(_) => {
                assert!(fault.injected() >= 1, "pin at {site} #{nth} never fired");
                kills += 1;
                let rec = Table::open(&dir).expect("recovery after kill");
                assert_eq!(
                    snapshot(&rec),
                    base,
                    "kill at {site} #{nth} lost the previous checkpoint"
                );
                // The *next* attempt must also survive the orphan
                // files this kill left behind — `base` stays.
            }
            Ok(_) => {
                // No check left to pin: the checkpoint ran to the end.
                assert_eq!(fault.injected(), 0);
                assert!(kills >= 2, "{site}: expected several kill points");
                let rec = Table::open(&dir).expect("open after commit");
                assert_eq!(snapshot(&rec), snapshot(&t2));
                base = snapshot(&rec);
                let _ = base;
                let _ = std::fs::remove_dir_all(&dir);
                return;
            }
        }
    }
    panic!("checkpoint never succeeded while sweeping {site}");
}

#[cfg(feature = "fault-inject")]
#[test]
fn kill_at_every_chunk_write_point_recovers_previous_checkpoint() {
    sweep_kill_points(FaultSite::DurableChunkWrite, "chunkwrite");
}

#[cfg(feature = "fault-inject")]
#[test]
fn kill_at_every_manifest_write_point_recovers_previous_checkpoint() {
    sweep_kill_points(FaultSite::ManifestWrite, "manifestwrite");
}

#[cfg(feature = "fault-inject")]
#[test]
fn manifest_read_fault_is_a_hard_error() {
    use x100_storage::{FaultPlan, FaultState};
    let dir = scratch("manifestread");
    let mut t = sample_table(3);
    t.checkpoint_durable(&dir, &DurableOptions::default())
        .expect("checkpoint");
    // The site models the directory being unreadable: no fallback.
    let fault = FaultState::new(FaultPlan::default().pin_site(FaultSite::ManifestRead, 0));
    let err = Table::try_open(&dir, Some(&fault)).expect_err("pinned manifest read");
    assert!(
        matches!(err, DurableError::Io { site, .. } if site == FaultSite::ManifestRead),
        "wrong error: {err}"
    );
    // Without the pin the same directory opens fine.
    assert!(Table::open(&dir).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(feature = "fault-inject")]
#[test]
fn chunk_read_fault_fails_over_to_the_other_replica() {
    use x100_storage::{FaultPlan, FaultState};
    let dir = scratch("chunkread");
    let mut t = sample_table(4);
    t.checkpoint_durable(&dir, &DurableOptions::default())
        .expect("checkpoint");
    let base = snapshot(&t);
    // Kill the very first replica read: recovery must fall over to the
    // second copy and heal the "failed" one, not error out.
    let fault = FaultState::new(FaultPlan::default().pin_site(FaultSite::DurableChunkRead, 0));
    let rec = Table::try_open(&dir, Some(&fault)).expect("replica failover");
    assert_eq!(snapshot(&rec), base);
    assert!(rec.durable_source().expect("durable").heals() >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_replica_heals_in_place_on_open() {
    let dir = scratch("heal");
    let mut t = sample_table(5);
    t.checkpoint_durable(&dir, &DurableOptions::default())
        .expect("checkpoint");
    let base = snapshot(&t);
    let version = t.durable_source().expect("durable").version();

    // Flip one byte in the middle of column 0's first replica.
    let bad = dir.join(format!("col000-v{version:010}-r0.chunks"));
    let mut bytes = std::fs::read(&bad).expect("replica 0");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5a;
    std::fs::write(&bad, &bytes).expect("corrupt replica 0");

    let rec = Table::open(&dir).expect("open with one bad replica");
    assert_eq!(snapshot(&rec), base, "healed open must be byte-identical");
    assert_eq!(rec.durable_source().expect("durable").heals(), 1);

    // The bad copy was rewritten in place from the good one …
    let healed = std::fs::read(&bad).expect("healed replica 0");
    let good =
        std::fs::read(dir.join(format!("col000-v{version:010}-r1.chunks"))).expect("replica 1");
    assert_eq!(healed, good);
    // … so the next open needs no heal at all.
    let again = Table::open(&dir).expect("reopen");
    assert_eq!(again.durable_source().expect("durable").heals(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn all_replicas_bad_is_a_typed_io_error() {
    let dir = scratch("allbad");
    let mut t = sample_table(6);
    t.checkpoint_durable(&dir, &DurableOptions::default().with_replicas(1))
        .expect("checkpoint");
    let version = t.durable_source().expect("durable").version();
    let only = dir.join(format!("col001-v{version:010}-r0.chunks"));
    let mut bytes = std::fs::read(&only).expect("sole replica");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&only, &bytes).expect("corrupt sole replica");

    let err = Table::open(&dir).expect_err("no good copy left");
    assert!(
        matches!(err, DurableError::Io { site, .. } if site == FaultSite::DurableChunkRead),
        "wrong error: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(feature = "fault-inject")]
#[test]
fn checkpoint_under_random_durable_faults_retries_through() {
    use x100_storage::{FaultPlan, FaultState};
    // Rate-based (retryable) faults on all four durable sites: the
    // bounded-backoff retry loops must absorb a 30% failure rate
    // without surfacing an error.
    let dir = scratch("rates");
    let opts = DurableOptions::default();
    let mut plan = FaultPlan::default().durable_rates(0.3);
    plan.seed = 7;
    let fault = FaultState::new(plan);
    let mut t = sample_table(7);
    t.try_checkpoint_durable(&dir, &opts, Some(&fault))
        .expect("retries absorb rate faults");
    assert!(
        fault.injected() >= 1,
        "a 30% rate should fire at least once"
    );
    let rec = Table::try_open(&dir, Some(&fault)).expect("open under faults");
    assert_eq!(snapshot(&rec), snapshot(&t));
    let _ = std::fs::remove_dir_all(&dir);
}
