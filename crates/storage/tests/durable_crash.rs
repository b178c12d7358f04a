//! Crash-consistency suite for the durable chunk store.
//!
//! `FaultPlan::pin_site(site, nth)` makes the nth governor check of a
//! durable fault site fail *hard* (one attempt, no retry) — the
//! process-model equivalent of SIGKILL at that exact write step. A
//! commit checks [`FaultSite::DurableChunkWrite`] before every column
//! extent it appends to every replica's segment, once all extents are
//! written but none synced, and once the segments and the directory are
//! synced but no manifest names them; the manifest's `write_atomic`
//! checks [`FaultSite::ManifestWrite`] before its temp write and before
//! the committing rename. Sweeping `nth` upward kills the checkpoint at
//! every distinct on-disk state it can leave behind — a partial
//! segment, unsynced segments, durable orphan segments, a stray
//! manifest `.tmp`, a complete but unrenamed one — and after every kill
//! `Table::open` must recover the *previous* checkpoint
//! byte-identically.
//!
//! Exercised sites: [`FaultSite::DurableChunkWrite`],
//! [`FaultSite::ManifestWrite`], [`FaultSite::ManifestRead`],
//! [`FaultSite::DurableChunkRead`] (xtask lint rule 8 requires each
//! durable variant by name here). The fault-driven tests and the
//! on-disk corruption tests run in every build.

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
fn sweep_kill_points(site: FaultSite, tag: &str) -> u32 {
    use x100_storage::{FaultPlan, FaultState};
    let dir = scratch(tag);
    let opts = DurableOptions::default();
    let mut t1 = sample_table(0);
    t1.checkpoint_durable(&dir, &opts).expect("seed checkpoint");
    let base = snapshot(&Table::open(&dir).expect("seed open"));
    let committed = t1.durable_source().expect("durable").version();

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
                assert_eq!(rec.durable_source().expect("durable").version(), committed);
                // Every attempt so far left its segments behind (or at
                // least created them), and each new attempt outnumbers
                // them all: no version is reused.
                let orphans = segment_versions(&dir);
                assert_eq!(
                    orphans.iter().max(),
                    Some(&(committed + u64::from(kills))),
                    "kill at {site} #{nth}: {orphans:?}"
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
                let version = rec.durable_source().expect("durable").version();
                assert_eq!(version, committed + u64::from(kills) + 1);
                // The commit pruned every orphan and the old version.
                assert_committed_shape(&dir, version, opts.replicas);
                let _ = std::fs::remove_dir_all(&dir);
                return kills;
            }
        }
    }
    panic!("checkpoint never succeeded while sweeping {site}");
}

/// Versions of the segments in `dir`, from their names.
fn segment_versions(dir: &std::path::Path) -> Vec<u64> {
    let names = std::fs::read_dir(dir).expect("dir").flatten();
    let names = names.filter_map(|e| e.file_name().into_string().ok());
    let versions = names.filter_map(|n| {
        let v = n.strip_prefix("seg-v")?.split_once("-r")?.0.to_owned();
        v.parse().ok()
    });
    versions.collect()
}

/// A committed directory holds exactly `replicas` segments of `version`
/// plus its one manifest.
fn assert_committed_shape(dir: &std::path::Path, version: u64, replicas: u32) {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("dir")
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    names.sort();
    let mut want: Vec<String> = (0..replicas)
        .map(|r| format!("seg-v{version:010}-r{r}.seg"))
        .collect();
    want.insert(0, format!("manifest-{version:010}.xman"));
    assert_eq!(names, want);
}

#[test]
fn a_committed_directory_is_one_segment_per_replica_and_a_manifest() {
    let dir = scratch("shape");
    for replicas in [1u32, 2, 3] {
        let mut t = sample_table(i64::from(replicas));
        t.checkpoint_durable(&dir, &DurableOptions::default().with_replicas(replicas))
            .expect("checkpoint");
        let version = t.durable_source().expect("durable").version();
        assert_committed_shape(&dir, version, replicas);
        let rec = Table::open(&dir).expect("open");
        assert_eq!(snapshot(&rec), snapshot(&t));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_at_every_chunk_write_point_recovers_previous_checkpoint() {
    // One kill per column extent per replica (a partial segment), one
    // with every extent written but none synced, one with the segments
    // durable but no manifest naming them.
    let kills = sweep_kill_points(FaultSite::DurableChunkWrite, "chunkwrite");
    let (columns, replicas) = (3, DurableOptions::default().replicas);
    assert_eq!(kills, columns * replicas + 2);
}

#[test]
fn kill_at_every_manifest_write_point_recovers_previous_checkpoint() {
    // Before the manifest's temp write, and before its rename.
    let kills = sweep_kill_points(FaultSite::ManifestWrite, "manifestwrite");
    assert_eq!(kills, 2);
}

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

/// Flip one byte in the middle of column `col`'s extent of replica 0.
fn corrupt_extent(t: &Table, col: usize, mask: u8) {
    let (path, offset, len) = t
        .durable_source()
        .expect("durable")
        .extent(col, 0)
        .expect("extent");
    let mut bytes = std::fs::read(&path).expect("segment");
    bytes[(offset + len / 2) as usize] ^= mask;
    std::fs::write(&path, &bytes).expect("corrupt extent");
}

/// Column `col`'s extent of replica `r`, as bytes on disk.
fn extent_bytes(t: &Table, col: usize, r: u32) -> Vec<u8> {
    let (path, offset, len) = t
        .durable_source()
        .expect("durable")
        .extent(col, r)
        .expect("extent");
    let bytes = std::fs::read(path).expect("segment");
    bytes[offset as usize..(offset + len) as usize].to_vec()
}

#[test]
fn corrupt_replica_heals_in_place_on_open() {
    let dir = scratch("heal");
    let mut t = sample_table(5);
    t.checkpoint_durable(&dir, &DurableOptions::default())
        .expect("checkpoint");
    let base = snapshot(&t);
    let clean: Vec<Vec<u8>> = (0..t.num_columns())
        .map(|c| extent_bytes(&t, c, 0))
        .collect();
    let (seg0, _, _) = t
        .durable_source()
        .expect("durable")
        .extent(0, 0)
        .expect("extent");
    let size = std::fs::metadata(&seg0).expect("segment").len();

    corrupt_extent(&t, 0, 0x5a);
    assert_ne!(extent_bytes(&t, 0, 0), clean[0]);

    let rec = Table::open(&dir).expect("open with one bad replica");
    assert_eq!(snapshot(&rec), base, "healed open must be byte-identical");
    assert_eq!(rec.durable_source().expect("durable").heals(), 1);

    // The bad extent was rewritten in place from the good copy, every
    // other extent is untouched, and the segment kept its size …
    assert_eq!(extent_bytes(&rec, 0, 0), extent_bytes(&rec, 0, 1));
    for (c, want) in clean.iter().enumerate() {
        assert_eq!(&extent_bytes(&rec, c, 0), want, "extent {c}");
    }
    assert_eq!(std::fs::metadata(&seg0).expect("segment").len(), size);
    // … so the next open needs no heal at all.
    let again = Table::open(&dir).expect("reopen");
    assert_eq!(again.durable_source().expect("durable").heals(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_lost_segment_is_rebuilt_extent_by_extent_on_open() {
    let dir = scratch("lost");
    let mut t = sample_table(9);
    t.checkpoint_durable(&dir, &DurableOptions::default())
        .expect("checkpoint");
    let ds = t.durable_source().expect("durable");
    let (seg0, _, _) = ds.extent(0, 0).expect("extent");
    let (seg1, _, _) = ds.extent(0, 1).expect("extent");
    std::fs::remove_file(&seg0).expect("lose replica 0");

    let rec = Table::open(&dir).expect("open from replica 1");
    assert_eq!(snapshot(&rec), snapshot(&t));
    assert_eq!(rec.durable_source().expect("durable").heals(), 3);
    assert_eq!(std::fs::read(&seg0).ok(), std::fs::read(&seg1).ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn all_replicas_bad_is_a_typed_io_error() {
    let dir = scratch("allbad");
    let mut t = sample_table(6);
    t.checkpoint_durable(&dir, &DurableOptions::default().with_replicas(1))
        .expect("checkpoint");
    let others: Vec<Vec<u8>> = [0, 2].iter().map(|&c| extent_bytes(&t, c, 0)).collect();
    corrupt_extent(&t, 1, 0xff);

    let err = Table::open(&dir).expect_err("no good copy left");
    assert!(
        matches!(err, DurableError::Io { site, .. } if site == FaultSite::DurableChunkRead),
        "wrong error: {err}"
    );
    // Nothing to heal from: the other extents are untouched.
    for (c, want) in [0, 2].iter().zip(&others) {
        assert_eq!(&extent_bytes(&t, *c, 0), want, "extent {c}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

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
