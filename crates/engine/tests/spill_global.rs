//! Shared spill root: startup garbage collection of dead processes'
//! leftover dirs.

use x100_engine::{gc_stale_spill_dirs, spill_root};

#[test]
fn gc_reclaims_dead_process_dirs_and_spares_live_ones() {
    let root = spill_root();
    // A dir a SIGKILLed process would have left behind: pid far above
    // any default pid_max, so it cannot belong to a live process.
    let dead = root.join("q-4000000-0");
    std::fs::create_dir_all(&dead).expect("dead dir");
    std::fs::write(dead.join("run-0.xspr"), b"orphan").expect("orphan file");
    // Our own pid: must survive even though the epoch is arbitrary.
    let own = root.join(format!("q-{}-9999", std::process::id()));
    std::fs::create_dir_all(&own).expect("own dir");
    // A name the parser rejects: left alone, never deleted.
    let junk = root.join("not-a-spill-dir");
    std::fs::create_dir_all(&junk).expect("junk dir");

    let removed = gc_stale_spill_dirs();
    assert!(removed >= 1, "dead dir not collected");
    assert!(!dead.exists(), "dead process dir survived GC");
    assert!(own.exists(), "GC deleted a live process's dir");
    assert!(junk.exists(), "GC deleted an unparseable dir");

    let _ = std::fs::remove_dir_all(own);
    let _ = std::fs::remove_dir_all(junk);
}
