//! Fault injection at every storage site: the spill sites and the
//! durable store's sites each surface a typed error when their retry
//! budget is exhausted, and they fail independently (DESIGN.md §8).
//! Every site is real file I/O; how a query surfaces a spill fault is
//! `governor.rs`'s and `spill.rs`'s.

use x100_engine::{FaultPlan, FaultSite};
use x100_storage::FaultState;

fn certain(site_rate: fn(FaultPlan) -> FaultPlan) -> FaultPlan {
    // Rate 1.0 with no backoff: the first access of the target site
    // exhausts its retries immediately and deterministically.
    site_rate(FaultPlan {
        max_retries: 2,
        backoff_base_us: 0,
        ..FaultPlan::default()
    })
}

#[test]
fn spill_write_fault_surfaces_typed_io() {
    let fs = FaultState::new(certain(|p| p.spill_write_rate(1.0)));
    assert!(fs.check_site(FaultSite::SpillRead, 0).is_ok());
    let err = fs.check_site(FaultSite::SpillWrite, 7).unwrap_err();
    assert_eq!(err.site, FaultSite::SpillWrite);
    assert_eq!(err.col, 7);
    assert_eq!(err.attempts, 3); // 1 initial + max_retries(2)
}

#[test]
fn spill_read_fault_surfaces_typed_io() {
    let fs = FaultState::new(certain(|p| p.spill_read_rate(1.0)));
    assert!(fs.check_site(FaultSite::SpillWrite, 0).is_ok());
    let err = fs.check_site(FaultSite::SpillRead, 2).unwrap_err();
    assert_eq!(err.site, FaultSite::SpillRead);
    assert_eq!(err.col, 2);
}

#[test]
fn site_rates_are_independent() {
    let fs = FaultState::new(certain(|p| p.manifest_read_rate(1.0)));
    assert!(fs.check_site(FaultSite::DurableChunkRead, 0).is_ok());
    assert!(fs.check_site(FaultSite::SpillRead, 0).is_ok());
    assert!(fs.check_site(FaultSite::ManifestRead, 0).is_err());
    // Counters aggregated across sites: 1 error = retries + final.
    assert_eq!(fs.injected(), 3);
    assert_eq!(fs.retries(), 2);
}

#[test]
fn durable_write_sites_surface_typed_io() {
    // The durable checkpoint's two write sites are independent: chunk
    // replica writes and the committing manifest write.
    let fs = FaultState::new(certain(|p| p.durable_write_rate(1.0)));
    assert!(fs.check_site(FaultSite::ManifestWrite, 0).is_ok());
    let err = fs.check_site(FaultSite::DurableChunkWrite, 4).unwrap_err();
    assert_eq!(err.site, FaultSite::DurableChunkWrite);
    assert_eq!(err.attempts, 3); // 1 initial + max_retries(2)

    let fs = FaultState::new(certain(|p| p.manifest_write_rate(1.0)));
    assert!(fs.check_site(FaultSite::DurableChunkWrite, 0).is_ok());
    let err = fs.check_site(FaultSite::ManifestWrite, 0).unwrap_err();
    assert_eq!(err.site, FaultSite::ManifestWrite);
}

#[test]
fn durable_read_sites_surface_typed_io() {
    let fs = FaultState::new(certain(|p| p.durable_read_rate(1.0)));
    assert!(fs.check_site(FaultSite::ManifestRead, 0).is_ok());
    let err = fs.check_site(FaultSite::DurableChunkRead, 1).unwrap_err();
    assert_eq!(err.site, FaultSite::DurableChunkRead);

    let fs = FaultState::new(certain(|p| p.manifest_read_rate(1.0)));
    assert!(fs.check_site(FaultSite::DurableChunkRead, 0).is_ok());
    let err = fs.check_site(FaultSite::ManifestRead, 0).unwrap_err();
    assert_eq!(err.site, FaultSite::ManifestRead);
}

#[test]
fn pinned_site_kill_fires_once_without_retry() {
    // `pin_site` models SIGKILL, not a transient error: exactly the
    // nth check of the site fails, with a single attempt.
    let fs = FaultState::new(FaultPlan::default().pin_site(FaultSite::DurableChunkWrite, 1));
    assert!(fs.check_site(FaultSite::DurableChunkWrite, 0).is_ok()); // #0
    let err = fs.check_site(FaultSite::DurableChunkWrite, 0).unwrap_err(); // #1
    assert_eq!(err.attempts, 1);
    assert_eq!(fs.retries(), 0);
    assert!(fs.check_site(FaultSite::DurableChunkWrite, 0).is_ok()); // #2
}
