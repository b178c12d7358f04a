//! Check-walk coverage on the TPC-H corpus: the abstract
//! interpretation (`engine::facts`) must prove the fetch bounds of
//! EVERY `Fetch1Join`/`FetchNJoin` in every query — zero false
//! rejections — every query must run identically with
//! `--enforce-facts` on and the unchecked twins disabled, and the
//! checked tree must account for everything execution does: every
//! primitive a run traces was validated by the walk, and every program
//! the walk compiled is the one an operator runs.

use std::sync::Arc;
use tpch::gen::{generate, GenConfig};
use tpch::queries::{all_specs, QuerySpec};
use x100_engine::check_plan;
use x100_engine::session::{execute, Database, ExecOptions};
use x100_engine::{Plan, QueryContext};

fn corpus_plans(
    db: &x100_engine::session::Database,
    opts: &ExecOptions,
) -> Vec<(u32, &'static str, Plan)> {
    let mut out = Vec::new();
    for (q, spec) in all_specs() {
        match spec {
            QuerySpec::Single(p) => out.push((q, "", p)),
            QuerySpec::TwoPhase(tp) => {
                let (r1, _) = execute(db, &tp.phase1, opts).expect("phase1");
                let scalar = r1
                    .value(0, r1.col_index(tp.scalar_col).expect("scalar"))
                    .as_f64();
                out.push((q, " phase1", tp.phase1.clone()));
                out.push((q, " phase2", (tp.phase2)(scalar)));
            }
        }
    }
    out
}

/// Every fetch node in every TPC-H plan gets a `true` proof: the
/// analyzer must never reject a bound it could have proven (the
/// acceptance bar for dispatching the `_unchecked` twins suite-wide).
#[test]
fn fetch_bounds_proven_for_entire_corpus() {
    let data = generate(&GenConfig { sf: 0.002, seed: 3 });
    let db = tpch::build_x100_db(&data);
    let opts = ExecOptions::default();
    let mut rejected = Vec::new();
    let mut proven = 0usize;
    for (q, phase, plan) in corpus_plans(&db, &opts) {
        let facts = check_plan(&db, &plan, &opts).expect("check").facts;
        for ok in facts.fetch_proofs() {
            if ok {
                proven += 1;
            } else {
                rejected.push(format!("q{q}{phase}"));
            }
        }
    }
    assert!(proven > 20, "suspiciously few fetch proofs: {proven}");
    assert!(
        rejected.is_empty(),
        "unproven fetch bounds in: {rejected:?}"
    );
}

/// `--enforce-facts` must be a no-op on well-formed plans, and the
/// unchecked twins must not change a single output byte.
#[test]
fn corpus_byte_identical_under_enforcement_and_ablation() {
    let data = generate(&GenConfig { sf: 0.002, seed: 3 });
    let db = tpch::build_x100_db(&data);
    let baseline = ExecOptions::default().with_unchecked_fetch(false);
    let enforced = ExecOptions::default().with_enforce_facts(true).profiled();
    let mut dispatched = 0u64;
    for (q, phase, plan) in corpus_plans(&db, &baseline) {
        let (want, _) = execute(&db, &plan, &baseline).expect("checked run");
        let (got, prof) = execute(&db, &plan, &enforced).expect("enforced run");
        assert_eq!(
            want.row_strings(),
            got.row_strings(),
            "q{q}{phase}: unchecked twins changed the output"
        );
        dispatched += prof.counter("fetch_unchecked_dispatches").unwrap_or(0);
    }
    assert!(dispatched > 0, "no unchecked dispatches across the corpus");
}

/// The corpus database with every table checkpoint-compressed.
fn checkpointed(db: &Database) -> Database {
    let names: Vec<String> = db.table_names().map(str::to_owned).collect();
    let mut out = Database::new();
    for name in names {
        let mut t = (*db.table(&name).expect("listed table")).clone();
        t.checkpoint();
        out.register(t);
    }
    out
}

/// Verified ⊇ executed, table-driven over storage form and thread
/// count: every primitive signature a profiled run records (unchecked
/// gather twins, encoded-space compares, selective decodes, the AVG
/// epilogue and the merge stage's rehash included) was validated by the
/// check walk of that very plan; and, sequentially, each program the
/// walk compiled is held by exactly one instantiated operator — none is
/// compiled again, none is dead code (bare column references need no
/// holder: they have no instructions).
#[test]
fn verified_covers_executed_for_entire_corpus() {
    let data = generate(&GenConfig { sf: 0.002, seed: 3 });
    let raw = tpch::build_x100_db(&data);
    let compressed = checkpointed(&raw);
    let sequential = ExecOptions::default().profiled();
    let two_threads = sequential.clone().parallel(2).with_morsel_size(1024);
    // Per variant: signature families its runs must have traced, so the
    // containment below is known to cover them.
    for (label, db, opts, families) in [
        (
            "raw",
            &raw,
            &sequential,
            &["_unchecked", "aggr_avg_epilogue", "map_rehash_"][..],
        ),
        (
            "checkpointed",
            &compressed,
            &sequential,
            &["cmp_pfor_", "decode_sel_", "decompress_"][..],
        ),
        ("threads=2", &raw, &two_threads, &["map_rehash_"][..]),
    ] {
        let mut traced = std::collections::BTreeSet::new();
        for (q, phase, plan) in corpus_plans(db, opts) {
            let summary = check_plan(db, &plan, opts).expect("check");
            let (_, prof) = execute(db, &plan, opts).expect("runs");
            let unverified: Vec<&str> = prof
                .primitives()
                .map(|(sig, _)| sig)
                .filter(|sig| !summary.verified.contains(sig))
                .collect();
            assert!(
                unverified.is_empty(),
                "{label} q{q}{phase}: traced but never verified: {unverified:?}"
            );
            traced.extend(prof.primitives().map(|(sig, _)| sig.to_owned()));
            if opts.threads > 1 {
                continue;
            }
            let ctx = QueryContext::unbounded();
            ctx.provide_plan_facts(summary.facts);
            let _op = plan.bind_governed(db, opts, &ctx).expect("binds");
            let programs = ctx.plan_facts().expect("provided").programs();
            assert_eq!(programs.len(), summary.programs, "{label} q{q}{phase}");
            for (i, p) in programs.iter().enumerate() {
                let holders = Arc::strong_count(p) - 1;
                assert!(
                    holders == 1 || (holders == 0 && p.as_col_ref().is_some()),
                    "{label} q{q}{phase}: program {i} has {holders} holders"
                );
            }
        }
        for family in families {
            assert!(
                traced.iter().any(|sig| sig.contains(family)),
                "{label}: no `{family}` primitive traced"
            );
        }
    }
}
