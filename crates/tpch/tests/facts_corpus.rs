//! Check-walk coverage on the TPC-H corpus: the abstract
//! interpretation (`engine::facts`) must prove the fetch bounds of
//! EVERY `Fetch1Join`/`FetchNJoin` in every query — zero false
//! rejections — and the checked tree must account for
//! everything execution does: every
//! primitive a run traces was validated by the walk, every program
//! the walk compiled is the one an operator runs, and every column a
//! scan or fetch gathers is read by an operator above it.

use std::sync::Arc;
use tpch::gen::{generate, GenConfig};
use tpch::queries::{all_specs, QuerySpec};
use x100_engine::session::{execute, Database, ExecOptions};
use x100_engine::{check_plan, check_plan_as_given};
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
/// analyzer must never reject a bound it could have proven (what
/// `--explain-facts` reports must be as sharp as the data allows).
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

/// The corpus database with every table checkpointed (the columns a
/// dictionary compresses best enumerated).
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
/// count: every primitive signature a profiled run records (positional
/// gathers, enum decodes, the AVG epilogue and the merge stage's rehash
/// included) was validated by the
/// check walk of that very plan; and, sequentially, each program the
/// walk compiled is held by exactly one instantiated operator — none is
/// compiled again, none is dead code (bare column references need no
/// holder: they have no instructions). The corpus's fetches take the
/// gather's in-range path.
#[test]
fn verified_covers_executed_for_entire_corpus() {
    let data = generate(&GenConfig { sf: 0.002, seed: 3 });
    let raw = tpch::build_x100_db(&data);
    let compressed = checkpointed(&raw);
    let sequential = ExecOptions::default().profiled();
    let two_threads = sequential.clone().parallel(2).with_morsel_size(1024);
    let mut in_range = 0u64;
    // Per variant: signature families its runs must have traced, so the
    // containment below is known to cover them.
    for (label, db, opts, families) in [
        (
            "raw",
            &raw,
            &sequential,
            &["map_fetch_u32_col_", "aggr_avg_epilogue", "map_rehash_"][..],
        ),
        (
            "checkpointed",
            &compressed,
            &sequential,
            &["map_fetch_u8_col_str_col"][..],
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
            in_range += prof.counter("fetch_unchecked_dispatches").unwrap_or(0);
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
    assert!(in_range > 0, "no in-range gathers across the corpus");
}

/// Nothing gathered unread: in the checked tree of every plan (both
/// phases of the two-phase queries), over raw tables, over one pending
/// insert per table and at two threads, every column a `Scan` or
/// `Fetch1Join` emits is read by some operator above it or returned by
/// the root — as the operators' own programs say, not the plan. The
/// plans as written gather unread columns (Q2's `s_name` for an
/// aggregation that reads none), so the check has something to find.
#[test]
fn nothing_is_gathered_unread_across_the_corpus() {
    let data = generate(&GenConfig { sf: 0.002, seed: 3 });
    let raw = tpch::build_x100_db(&data);
    let inserts = tpch::db::pending_inserts(&raw);
    let sequential = ExecOptions::default();
    let two_threads = sequential.clone().parallel(2).with_morsel_size(1024);
    let mut plans = 0;
    for (label, db, opts) in [
        ("raw", &raw, &sequential),
        ("pending inserts", &inserts, &sequential),
        ("threads=2", &raw, &two_threads),
    ] {
        for (q, phase, plan) in corpus_plans(db, opts) {
            let facts = check_plan(db, &plan, opts).expect("check").facts;
            let unread = facts.unread_gathers();
            assert!(unread.is_empty(), "{label} q{q}{phase}: {unread:?}");
            plans += 1;
        }
    }
    assert!(plans >= 3 * 23, "{plans} plans");
    let mut as_given = Vec::new();
    for (q, _, plan) in corpus_plans(&raw, &sequential) {
        let walk = check_plan_as_given(&raw, &plan, &sequential).expect("check");
        as_given.extend(walk.facts.unread_gathers().into_iter().map(|c| (q, c)));
    }
    assert!(
        as_given
            .iter()
            .any(|(q, c)| *q == 2 && c.ends_with(": s_name")),
        "as given, Q2 gathers s_name unread: {as_given:?}"
    );
}
