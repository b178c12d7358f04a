//! `cargo xtask` — workspace automation.
//!
//! The only subcommand today is `lint`: a custom source-level pass
//! enforcing project invariants that clippy cannot express (see
//! DESIGN.md §9). Rules:
//!
//! 1. **Registry parity** — every concrete exported `map_*` /
//!    `select_*` / `aggr_*` kernel symbol in `crates/vector` resolves to
//!    a descriptor in `PrimitiveRegistry::builtin()`, every identifier
//!    that *parses* as a primitive signature is registered, and every
//!    registered signature is backed by code (a literal symbol, a
//!    generic kernel family, or the interpreter's inline dispatch).
//! 2. **Kernel hygiene** — no `.unwrap()` / `.expect(` in vector kernel
//!    modules outside tests (kernels must be total over their slices),
//!    and no counted `for _ in 0..` loops in the *dense* kernel modules
//!    (`map.rs`, `aggr.rs`, `compound.rs`, `hash.rs`): dense loops must
//!    be iterator zips so LLVM auto-vectorizes without bounds checks.
//!    Position-producing/consuming kernels (`select.rs`, `fetch.rs`,
//!    `sel.rs`) index by design.
//! 3. **Ordering discipline** — `Ordering::Relaxed` appears only in the
//!    governor's counters (`engine/src/govern.rs`), the buffer-manager
//!    statistics (`storage/src/columnbm.rs`), and the loom shim's own
//!    seed plumbing (`crates/loom`). Everywhere else, relaxed atomics
//!    are a review smell the loom model cannot vouch for.
//! 4. **Codec parity** — every registered `compress_*` signature has a
//!    registered `decompress_*` counterpart and vice versa (a one-way
//!    codec is unreadable data), and every codec-shaped identifier in
//!    `crates/vector` source resolves to a registry descriptor, so the
//!    macro-generated PFOR/PDICT/PFOR-DELTA instances cannot drift from
//!    the catalog that `engine::check` trusts for decode placement.
//! 5. **Compressed-execution parity** — every `cmp_*` encoded-space
//!    selection and `decode_sel_*` selective-decode gather in
//!    `crates/vector` resolves to a registry descriptor; every
//!    registered `decode_sel_<codec>_<ty>_col` has its dense
//!    `decompress_<codec>_<ty>_col` twin (the recovery path when a
//!    torn chunk forces a decode-then-select fallback); and every
//!    registered `cmp_<codec>_…_<ty>_…` selection has the matching
//!    gather, so a predicate can never select survivors the engine has
//!    no way to materialize.
//! 6. **Fault-site coverage** — every `FaultSite` variant declared in
//!    `storage/src/columnbm.rs` is exercised by name in the engine's
//!    fault-injection suite (`engine/tests/fault_sites.rs`). A new
//!    injection point cannot land without a test that proves its error
//!    surfaces typed.
//! 7. **Fact-transfer totality** — every registered primitive declares
//!    a modeled [`FactTransfer`] for the facts analyzer
//!    (`engine::facts`), or opts out explicitly: a primitive whose
//!    transfer is `Opaque` must appear in the named allowlist below,
//!    and every allowlist entry must still exist and still be `Opaque`.
//!    A new kernel cannot land with a silently-unmodeled transfer — the
//!    analyzer would quietly widen every program containing it to ⊤.
//! 8. **Durable crash coverage** — every durable-store `FaultSite`
//!    variant (`Manifest*`, `Durable*`) is exercised by name in the
//!    crash-consistency suite (`storage/tests/durable_crash.rs`): each
//!    models a step a dying process can leave half-done on disk, so a
//!    new durable write/read step cannot land without a kill-and-recover
//!    (or replica-failover) test.
//! 9. **Byte-layer discipline** — on-disk bytes become integers (and
//!    back) in `storage/src/frame.rs` only: no `from_le_bytes` /
//!    `to_le_bytes` in `storage/src/compress.rs`,
//!    `storage/src/durable.rs` or `engine/src/spill.rs`, tests included.
//!    The four containers share one bounds-checked cursor and one
//!    writer; a hand-rolled field read is how they fragmented before.
//! 10. **Rule-list coverage** — every id in `engine::check::RULES` (the
//!     plan walk's rewrite rules) is the subject of a walk-log message
//!     (a `rule_note("<id>", …)` call in `engine/src/check.rs`, which is
//!     what `--explain-check` prints) and appears by name in the
//!     rewritten-vs-as-given differential test
//!     (`tpch/tests/differential.rs`). A rule cannot land silent or
//!     untested against the plan as written.
//!
//! Run as `cargo xtask lint` (alias in `.cargo/config.toml`).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use x100_vector::{parse_signature, FactTransfer, PrimitiveRegistry};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let failures = lint();
            if failures.is_empty() {
                println!("xtask lint: OK");
            } else {
                for f in &failures {
                    eprintln!("xtask lint: {f}");
                }
                eprintln!("xtask lint: {} failure(s)", failures.len());
                std::process::exit(1);
            }
        }
        other => {
            eprintln!("usage: cargo xtask lint (got {other:?})");
            std::process::exit(2);
        }
    }
}

fn repo_root() -> PathBuf {
    // crates/xtask → workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

/// A source file with its `#[cfg(test)]` blocks and comment lines
/// stripped, line-by-line (1-based numbers preserved for reporting).
struct StrippedFile {
    lines: Vec<(usize, String)>,
}

fn strip_tests(path: &Path) -> StrippedFile {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut lines = Vec::new();
    let mut skip_depth: i64 = -1; // ≥0: inside a cfg(test) item, tracking braces
    let mut pending_cfg_test = false;
    for (i, raw) in text.lines().enumerate() {
        let trimmed = raw.trim_start();
        if skip_depth >= 0 {
            skip_depth += brace_delta(raw);
            if skip_depth <= 0 {
                skip_depth = -1;
            }
            continue;
        }
        if trimmed.starts_with("#[cfg(test)]") || trimmed.starts_with("#[cfg(all(test") {
            pending_cfg_test = true;
            continue;
        }
        if pending_cfg_test {
            // The item under the attribute: skip it, tracking braces
            // until they balance (single-line items close immediately).
            let d = brace_delta(raw);
            if raw.contains('{') && d > 0 {
                skip_depth = d;
            } else if !trimmed.starts_with('#') {
                pending_cfg_test = false;
            }
            continue;
        }
        if trimmed.starts_with("//") {
            continue;
        }
        lines.push((i + 1, raw.to_owned()));
    }
    StrippedFile { lines }
}

fn brace_delta(line: &str) -> i64 {
    let mut d = 0i64;
    for c in line.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in rd.flatten() {
        let p = entry.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

fn lint() -> Vec<String> {
    let root = repo_root();
    let mut failures = Vec::new();
    registry_parity(&root, &mut failures);
    kernel_hygiene(&root, &mut failures);
    ordering_discipline(&root, &mut failures);
    codec_parity(&root, &mut failures);
    compressed_exec_parity(&root, &mut failures);
    fault_site_coverage(&root, &mut failures);
    fact_transfer_totality(&mut failures);
    durable_crash_coverage(&root, &mut failures);
    byte_layer_discipline(&root, &mut failures);
    rule_list_coverage(&root, &mut failures);
    failures
}

/// Rule 7: fact-transfer totality.
///
/// Primitives opted out of the facts analyzer — by name, both ways:
/// every `FactTransfer::Opaque` registration must be listed here, and
/// every listing must still name a registered `Opaque` primitive (a
/// stale entry means the opt-out is no longer needed and must go).
const FACT_OPAQUE_ALLOWLIST: &[&str] = &[
    // Plan-level epilogue: sum/count pairing happens at the Aggr node,
    // not per-primitive; `facts::agg_fact` models Avg there instead.
    "aggr_avg_epilogue",
    // Three-column benchmark compounds (paper §5 ablation): quadratic
    // form over a 2×2 matrix — no useful interval story.
    "map_chained_mahalanobis_f64_col",
    "map_fused_mahalanobis_f64_col",
];

fn fact_transfer_totality(failures: &mut Vec<String>) {
    let reg = PrimitiveRegistry::builtin();
    for desc in reg.iter() {
        let listed = FACT_OPAQUE_ALLOWLIST.contains(&desc.signature);
        let opaque = desc.info.transfer == FactTransfer::Opaque;
        if opaque && !listed {
            failures.push(format!(
                "fact-transfer totality: `{}` is FactTransfer::Opaque but not \
                 in the xtask allowlist — declare a modeled transfer in \
                 parse_signature or add it to FACT_OPAQUE_ALLOWLIST with a \
                 reason",
                desc.signature
            ));
        }
        if listed && !opaque {
            failures.push(format!(
                "fact-transfer totality: `{}` is allowlisted as Opaque but \
                 declares {:?} — remove the stale allowlist entry",
                desc.signature, desc.info.transfer
            ));
        }
    }
    for name in FACT_OPAQUE_ALLOWLIST {
        if !reg.contains(name) {
            failures.push(format!(
                "fact-transfer totality: allowlist entry `{name}` is not a \
                 registered primitive — remove it"
            ));
        }
    }
}

/// Word tokens (identifier-shaped) of a stripped file.
fn tokens(f: &StrippedFile) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (_, line) in &f.lines {
        let mut cur = String::new();
        for c in line.chars() {
            if c.is_ascii_alphanumeric() || c == '_' {
                cur.push(c);
            } else if !cur.is_empty() {
                out.insert(std::mem::take(&mut cur));
            }
        }
        if !cur.is_empty() {
            out.insert(cur);
        }
    }
    out
}

/// Rule 1: the primitive registry and the kernel code cannot drift.
fn registry_parity(root: &Path, failures: &mut Vec<String>) {
    let reg = PrimitiveRegistry::builtin();
    let registered: BTreeSet<&str> = reg.iter().map(|d| d.signature).collect();

    // Generic kernels: monomorphic primitive *instances* dispatch onto
    // these, so their names are not full signatures.
    const GENERIC_KERNELS: &[&str] = &[
        "map1",
        "map2_col_col",
        "map2_col_val",
        "map2_val_col",
        "map_cmp_col_col",
        "map_cmp_col_val",
        "select_cmp_col_col",
        "select_cmp_col_val",
        "select_str_eq",
    ];
    // Signature families executed by generic kernels or the
    // interpreter's inline dispatch rather than a same-named symbol.
    const CMP_OPS: &[&str] = &["eq", "ne", "lt", "le", "gt", "ge"];
    let family_backed = |sig: &str| -> bool {
        let cmp = |prefix: &str| {
            CMP_OPS
                .iter()
                .any(|op| sig.starts_with(&format!("{prefix}_{op}_")))
        };
        cmp("map") && (sig.ends_with("_col_col") || sig.ends_with("_col_val"))
            || cmp("select")
            || sig.starts_with("map_cast_")       // interpreter inline cast
            || sig.starts_with("map_fetch_")      // generic gather (fetch.rs)
            || sig.starts_with("map_hash_")       // generic hash_col (hash.rs)
            || sig.starts_with("map_rehash_")     // generic rehash_col (hash.rs)
            || sig.starts_with("aggr_sum_")       // generic accumulate and the
                                                  // fused x{N} instances (aggr.rs)
            || sig.starts_with("aggr_min_")
            || sig.starts_with("aggr_max_")
            || sig.starts_with("aggr_grouptable_verify_") // generic key verify (hash.rs)
            || sig.starts_with("map_uidx_")       // generic widen (fetch.rs)
            || sig == "map_fill_const"            // interpreter inline fill
            || sig == "aggr_hashtable_maintain"   // GroupTable::lookup (group.rs)
            || sig == "sort_permutation"          // OrderOp infrastructure
            || sig.starts_with("map_directgrp_")  // aggr.rs direct grouping
            || sig == "select_true_bool_col"      // select_true kernel
            || sig == "select_eq_str_col_val"     // select_str_eq kernel
            || sig == "map_eq_str_col_val"        // StrVec eq map (interpreter)
            || sig == "map_ne_str_col_val"
            || sig.starts_with("map_and_")        // map_and kernel
            || sig.starts_with("map_or_")
            || sig.starts_with("map_not_")
            || sig == "map_contains_str_col_val" // interpreter inline contains
    };

    let vector_src = root.join("crates/vector/src");
    let mut files = Vec::new();
    rs_files(&vector_src, &mut files);
    let mut source_tokens: BTreeSet<String> = BTreeSet::new();
    let mut exported: Vec<(PathBuf, usize, String, bool)> = Vec::new(); // (file, line, name, generic)
    for path in &files {
        // The registry is the catalog itself: its construction strings
        // and negative-test fixtures are not kernel exports.
        if path.file_name().is_some_and(|n| n == "registry.rs") {
            continue;
        }
        let f = strip_tests(path);
        source_tokens.extend(tokens(&f));
        for (ln, line) in &f.lines {
            let t = line.trim_start();
            if let Some(rest) = t.strip_prefix("pub fn ") {
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if name.starts_with("map_")
                    || name.starts_with("select_")
                    || name.starts_with("aggr_")
                {
                    let generic = rest[name.len()..].starts_with('<');
                    exported.push((path.clone(), *ln, name, generic));
                }
            }
        }
    }

    // 1a. Every identifier that parses as a full primitive signature
    // must be registered (this is what pins the `arith_instances!`
    // macro's stringified names to the catalog).
    for tok in &source_tokens {
        if !(tok.starts_with("map_") || tok.starts_with("select_") || tok.starts_with("aggr_")) {
            continue;
        }
        if parse_signature(tok).is_ok() && !registered.contains(tok.as_str()) {
            failures.push(format!(
                "registry parity: `{tok}` in crates/vector parses as a primitive \
                 signature but has no registry descriptor"
            ));
        }
    }

    // 1b. Every concrete exported primitive symbol resolves to a
    // descriptor (exact, or with the conventional suffix the
    // signature grammar adds), unless it is a generic kernel or a
    // per-group scalar helper.
    for (path, ln, name, generic) in &exported {
        if *generic || GENERIC_KERNELS.contains(&name.as_str()) || name.ends_with("_scalar") {
            continue;
        }
        let candidates = [
            name.clone(),
            format!("{name}_col"),
            format!("{name}_bool_col"),
            format!("{name}_u32_col"),
        ];
        if !candidates.iter().any(|c| registered.contains(c.as_str())) {
            failures.push(format!(
                "registry parity: exported kernel `{name}` ({}:{ln}) has no registry \
                 descriptor (tried {candidates:?})",
                path.strip_prefix(root).unwrap_or(path).display()
            ));
        }
    }

    // 1c. Every registered signature is backed by code: a literal
    // symbol, a prefix-matching exported kernel, or a generic family.
    let exported_names: BTreeSet<&str> = exported.iter().map(|(_, _, n, _)| n.as_str()).collect();
    for sig in &registered {
        let stripped = sig
            .strip_suffix("_u32_col")
            .or_else(|| sig.strip_suffix("_bool_col"))
            .or_else(|| sig.strip_suffix("_col"))
            .unwrap_or(sig);
        let backed = source_tokens.contains(*sig)
            || exported_names.contains(sig)
            || exported_names.contains(stripped)
            || family_backed(sig);
        if !backed {
            failures.push(format!(
                "registry parity: signature `{sig}` is registered but no kernel code \
                 backs it (no symbol, no generic family)"
            ));
        }
    }
}

/// Rule 2: kernel module hygiene.
fn kernel_hygiene(root: &Path, failures: &mut Vec<String>) {
    const KERNEL_MODULES: &[&str] = &[
        "map.rs",
        "select.rs",
        "aggr.rs",
        "fetch.rs",
        "hash.rs",
        "group.rs",
        "compound.rs",
        "sel.rs",
        "compress.rs",
    ];
    // Dense kernels must be zip loops (auto-vectorizable, no bounds
    // checks); position-producing/consuming kernels index by design.
    const DENSE_MODULES: &[&str] = &["map.rs", "aggr.rs", "compound.rs", "hash.rs"];
    for module in KERNEL_MODULES {
        let path = root.join("crates/vector/src").join(module);
        if !path.exists() {
            continue;
        }
        let f = strip_tests(&path);
        for (ln, line) in &f.lines {
            if line.contains(".unwrap()") || line.contains(".expect(") {
                failures.push(format!(
                    "kernel hygiene: crates/vector/src/{module}:{ln} uses unwrap/expect \
                     inside a kernel module (kernels must be total)"
                ));
            }
            if DENSE_MODULES.contains(module)
                && line.contains("for ")
                && line.contains(" in 0..")
                && !line.contains("lint: allow-index-loop")
            {
                failures.push(format!(
                    "kernel hygiene: crates/vector/src/{module}:{ln} uses a counted \
                     index loop in a dense kernel module (write it as an iterator zip, \
                     or annotate `// lint: allow-index-loop` with justification)"
                ));
            }
        }
    }
}

/// Rule 3: `Ordering::Relaxed` stays inside the governor/statistics
/// counters the loom model and reviews know about.
fn ordering_discipline(root: &Path, failures: &mut Vec<String>) {
    const ALLOWED: &[&str] = &[
        "crates/engine/src/govern.rs",
        "crates/storage/src/columnbm.rs",
        "crates/loom/src/lib.rs",
    ];
    let mut files = Vec::new();
    rs_files(&root.join("crates"), &mut files);
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if ALLOWED.contains(&rel_str.as_str()) || rel_str.starts_with("crates/xtask/") {
            continue;
        }
        let f = strip_tests(path);
        for (ln, line) in &f.lines {
            if line.contains("Ordering::Relaxed") {
                failures.push(format!(
                    "ordering discipline: {rel_str}:{ln} uses Ordering::Relaxed outside \
                     the governor/statistics allowlist (use Acquire/Release/SeqCst, or \
                     move the counter into govern.rs)"
                ));
            }
        }
    }
}

/// Rule 4: compression codecs are two-way and catalogued.
fn codec_parity(root: &Path, failures: &mut Vec<String>) {
    let reg = PrimitiveRegistry::builtin();
    let registered: BTreeSet<&str> = reg.iter().map(|d| d.signature).collect();

    // 4a. Registered codec halves pair up: `compress_<codec>_<ty>_col`
    // ⇄ `decompress_<codec>_<ty>_col`.
    for sig in &registered {
        if let Some(rest) = sig.strip_prefix("compress_") {
            let twin = format!("decompress_{rest}");
            if !registered.contains(twin.as_str()) {
                failures.push(format!(
                    "codec parity: `{sig}` is registered with no `{twin}` counterpart \
                     (a compressor without a decompressor writes unreadable chunks)"
                ));
            }
        } else if let Some(rest) = sig.strip_prefix("decompress_") {
            let twin = format!("compress_{rest}");
            if !registered.contains(twin.as_str()) {
                failures.push(format!(
                    "codec parity: `{sig}` is registered with no `{twin}` counterpart"
                ));
            }
        }
    }

    // 4b. Every codec-shaped identifier in crates/vector (macro
    // invocation tokens included) that parses as a signature must be
    // registered — this pins the `pfor_instances!`-style expansions to
    // the catalog exactly like rule 1a pins `arith_instances!`.
    let vector_src = root.join("crates/vector/src");
    let mut files = Vec::new();
    rs_files(&vector_src, &mut files);
    for path in &files {
        if path.file_name().is_some_and(|n| n == "registry.rs") {
            continue;
        }
        let f = strip_tests(path);
        for tok in tokens(&f) {
            if !(tok.starts_with("compress_") || tok.starts_with("decompress_")) {
                continue;
            }
            if parse_signature(&tok).is_ok() && !registered.contains(tok.as_str()) {
                failures.push(format!(
                    "codec parity: `{tok}` in {} parses as a codec signature but has \
                     no registry descriptor",
                    path.strip_prefix(root).unwrap_or(path).display()
                ));
            }
        }
    }
}

/// Rule 5: compressed execution cannot drift from the catalog or lose
/// its decode path.
fn compressed_exec_parity(root: &Path, failures: &mut Vec<String>) {
    let reg = PrimitiveRegistry::builtin();
    let registered: BTreeSet<&str> = reg.iter().map(|d| d.signature).collect();

    // 5a. Every `cmp_*` / `decode_sel_*`-shaped identifier in
    // crates/vector (macro tokens and the signature catalogs included)
    // that parses as a signature must be registered, and every exported
    // kernel symbol with those prefixes must resolve to a descriptor.
    let vector_src = root.join("crates/vector/src");
    let mut files = Vec::new();
    rs_files(&vector_src, &mut files);
    for path in &files {
        if path.file_name().is_some_and(|n| n == "registry.rs") {
            continue;
        }
        let f = strip_tests(path);
        for tok in tokens(&f) {
            if !(tok.starts_with("cmp_") || tok.starts_with("decode_sel_")) {
                continue;
            }
            if parse_signature(&tok).is_ok() && !registered.contains(tok.as_str()) {
                failures.push(format!(
                    "compressed-exec parity: `{tok}` in {} parses as an encoded-space \
                     signature but has no registry descriptor",
                    path.strip_prefix(root).unwrap_or(path).display()
                ));
            }
        }
        for (ln, line) in &f.lines {
            let t = line.trim_start();
            if let Some(rest) = t.strip_prefix("pub fn ") {
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if (name.starts_with("cmp_") || name.starts_with("decode_sel_"))
                    && !registered.contains(name.as_str())
                {
                    failures.push(format!(
                        "compressed-exec parity: exported kernel `{name}` ({}:{ln}) has \
                         no registry descriptor",
                        path.strip_prefix(root).unwrap_or(path).display()
                    ));
                }
            }
        }
    }

    // 5b. Every selective-decode gather has its dense decompress twin —
    // the recovery path `engine::check` falls back to when a chunk
    // fails verification mid-pushdown.
    for sig in &registered {
        if let Some(rest) = sig.strip_prefix("decode_sel_") {
            let twin = format!("decompress_{rest}");
            if !registered.contains(twin.as_str()) {
                failures.push(format!(
                    "compressed-exec parity: `{sig}` is registered with no dense \
                     `{twin}` twin (no recovery path for a torn chunk)"
                ));
            }
        }
    }

    // 5c. Every encoded-space selection has the matching gather for its
    // codec/type: `cmp_<codec>_<op>_<ty>_col_val…` ⇒
    // `decode_sel_<codec>_<ty>_col`, so pushdown survivors can always
    // be materialized lazily.
    for sig in &registered {
        let Some(rest) = sig.strip_prefix("cmp_") else {
            continue;
        };
        let parts: Vec<&str> = rest.split('_').collect();
        let [codec, _op, ty, ..] = parts.as_slice() else {
            continue;
        };
        let gather = format!("decode_sel_{codec}_{ty}_col");
        if !registered.contains(gather.as_str()) {
            failures.push(format!(
                "compressed-exec parity: `{sig}` selects in {codec} code space but \
                 `{gather}` is missing — its survivors could not be decoded"
            ));
        }
    }
}

/// Parse the `FaultSite` variant names out of `storage/src/columnbm.rs`
/// (variant = a capitalized identifier line ending in `,`). Shared by
/// rules 6 and 8.
fn fault_site_variants(root: &Path, failures: &mut Vec<String>) -> Vec<String> {
    let decl = root.join("crates/storage/src/columnbm.rs");
    let text =
        std::fs::read_to_string(&decl).unwrap_or_else(|e| panic!("read {}: {e}", decl.display()));
    let Some(start) = text.find("pub enum FaultSite") else {
        failures.push("fault-site coverage: FaultSite enum not found in columnbm.rs".into());
        return Vec::new();
    };
    let body_start = match text[start..].find('{') {
        Some(i) => start + i + 1,
        None => {
            failures.push("fault-site coverage: FaultSite enum has no body".into());
            return Vec::new();
        }
    };
    let body_end = body_start
        + text[body_start..]
            .find('}')
            .expect("FaultSite enum body closes");
    let variants: Vec<String> = text[body_start..body_end]
        .lines()
        .filter_map(|l| l.trim().strip_suffix(','))
        .filter(|v| {
            !v.is_empty()
                && v.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                && v.chars().all(|c| c.is_ascii_alphanumeric())
        })
        .map(str::to_owned)
        .collect();
    if variants.is_empty() {
        failures.push("fault-site coverage: no FaultSite variants parsed".into());
    }
    variants
}

/// Rule 6: every injection point has a typed-error test.
///
/// Every `FaultSite` variant must appear by name in the engine's
/// fault-injection suite (`engine/tests/fault_sites.rs`).
fn fault_site_coverage(root: &Path, failures: &mut Vec<String>) {
    let suite = root.join("crates/engine/tests/fault_sites.rs");
    let tests =
        std::fs::read_to_string(&suite).unwrap_or_else(|e| panic!("read {}: {e}", suite.display()));
    for v in fault_site_variants(root, failures) {
        if !tests.contains(&v) {
            failures.push(format!(
                "fault-site coverage: FaultSite::{v} has no test in \
                 crates/engine/tests/fault_sites.rs (every injection point \
                 needs a typed-error test)"
            ));
        }
    }
}

/// Rule 8: every durable injection point has a crash-consistency test.
///
/// The durable chunk store's fault sites (`Manifest*`, `Durable*`)
/// model the steps a dying process can leave half-done on disk, so
/// each must be exercised by name in the crash-consistency suite
/// (`storage/tests/durable_crash.rs`) — a new durable write/read step
/// cannot land without a kill-and-recover (or failover) test.
fn durable_crash_coverage(root: &Path, failures: &mut Vec<String>) {
    let suite = root.join("crates/storage/tests/durable_crash.rs");
    let tests =
        std::fs::read_to_string(&suite).unwrap_or_else(|e| panic!("read {}: {e}", suite.display()));
    for v in fault_site_variants(root, failures) {
        if !(v.starts_with("Manifest") || v.starts_with("Durable")) {
            continue;
        }
        if !tests.contains(&v) {
            failures.push(format!(
                "durable crash coverage: FaultSite::{v} is not exercised in \
                 crates/storage/tests/durable_crash.rs (every durable \
                 injection point needs a crash-consistency test)"
            ));
        }
    }
}

/// Rule 9: the container code reads and writes fields through
/// `storage::frame`, never by hand.
fn byte_layer_discipline(root: &Path, failures: &mut Vec<String>) {
    const FRAMED: &[&str] = &[
        "crates/storage/src/compress.rs",
        "crates/storage/src/durable.rs",
        "crates/engine/src/spill.rs",
    ];
    for rel in FRAMED {
        let path = root.join(rel);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        for ln in hand_rolled_le_sites(&text) {
            failures.push(format!(
                "byte-layer discipline: {rel}:{ln} converts bytes by hand \
                 (from_le_bytes/to_le_bytes) — go through storage::frame's \
                 Reader/Writer so the field is bounds-checked in one place"
            ));
        }
    }
}

/// Rule 10: every rewrite rule of the plan walk explains itself and is
/// differentially tested.
fn rule_list_coverage(root: &Path, failures: &mut Vec<String>) {
    let read = |rel: &str| {
        let path = root.join(rel);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    };
    let check = read("crates/engine/src/check.rs");
    let test = read("crates/tpch/tests/differential.rs");
    let ids = rule_ids(&check);
    if ids.is_empty() {
        failures.push("rule-list coverage: no ids parsed from `RULES` in check.rs".into());
    }
    // rustfmt may break a call after its opening parenthesis.
    let squeezed: String = check.chars().filter(|c| !c.is_whitespace()).collect();
    for id in ids {
        if !squeezed.contains(&format!("rule_note(\"{id}\",")) {
            failures.push(format!(
                "rule-list coverage: rule `{id}` has no `rule_note(\"{id}\", …)` in \
                 crates/engine/src/check.rs (--explain-check would not show it)"
            ));
        }
        if !test.contains(&format!("\"{id}\"")) {
            failures.push(format!(
                "rule-list coverage: rule `{id}` does not appear by name in \
                 crates/tpch/tests/differential.rs (rewritten vs as given)"
            ));
        }
    }
}

/// The string literals of the `pub const RULES` array in `check.rs`.
fn rule_ids(check_rs: &str) -> Vec<String> {
    let Some(start) = check_rs.find("pub const RULES") else {
        return Vec::new();
    };
    let body = &check_rs[start..];
    let body = &body[..body.find("];").unwrap_or(body.len())];
    let code = body.lines().filter(|l| !l.trim_start().starts_with("//"));
    let mut ids = Vec::new();
    for line in code.skip(1) {
        let mut quoted = line.split('"').skip(1).step_by(2);
        ids.extend(quoted.by_ref().map(str::to_owned));
    }
    ids
}

/// 1-based numbers of the non-comment lines of `text` that convert
/// little-endian bytes by hand (test modules count too).
fn hand_rolled_le_sites(text: &str) -> Vec<usize> {
    let by_hand = |l: &str| l.contains("from_le_bytes") || l.contains("to_le_bytes");
    let code = |l: &str| !l.trim_start().starts_with("//");
    let lines = text.lines().enumerate();
    let hits = lines.filter(|(_, l)| code(l) && by_hand(l));
    hits.map(|(i, _)| i + 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_layer_rule_flags_hand_rolled_fields() {
        let fixture = "fn parse(b: &[u8]) -> u32 {\n\
                       \x20   // u32::from_le_bytes in a comment is fine\n\
                       \x20   u32::from_le_bytes([b[0], b[1], b[2], b[3]])\n\
                       }\n\
                       #[cfg(test)]\n\
                       mod tests {\n\
                       \x20   fn image() -> [u8; 4] { 7u32.to_le_bytes() }\n\
                       }\n";
        assert_eq!(hand_rolled_le_sites(fixture), vec![3, 7]);
        assert!(hand_rolled_le_sites("let n = r.get::<u32>()?;\n").is_empty());
    }

    #[test]
    fn rule_ids_are_the_literals_of_the_rules_array() {
        let fixture = "/// Docs mentioning \"not-a-rule\".\n\
                       pub const RULES: [&str; 2] = [\n\
                       \x20   // a comment with \"quotes\"\n\
                       \x20   \"first-rule\",\n\
                       \x20   \"second-rule\",\n\
                       ];\n\
                       const OTHER: &str = \"other\";\n";
        assert_eq!(rule_ids(fixture), vec!["first-rule", "second-rule"]);
        assert!(rule_ids("no table here").is_empty());
    }

    #[test]
    fn lint_passes_on_this_workspace() {
        let failures = lint();
        assert!(
            failures.is_empty(),
            "lint failures:\n{}",
            failures.join("\n")
        );
    }

    #[test]
    fn strip_tests_removes_test_mods() {
        let dir = std::env::temp_dir().join("xtask-strip-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let p = dir.join("sample.rs");
        std::fs::write(
            &p,
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn dead() { x.unwrap(); }\n}\nfn also_live() {}\n",
        )
        .expect("write sample");
        let f = strip_tests(&p);
        let text: String = f.lines.iter().map(|(_, l)| l.clone()).collect();
        assert!(text.contains("live"));
        assert!(!text.contains("unwrap"));
    }
}
