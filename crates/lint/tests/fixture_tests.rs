//! Fixture-corpus and self-lint tests for `monatt-lint`.
//!
//! Each rule must fire on its `bad_*` fixture and stay silent on the
//! matching `good_*` fixture; the suppression syntax must silence all
//! three rules; the allowlist ratchet must reject over-budget and stale
//! entries against the `ws/` mini-workspace; and the real workspace must
//! pass `--deny` with the committed allowlist.

use std::path::{Path, PathBuf};
use std::process::Command;

use monatt_lint::engine::scan;
use monatt_lint::{lint_file, Allowlist, Config, Diagnostic, ALLOWLIST_FILE};

fn lint(path: &str, src: &str) -> Vec<Diagnostic> {
    lint_file(path, src, &Config::default())
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule).collect()
}

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn ws_root() -> PathBuf {
    fixtures_dir().join("ws")
}

// ---------------------------------------------------------------------------
// secret_hygiene
// ---------------------------------------------------------------------------

#[test]
fn secret_hygiene_fires_on_bad_fixture() {
    let diags = lint(
        "crates/net/src/bad_secret.rs",
        include_str!("fixtures/bad_secret.rs"),
    );
    assert!(
        rules_of(&diags).iter().all(|r| *r == "secret_hygiene"),
        "only secret_hygiene should fire: {diags:?}"
    );
    // One finding per seeded defect: derived Debug, missing manual Debug,
    // missing Drop, Drop without zeroize, and two format-macro leaks.
    assert_eq!(diags.len(), 6, "{diags:?}");
    let expect = |needle: &str| {
        assert!(
            diags.iter().any(|d| d.message.contains(needle)),
            "missing `{needle}` in {diags:?}"
        );
    };
    expect("derives Debug");
    expect("no manual Debug impl");
    expect("no Drop impl");
    expect("does not call a zeroize helper");
    expect("`mac_key` interpolated into `println!`");
    expect("interpolated into `warn!`");
}

#[test]
fn secret_hygiene_silent_on_good_fixture() {
    let diags = lint(
        "crates/net/src/good_secret.rs",
        include_str!("fixtures/good_secret.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------------
// const_time
// ---------------------------------------------------------------------------

#[test]
fn const_time_fires_on_tag_and_digest_comparisons() {
    // Outside the crypto hot-path set only the comparison checks apply.
    let diags = lint(
        "crates/verifier/src/bad_const_time.rs",
        include_str!("fixtures/bad_const_time.rs"),
    );
    assert_eq!(rules_of(&diags), ["const_time", "const_time"], "{diags:?}");
    assert!(diags[0].message.contains("`==` on `tag`"), "{diags:?}");
    assert!(
        diags[1].message.contains("`!=` on `quote_digest`"),
        "{diags:?}"
    );
}

#[test]
fn const_time_hot_path_adds_branch_and_index_findings() {
    // The same source under a hot-path label also flags the
    // secret-dependent branch and table index.
    let diags = lint(
        "crates/crypto/src/montgomery.rs",
        include_str!("fixtures/bad_const_time.rs"),
    );
    assert_eq!(diags.len(), 4, "{diags:?}");
    assert!(rules_of(&diags).iter().all(|r| *r == "const_time"));
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("secret-dependent branch on `exp`")),
        "{diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("secret-dependent table index `exp`")),
        "{diags:?}"
    );
}

#[test]
fn const_time_silent_on_good_fixture() {
    let diags = lint(
        "crates/crypto/src/good_const_time.rs",
        include_str!("fixtures/good_const_time.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------------
// panic_freedom
// ---------------------------------------------------------------------------

#[test]
fn panic_freedom_fires_on_bad_fixture() {
    let diags = lint(
        "crates/core/src/bad_panic.rs",
        include_str!("fixtures/bad_panic.rs"),
    );
    assert!(rules_of(&diags).iter().all(|r| *r == "panic_freedom"));
    // Three unguarded indexes, unwrap, expect, panic!, unreachable!, todo!.
    assert_eq!(diags.len(), 8, "{diags:?}");
    let count = |needle: &str| diags.iter().filter(|d| d.message.contains(needle)).count();
    assert_eq!(count("slice index may panic"), 3, "{diags:?}");
    assert_eq!(count("`.unwrap()`"), 1);
    assert_eq!(count("`.expect()`"), 1);
    assert_eq!(count("`panic!`"), 1);
    assert_eq!(count("`unreachable!`"), 1);
    assert_eq!(count("`todo!`"), 1);
}

#[test]
fn panic_freedom_silent_on_good_fixture() {
    let diags = lint(
        "crates/core/src/good_panic.rs",
        include_str!("fixtures/good_panic.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn panic_freedom_out_of_scope_crate_is_silent() {
    // The same panicking source is out of scope for a non-protocol crate.
    let diags = lint(
        "crates/hypervisor/src/bad_panic.rs",
        include_str!("fixtures/bad_panic.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------------
// suppression
// ---------------------------------------------------------------------------

#[test]
fn suppression_fixture_silences_every_rule() {
    let src = include_str!("fixtures/suppressed.rs");
    let diags = lint("crates/core/src/suppressed.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
    // The suppressions are load-bearing: stripping the comments makes one
    // finding per rule reappear.
    let stripped = src.replace("monatt::", "gone::");
    let diags = lint("crates/core/src/suppressed.rs", &stripped);
    let mut rules = rules_of(&diags);
    rules.sort_unstable();
    assert_eq!(
        rules,
        ["const_time", "panic_freedom", "secret_hygiene"],
        "{diags:?}"
    );
}

// ---------------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------------

#[test]
fn determinism_fires_on_bad_fixture() {
    let diags = lint(
        "crates/core/src/bad_determinism.rs",
        include_str!("fixtures/bad_determinism.rs"),
    );
    assert!(
        rules_of(&diags).iter().all(|r| *r == "determinism"),
        "only determinism should fire: {diags:?}"
    );
    // Two HashMap mentions, three clock mentions (use + return type +
    // two `now()` sites), one ambient RNG, a `thread_local!` and a
    // `static mut` (the plain `static` inside the macro is not one); the
    // test-module HashSet is exempt.
    assert_eq!(diags.len(), 9, "{diags:?}");
    let count = |needle: &str| diags.iter().filter(|d| d.message.contains(needle)).count();
    assert_eq!(count("iteration order"), 2, "{diags:?}");
    assert_eq!(count("wall clock"), 4, "{diags:?}");
    assert_eq!(count("ambient randomness"), 1, "{diags:?}");
    assert_eq!(count("ambient state"), 2, "{diags:?}");
}

#[test]
fn determinism_silent_on_good_fixture() {
    let diags = lint(
        "crates/core/src/good_determinism.rs",
        include_str!("fixtures/good_determinism.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn determinism_out_of_scope_crate_is_silent() {
    // The verifier crate replays nothing; wall clocks are fine there.
    let diags = lint(
        "crates/verifier/src/bad_determinism.rs",
        include_str!("fixtures/bad_determinism.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------------
// alloc_freedom
// ---------------------------------------------------------------------------

#[test]
fn alloc_freedom_fires_on_bad_fixture() {
    let diags = lint(
        "crates/net/src/wire.rs",
        include_str!("fixtures/bad_alloc.rs"),
    );
    assert!(
        rules_of(&diags).iter().all(|r| *r == "alloc_freedom"),
        "only alloc_freedom should fire: {diags:?}"
    );
    assert_eq!(diags.len(), 4, "{diags:?}");
    let expect = |needle: &str| {
        assert!(
            diags.iter().any(|d| d.message.contains(needle)),
            "missing `{needle}` in {diags:?}"
        );
    };
    expect("`.to_vec()`");
    expect("`format!`");
    expect("`.collect()`");
    expect("`Vec::with_capacity`");
}

#[test]
fn alloc_freedom_silent_on_good_fixture() {
    let diags = lint(
        "crates/net/src/wire.rs",
        include_str!("fixtures/good_alloc.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn alloc_freedom_unenrolled_file_is_silent() {
    // The same allocations are fine outside the warm-path file set.
    let diags = lint(
        "crates/net/src/framing.rs",
        include_str!("fixtures/bad_alloc.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn alloc_freedom_propagates_one_call_deep() {
    use monatt_lint::context::FileContext;
    use monatt_lint::rules::run_all;
    use monatt_lint::Workspace;

    let ws = Workspace::build(vec![
        FileContext::new(
            "crates/net/src/wire.rs",
            include_str!("fixtures/bad_alloc_propagation.rs"),
        ),
        FileContext::new(
            "crates/net/src/label.rs",
            include_str!("fixtures/alloc_helper.rs"),
        ),
    ]);
    let cfg = Config::default();
    let mut diags: Vec<Diagnostic> = (0..ws.files.len())
        .flat_map(|i| run_all(&ws, i, &cfg))
        .collect();
    diags.retain(|d| d.rule == "alloc_freedom");
    // Exactly one propagated finding: `describe` → `mk_label`. The
    // `#[cold]` helper call in `fail` is trusted and not flagged.
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.file, "crates/net/src/wire.rs");
    assert!(d.message.contains("calls `mk_label`"), "{d:?}");
    // The related-location note points into the callee's file.
    assert_eq!(d.notes.len(), 1, "{d:?}");
    assert_eq!(d.notes[0].file, "crates/net/src/label.rs");
    assert!(d.notes[0].message.contains("allocates here"), "{d:?}");
}

// ---------------------------------------------------------------------------
// secret_taint
// ---------------------------------------------------------------------------

#[test]
fn secret_taint_fires_on_bad_fixture() {
    let diags = lint(
        "crates/core/src/bad_taint.rs",
        include_str!("fixtures/bad_taint.rs"),
    );
    assert!(
        rules_of(&diags).iter().all(|r| *r == "secret_taint"),
        "only secret_taint should fire: {diags:?}"
    );
    assert_eq!(diags.len(), 3, "{diags:?}");
    let expect = |needle: &str| {
        diags
            .iter()
            .find(|d| d.message.contains(needle))
            .unwrap_or_else(|| panic!("missing `{needle}` in {diags:?}"))
    };
    let fmt = expect("interpolated into `println!`");
    assert!(fmt.message.contains("`mac_key`"), "{fmt:?}");
    let ser = expect("serialized via `to_hex`");
    assert!(ser.message.contains("`sk_bytes`"), "{ser:?}");
    let cmp = expect("variable-time `==`");
    assert!(cmp.message.contains("`secret`"), "{cmp:?}");
    // Every finding names the concrete sink via a related-location note.
    for d in &diags {
        assert_eq!(d.notes.len(), 1, "{d:?}");
        assert_eq!(d.notes[0].file, d.file);
        assert!(d.notes[0].line > 0);
    }
}

#[test]
fn secret_taint_silent_on_good_fixture() {
    let diags = lint(
        "crates/core/src/good_taint.rs",
        include_str!("fixtures/good_taint.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------------
// static coverage beyond the runtime tests
// ---------------------------------------------------------------------------

#[test]
fn static_rules_cover_files_runtime_tests_skip() {
    // The golden-trace fixture replays the clean attestation path, and
    // `zero_alloc.rs` drives warm rounds — neither executes the outage
    // module or the timer wheel's cold branches. The static rules still
    // police those files: seeding a defect into the real sources makes
    // the matching rule fire, so the guarantee does not depend on a
    // runtime test reaching the code.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    let cfg = Config::default();

    let outage = std::fs::read_to_string(root.join("crates/core/src/outage.rs")).unwrap();
    let clean = lint_file("crates/core/src/outage.rs", &outage, &cfg);
    assert!(clean.is_empty(), "outage.rs should be clean: {clean:?}");
    let seeded = format!(
        "{outage}\npub fn drift() -> u64 {{\n    let _t = std::time::Instant::now();\n    0\n}}\n"
    );
    let diags = lint_file("crates/core/src/outage.rs", &seeded, &cfg);
    assert!(
        diags.iter().any(|d| d.rule == "determinism"),
        "determinism covers outage.rs: {diags:?}"
    );

    let wheel = std::fs::read_to_string(root.join("crates/hypervisor/src/wheel.rs")).unwrap();
    let clean = lint_file("crates/hypervisor/src/wheel.rs", &wheel, &cfg);
    assert!(clean.is_empty(), "wheel.rs should be clean: {clean:?}");
    let seeded =
        format!("{wheel}\npub fn snapshot_ids(xs: &[u64]) -> Vec<u64> {{\n    xs.to_vec()\n}}\n");
    let diags = lint_file("crates/hypervisor/src/wheel.rs", &seeded, &cfg);
    assert!(
        diags.iter().any(|d| d.rule == "alloc_freedom"),
        "alloc_freedom covers wheel.rs: {diags:?}"
    );
}

// ---------------------------------------------------------------------------
// allowlist ratchet on the ws mini-workspace
// ---------------------------------------------------------------------------

#[test]
fn ws_scan_finds_known_debt_and_skips_shim_crates() {
    let report = scan(&ws_root(), &Config::default(), &Allowlist::default()).unwrap();
    // rand-shim is excluded, so only crates/core/src/lib.rs is scanned.
    assert_eq!(report.files, 1);
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
    assert!(report
        .findings
        .iter()
        .all(|d| d.rule == "panic_freedom" && d.file == "crates/core/src/lib.rs"));
    // With no allowlist the findings are deny violations.
    assert_eq!(report.budgeted, 0);
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    assert!(report.deny_failure());
}

#[test]
fn ws_exact_budget_passes_deny() {
    let allow = Allowlist::parse("panic_freedom crates/core/src/lib.rs 2").unwrap();
    let report = scan(&ws_root(), &Config::default(), &allow).unwrap();
    assert_eq!(report.budgeted, 2);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.stale.is_empty(), "{:?}", report.stale);
    assert!(!report.deny_failure());
}

#[test]
fn ws_over_budget_is_a_violation() {
    let allow = Allowlist::parse("panic_freedom crates/core/src/lib.rs 1").unwrap();
    let report = scan(&ws_root(), &Config::default(), &allow).unwrap();
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    assert!(report.stale.is_empty());
    assert!(report.deny_failure());
}

#[test]
fn ws_stale_budget_must_be_tightened() {
    // The ratchet only shrinks: a budget larger than reality is an error.
    let allow = Allowlist::parse("panic_freedom crates/core/src/lib.rs 3").unwrap();
    let report = scan(&ws_root(), &Config::default(), &allow).unwrap();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.stale.len(), 1, "{:?}", report.stale);
    assert!(report.stale[0].contains("ratchet only shrinks"));
    assert!(report.deny_failure());
}

#[test]
fn ws_duplicate_allowlist_entries_rejected_at_parse() {
    // Two budgets for the same (rule, path) would make the effective
    // budget ambiguous; the parser refuses with both line numbers.
    let err = Allowlist::parse(
        "panic_freedom crates/core/src/lib.rs 1\n\
         const_time crates/tpm/src/quote.rs 1\n\
         panic_freedom crates/core/src/lib.rs 1\n",
    )
    .unwrap_err();
    assert!(err.contains("line 3"), "{err}");
    assert!(err.contains("duplicate entry"), "{err}");
    assert!(err.contains("first budgeted on line 1"), "{err}");
    assert!(err.contains("merge into one line"), "{err}");
    // Hyphen/underscore spellings normalize to the same rule, so they
    // still collide.
    let err = Allowlist::parse(
        "const_time crates/tpm/src/quote.rs 1\nconst-time crates/tpm/src/quote.rs 2\n",
    )
    .unwrap_err();
    assert!(err.contains("duplicate entry"), "{err}");
}

#[test]
fn ws_stale_entry_for_deleted_file_fails_deny() {
    // The budgeted file is gone from the workspace: the entry is dead
    // weight and gets its own message (not the "tighten" one, which
    // would suggest lowering a count on a file that no longer exists).
    let allow = Allowlist::parse("panic_freedom crates/core/src/deleted.rs 2").unwrap();
    let report = scan(&ws_root(), &Config::default(), &allow).unwrap();
    assert_eq!(report.stale.len(), 1, "{:?}", report.stale);
    assert!(
        report.stale[0].contains("no longer exists"),
        "{:?}",
        report.stale
    );
    assert!(
        report.stale[0].contains("delete the entry"),
        "{:?}",
        report.stale
    );
    assert!(!report.stale[0].contains("ratchet only shrinks"));
    assert!(report.deny_failure());
}

#[test]
fn ws_over_budget_and_stale_in_same_run_are_distinct() {
    // One under-budgeted live file plus one deleted file: deny fails
    // with both failure classes, each carrying its own message.
    let allow = Allowlist::parse(
        "panic_freedom crates/core/src/lib.rs 1\n\
         const_time crates/core/src/deleted.rs 1\n",
    )
    .unwrap();
    let report = scan(&ws_root(), &Config::default(), &allow).unwrap();
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    assert!(
        report.violations[0].contains("allowlist budget 1"),
        "{:?}",
        report.violations
    );
    assert_eq!(report.stale.len(), 1, "{:?}", report.stale);
    assert!(
        report.stale[0].contains("no longer exists"),
        "{:?}",
        report.stale
    );
    assert_ne!(report.violations[0], report.stale[0]);
    assert!(report.deny_failure());
}

#[test]
fn ws_widened_panic_scope_reaches_shim_crate_when_unskipped() {
    // Config knobs work end to end: un-skipping rand-shim surfaces its
    // unwrap too.
    let mut cfg = Config::default();
    cfg.skip_crates.retain(|c| c != "rand-shim");
    cfg.panic_crates.push("rand-shim".to_string());
    let report = scan(&ws_root(), &cfg, &Allowlist::default()).unwrap();
    assert_eq!(report.files, 2);
    assert!(report
        .findings
        .iter()
        .any(|d| d.file == "crates/rand-shim/src/lib.rs"));
}

// ---------------------------------------------------------------------------
// self-lint: the real workspace passes --deny with the committed allowlist
// ---------------------------------------------------------------------------

#[test]
fn workspace_self_lint_passes_deny() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    let allow = Allowlist::load(&root.join(ALLOWLIST_FILE)).unwrap();
    let report = scan(&root, &Config::default(), &allow).unwrap();
    assert!(report.files > 50, "workspace scan looks too small");
    assert!(
        !report.deny_failure(),
        "workspace fails its own lint: violations={:?} stale={:?} findings={:?}",
        report.violations,
        report.stale,
        report.findings
    );
}

// ---------------------------------------------------------------------------
// CLI: exit codes and JSON output
// ---------------------------------------------------------------------------

fn lint_cmd(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_monatt-lint"))
        .args(args)
        .output()
        .expect("run monatt-lint")
}

#[test]
fn cli_deny_fails_without_allowlist() {
    let ws = ws_root();
    let out = lint_cmd(&["--root", ws.to_str().unwrap(), "--deny"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("DENY:"), "{stdout}");
    assert!(stdout.contains("allowlist budget 0"), "{stdout}");
}

#[test]
fn cli_deny_passes_with_budgeted_allowlist() {
    let ws = ws_root();
    let allow = fixtures_dir().join("ws.allow");
    let out = lint_cmd(&[
        "--root",
        ws.to_str().unwrap(),
        "--allowlist",
        allow.to_str().unwrap(),
        "--deny",
    ]);
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("2 within allowlist budget"), "{stdout}");
}

#[test]
fn cli_json_reports_findings_and_violations() {
    let ws = ws_root();
    let out = lint_cmd(&["--root", ws.to_str().unwrap(), "--json"]);
    // Without --deny the exit code stays 0 even with findings.
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("{\"findings\":["), "{stdout}");
    assert!(stdout.contains("\"rule\":\"panic_freedom\""), "{stdout}");
    assert!(stdout.contains("\"files\":1"), "{stdout}");
    assert!(stdout.contains("allowlist budget 0"), "{stdout}");
}

#[test]
fn cli_rejects_unknown_flags() {
    let out = lint_cmd(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown option"), "{stderr}");
}

#[test]
fn cli_explain_documents_each_rule() {
    for rule in [
        "secret_hygiene",
        "const_time",
        "panic_freedom",
        "determinism",
        "alloc_freedom",
        "secret_taint",
    ] {
        let out = lint_cmd(&["--explain", rule]);
        assert_eq!(out.status.code(), Some(0), "--explain {rule}: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains(rule), "--explain {rule}: {stdout}");
        assert!(stdout.len() > 200, "--explain {rule} too thin: {stdout}");
    }
}

#[test]
fn cli_explain_unknown_rule_lists_known_ones() {
    let out = lint_cmd(&["--explain", "borrow_check"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown rule `borrow_check`"), "{stderr}");
    assert!(stderr.contains("secret_taint"), "{stderr}");
}
