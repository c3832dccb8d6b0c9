//! `monatt-lint`: workspace-native static analysis for the CloudMonatt
//! reproduction.
//!
//! General-purpose lints cannot know that `SealKey` wraps key material,
//! that the event engine must replay bit-identically under a fixed seed,
//! or that the warm Msg1–Msg6 path must not allocate. This crate encodes
//! those workspace facts as six rules over a hand-rolled token stream
//! plus a lightweight item parser, workspace symbol table, and
//! intra-workspace call graph:
//!
//! * **`secret_hygiene`** — secret-bearing types must not derive a leaking
//!   `Debug`, must carry a redacting manual impl, must zeroize in `Drop`,
//!   and secret identifiers must not reach format-like macros.
//! * **`const_time`** — `==`/`!=` on tag/MAC/digest material is a timing
//!   oracle (use `ct_eq`).
//! * **`panic_freedom`** — protocol crates (`core`, `net`, `crypto`,
//!   `tpm`) plus enrolled files must not `unwrap`/`expect`/`panic!` or
//!   slice-index outside test code.
//! * **`determinism`** — sim-deterministic crates must not use
//!   `HashMap`/`HashSet` (iteration order leaks into event order), wall
//!   clocks, ambient randomness outside the seeded DRBG, ambient state,
//!   or detached threads (`std::thread::scope` is the allowed form).
//! * **`alloc_freedom`** — warm-path files must not call allocating APIs
//!   outside cold/setup functions; one level of call-graph propagation
//!   flags warm calls into allocating workspace helpers.
//! * **`secret_taint`** — a secret passed one call deep into a callee
//!   that formats, serializes, or variably compares the matching
//!   parameter is flagged even though the leak spans two functions.
//!
//! Findings are suppressed inline with a comment containing
//! `#[allow(monatt::<rule>)]`, or budgeted per (rule, file) in the
//! committed `monatt-lint.allow` ratchet file, which `--deny` mode forbids
//! from growing *or* going stale. `--explain <rule>` documents each rule.
//!
//! No dependencies: the lexer (`lexer`), item parser (`items`), symbol
//! table (`symbols`), call graph (`callgraph`), per-file analysis
//! (`context`), rules (`rules`), and engine (`engine`) are
//! self-contained, so the tool builds in the offline container and runs
//! in CI as a plain cargo binary.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod config;
pub mod context;
pub mod diag;
pub mod engine;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod symbols;

pub use config::Config;
pub use diag::{Diagnostic, Note};
pub use engine::{Allowlist, Report};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use callgraph::CallGraph;
use context::FileContext;
use symbols::SymbolTable;

/// All scanned files plus the workspace-level indexes the
/// interprocedural rules need.
pub struct Workspace {
    /// Per-file contexts, sorted by workspace-relative path.
    pub files: Vec<FileContext>,
    /// Function name → definitions index over `files`.
    pub symbols: SymbolTable,
    /// Call sites of every function body in `files`.
    pub calls: CallGraph,
}

impl Workspace {
    /// Builds the symbol table and call graph over `files`, after marking
    /// the files compiled only as test code.
    pub fn build(mut files: Vec<FileContext>) -> Self {
        mark_test_modules(&mut files);
        let symbols = SymbolTable::build(&files);
        let calls = CallGraph::build(&files);
        Workspace {
            files,
            symbols,
            calls,
        }
    }

    /// A one-file workspace — the unit-test and fixture entry point.
    /// Intra-file calls still resolve, so single-file fixtures exercise
    /// the interprocedural rules too.
    pub fn single(path: &str, src: &str) -> Self {
        Self::build(vec![FileContext::new(path, src)])
    }
}

/// Marks every token of a file that a test-only `mod name;` declares
/// (`#[cfg(test)] mod same;`), and of the files that file declares in
/// turn: `#[cfg(test)]` is per file, so the file's own regions cannot say
/// that all of it is test code.
fn mark_test_modules(files: &mut [FileContext]) {
    let index: BTreeMap<String, usize> = files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.path.clone(), i))
        .collect();
    let mut work: Vec<usize> = (0..files.len()).collect();
    while let Some(parent) = work.pop() {
        let f = &files[parent];
        let test_mods = f.mod_decls.iter().filter(|(tok, _)| f.in_test[*tok]);
        let children: Vec<usize> = test_mods
            .filter_map(|(_, name)| f.module_paths(name).iter().find_map(|p| index.get(p)))
            .copied()
            .collect();
        for child in children {
            let in_test = &mut files[child].in_test;
            if !in_test.iter().all(|&t| t) {
                in_test.fill(true);
                work.push(child);
            }
        }
    }
}

/// Lints one file in isolation (a single-file workspace) — the
/// convenience entry point for tests and fixtures.
pub fn lint_file(path: &str, src: &str, cfg: &Config) -> Vec<Diagnostic> {
    let ws = Workspace::single(path, src);
    rules::run_all(&ws, 0, cfg)
}

/// Locates the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Default name of the committed allowlist ratchet file.
pub const ALLOWLIST_FILE: &str = "monatt-lint.allow";
