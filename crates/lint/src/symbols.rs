//! The workspace symbol table: every `fn` in every scanned file,
//! indexed by name.
//!
//! Interprocedural rules resolve call sites through this table. The
//! resolution is *name-based* — the linter has no type information — so
//! rules only act on names that resolve **uniquely** among non-test
//! functions ([`SymbolTable::resolve_unique`]). Ambiguous names
//! (`new`, `len`, …) are deliberately skipped: a missed finding is
//! recoverable, a false positive erodes trust in `--deny`. The trade-off
//! is documented in DESIGN.md §14.

use std::collections::BTreeMap;

use crate::callgraph::CallSite;
use crate::context::FileContext;
use crate::items::FnItem;

/// Method names that collide with ubiquitous std collection/iterator
/// APIs. A *method* call spelled `x.push(…)` is almost certainly
/// `Vec::push`, not a workspace function that happens to be named
/// `push` — following the name there manufactures false positives, so
/// method calls with these names are never resolved through the table.
/// Free/UFCS calls (`push(…)`, `SearchState::push(…)`) still resolve.
const STD_METHOD_NAMES: [&str; 24] = [
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "len",
    "clear",
    "extend",
    "drain",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "next",
    "collect",
    "map",
    "filter",
    "take",
    "clone",
    "write",
    "read",
    "send",
    "recv",
];

/// A reference to one function: indices into the workspace's file list
/// and that file's item list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FnKey {
    /// Index into [`crate::Workspace::files`].
    pub file: usize,
    /// Index into that file's `FileContext::items`.
    pub item: usize,
}

/// Workspace-wide function index.
#[derive(Clone, Debug, Default)]
pub struct SymbolTable {
    by_name: BTreeMap<String, Vec<FnKey>>,
}

impl SymbolTable {
    /// Builds the table over all files' parsed items. Functions defined
    /// inside `#[cfg(test)]` regions are excluded: test helpers must
    /// never satisfy (or trigger) a workspace rule.
    pub fn build(files: &[FileContext]) -> Self {
        let mut by_name: BTreeMap<String, Vec<FnKey>> = BTreeMap::new();
        for (fi, ctx) in files.iter().enumerate() {
            for (ii, item) in ctx.items.iter().enumerate() {
                if ctx.in_test.get(item.fn_tok).copied().unwrap_or(false) {
                    continue;
                }
                by_name
                    .entry(item.name.clone())
                    .or_default()
                    .push(FnKey { file: fi, item: ii });
            }
        }
        SymbolTable { by_name }
    }

    /// All workspace functions named `name`, in (file, item) order.
    pub fn resolve(&self, name: &str) -> &[FnKey] {
        self.by_name.get(name).map_or(&[], |v| v.as_slice())
    }

    /// The single workspace function named `name`, or `None` when the
    /// name is undefined or ambiguous.
    pub fn resolve_unique(&self, name: &str) -> Option<FnKey> {
        match self.resolve(name) {
            [one] => Some(*one),
            _ => None,
        }
    }

    /// Resolves a call site to its unique workspace definition, or
    /// `None` when the name is undefined, ambiguous, or a method call
    /// whose name collides with a std collection/iterator API (see
    /// `STD_METHOD_NAMES`).
    pub fn resolve_call(&self, call: &CallSite) -> Option<FnKey> {
        if call.method && STD_METHOD_NAMES.contains(&call.callee.as_str()) {
            return None;
        }
        self.resolve_unique(&call.callee)
    }

    /// Looks an item up by key.
    pub fn item<'a>(&self, files: &'a [FileContext], key: FnKey) -> Option<&'a FnItem> {
        files.get(key.file)?.items.get(key.item)
    }

    /// Number of distinct function names indexed.
    pub fn names(&self) -> usize {
        self.by_name.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileContext;

    #[test]
    fn unique_and_ambiguous_resolution() {
        let a = FileContext::new("crates/core/src/a.rs", "fn seal_record() {}\nfn new() {}");
        let b = FileContext::new("crates/net/src/b.rs", "fn new() {}");
        let files = vec![a, b];
        let t = SymbolTable::build(&files);
        assert!(t.resolve_unique("seal_record").is_some());
        assert_eq!(t.resolve("new").len(), 2);
        assert!(t.resolve_unique("new").is_none());
        assert!(t.resolve_unique("missing").is_none());
    }

    #[test]
    fn test_fns_are_excluded() {
        let src = "#[cfg(test)]\nmod t { fn helper_only_in_tests() {} }";
        let files = vec![FileContext::new("crates/core/src/a.rs", src)];
        let t = SymbolTable::build(&files);
        assert!(t.resolve_unique("helper_only_in_tests").is_none());
    }
}
