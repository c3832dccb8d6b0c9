//! The prose documentation names only things that exist.
//!
//! Scans DESIGN.md, README.md, EXPERIMENTS.md and the verify skill for
//! two kinds of reference and resolves each against the tree:
//!
//! * a Rust path `monatt_<crate>::a::b` must resolve, segment by
//!   segment, to a module file of that crate or to a `pub` item of the
//!   module reached so far (members after an item must be a `pub` or
//!   `fn` name somewhere in the crate). Brace groups expand, `*` accepts
//!   any module, and `monatt_perf` is the `benchmark/` package;
//! * a backticked file path must exist. A path whose first component is
//!   an entry of the repository root is repo-relative; any other (the
//!   `core/src/session.rs`, `cloud/events.rs` shorthand) must exist under
//!   `crates/` or under some `crates/<crate>/src/`.
//!
//! DESIGN.md also has a size budget: it states the current design once
//! per subsystem, and run tables live in CHANGES.md.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 4] = [
    "DESIGN.md",
    "README.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];
const DESIGN_MAX_LINES: usize = 1_000;
/// Extensions that make a backticked span with a `/` a file path (a
/// span like `UNDER/OVER/BOOST` is not one).
const FILE_EXTENSIONS: [&str; 9] = [
    "rs", "md", "json", "toml", "txt", "sh", "yml", "allow", "lock",
];
/// Keywords after which `pub` declares a named item.
const ITEM_KEYWORDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `a{b,c{d,e}}f` → `abf`, `acdf`, `acef`.
fn expand_braces(s: &str) -> Vec<String> {
    let Some(open) = s.find('{') else {
        return vec![s.to_owned()];
    };
    let mut depth = 0;
    let mut close = None;
    let mut commas = Vec::new();
    for (i, c) in s[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    close = Some(open + i);
                    break;
                }
            }
            ',' if depth == 1 => commas.push(open + i),
            _ => {}
        }
    }
    let Some(close) = close else {
        return vec![s.to_owned()];
    };
    let bounds: Vec<usize> = std::iter::once(open).chain(commas).chain([close]).collect();
    bounds
        .windows(2)
        .flat_map(|w| {
            let alt = s[w[0] + 1..w[1]].trim();
            expand_braces(&format!("{}{alt}{}", &s[..open], &s[close + 1..]))
        })
        .collect()
}

/// Removes fenced code blocks (commands, not references).
fn prose(text: &str) -> String {
    let mut fenced = false;
    let mut out = String::new();
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Every `monatt_<crate>::…` path in `text`, brace groups expanded.
fn rust_paths(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (start, _) in text.match_indices("monatt_") {
        if text[..start].chars().next_back().is_some_and(is_ident) {
            continue;
        }
        let rest = &text[start..];
        let mut end = rest.find(|c| !is_ident(c)).unwrap_or(rest.len());
        while let Some(tail) = rest[end..].strip_prefix("::") {
            let len = match tail.chars().next() {
                Some('*') => 1,
                Some('{') => match tail.find('}') {
                    Some(close) => close + 1,
                    None => break,
                },
                Some(c) if is_ident(c) => tail.find(|c| !is_ident(c)).unwrap_or(tail.len()),
                _ => break,
            };
            end += 2 + len;
        }
        // `monatt_<crate>` and the like are placeholders, not paths.
        if end > "monatt_".len() {
            out.extend(expand_braces(&rest[..end]));
        }
    }
    out
}

/// Identifier and single-character punctuation tokens of `source`,
/// line comments dropped.
fn tokens(source: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for line in source.lines() {
        let code = line.find("//").map_or(line, |i| &line[..i]);
        let mut rest = code;
        while let Some(c) = rest.chars().next() {
            let len = if is_ident(c) {
                rest.find(|c| !is_ident(c)).unwrap_or(rest.len())
            } else {
                c.len_utf8()
            };
            if !c.is_whitespace() {
                out.push(&rest[..len]);
            }
            rest = &rest[len..];
        }
    }
    out
}

/// Names a module file makes public: `pub` items and fields, and every
/// name in a `pub use`.
fn pub_names(source: &str) -> BTreeSet<String> {
    let toks = tokens(source);
    let mut names = BTreeSet::new();
    for (i, _) in toks.iter().enumerate().filter(|(_, t)| **t == "pub") {
        let after = &toks[i + 1..];
        match after.first().copied() {
            Some("(") | None => {}
            Some("use") => names.extend(
                after
                    .iter()
                    .take_while(|t| **t != ";")
                    .filter(|t| t.starts_with(is_ident))
                    .map(|t| t.to_string()),
            ),
            // A field: `pub name: Type`.
            Some(name) if after.get(1) == Some(&":") => {
                names.insert(name.to_owned());
            }
            Some(_) => {
                let declared = after.windows(2).take(4).find(|w| {
                    ITEM_KEYWORDS.contains(&w[0])
                        && w[1].starts_with(is_ident)
                        && !ITEM_KEYWORDS.contains(&w[1])
                });
                if let Some(w) = declared {
                    names.insert(w[1].to_owned());
                }
            }
        }
    }
    names
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The `src/` of the package named `monatt-<suffix>`.
fn crate_src(name: &str) -> Option<PathBuf> {
    let suffix = name.strip_prefix("monatt_")?;
    let dir = match suffix {
        "perf" => root().join("benchmark"),
        _ => root().join("crates").join(suffix),
    };
    let manifest = fs::read_to_string(dir.join("Cargo.toml")).ok()?;
    let package = format!("name = \"monatt-{}\"", suffix.replace('_', "-"));
    manifest.contains(&package).then(|| dir.join("src"))
}

fn resolve_rust_path(path: &str) -> Result<(), String> {
    let segments: Vec<&str> = path.split("::").collect();
    let src = crate_src(segments[0]).ok_or("no such crate")?;
    let (mut dir, mut file) = (src.clone(), src.join("lib.rs"));
    for (i, &segment) in segments.iter().enumerate().skip(1) {
        if segment == "*" && i + 1 == segments.len() {
            return Ok(());
        }
        let module = [
            dir.join(format!("{segment}.rs")),
            dir.join(segment).join("mod.rs"),
        ]
        .into_iter()
        .find(|f| f.is_file());
        if let Some(module) = module {
            dir = dir.join(segment);
            file = module;
            continue;
        }
        if !pub_names(&read(&file)).contains(segment) {
            return Err(format!("`{segment}` is neither a module nor a pub item"));
        }
        let mut sources = Vec::new();
        rust_files(&src, &mut sources);
        let sources: Vec<String> = sources.iter().map(|f| read(f)).collect();
        for member in &segments[i + 1..] {
            let declared = sources.iter().any(|s| {
                pub_names(s).contains(*member)
                    || tokens(s)
                        .windows(2)
                        .any(|w| w[0] == "fn" && w[1] == *member)
            });
            if !declared {
                return Err(format!("`{member}` is declared nowhere in the crate"));
            }
        }
        return Ok(());
    }
    Ok(())
}

/// Whether `path` (components may hold one `*`) names something under
/// `base`.
fn exists_under(base: &Path, components: &[&str]) -> bool {
    let Some((first, rest)) = components.split_first() else {
        return base.exists();
    };
    match first.split_once('*') {
        None => exists_under(&base.join(first), rest),
        Some((prefix, suffix)) => fs::read_dir(base)
            .into_iter()
            .flatten()
            .flatten()
            .any(|entry| {
                let name = entry.file_name().to_string_lossy().into_owned();
                name.len() >= prefix.len() + suffix.len()
                    && name.starts_with(prefix)
                    && name.ends_with(suffix)
                    && exists_under(&entry.path(), rest)
            }),
    }
}

/// The file path a backticked span names, if it is one: `a/b.rs`,
/// `a/b/`, `a/*.txt`, with a `:line` or `::item` suffix dropped.
fn file_path(span: &str) -> Option<&str> {
    let span = span.split("::").next()?;
    let span = match span.rsplit_once(':') {
        Some((path, line)) if line.chars().all(|c| c.is_ascii_digit()) => path,
        _ => span,
    };
    let plain = span.chars().all(|c| is_ident(c) || "./-{},*".contains(c));
    let last = span.rsplit('/').next()?;
    let named = span.ends_with('/')
        || span.contains('*')
        || last
            .rsplit_once('.')
            .is_some_and(|(_, ext)| FILE_EXTENSIONS.contains(&ext));
    let relative = !span.starts_with(['/', '-']);
    (span.contains('/') && plain && named && relative).then_some(span)
}

fn resolve_file_path(path: &str) -> bool {
    let components: Vec<&str> = path.trim_end_matches('/').split('/').collect();
    if root().join(components[0]).exists() {
        return exists_under(root(), &components);
    }
    let crates = root().join("crates");
    exists_under(&crates, &components)
        || fs::read_dir(&crates)
            .into_iter()
            .flatten()
            .flatten()
            .any(|c| exists_under(&c.path().join("src"), &components))
}

#[test]
fn design_fits_its_budget() {
    let lines = read(&root().join("DESIGN.md")).lines().count();
    assert!(
        lines <= DESIGN_MAX_LINES,
        "DESIGN.md has {lines} lines (budget {DESIGN_MAX_LINES}): state the current \
         design once; per-run tables belong in CHANGES.md"
    );
}

#[test]
fn rust_paths_in_the_docs_resolve() {
    let mut broken = Vec::new();
    for doc in DOCS {
        for path in rust_paths(&read(&root().join(doc))) {
            if let Err(why) = resolve_rust_path(&path) {
                broken.push(format!("{doc}: `{path}`: {why}"));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "unresolved paths:\n{}",
        broken.join("\n")
    );
}

#[test]
fn file_paths_in_the_docs_exist() {
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = prose(&read(&root().join(doc)));
        for span in text.split('`').skip(1).step_by(2) {
            let Some(path) = file_path(span) else {
                continue;
            };
            for expanded in expand_braces(path) {
                if !resolve_file_path(&expanded) {
                    missing.push(format!("{doc}: `{expanded}`"));
                }
            }
        }
    }
    assert!(missing.is_empty(), "missing files:\n{}", missing.join("\n"));
}

#[test]
fn the_scanners_see_what_they_must() {
    assert_eq!(
        rust_paths("see `monatt_hypervisor::{queue::EventQueue, wheel}` and monatt_core."),
        [
            "monatt_hypervisor::queue::EventQueue",
            "monatt_hypervisor::wheel",
            "monatt_core"
        ]
    );
    assert!(resolve_rust_path("monatt_core::cloud::Cloud::crash_node").is_ok());
    assert!(resolve_rust_path("monatt_perf").is_ok());
    assert!(resolve_rust_path("monatt_tpm::AttestationSession").is_ok());
    assert!(resolve_rust_path("monatt_core::api").is_err());
    assert!(resolve_rust_path("monatt_core::properties::*").is_err());
    assert!(resolve_rust_path("monatt_core::Cloud::no_such_method").is_err());
    assert_eq!(
        file_path("core/src/cloud/mod.rs:357"),
        Some("core/src/cloud/mod.rs")
    );
    assert_eq!(
        file_path("tests/zero_alloc.rs::busy"),
        Some("tests/zero_alloc.rs")
    );
    assert_eq!(file_path("UNDER/OVER/BOOST"), None);
    assert_eq!(file_path("results/<bin>.txt"), None);
    assert!(resolve_file_path("cloud/events.rs"));
    assert!(resolve_file_path("crates/rand-shim/"));
    assert!(resolve_file_path("results/*.txt"));
    assert!(!resolve_file_path("tests/comb_differential.rs"));
}
