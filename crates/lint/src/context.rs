//! Per-file analysis context shared by all rules.
//!
//! Built once from the token stream, it answers the structural questions
//! rules keep asking: is this token inside `#[cfg(test)]` code, which
//! function encloses it, which `#[derive(...)]`s annotate which type, and
//! which lines carry inline suppression comments.

use crate::items::{parse_fns, FnItem};
use crate::lexer::{lex, Lexed, Token, TokenKind};

/// A `#[derive(...)]` (or other attribute) attached to an item.
#[derive(Clone, Debug)]
pub struct DeriveInfo {
    /// The annotated type name.
    pub type_name: String,
    /// Traits listed in the derive.
    pub derives: Vec<String>,
    /// Line of the derive attribute.
    pub line: u32,
}

/// An `impl [Trait for] Type` block.
#[derive(Clone, Debug)]
pub struct ImplInfo {
    /// Last path segment of the implemented trait, if a trait impl.
    pub trait_name: Option<String>,
    /// The implementing type's name (first identifier after `for`, or
    /// after `impl` for inherent impls).
    pub type_name: String,
    /// Token range of the impl body (indices into `tokens`, exclusive of
    /// the braces).
    pub body: (usize, usize),
    /// Line of the `impl` keyword.
    pub line: u32,
}

/// The analysis context for one file.
pub struct FileContext {
    /// Workspace-relative path (used in diagnostics and scoping).
    pub path: String,
    /// The crate directory name (`crypto` for `crates/crypto/src/...`),
    /// empty for the top-level `src/`.
    pub crate_name: String,
    /// Code tokens.
    pub tokens: Vec<Token>,
    /// For each token, whether it sits inside `#[cfg(test)]` / `#[test]`
    /// code. [`crate::Workspace::build`] marks every token of a file that
    /// is compiled only through a test-only `mod name;`.
    pub in_test: Vec<bool>,
    /// Out-of-line module declarations (`mod name;`): the index of the
    /// `mod` token and the module's name.
    pub mod_decls: Vec<(usize, String)>,
    /// For each token, the name of the innermost enclosing `fn` (empty if
    /// none).
    pub enclosing_fn: Vec<String>,
    /// Derive attributes found in the file.
    pub derives: Vec<DeriveInfo>,
    /// Impl blocks found in the file.
    pub impls: Vec<ImplInfo>,
    /// Struct and enum names defined in this file.
    pub defined_types: Vec<(String, u32)>,
    /// Parsed `fn` items (free functions, methods, nested fns).
    pub items: Vec<FnItem>,
    /// Suppressions: (normalized rule name, comment line).
    pub suppressions: Vec<(String, u32)>,
    /// 1-based lines that carry at least one code token.
    token_lines: Vec<bool>,
}

/// Normalizes a rule name for matching: `-` becomes `_`.
pub fn normalize_rule(name: &str) -> String {
    name.replace('-', "_")
}

impl FileContext {
    /// Lexes and analyzes `src`.
    pub fn new(path: &str, src: &str) -> Self {
        let Lexed { tokens, comments } = lex(src);
        let crate_name = path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .unwrap_or("")
            .to_string();
        let in_test = mark_test_regions(&tokens);
        let mod_decls = collect_mod_decls(&tokens);
        let enclosing_fn = mark_fn_scopes(&tokens);
        let (derives, defined_types) = collect_derives_and_types(&tokens);
        let impls = collect_impls(&tokens);
        let items = parse_fns(&tokens);
        let mut suppressions = Vec::new();
        for c in &comments {
            // Doc comments are documentation, not directives: a rule
            // name *mentioned* in rustdoc must not suppress findings.
            if is_doc_comment(&c.text) {
                continue;
            }
            collect_suppressions(&c.text, c.line, &mut suppressions);
        }
        let max_line = tokens.last().map(|t| t.line as usize).unwrap_or(0);
        let mut token_lines = vec![false; max_line + 2];
        for t in &tokens {
            token_lines[t.line as usize] = true;
        }
        FileContext {
            path: path.to_string(),
            crate_name,
            tokens,
            in_test,
            mod_decls,
            enclosing_fn,
            derives,
            impls,
            defined_types,
            items,
            suppressions,
            token_lines,
        }
    }

    /// True if a finding of `rule` at `line` is suppressed by an inline
    /// comment: the comment sits on the same line, or on an earlier line
    /// with no code tokens in between (attribute-style placement above the
    /// offending line).
    pub fn is_suppressed(&self, rule: &str, line: u32) -> bool {
        let rule = normalize_rule(rule);
        self.suppressions.iter().any(|(r, cl)| {
            if *r != rule || *cl > line {
                return false;
            }
            if *cl == line {
                return true;
            }
            // An earlier comment only reaches down if it stands alone on
            // its line (attribute style) and no code intervenes; a trailing
            // comment on a code line suppresses that line only.
            (*cl..line).all(|l| !self.token_lines.get(l as usize).copied().unwrap_or(false))
        })
    }

    /// The files a `mod name;` in this file may declare: `name.rs` or
    /// `name/mod.rs` beside a `lib.rs`, `main.rs` or `mod.rs`, under a
    /// directory named after any other file.
    pub fn module_paths(&self, name: &str) -> [String; 2] {
        let (dir, file) = self.path.rsplit_once('/').unwrap_or(("", &self.path));
        let stem = file.strip_suffix(".rs").unwrap_or(file);
        let dir = match stem {
            "lib" | "main" | "mod" => dir.to_string(),
            _ if dir.is_empty() => stem.to_string(),
            _ => format!("{dir}/{stem}"),
        };
        let prefix = if dir.is_empty() {
            String::new()
        } else {
            format!("{dir}/")
        };
        [
            format!("{prefix}{name}.rs"),
            format!("{prefix}{name}/mod.rs"),
        ]
    }

    /// The token index range of the body of the impl of `trait_name` for
    /// `type_name`, if present.
    pub fn impl_body(&self, trait_name: &str, type_name: &str) -> Option<(usize, usize)> {
        self.impls
            .iter()
            .find(|i| i.trait_name.as_deref() == Some(trait_name) && i.type_name == type_name)
            .map(|i| i.body)
    }
}

/// True for `///`, `//!`, `/**`, and `/*!` doc comments (but not the
/// plain `//`/`/*` forms, and not the `////`/`/***` non-doc forms).
fn is_doc_comment(text: &str) -> bool {
    (text.starts_with("///") && !text.starts_with("////"))
        || text.starts_with("//!")
        || (text.starts_with("/**") && !text.starts_with("/***") && text != "/**/")
        || text.starts_with("/*!")
}

/// Parses `#[allow(monatt::rule, monatt::other)]`-style text inside a
/// comment. Both `monatt::secret_hygiene` and `monatt::secret-hygiene`
/// spellings are accepted.
fn collect_suppressions(text: &str, line: u32, out: &mut Vec<(String, u32)>) {
    let mut rest = text;
    while let Some(idx) = rest.find("monatt::") {
        rest = &rest[idx + "monatt::".len()..];
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '-')
            .collect();
        if !name.is_empty() {
            out.push((normalize_rule(&name), line));
        }
    }
}

/// Finds the matching close delimiter for the open delimiter at `open`,
/// returning the index of the closer (or the last token if unbalanced).
pub fn match_delim(tokens: &[Token], open: usize) -> usize {
    let (o, c) = match tokens[open].text.as_str() {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        "{" => ("{", "}"),
        _ => return open,
    };
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.kind == TokenKind::Punct {
            if t.text == o {
                depth += 1;
            } else if t.text == c {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Marks tokens inside `#[cfg(test)]` items and `#[test]` functions. An
/// item without a body (`#[cfg(test)] mod t;`) is marked up to its `;`.
fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct("#") && i + 1 < tokens.len() && tokens[i + 1].is_punct("[") {
            let close = match_delim(tokens, i + 1);
            let attr = &tokens[i + 2..close];
            let is_test_attr = (attr.first().is_some_and(|t| t.is_ident("cfg"))
                && attr.iter().any(|t| t.is_ident("test")))
                || (attr.len() == 1 && attr[0].is_ident("test"));
            if is_test_attr {
                // Find the item's end: its body's closing `}`, or a `;`
                // at this level before any `{` (`#[cfg(test)] mod t;`).
                let mut j = close + 1;
                let mut end = None;
                while j < tokens.len() {
                    let t = &tokens[j];
                    if t.is_punct("{") {
                        end = Some(match_delim(tokens, j));
                        break;
                    }
                    if t.is_punct(";") {
                        end = Some(j);
                        break;
                    }
                    if t.is_punct("(") || t.is_punct("[") {
                        j = match_delim(tokens, j);
                    }
                    j += 1;
                }
                if let Some(end) = end {
                    for flag in in_test.iter_mut().take(end + 1).skip(i) {
                        *flag = true;
                    }
                    i = end + 1;
                    continue;
                }
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    in_test
}

/// Finds every `mod name;`: a module whose body is another file.
fn collect_mod_decls(tokens: &[Token]) -> Vec<(usize, String)> {
    let decl = |w: &[Token]| {
        (w[0].is_ident("mod") && w[1].kind == TokenKind::Ident && w[2].is_punct(";"))
            .then(|| w[1].text.clone())
    };
    let windows = tokens.windows(3).enumerate();
    windows.filter_map(|(i, w)| Some((i, decl(w)?))).collect()
}

/// Computes the innermost enclosing function name for every token.
fn mark_fn_scopes(tokens: &[Token]) -> Vec<String> {
    let mut out = vec![String::new(); tokens.len()];
    // Stack of (fn name, depth of its body's open brace).
    let mut stack: Vec<(String, usize)> = Vec::new();
    let mut pending: Option<String> = None;
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate() {
        if let Some((name, _)) = stack.last() {
            out[i] = name.clone();
        }
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "{" => {
                    depth += 1;
                    if let Some(name) = pending.take() {
                        stack.push((name, depth));
                        out[i] = stack.last().map(|(n, _)| n.clone()).unwrap_or_default();
                    }
                }
                "}" => {
                    if let Some((_, d)) = stack.last() {
                        if *d == depth {
                            stack.pop();
                        }
                    }
                    depth = depth.saturating_sub(1);
                }
                ";" => {
                    // Trait method declaration without a body.
                    pending = None;
                }
                _ => {}
            }
        } else if t.is_ident("fn") {
            if let Some(name_tok) = tokens.get(i + 1) {
                if name_tok.kind == TokenKind::Ident {
                    pending = Some(name_tok.text.clone());
                }
            }
        }
    }
    out
}

/// Collects `#[derive(...)]` attributes with the type they annotate, plus
/// all struct/enum definitions.
fn collect_derives_and_types(tokens: &[Token]) -> (Vec<DeriveInfo>, Vec<(String, u32)>) {
    let mut derives = Vec::new();
    let mut types = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if (t.is_ident("struct") || t.is_ident("enum"))
            && tokens
                .get(i + 1)
                .is_some_and(|n| n.kind == TokenKind::Ident)
        {
            // Skip `impl Trait for struct`-like false matches: `struct` is
            // a keyword, so any `struct Name` sequence is a definition.
            types.push((tokens[i + 1].text.clone(), t.line));
            i += 2;
            continue;
        }
        if t.is_punct("#") && tokens.get(i + 1).is_some_and(|n| n.is_punct("[")) {
            let close = match_delim(tokens, i + 1);
            let attr = &tokens[i + 2..close];
            if attr.first().is_some_and(|a| a.is_ident("derive")) {
                let list: Vec<String> = attr
                    .iter()
                    .skip(1)
                    .filter(|a| a.kind == TokenKind::Ident)
                    .map(|a| a.text.clone())
                    .collect();
                // Scan forward past further attributes and visibility for
                // the annotated struct/enum name.
                let mut j = close + 1;
                while j < tokens.len() {
                    let n = &tokens[j];
                    if n.is_punct("#") && tokens.get(j + 1).is_some_and(|x| x.is_punct("[")) {
                        j = match_delim(tokens, j + 1) + 1;
                        continue;
                    }
                    if n.is_ident("pub") {
                        if tokens.get(j + 1).is_some_and(|x| x.is_punct("(")) {
                            j = match_delim(tokens, j + 1) + 1;
                        } else {
                            j += 1;
                        }
                        continue;
                    }
                    if n.is_ident("struct") || n.is_ident("enum") || n.is_ident("union") {
                        if let Some(name_tok) = tokens.get(j + 1) {
                            derives.push(DeriveInfo {
                                type_name: name_tok.text.clone(),
                                derives: list,
                                line: t.line,
                            });
                        }
                        break;
                    }
                    // Anything else (fn, impl, const…): derive does not
                    // apply to a type definition we track.
                    break;
                }
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    (derives, types)
}

/// Collects `impl` blocks with trait and type names.
fn collect_impls(tokens: &[Token]) -> Vec<ImplInfo> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("impl") {
            i += 1;
            continue;
        }
        let line = tokens[i].line;
        // Walk to the body `{`, collecting identifiers and noting `for`.
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut before_for: Vec<String> = Vec::new();
        let mut after_for: Vec<String> = Vec::new();
        let mut saw_for = false;
        let mut body = None;
        while j < tokens.len() {
            let t = &tokens[j];
            match t.kind {
                TokenKind::Punct => match t.text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    ">>" => angle -= 2,
                    "{" if angle <= 0 => {
                        body = Some((j + 1, match_delim(tokens, j)));
                        break;
                    }
                    ";" => break,
                    "(" | "[" => j = match_delim(tokens, j),
                    _ => {}
                },
                TokenKind::Ident if t.text == "for" && angle <= 0 => saw_for = true,
                TokenKind::Ident if t.text == "where" => {}
                TokenKind::Ident if angle <= 0 => {
                    if saw_for {
                        after_for.push(t.text.clone());
                    } else {
                        before_for.push(t.text.clone());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if let Some(body) = body {
            let (trait_name, type_name) = if saw_for {
                (before_for.last().cloned(), after_for.first().cloned())
            } else {
                (None, before_for.first().cloned())
            };
            if let Some(type_name) = type_name {
                out.push(ImplInfo {
                    trait_name,
                    type_name,
                    body,
                    line,
                });
            }
            i = body.0;
            continue;
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_regions_cover_cfg_test_mod() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn b() { y.unwrap(); } }";
        let ctx = FileContext::new("crates/core/src/x.rs", src);
        let unwraps: Vec<usize> = ctx
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!ctx.in_test[unwraps[0]]);
        assert!(ctx.in_test[unwraps[1]]);
    }

    #[test]
    fn test_only_mod_decl_marked_and_resolved() {
        let src = "#[cfg(test)]\nmod same;\nmod fleet;";
        let ctx = FileContext::new("crates/core/src/cloud/mod.rs", src);
        let names: Vec<(&str, bool)> = ctx
            .mod_decls
            .iter()
            .map(|(tok, name)| (name.as_str(), ctx.in_test[*tok]))
            .collect();
        assert_eq!(names, [("same", true), ("fleet", false)]);
        assert_eq!(
            ctx.module_paths("same"),
            [
                "crates/core/src/cloud/same.rs",
                "crates/core/src/cloud/same/mod.rs"
            ]
        );
        let nested = FileContext::new("crates/core/src/cloud/same.rs", "");
        assert_eq!(
            nested.module_paths("rows")[0],
            "crates/core/src/cloud/same/rows.rs"
        );
    }

    #[test]
    fn test_attr_fn_marked() {
        let src = "#[test]\nfn works() { assert!(true); }\nfn not_test() {}";
        let ctx = FileContext::new("crates/core/src/x.rs", src);
        let assert_idx = ctx
            .tokens
            .iter()
            .position(|t| t.is_ident("assert"))
            .unwrap();
        assert!(ctx.in_test[assert_idx]);
        let nt = ctx
            .tokens
            .iter()
            .position(|t| t.is_ident("not_test"))
            .unwrap();
        assert!(!ctx.in_test[nt]);
    }

    #[test]
    fn enclosing_fn_names() {
        let src = "fn outer() { let c = |x: u32| { inner_marker; }; outer_marker; }";
        let ctx = FileContext::new("crates/core/src/x.rs", src);
        let im = ctx
            .tokens
            .iter()
            .position(|t| t.is_ident("inner_marker"))
            .unwrap();
        let om = ctx
            .tokens
            .iter()
            .position(|t| t.is_ident("outer_marker"))
            .unwrap();
        assert_eq!(ctx.enclosing_fn[im], "outer");
        assert_eq!(ctx.enclosing_fn[om], "outer");
    }

    #[test]
    fn derive_attribution() {
        let src = "#[derive(Clone, Debug)]\n#[non_exhaustive]\npub struct SealKey { k: u8 }";
        let ctx = FileContext::new("crates/crypto/src/x.rs", src);
        assert_eq!(ctx.derives.len(), 1);
        assert_eq!(ctx.derives[0].type_name, "SealKey");
        assert!(ctx.derives[0].derives.iter().any(|d| d == "Debug"));
        assert_eq!(ctx.defined_types.len(), 1);
    }

    #[test]
    fn impl_collection() {
        let src = "impl std::fmt::Debug for SealKey { fn fmt(&self) {} }\nimpl SealKey { fn new() {} }\nimpl Drop for SealKey { fn drop(&mut self) { zeroize(); } }";
        let ctx = FileContext::new("crates/crypto/src/x.rs", src);
        assert!(ctx.impl_body("Debug", "SealKey").is_some());
        assert!(ctx.impl_body("Drop", "SealKey").is_some());
        let inherent = ctx
            .impls
            .iter()
            .find(|i| i.trait_name.is_none())
            .expect("inherent impl");
        assert_eq!(inherent.type_name, "SealKey");
    }

    #[test]
    fn suppression_same_and_previous_line() {
        let src = "// #[allow(monatt::panic_freedom)]\nx.unwrap();\ny.unwrap(); // #[allow(monatt::panic-freedom)]\nz.unwrap();";
        let ctx = FileContext::new("crates/core/src/x.rs", src);
        assert!(ctx.is_suppressed("panic_freedom", 2));
        assert!(ctx.is_suppressed("panic_freedom", 3));
        assert!(!ctx.is_suppressed("panic_freedom", 4));
        assert!(!ctx.is_suppressed("secret_hygiene", 2));
    }

    #[test]
    fn crate_name_extraction() {
        assert_eq!(
            FileContext::new("crates/net/src/channel.rs", "").crate_name,
            "net"
        );
        assert_eq!(FileContext::new("src/lib.rs", "").crate_name, "");
    }
}
