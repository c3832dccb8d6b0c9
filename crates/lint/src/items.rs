//! A lightweight item-level parser over the token stream.
//!
//! The workspace rules added in lint v2 (`determinism`, `alloc_freedom`,
//! `secret_taint`) reason about *functions* — their names, parameter
//! lists, attributes, and body token ranges — not just raw tokens. This
//! module recovers exactly that structure from the [`crate::lexer`]
//! output without a full Rust grammar: it recognizes `fn` items (free
//! functions, methods inside `impl` blocks, and nested functions),
//! splits parameter lists at top-level commas, and records which
//! attributes (`#[cold]`, `#[inline]`, `#[cfg(test)]`, …) annotate each
//! function.
//!
//! Known limits (see DESIGN.md §9): generic arguments are skipped by
//! angle-bracket counting (with `>>` split as two closers), parameter
//! *patterns* are reduced to their last identifier (`mut buf: &mut Vec`
//! → `buf`; destructuring patterns keep only the final binding), and
//! closures are not items — their tokens belong to the enclosing `fn`.

use crate::context::match_delim;
use crate::lexer::{Token, TokenKind};

/// One `fn` item recovered from a file's token stream.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function name (raw-identifier prefix `r#` stripped).
    pub name: String,
    /// Parameter binding names in declaration order. A receiver of any
    /// form (`self`, `&self`, `&mut self`, `mut self`) appears as
    /// `"self"` in position 0.
    pub params: Vec<String>,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Token range of the body, exclusive of the braces; `None` for
    /// bodiless declarations (trait methods, extern fns).
    pub body: Option<(usize, usize)>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Attribute texts attached to this function, each rendered as the
    /// space-joined tokens inside `#[...]` (e.g. `"cold"`,
    /// `"cfg ( test )"`).
    pub attrs: Vec<String>,
    /// The implementing type, when the fn sits directly inside an
    /// `impl` block (`None` for free and nested functions).
    pub impl_type: Option<String>,
}

impl FnItem {
    /// True if any attribute's first token is `name` (`has_attr("cold")`
    /// matches `#[cold]` but not `#[cfg(cold)]`).
    pub fn has_attr(&self, name: &str) -> bool {
        self.attrs
            .iter()
            .any(|a| a.split_whitespace().next() == Some(name))
    }
}

/// Strips a raw-identifier prefix.
fn ident_name(text: &str) -> String {
    text.strip_prefix("r#").unwrap_or(text).to_string()
}

/// Parses every `fn` item in `tokens`. Nested functions are returned as
/// their own items; their bodies are subranges of the enclosing body.
pub fn parse_fns(tokens: &[Token]) -> Vec<FnItem> {
    let mut out = Vec::new();
    // Stack of (impl type name, body close index) for impl-type
    // attribution of methods.
    let mut impl_stack: Vec<(String, usize)> = Vec::new();
    // Attributes seen since the last item keyword, waiting to attach.
    let mut pending_attrs: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        impl_stack.retain(|(_, close)| i <= *close);
        if t.is_punct("#") && tokens.get(i + 1).is_some_and(|n| n.is_punct("[")) {
            let close = match_delim(tokens, i + 1);
            let text = tokens[i + 2..close]
                .iter()
                .map(|t| t.text.as_str())
                .collect::<Vec<_>>()
                .join(" ");
            pending_attrs.push(text);
            i = close + 1;
            continue;
        }
        if t.is_ident("impl") {
            if let Some(info) = parse_impl_header(tokens, i) {
                impl_stack.push(info);
                pending_attrs.clear();
            }
            i += 1;
            continue;
        }
        if t.is_ident("fn") {
            let (item, next) = parse_fn(tokens, i, std::mem::take(&mut pending_attrs));
            let resume = item.as_ref().map_or(next, |f| {
                // Descend into the body so nested fns are found too.
                f.body.map_or(next, |(start, _)| start)
            });
            if let Some(mut f) = item {
                f.impl_type = impl_stack.last().map(|(name, _)| name.clone());
                out.push(f);
            }
            i = resume.max(i + 1);
            continue;
        }
        // Any other token at item position consumes the pending attrs
        // (they belong to a struct/use/const we do not track).
        if t.kind == TokenKind::Ident
            && matches!(
                t.text.as_str(),
                "struct" | "enum" | "union" | "trait" | "mod" | "use" | "const" | "static" | "type"
            )
        {
            pending_attrs.clear();
        }
        i += 1;
    }
    out
}

/// Parses the header of the `impl` at `start`, returning the
/// implementing type name and the body's close-brace index.
fn parse_impl_header(tokens: &[Token], start: usize) -> Option<(String, usize)> {
    let mut j = start + 1;
    let mut angle = 0i32;
    let mut saw_for = false;
    let mut before: Option<String> = None;
    let mut after: Option<String> = None;
    while j < tokens.len() {
        let t = &tokens[j];
        match t.kind {
            TokenKind::Punct => match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "{" if angle <= 0 => {
                    let close = match_delim(tokens, j);
                    let name = if saw_for { after } else { before };
                    return name.map(|n| (n, close));
                }
                ";" => return None,
                "(" | "[" => j = match_delim(tokens, j),
                _ => {}
            },
            TokenKind::Ident if t.text == "for" && angle <= 0 => saw_for = true,
            TokenKind::Ident if angle <= 0 && t.text != "where" => {
                if saw_for {
                    after.get_or_insert_with(|| ident_name(&t.text));
                } else {
                    before = Some(ident_name(&t.text));
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Parses one `fn` starting at the `fn` keyword index. Returns the item
/// (if a name was found) and the index to resume scanning from when the
/// caller does not descend into the body.
fn parse_fn(tokens: &[Token], fn_tok: usize, attrs: Vec<String>) -> (Option<FnItem>, usize) {
    let name_tok = match tokens.get(fn_tok + 1) {
        Some(t) if t.kind == TokenKind::Ident => t,
        _ => return (None, fn_tok + 1),
    };
    let name = ident_name(&name_tok.text);
    let mut j = fn_tok + 2;
    // Skip generic parameters, counting `>>` as two closers (the
    // shift-vs-generic ambiguity: inside a generic list it always
    // closes two levels).
    if tokens.get(j).is_some_and(|t| t.is_punct("<")) {
        let mut angle = 0i32;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "<" if tokens[j].kind == TokenKind::Punct => angle += 1,
                ">" if tokens[j].kind == TokenKind::Punct => angle -= 1,
                ">>" if tokens[j].kind == TokenKind::Punct => angle -= 2,
                _ => {}
            }
            j += 1;
            if angle <= 0 {
                break;
            }
        }
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct("(")) {
        return (None, j);
    }
    let params_close = match_delim(tokens, j);
    let params = parse_params(&tokens[j + 1..params_close]);
    // Find the body `{` (skipping the return type and where clause) or a
    // terminating `;`.
    let mut k = params_close + 1;
    let mut body = None;
    let mut angle = 0i32;
    while k < tokens.len() {
        let t = &tokens[k];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "->" => {}
                "{" if angle <= 0 => {
                    let close = match_delim(tokens, k);
                    body = Some((k + 1, close));
                    k = close;
                    break;
                }
                ";" if angle <= 0 => break,
                "(" | "[" => k = match_delim(tokens, k),
                _ => {}
            }
        }
        k += 1;
    }
    (
        Some(FnItem {
            name,
            params,
            fn_tok,
            body,
            line: tokens[fn_tok].line,
            attrs,
            impl_type: None,
        }),
        k + 1,
    )
}

/// Extracts binding names from a parameter list's tokens (the slice
/// between the parentheses). Each top-level comma separates one
/// parameter; the binding is the last identifier before the `:` (or the
/// receiver `self`).
fn parse_params(tokens: &[Token]) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut current: Vec<&Token> = Vec::new();
    let flush = |current: &mut Vec<&Token>, out: &mut Vec<String>| {
        if current.is_empty() {
            return;
        }
        // Pattern side: tokens up to the top-level `:` (receivers have
        // no colon). `self` anywhere in the pattern side is a receiver.
        let colon = current
            .iter()
            .position(|t| t.is_punct(":"))
            .unwrap_or(current.len());
        let pattern = &current[..colon];
        if pattern.iter().any(|t| t.is_ident("self")) {
            out.push("self".to_string());
        } else if let Some(t) = pattern
            .iter()
            .rev()
            .find(|t| t.kind == TokenKind::Ident && t.text != "mut" && t.text != "ref")
        {
            out.push(ident_name(&t.text));
        } else {
            out.push(String::new());
        }
        current.clear();
    };
    for t in tokens {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "<" => angle += 1,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "," if depth == 0 && angle <= 0 => {
                    flush(&mut current, &mut out);
                    continue;
                }
                _ => {}
            }
        }
        current.push(t);
    }
    flush(&mut current, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn fns(src: &str) -> Vec<FnItem> {
        parse_fns(&lex(src).tokens)
    }

    #[test]
    fn free_fn_with_params() {
        let items = fns("fn seal(buf: &mut Vec<u8>, tag: [u8; 16]) -> bool { true }");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "seal");
        assert_eq!(items[0].params, ["buf", "tag"]);
        assert!(items[0].body.is_some());
        assert!(items[0].impl_type.is_none());
    }

    #[test]
    fn method_receiver_and_impl_type() {
        let items = fns("impl SecureChannel { fn open(&mut self, record: &[u8]) {} }");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].params, ["self", "record"]);
        assert_eq!(items[0].impl_type.as_deref(), Some("SecureChannel"));
    }

    #[test]
    fn trait_impl_attributes_and_bodiless() {
        let src = "impl Drop for SealKey {\n#[cold]\n#[inline(never)]\nfn drop(&mut self) {}\n}\ntrait T { fn decl(&self); }";
        let items = fns(src);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].impl_type.as_deref(), Some("SealKey"));
        assert!(items[0].has_attr("cold"));
        assert!(items[0].has_attr("inline"));
        assert!(!items[0].has_attr("cfg"));
        assert_eq!(items[1].name, "decl");
        assert!(items[1].body.is_none());
    }

    #[test]
    fn nested_fns_are_found() {
        let items = fns("fn outer() { fn inner(x: u8) {} inner(3); }");
        let names: Vec<_> = items.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
    }

    #[test]
    fn generic_fn_with_shift_close() {
        // `Vec<Vec<u8>>` ends with `>>`, which must close two angle
        // levels for the parameter list to be found.
        let items = fns("fn f<T: Into<Vec<u8>>>(rows: Vec<Vec<u8>>, n: usize) -> usize { n }");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].params, ["rows", "n"]);
    }

    #[test]
    fn destructuring_and_mut_patterns() {
        let items = fns("fn f(mut count: u64, (a, b): (u8, u8), [x, y]: [u8; 2]) {}");
        assert_eq!(items[0].params, ["count", "b", "y"]);
    }

    #[test]
    fn where_clause_and_return_impl() {
        let items =
            fns("fn f<T>(t: T) -> impl Iterator<Item = u8> where T: Clone { [1u8].into_iter() }");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].params, ["t"]);
        assert!(items[0].body.is_some());
    }

    #[test]
    fn raw_identifier_fn_name() {
        let items = fns("fn r#type(r#match: u8) {}");
        assert_eq!(items[0].name, "type");
        assert_eq!(items[0].params, ["match"]);
    }

    #[test]
    fn impl_for_attribution_resets_after_block() {
        let items = fns("impl A { fn m(&self) {} }\nfn free() {}");
        assert_eq!(items[0].impl_type.as_deref(), Some("A"));
        assert!(items[1].impl_type.is_none());
    }
}
