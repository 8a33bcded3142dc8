//! A lightweight Rust token/item parser for the audit pass.
//!
//! The audit analyses (DESIGN.md §6f) need more structure than the lint
//! pass's line scanning — they reason about *functions* (lock scopes,
//! resource lifetimes) and *adjacency in the token stream* (operator
//! neighbours of an identifier). This module provides exactly that much
//! structure and no more: a flat token stream with source lines, plus
//! brace-matched `fn` extents. It is not a grammar; expressions are never
//! built into trees. The deliberate blind spots are documented in
//! DESIGN.md §6f alongside each analysis that inherits them.
//!
//! Input is the output of [`crate::lint::sanitize`], so comments and string
//! literals are already gone and the `audit:allow` suppression markers are
//! matched against the *raw* lines, never the token stream.

use std::collections::BTreeSet;
use std::ops::Range;

use crate::lint::{in_test_dir, sanitize};

/// One lexical token and the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub text: String,
    pub line: usize,
}

impl Token {
    /// Identifier, keyword, or numeric literal (word-shaped).
    pub fn is_word(&self) -> bool {
        self.text
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
    }

    /// Identifier or keyword: word-shaped and not starting with a digit.
    pub fn is_name(&self) -> bool {
        self.text
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
    }
}

/// Two-character operators kept as single tokens; everything else
/// non-word-shaped becomes a one-character token.
const OPS2: &[&str] = &[
    "::", "->", "=>", "+=", "-=", "*=", "/=", "%=", "==", "!=", "<=", ">=", "&&", "||", "..",
    "<<", ">>", "&=", "|=", "^=",
];

/// Tokenize sanitized source lines into a flat stream. Whitespace is
/// dropped; words (identifiers/keywords/number literals) and the operators
/// in `OPS2` stay intact; every other character is its own token.
pub fn tokenize(clean: &[String]) -> Vec<Token> {
    let mut out = Vec::new();
    for (idx, line) in clean.iter().enumerate() {
        let lineno = idx + 1;
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if c.is_alphanumeric() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Token { text: chars[start..i].iter().collect(), line: lineno });
            } else {
                let pair: String = chars[i..(i + 2).min(chars.len())].iter().collect();
                let text = if OPS2.contains(&pair.as_str()) {
                    i += 2;
                    pair
                } else {
                    i += 1;
                    c.to_string()
                };
                out.push(Token { text, line: lineno });
            }
        }
    }
    out
}

/// A `fn` item located in the token stream.
///
/// Extraction is linear and non-recursive: after a function body closes,
/// scanning resumes *past* it, so a named `fn` nested inside another
/// function is analysed as part of its enclosing body, not separately.
/// Closures are always part of the enclosing body.
#[derive(Debug, Clone)]
pub struct Function {
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Token range between the name and the body's `{` (parameters, return
    /// type, where-clause).
    pub sig: Range<usize>,
    /// Token range strictly inside the body braces.
    pub body: Range<usize>,
}

/// Extract every top-level `fn` (including methods inside `impl`/`trait`
/// blocks, which the linear scan reaches naturally). Trait method
/// *declarations* (ending in `;`) and `fn` pointer types have no body and
/// are skipped.
pub fn functions(tokens: &[Token]) -> Vec<Function> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text == "fn" && tokens.get(i + 1).is_some_and(Token::is_name) {
            if let Some(f) = extract_fn(tokens, i) {
                i = f.body.end + 1;
                out.push(f);
                continue;
            }
        }
        i += 1;
    }
    out
}

fn extract_fn(tokens: &[Token], at: usize) -> Option<Function> {
    let name = tokens[at + 1].text.clone();
    let line = tokens[at].line;
    let sig_start = at + 2;
    let mut j = sig_start;
    let mut nest = 0i64;
    let open = loop {
        let t = tokens.get(j)?;
        match t.text.as_str() {
            "(" | "[" => nest += 1,
            ")" | "]" => nest -= 1,
            "{" if nest == 0 => break j,
            ";" if nest == 0 => return None, // declaration without a body
            _ => {}
        }
        j += 1;
    };
    let mut depth = 1i64;
    let mut k = open + 1;
    while depth > 0 {
        match tokens.get(k)?.text.as_str() {
            "{" => depth += 1,
            "}" => depth -= 1,
            _ => {}
        }
        k += 1;
    }
    Some(Function { name, line, sig: sig_start..open, body: open + 1..k - 1 })
}

/// The `impl` blocks of a token stream: each body's token range paired with
/// the name of the *implemented type* (for `impl Trait for Type`, the type —
/// the interprocedural pass resolves `Type::method` and `self.method`
/// against the Self type, never the trait). Generic parameters on the type
/// (`ShardState<P>`) are dropped; only the head identifier is kept.
pub fn impl_owners(tokens: &[Token]) -> Vec<(Range<usize>, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text != "impl" {
            i += 1;
            continue;
        }
        // Header: `impl` [<…>] Path [<…>] [for Path [<…>]] [where …] `{`.
        // The owner is the last path-head identifier seen at angle-depth 0
        // before the body opens, restarting the scan after `for`.
        let mut owner: Option<String> = None;
        let mut angle = 0i64;
        let mut j = i + 1;
        let open = loop {
            let Some(t) = tokens.get(j) else { break None };
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "{" if angle <= 0 => break Some(j),
                ";" if angle <= 0 => break None, // `impl Trait for Type;` — malformed, skip
                "for" if angle <= 0 => owner = None,
                "where" if angle <= 0 => {
                    // The where-clause can mention other types; stop updating.
                    let close = loop {
                        let Some(w) = tokens.get(j) else { break None };
                        if w.text == "{" {
                            break Some(j);
                        }
                        j += 1;
                    };
                    break close;
                }
                _ if angle <= 0 && t.is_name() && owner.is_none() => {
                    owner = Some(t.text.clone());
                }
                // `impl module::Type {` — keep the last segment.
                "::" if angle <= 0 && tokens.get(j + 1).is_some_and(Token::is_name) => {
                    owner = Some(tokens[j + 1].text.clone());
                    j += 1;
                }
                _ => {}
            }
            j += 1;
        };
        let Some(open) = open else {
            i = j + 1;
            continue;
        };
        // Body extent: matched braces.
        let mut depth = 0i64;
        let mut k = open;
        while k < tokens.len() {
            match tokens[k].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        if let Some(name) = owner {
            out.push((open + 1..k, name));
        }
        i = open + 1; // nested impls are not a thing; resume inside anyway
    }
    out
}

/// The crate a repo-relative path belongs to (`crates/<name>/src/…` →
/// `<name>`); files outside the `crates/` layout (fixture trees) fall back
/// to the first path component.
pub fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_string(),
        (Some(first), _) => first.to_string(),
        _ => String::new(),
    }
}

/// Sort every `fn` name into two sets by return type: `result` when the
/// return type mentions `Result`, `plain` otherwise. Scans at any nesting
/// level (the dropped-result analysis needs nested helpers too, which
/// [`functions`] deliberately does not separate out). A name can land in
/// both sets when two functions share it — the dropped-result analysis
/// treats that as ambiguous and stays silent for method calls.
pub fn fn_return_kinds(
    tokens: &[Token],
    result: &mut BTreeSet<String>,
    plain: &mut BTreeSet<String>,
) {
    for i in 0..tokens.len() {
        if tokens[i].text != "fn" || !tokens.get(i + 1).is_some_and(Token::is_name) {
            continue;
        }
        let mut j = i + 2;
        let mut nest = 0i64;
        let mut arrow = false;
        let mut returns_result = false;
        while let Some(t) = tokens.get(j) {
            match t.text.as_str() {
                "(" | "[" => nest += 1,
                ")" | "]" => nest -= 1,
                "->" if nest == 0 => arrow = true,
                "{" | ";" if nest == 0 => break,
                "Result" if arrow => returns_result = true,
                _ => {}
            }
            j += 1;
        }
        if returns_result {
            result.insert(tokens[i + 1].text.clone());
        } else {
            plain.insert(tokens[i + 1].text.clone());
        }
    }
}

/// One parsed source file: raw lines (for report snippets and the
/// `audit:allow` suppression markers), the token stream over the sanitized
/// non-test code, and the extracted functions.
#[derive(Clone)]
pub struct SourceFile {
    /// Repo-relative path with `/` separators.
    pub rel: String,
    pub raw: Vec<String>,
    pub tokens: Vec<Token>,
    pub functions: Vec<Function>,
}

/// Parse one source file. Mirrors the lint pass's test-code convention:
/// everything from the first top-level `#[cfg(test)]` onward is dropped
/// before tokenizing.
pub fn parse_source(rel: &str, source: &str) -> SourceFile {
    let mut clean = sanitize(source);
    let code_end = clean
        .iter()
        .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
        .unwrap_or(clean.len());
    clean.truncate(code_end);
    let tokens = tokenize(&clean);
    let functions = functions(&tokens);
    SourceFile {
        rel: rel.to_string(),
        raw: source.lines().map(str::to_string).collect(),
        tokens,
        functions,
    }
}

/// Parse the non-test `.rs` files among already-read sources (see
/// [`read_tree`](crate::lint::read_tree)): `tests/`, `benches/`, and
/// `examples/` directories are out of scope, as are the vendored `shims/`
/// (offline dependency stand-ins, not product code).
pub fn parse_sources(sources: &[(String, String)]) -> Vec<SourceFile> {
    sources
        .iter()
        .filter(|(rel, _)| rel.ends_with(".rs") && !rel.starts_with("shims/") && !in_test_dir(rel))
        .map(|(rel, source)| parse_source(rel, source))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        tokenize(&sanitize(src))
    }

    #[test]
    fn tokens_carry_lines_and_keep_operators() {
        let t = toks("let x = a::b;\nx += y * 2;");
        let texts: Vec<&str> = t.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["let", "x", "=", "a", "::", "b", ";", "x", "+=", "y", "*", "2", ";"]);
        assert_eq!(t[0].line, 1);
        assert_eq!(t[7].line, 2);
    }

    #[test]
    fn strings_and_comments_never_reach_the_stream() {
        let t = toks("call(\"a + b\"); // x * y");
        assert!(t.iter().all(|t| t.text != "+" && t.text != "*"), "{t:?}");
    }

    #[test]
    fn function_extraction_handles_impls_and_nesting() {
        let src = "impl S {\n  fn a(&self) -> u32 { if x { y } else { z } }\n  pub fn b() {}\n}\nfn c(p: &[u8; 4]) {}";
        let t = toks(src);
        let fns = functions(&t);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert_eq!(fns[0].line, 2);
        // Body of `a` spans the nested braces.
        let body: Vec<&str> = t[fns[0].body.clone()].iter().map(|t| t.text.as_str()).collect();
        assert!(body.contains(&"else"), "{body:?}");
    }

    #[test]
    fn trait_declarations_and_fn_pointers_are_skipped() {
        let src = "trait T { fn decl(&self) -> u32; }\nfn take(f: fn(u32) -> u32) { f(1); }";
        let fns = functions(&toks(src));
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["take"]);
    }

    #[test]
    fn result_fns_found_at_any_nesting() {
        let src = "impl S { fn outer(&self) -> Result<u32> { fn inner() -> io::Result<()> { Ok(()) } inner() } }\nfn plain() -> u32 { 3 }";
        let (mut result, mut plain) = (BTreeSet::new(), BTreeSet::new());
        fn_return_kinds(&toks(src), &mut result, &mut plain);
        assert!(result.contains("outer") && result.contains("inner"), "{result:?}");
        assert!(!result.contains("plain"));
        assert!(plain.contains("plain"));
    }

    #[test]
    fn test_tail_is_dropped_before_tokenizing() {
        let f = parse_source("crates/x/src/a.rs", "fn a() {}\n#[cfg(test)]\nmod tests { fn b() {} }");
        assert_eq!(f.functions.len(), 1);
        assert_eq!(f.functions[0].name, "a");
        // Raw lines are kept in full for suppression markers.
        assert_eq!(f.raw.len(), 3);
    }
}
