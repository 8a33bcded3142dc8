//! Dropped-`Result` detection.
//!
//! The rule collects the name of every `fn` in the workspace that
//! returns a `Result`, then flags bare call statements (`helper(x);`) whose
//! final call resolves to such a name with the value unused. Statements
//! containing any binding, `?`, control flow, macro `!`, or closure bars
//! are conservatively skipped. Matching is by name only (the parser has no
//! type information), so *method* calls are flagged only when the name is
//! unambiguous: not also defined as a non-Result function anywhere in the
//! workspace, and not one of the ubiquitous std collection/IO method names
//! (`Vec::push` would otherwise match a repo `push` that returns Result).
//! Free-function and `Type::fn` calls match by name directly. The rule
//! backstops `#[must_use]` for the repo's own helpers in positions the
//! compiler cannot see through.

use std::collections::BTreeSet;

use crate::lint::Violation;
use crate::parser::{fn_return_kinds, Function, SourceFile, Token};

use super::AUDIT;

/// Fn-name sets split by return type, for the dropped-result rule.
struct ReturnKinds {
    result: BTreeSet<String>,
    plain: BTreeSet<String>,
}

pub(super) fn analyze(files: &[SourceFile], out: &mut Vec<Violation>) {
    let mut kinds = ReturnKinds { result: BTreeSet::new(), plain: BTreeSet::new() };
    for f in files {
        fn_return_kinds(&f.tokens, &mut kinds.result, &mut kinds.plain);
    }
    for f in files {
        for func in &f.functions {
            dropped_results_in(f, func, &kinds, out);
        }
    }
}

/// Tokens whose presence makes a statement ineligible for the
/// dropped-result rule (bindings, control flow, macros, closures,
/// assignments all give the value somewhere to go or make the shape
/// ambiguous).
const STMT_SKIP: &[&str] = &[
    "let", "=", "==", "?", "return", "match", "if", "while", "for", "loop", "else", "=>", "!",
    "break", "continue", "await", "move", "|", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=",
    "|=", "^=", "..",
];

/// Method names so common on std types that a receiver-less name match is
/// meaningless — never flagged as method calls, whatever the repo defines.
const STD_METHODS: &[&str] = &[
    "push", "push_str", "insert", "remove", "extend", "write", "write_all", "read", "flush",
    "send", "recv", "wait", "clear", "sort", "set", "get", "next", "clone",
];

fn dropped_results_in(
    file: &SourceFile,
    func: &Function,
    kinds: &ReturnKinds,
    out: &mut Vec<Violation>,
) {
    let t = &file.tokens;
    let mut start = func.body.start;
    for i in func.body.clone() {
        match t[i].text.as_str() {
            "{" | "}" => start = i + 1,
            ";" => {
                check_statement(file, func, &t[start..i], kinds, out);
                start = i + 1;
            }
            _ => {}
        }
    }
}

fn check_statement(
    file: &SourceFile,
    func: &Function,
    stmt: &[Token],
    kinds: &ReturnKinds,
    out: &mut Vec<Violation>,
) {
    if stmt.last().is_none_or(|x| x.text != ")") {
        return;
    }
    if stmt.iter().any(|x| STMT_SKIP.contains(&x.text.as_str())) {
        return;
    }
    // The last call at paren depth 0 produces the statement's value.
    let mut depth = 0i64;
    let mut callee: Option<usize> = None;
    for (k, x) in stmt.iter().enumerate() {
        match x.text.as_str() {
            "(" => {
                if depth == 0 && k >= 1 && stmt[k - 1].is_name() {
                    callee = Some(k - 1);
                }
                depth += 1;
            }
            ")" => depth -= 1,
            _ => {}
        }
    }
    let Some(at) = callee else { return };
    let c = &stmt[at];
    if !kinds.result.contains(&c.text) {
        return;
    }
    // Method calls resolve by receiver type, which a token scan does not
    // have: require the name to be unambiguous across the workspace and
    // not a ubiquitous std method.
    let is_method = at >= 1 && stmt[at - 1].text == ".";
    if is_method && (kinds.plain.contains(&c.text) || STD_METHODS.contains(&c.text.as_str())) {
        return;
    }
    AUDIT.finding(
        file,
        "dropped-result",
        c.line,
        format!(
            "result of `{}` (returns Result) is silently dropped in `{}` — \
             handle it, `?` it, or bind `let _ =` deliberately",
            c.text, func.name
        ),
        out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::split_suppressed;
    use crate::parser::parse_source;

    fn audit(src: &str) -> Vec<Violation> {
        let rel = "crates/core/src/a.rs";
        let mut out = Vec::new();
        analyze(&[parse_source(rel, src)], &mut out);
        split_suppressed(&[(rel.to_string(), src.to_string())], out).0
    }

    #[test]
    fn dropped_result_statement_is_flagged() {
        let src = "fn helper(x: u32) -> Result<()> { Ok(()) }\n\
                   fn caller(x: u32) { helper(x); }";
        let v = audit(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "dropped-result");
        assert!(v[0].message.contains("helper"));
    }

    #[test]
    fn handled_results_are_clean() {
        let src = "fn helper(x: u32) -> Result<()> { Ok(()) }\n\
                   fn a(x: u32) -> Result<()> { helper(x)?; Ok(()) }\n\
                   fn b(x: u32) { let _ = helper(x); }\n\
                   fn c(x: u32) { if helper(x).is_ok() { } }\n\
                   fn d(x: u32) { other(x); }";
        assert!(audit(src).is_empty());
    }

    #[test]
    fn expression_position_and_let_underscore_are_ok() {
        // Returned as the tail expression, passed on, or discarded by name.
        let src = "fn helper(x: u32) -> Result<()> { Ok(()) }\n\
                   fn a(x: u32) -> Result<()> { helper(x) }\n\
                   fn b(x: u32) -> Result<()> { wrap(helper(x)); Ok(()) }\n\
                   fn c(x: u32) { let _ = helper(x); }";
        assert!(audit(src).is_empty());
    }

    #[test]
    fn suppression_marker_works() {
        let src = "fn helper(x: u32) -> Result<()> { Ok(()) }\n\
                   fn caller(x: u32) {\n\
                   // audit:allow(dropped-result) the error is reported elsewhere\n\
                   helper(x);\n}";
        assert!(audit(src).is_empty());
        assert_eq!(audit(&src.replace("audit:allow", "flow:allow")).len(), 1);
    }
}
