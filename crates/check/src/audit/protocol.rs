//! Must-consume protocol analysis and dropped-`Result` detection.
//!
//! **Must-consume** tracks two resource protocols per function:
//!
//! * atomic writes — `AtomicFile::create[_with_faults]` and
//!   `StagedDir::stage[_with_faults]` stage work in a tempfile/tempdir that
//!   only becomes durable on `commit()` (sync + rename). Dropping the value
//!   silently discards the staged bytes.
//! * message claims — `mgr.claim(p)` hands out segments that must be
//!   retired (`consume_claimed`) or released, or the engine replays them.
//!
//! The state machine is escape-based: a bound resource is OK the moment it
//! is *consumed* (a `commit`/`abort`/`release`/`consume*` method call) or
//! *escapes* (appears anywhere not as a method/field receiver — returned,
//! passed as an argument, stored in a struct, `drop`ped explicitly). Only a
//! value that is bound, used exclusively as a receiver of non-consuming
//! methods, and then falls off the end of the function is a finding —
//! exactly the "wrote to the tempfile, forgot the rename" bug. Creation in
//! expression position (`Ok(AtomicFile::create(p)?)`) and explicit
//! discards (`let _ = …`) escape by construction.
//!
//! **Dropped-result** collects the name of every `fn` in the workspace that
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

use super::{binding_before, finding, path_start, Binding};

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
            must_consume_in(f, func, out);
            dropped_results_in(f, func, &kinds, out);
        }
    }
}

/// Methods that settle a must-consume resource.
fn is_consumer(method: &str) -> bool {
    method == "commit" || method == "abort" || method == "release" || method.starts_with("consume")
}

/// If tokens at `i` start a resource creation, return `(label, expression
/// start index, report line)`.
fn creation_at(t: &[Token], i: usize) -> Option<(&'static str, usize, usize)> {
    // AtomicFile::create(…) / StagedDir::stage(…) (and their fault-injecting
    // variants), plus MetaFile::stage(…) — a manifest records a stage's
    // artifacts but only marks the stage durable on `commit()`.
    let ty = t[i].text.as_str();
    if (ty == "AtomicFile" || ty == "StagedDir" || ty == "MetaFile")
        && t.get(i + 1).is_some_and(|x| x.text == "::")
        && t.get(i + 3).is_some_and(|x| x.text == "(")
    {
        let method = t[i + 2].text.as_str();
        let ok = match ty {
            "AtomicFile" => method == "create" || method == "create_with_faults",
            "MetaFile" => method == "stage",
            _ => method == "stage" || method == "stage_with_faults",
        };
        if ok {
            let label = match ty {
                "AtomicFile" => "AtomicFile",
                "MetaFile" => "MetaFile::stage",
                _ => "StagedDir",
            };
            // Skip over a leading module path (`io::AtomicFile::create`).
            let mut start = i;
            while start >= 2 && t[start - 1].text == "::" && t[start - 2].is_word() {
                start -= 2;
            }
            return Some((label, start, t[i].line));
        }
    }
    // recv.claim(…): a MsgManager segment claim.
    if t[i].text == "."
        && i > 0
        && t[i - 1].is_name()
        && t.get(i + 1).is_some_and(|x| x.text == "claim")
        && t.get(i + 2).is_some_and(|x| x.text == "(")
    {
        return Some(("message claim", path_start(t, i - 1), t[i + 1].line));
    }
    None
}

fn must_consume_in(file: &SourceFile, func: &Function, out: &mut Vec<Violation>) {
    let t = &file.tokens;
    for i in func.body.clone() {
        let Some((label, start, line)) = creation_at(t, i) else { continue };
        // Expression position and `let _ =` escape by construction.
        let Binding::Named(name) = binding_before(t, start) else { continue };
        check_usage(file, func, i, &name, label, line, out);
    }
}

fn check_usage(
    file: &SourceFile,
    func: &Function,
    creation: usize,
    name: &str,
    label: &'static str,
    line: usize,
    out: &mut Vec<Violation>,
) {
    let t = &file.tokens;
    // Uses begin after the creation statement ends.
    let mut i = creation;
    while i < func.body.end && t[i].text != ";" {
        i += 1;
    }
    let mut consumed = false;
    let mut escaped = false;
    while i < func.body.end {
        if t[i].text == name {
            // `x.name` is a different field, not our binding.
            let is_projection = i > 0 && (t[i - 1].text == "." || t[i - 1].text == "::");
            if !is_projection {
                match t.get(i + 1).map(|x| x.text.as_str()) {
                    Some(".") => {
                        if t.get(i + 2).is_some_and(|m| is_consumer(&m.text)) {
                            consumed = true;
                        }
                        // Other methods/fields are neutral receiver uses.
                    }
                    // Bare occurrence: returned, passed, stored, dropped —
                    // responsibility moves with the value.
                    _ => escaped = true,
                }
            }
        }
        i += 1;
    }
    if !consumed && !escaped {
        finding(
            file,
            "must-consume",
            line,
            format!(
                "`{name}` ({label}) in `{}` is neither consumed \
                 (commit/abort/release/consume_*) nor moved out — dropping it \
                 silently discards the staged work",
                func.name
            ),
            out,
        );
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
    finding(
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
    use crate::parser::parse_source;

    fn audit(src: &str) -> Vec<Violation> {
        let files = vec![parse_source("crates/core/src/a.rs", src)];
        let mut out = Vec::new();
        analyze(&files, &mut out);
        out
    }

    #[test]
    fn committed_atomic_file_is_clean() {
        let src = "fn w(dest: &Path, b: &[u8]) -> Result<()> {\n\
                   let mut f = AtomicFile::create(dest)?;\n f.write_all(b)?;\n f.commit()?;\n Ok(())\n}";
        assert!(audit(src).is_empty());
    }

    #[test]
    fn dropped_tempfile_is_flagged() {
        let src = "fn w(dest: &Path, b: &[u8]) -> Result<()> {\n\
                   let mut f = AtomicFile::create(dest)?;\n f.write_all(b)?;\n Ok(())\n}";
        let v = audit(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "must-consume");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn escape_counts_as_handing_over() {
        // Returned, passed as an argument, or explicitly dropped: all fine.
        let src = "fn a(d: &Path) -> Result<AtomicFile> { let f = AtomicFile::create(d)?; Ok(f) }\n\
                   fn b(d: &Path) -> Result<()> { let f = AtomicFile::create(d)?; finish(f) }\n\
                   fn c(d: &Path) -> Result<()> { let f = AtomicFile::create(d)?; drop(f); Ok(()) }";
        assert!(audit(src).is_empty());
    }

    #[test]
    fn expression_position_and_let_underscore_are_ok() {
        let src = "fn a(d: &Path) -> Result<AtomicFile> { Ok(AtomicFile::create(d)?) }\n\
                   fn b(d: &Path) { let _ = StagedDir::stage(d); }";
        assert!(audit(src).is_empty());
    }

    #[test]
    fn uncommitted_stage_manifest_is_flagged() {
        let src = "fn record(dir: &Path) -> Result<()> {\n\
                   let mut m = MetaFile::stage(\"triads\");\n\
                   m.set(\"assigned\", \"7\");\n Ok(())\n}";
        let v = audit(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("MetaFile::stage"), "{}", v[0].message);
        let src = "fn record(dir: &Path, s: &FaultSurface) -> Result<()> {\n\
                   let mut m = MetaFile::stage(\"triads\");\n\
                   m.set(\"assigned\", \"7\");\n m.commit(&dir.join(\"m\"), s)?;\n Ok(())\n}";
        assert!(audit(src).is_empty());
    }

    #[test]
    fn unconsumed_claim_is_flagged() {
        let src = "fn peek(mgr: &mut MsgManager) -> Result<u64> {\n\
                   let c = mgr.claim(0)?;\n Ok(c.total)\n}";
        let v = audit(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("message claim"), "{}", v[0].message);
    }

    #[test]
    fn claim_passed_to_the_manager_is_clean() {
        let src = "fn run(mgr: &mut MsgManager) -> Result<()> {\n\
                   let c = mgr.claim(0)?;\n mgr.consume_claimed(&c, 0)?;\n Ok(())\n}";
        assert!(audit(src).is_empty());
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
    fn suppression_marker_works() {
        let src = "fn w(dest: &Path) -> Result<()> {\n\
                   // audit:allow(must-consume) intentionally abandoned on error\n\
                   let f = AtomicFile::create(dest)?;\n Ok(())\n}";
        assert!(audit(src).is_empty());
    }
}
