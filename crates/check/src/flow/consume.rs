//! `must-consume-paths`: staged resources must be consumed on every
//! success path.
//!
//! Atomic writes (`AtomicFile::create`, `StagedDir::stage`, a
//! `MetaFile::stage` manifest) stage work that only becomes durable on
//! `commit()`. A per-creation forward *may* analysis tracks
//! "still live and un-consumed", and a finding fires iff that fact can
//! reach the function's normal exit — so a conditional `commit` (one
//! branch commits, the other falls through) is visible, not just a
//! binding that is never consumed at all. Error paths (`?`,
//! `return Err`) terminate in the error exit, which is deliberately not
//! checked: dropping a staged resource on a failure path *is* the abort
//! (the `Drop` impls remove the staging artifacts).

use crate::audit::{binding_before, path_start, Binding};
use crate::lint::Violation;
use crate::parser::{SourceFile, Token};

use super::cfg::build;
use super::solver::{solve, Direction};

/// Constructors that start a staged-resource lifetime.
const CREATORS: &[(&str, &[&str])] = &[
    ("AtomicFile", &["create"]),
    ("StagedDir", &["stage"]),
    ("MetaFile", &["stage"]),
];

/// Methods that settle the resource.
fn is_consumer(name: &str) -> bool {
    matches!(name, "commit" | "abort" | "release")
}

/// `Some((label, expression start))` when token `g` begins
/// `Type::method(` for a creator pair.
fn creation_at(t: &[Token], g: usize) -> Option<(String, usize)> {
    let tx = |k: usize| t.get(k).map(|x| x.text.as_str()).unwrap_or("");
    CREATORS.iter().find_map(|&(ty, methods)| {
        (t[g].text == ty && tx(g + 1) == "::" && methods.contains(&tx(g + 2)) && tx(g + 3) == "(")
            .then(|| (format!("`{ty}::{}`", tx(g + 2)), path_start(t, g)))
    })
}

pub(super) fn analyze(files: &[SourceFile], out: &mut Vec<Violation>) {
    for file in files {
        if !super::FLOW.in_scope("must-consume-paths", &file.rel) {
            continue;
        }
        let t = &file.tokens;
        for func in &file.functions {
            for g in func.body.clone() {
                let Some((call, start)) = creation_at(t, g) else { continue };
                // Only values bound to a local name are tracked; expression
                // position means the value flows onward (returned, passed,
                // chained) and the receiver owns the protocol, and
                // `let _ =` is a deliberate discard.
                let Binding::Named(var) = binding_before(t, start) else {
                    continue;
                };
                let cfg = build(t, func);
                // Forward may-analysis of "live un-consumed": gen at the
                // creation, kill at a consumer call or any bare use (the
                // value escaping — moved, passed, returned, dropped —
                // transfers the obligation).
                let walk = |toks: &[usize], start: bool| -> bool {
                    let mut live = start;
                    for &k in toks {
                        if k == g {
                            live = true;
                        } else if t[k].text == var && t[k].is_name() {
                            let prev = k.checked_sub(1).map(|p| t[p].text.as_str());
                            if matches!(prev, Some(".") | Some("::")) {
                                continue; // a field/path segment sharing the name
                            }
                            match t.get(k + 1).map(|n| n.text.as_str()) {
                                Some(".") => {
                                    if t.get(k + 2).is_some_and(|m| is_consumer(&m.text)) {
                                        live = false;
                                    }
                                }
                                _ => live = false, // bare use: escapes
                            }
                        }
                    }
                    live
                };
                let (input, _) = solve(
                    &cfg,
                    Direction::Forward,
                    false,
                    false,
                    |a: &bool, b: &bool| *a || *b,
                    |b, inp| walk(&cfg.blocks[b].tokens, *inp),
                );
                if input[cfg.normal_exit] {
                    super::FLOW.finding(
                        file,
                        "must-consume-paths",
                        t[g].line,
                        format!(
                            "{call} bound to `{var}` can reach the end of `{}` \
                             un-consumed on a success path; commit/abort (or move \
                             it on) along every path that returns Ok",
                            func.name
                        ),
                        out,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_source;

    fn flow(src: &str) -> Vec<Violation> {
        let files = vec![parse_source("crates/core/src/a.rs", src)];
        let mut out = Vec::new();
        analyze(&files, &mut out);
        out
    }

    #[test]
    fn committed_atomic_file_is_clean() {
        let src = "fn w(dest: &Path, b: &[u8]) -> Result<()> {\n\
                   let mut f = AtomicFile::create(dest)?;\n f.write_all(b)?;\n f.commit()?;\n Ok(())\n}";
        assert!(flow(src).is_empty());
    }

    #[test]
    fn dropped_tempfile_is_flagged() {
        let src = "fn w(dest: &Path, b: &[u8]) -> Result<()> {\n\
                   let mut f = AtomicFile::create(dest)?;\n f.write_all(b)?;\n Ok(())\n}";
        let v = flow(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "must-consume-paths");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn escape_counts_as_handing_over() {
        // Returned, passed as an argument, explicitly dropped, created in
        // expression position or discarded with `let _ =`: all fine.
        let src = "fn a(d: &Path) -> Result<AtomicFile> { let f = AtomicFile::create(d)?; Ok(f) }\n\
                   fn b(d: &Path) -> Result<()> { let f = AtomicFile::create(d)?; finish(f) }\n\
                   fn c(d: &Path) -> Result<()> { let f = AtomicFile::create(d)?; drop(f); Ok(()) }\n\
                   fn e(d: &Path) -> Result<AtomicFile> { Ok(AtomicFile::create(d)?) }\n\
                   fn g(d: &Path) { let _ = StagedDir::stage(d); }";
        assert!(flow(src).is_empty());
    }

    #[test]
    fn uncommitted_stage_manifest_is_flagged() {
        let src = "fn record(dir: &Path) -> Result<()> {\n\
                   let mut m = MetaFile::stage(\"triads\");\n\
                   m.set(\"assigned\", \"7\");\n Ok(())\n}";
        let v = flow(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("MetaFile::stage"), "{}", v[0].message);
        let src = "fn record(dir: &Path, s: &FaultSurface) -> Result<()> {\n\
                   let mut m = MetaFile::stage(\"triads\");\n\
                   m.set(\"assigned\", \"7\");\n m.commit(&dir.join(\"m\"), s)?;\n Ok(())\n}";
        assert!(flow(src).is_empty());
    }
}
