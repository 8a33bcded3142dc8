//! `must-consume-paths`: staged resources must be consumed on every
//! success path.
//!
//! The audit pass's must-consume rule (DESIGN.md §6f) is an *escape*
//! heuristic: it accepts a function as soon as a consumer call appears
//! anywhere. This rule upgrades it with path sensitivity: a per-creation
//! forward *may* analysis tracks "still live and un-consumed", and a
//! finding fires iff that fact can reach the function's normal exit — a
//! conditional `commit` (one branch commits, the other falls through)
//! becomes visible. Error paths (`?`, `return Err`) terminate in the
//! error exit, which is deliberately not checked: dropping a staged
//! resource on a failure path *is* the abort (the `Drop` impls remove the
//! staging artifacts).

use crate::audit::{binding_before, path_start, Binding};
use crate::lint::Violation;
use crate::parser::{SourceFile, Token};

use super::cfg::build;
use super::solver::{solve, Direction};

/// Constructors that start a staged-resource lifetime.
const CREATORS: &[(&str, &[&str])] = &[
    ("AtomicFile", &["create", "create_with_faults"]),
    ("StagedDir", &["stage", "stage_with_faults"]),
    ("MetaFile", &["stage"]),
];

/// Methods that settle the resource (mirrors the audit rule's set).
fn is_consumer(name: &str) -> bool {
    matches!(name, "commit" | "abort" | "release") || name.starts_with("consume")
}

/// `Some(call)` when token `g` begins `Type::method(` for a creator pair.
fn creation_at(t: &[Token], g: usize) -> Option<String> {
    let tx = |k: usize| t.get(k).map(|x| x.text.as_str()).unwrap_or("");
    for &(ty, methods) in CREATORS {
        if t[g].text == ty
            && tx(g + 1) == "::"
            && methods.contains(&tx(g + 2))
            && tx(g + 3) == "("
        {
            return Some(format!("{ty}::{}", tx(g + 2)));
        }
    }
    None
}

pub(super) fn analyze(files: &[SourceFile], out: &mut Vec<Violation>) {
    for file in files {
        if !super::in_scope("must-consume-paths", &file.rel) {
            continue;
        }
        let t = &file.tokens;
        for func in &file.functions {
            for g in func.body.clone() {
                let Some(call) = creation_at(t, g) else { continue };
                // Only values bound to a local name are tracked; expression
                // position means the value flows onward (returned, passed,
                // chained) and the receiver owns the protocol, and
                // `let _ =` is the audit pass's dropped-result concern.
                let Binding::Named(var) = binding_before(t, path_start(t, g)) else {
                    continue;
                };
                let cfg = build(t, func);
                // Forward may-analysis of "live un-consumed": gen at the
                // creation, kill at a consumer call or any bare use (the
                // value escaping — moved, passed, returned — transfers the
                // obligation, matching the audit escape convention).
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
                    super::finding(
                        file,
                        "must-consume-paths",
                        t[g].line,
                        format!(
                            "`{call}` bound to `{var}` can reach the end of `{}` \
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
