//! graphz-flow: per-function path-sensitive dataflow analysis.
//!
//! Where the audit pass (DESIGN.md §6f) reasons about token adjacency, the
//! flow pass reasons about *paths*: every function is lifted into a
//! control-flow graph ([`cfg`]) and rules run a worklist dataflow solver
//! ([`solver`]) over it. Four rule families, documented in DESIGN.md §6j:
//!
//! * [`surface`] — `fault-surface-bypass`: file-creating/renaming calls in
//!   the ingest crates must be dominated by a `FaultSurface` gate
//!   (`.op(…)`/`.wrap(…)`) so chaos sweeps cover every write path.
//! * [`consume`] — `must-consume-paths`: staged resources (`AtomicFile`,
//!   `StagedDir`, a `MetaFile::stage` manifest) must reach a consumer or escape on
//!   *every* success path; dropping on a `?`-error path is the abort and
//!   is allowed.
//! * [`taint`] — `determinism-taint`: values derived from thread identity,
//!   polling order, or unordered-container iteration must not reach
//!   output-writing or key-ordering sinks.
//! * [`errctx`] — `error-context`: a raw `std::fs` call whose error can
//!   `?`-propagate without a `.ctx(…)` site loses the path/operation
//!   context typed errors promise.
//!
//! Findings reuse the lint [`Violation`] shape; `// flow:allow(<rule>)` on
//! the offending line or the line above suppresses one rule at one site.

pub mod cfg;
pub mod solver;

mod consume;
pub(crate) mod errctx;
pub(crate) mod surface;
mod taint;

use std::path::{Path, PathBuf};

use crate::lint::{Rule, Violation};
use crate::parser::{parse_tree, SourceFile};

/// Every flow rule, in reporting order. `scope` bounds where a rule
/// *reports*; `allow` lists path substrings exempt wholesale (the files
/// that implement the mechanism a rule enforces).
pub const FLOW_RULES: &[Rule] = &[
    Rule {
        name: "fault-surface-bypass",
        why: "a file created or renamed outside the FaultSurface never sees \
              injected faults, so the chaos sweeps certify a write path that \
              production does not take; route it through .op()/.wrap()",
        scope: &["crates/io/src/", "crates/extsort/src/", "crates/storage/src/"],
        // The surface's own plumbing: these files *implement* gating and
        // tracking, so their raw fs calls are the mechanism, not a bypass.
        allow: &[
            "crates/io/src/tracked.rs",
            "crates/io/src/atomic.rs",
            "crates/io/src/fault.rs",
            "crates/io/src/scratch.rs",
            "crates/io/src/record.rs",
        ],
    },
    Rule {
        name: "must-consume-paths",
        why: "an AtomicFile/StagedDir/stage manifest that can reach the end of \
              its function un-consumed on a success path silently discards \
              staged work there; every success path must commit, abort, or \
              move the value on (error paths may drop — that is the abort)",
        scope: &[],
        allow: &[],
    },
    Rule {
        name: "determinism-taint",
        why: "values derived from thread identity, try_recv polling order, or \
              HashMap/HashSet iteration vary run to run; if one reaches an \
              output write or a sort key the byte-identity contract breaks",
        scope: &["crates/core/src/", "crates/extsort/src/"],
        allow: &[],
    },
    Rule {
        name: "error-context",
        why: "a raw std::fs call whose error propagates via `?` without a \
              .ctx(op, path) site surfaces as a bare os error with no hint \
              of which file or stage failed",
        scope: &["crates/storage/src/"],
        allow: &[],
    },
];

pub(crate) fn flow_rule(name: &str) -> &'static Rule {
    FLOW_RULES
        .iter()
        .find(|r| r.name == name)
        .unwrap_or(&FLOW_RULES[0]) // names are compile-time constants; unreachable
}

pub(crate) fn in_scope(name: &str, rel: &str) -> bool {
    let r = flow_rule(name);
    (r.scope.is_empty() || r.scope.iter().any(|s| rel.contains(s)))
        && !r.allow.iter().any(|a| rel.contains(a))
}

/// Record a finding unless the rule is out of scope for this file or a
/// `flow:allow(<rule>)` marker on the line (or the line above) suppresses
/// it. All four rule families report through here.
pub(crate) fn finding(
    file: &SourceFile,
    rule: &'static str,
    line: usize,
    message: String,
    out: &mut Vec<Violation>,
) {
    if !in_scope(rule, &file.rel) {
        return;
    }
    let raw = file.raw.get(line.wrapping_sub(1)).map(String::as_str).unwrap_or("");
    let prev = line.checked_sub(2).and_then(|p| file.raw.get(p)).map(String::as_str);
    let marker = format!("flow:allow({rule})");
    if raw.contains(&marker) || prev.is_some_and(|p| p.contains(&marker)) {
        return;
    }
    out.push(Violation { rule, path: PathBuf::from(&file.rel), line, snippet: raw.to_string(), message });
}

/// Run every flow rule over already-parsed files; findings are sorted by
/// path and line and deduplicated.
pub fn flow_files(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    surface::analyze(files, &mut out);
    consume::analyze(files, &mut out);
    taint::analyze(files, &mut out);
    errctx::analyze(files, &mut out);
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out.dedup_by(|a, b| (&a.path, a.line, a.rule, &a.message) == (&b.path, b.line, b.rule, &b.message));
    out
}

/// Parse and analyze the tree rooted at `root` (see [`parse_tree`] for the
/// file scope).
pub fn flow_tree(root: &Path) -> std::io::Result<Vec<Violation>> {
    Ok(flow_files(&parse_tree(root)?))
}
