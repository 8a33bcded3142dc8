//! The flow pass: per-function path-sensitive dataflow analysis.
//!
//! Where the audit pass (DESIGN.md §6f) reasons about token adjacency, the
//! flow pass reasons about *paths*: every function is lifted into a
//! control-flow graph ([`cfg`]) and rules run a worklist dataflow solver
//! ([`solver`]) over it. Two rule families, documented in DESIGN.md §6j:
//!
//! * [`consume`] — `must-consume-paths`: staged resources (`AtomicFile`,
//!   `StagedDir`, a `MetaFile::stage` manifest) and `MsgManager` claims
//!   must reach a consumer or escape on *every* success path; dropping on
//!   a `?`-error path is the abort and is allowed.
//! * [`taint`] — `determinism-taint`: values derived from thread identity,
//!   polling order, or unordered-container iteration must not reach
//!   output-writing or key-ordering sinks.
//!
//! Fault-surface coverage and error context are call-chain properties and
//! live in the ipa pass (`fault-surface-reach`, `error-context-prop`).
//! Findings reuse the lint [`Violation`] shape; `// flow:allow(<rule>)` on
//! the offending line or the line above suppresses one rule at one site.

pub mod cfg;
pub mod solver;

mod consume;
mod taint;

use std::path::Path;

use crate::lint::{Rule, Tool, Violation};
use crate::parser::{parse_tree, SourceFile};

/// Every flow rule, in reporting order. `scope` bounds where a rule
/// *reports*.
pub const FLOW_RULES: &[Rule] = &[
    Rule {
        name: "must-consume-paths",
        why: "an AtomicFile/StagedDir/stage manifest or a MsgManager claim \
              that can reach the end of its function un-consumed on a success \
              path silently discards staged work (or replays claimed \
              segments) there; every success path must commit, abort, \
              release, or move the value on (error paths may drop — that is \
              the abort)",
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
];

/// The flow pass as a [`Tool`]; both rule families report through it.
pub const FLOW: Tool = Tool { prefix: "flow", rules: FLOW_RULES };

/// Run every flow rule over already-parsed files; findings are sorted by
/// path and line and deduplicated.
pub fn flow_files(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    consume::analyze(files, &mut out);
    taint::analyze(files, &mut out);
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out.dedup_by(|a, b| (&a.path, a.line, a.rule, &a.message) == (&b.path, b.line, b.rule, &b.message));
    out
}

/// Parse and analyze the tree rooted at `root` (see [`parse_tree`] for the
/// file scope).
pub fn flow_tree(root: &Path) -> std::io::Result<Vec<Violation>> {
    Ok(flow_files(&parse_tree(root)?))
}
