//! The audit pass: per-function dataflow and protocol analysis.
//!
//! Three analyses over the token streams produced by [`crate::parser`],
//! documented in DESIGN.md §6f:
//!
//! * [`lockorder`] — extracts every `Mutex`/`RwLock` acquisition and the
//!   static nesting between them, builds the global acquisition-order
//!   graph, and fails on any cycle (inconsistent lock ordering deadlocks).
//! * [`offsets`] — flags `+`/`*`/`as` arithmetic directly adjacent to
//!   offset-like identifiers, and every bare `as <int>` cast in the storage
//!   and extsort crates; both must flow through `graphz_types::cast` so
//!   overflow surfaces as `GraphError::OffsetOverflow`.
//! * [`protocol`] — detection of call statements that silently drop a
//!   `Result`.
//!
//! Findings reuse the lint pass's [`Violation`] shape and suppression
//! convention: `// audit:allow(<rule>)` on the offending line or the line
//! above silences one rule at one site.

pub mod lockorder;
pub mod offsets;
pub mod protocol;

use std::path::Path;

use crate::lint::{Rule, Tool, Violation};
use crate::parser::{parse_tree, SourceFile, Token};

/// Every audit rule, in reporting order. The `scope` path substrings bound
/// where each analysis *reports*; the token scans themselves are global so
/// cross-crate facts (lock declarations, Result-returning function names)
/// are complete.
pub const AUDIT_RULES: &[Rule] = &[
    Rule {
        name: "lock-order",
        why: "two code paths that acquire the same locks in different orders \
              can deadlock; the acquisition graph must stay acyclic",
        scope: &[
            "crates/core/",
            "crates/io/",
            "crates/storage/",
            "crates/check/",
            // The external sort runs on the calling thread and takes no
            // lock; keeping it in scope is a cheap invariant: any future
            // Mutex here joins the global order graph.
            "crates/extsort/",
            // The serve read path is lock-free by design (each reader owns
            // its view); in-scope so any future lock joins the order graph.
            "crates/serve/",
        ],
        allow: &[],
    },
    Rule {
        name: "unchecked-offset-arith",
        why: "file offsets, cursors, and byte lengths must use checked or \
              explicitly widening arithmetic (graphz_types::cast) so overflow \
              becomes GraphError::OffsetOverflow, not a wrapped seek",
        scope: &["crates/storage/src/", "crates/extsort/src/", "crates/io/src/"],
        allow: &[],
    },
    Rule {
        name: "unchecked-cast",
        why: "bare `as` integer casts truncate silently; narrowing flows \
              through graphz_types::cast / try_into with a typed error",
        scope: &["crates/storage/src/", "crates/extsort/src/"],
        allow: &[],
    },
    Rule {
        name: "dropped-result",
        why: "a bare call statement that ignores a Result hides the error \
              path; handle it, `?` it, or bind `let _ =` deliberately",
        scope: &[],
        allow: &[],
    },
];

/// The audit pass as a [`Tool`]; all three analyses report through it.
pub const AUDIT: Tool = Tool { prefix: "audit", rules: AUDIT_RULES };

/// How the value of an expression starting at token index `start` is bound.
pub(crate) enum Binding {
    /// Bound to a named variable (`let name = …`, `let mut name = …`, or a
    /// reassignment `name = …`).
    Named(String),
    /// Explicitly discarded with `let _ = …`.
    Discard,
    /// Expression position — the value flows onward (returned, passed as an
    /// argument, chained) rather than being bound here.
    Expression,
}

/// Walk left from the first token of a receiver/path expression over
/// `seg.`/`seg::` pairs to the start of the whole path.
pub(crate) fn path_start(t: &[Token], mut r: usize) -> usize {
    while r >= 2 && (t[r - 1].text == "." || t[r - 1].text == "::") && t[r - 2].is_word() {
        r -= 2;
    }
    r
}

/// Classify how the expression beginning at token index `start` is bound,
/// by looking at the tokens immediately before it.
pub(crate) fn binding_before(t: &[Token], start: usize) -> Binding {
    if start == 0 || t[start - 1].text != "=" {
        return Binding::Expression;
    }
    match t.get(start.wrapping_sub(2)) {
        Some(prev) if prev.text == "_" => Binding::Discard,
        Some(prev) if prev.is_name() => Binding::Named(prev.text.clone()),
        _ => Binding::Expression,
    }
}

/// Run every analysis over already-parsed files; findings are sorted by
/// path and line and deduplicated.
pub fn audit_files(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    lockorder::analyze(files, &mut out);
    offsets::analyze(files, &mut out);
    protocol::analyze(files, &mut out);
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out.dedup_by(|a, b| (&a.path, a.line, a.rule, &a.message) == (&b.path, b.line, b.rule, &b.message));
    out
}

/// Parse and audit the tree rooted at `root` (see [`parse_tree`] for the
/// file scope).
pub fn audit_tree(root: &Path) -> std::io::Result<Vec<Violation>> {
    Ok(audit_files(&parse_tree(root)?))
}
