//! The whole analyzer suite in one pass, behind the `graphz-check` binary.
//!
//! The tree is read once ([`read_tree`]) and parsed once
//! ([`parse_sources`]); lint runs over the text, audit, flow and ipa over
//! the parse, each once and with no marker applied. One pass over those
//! findings applies the `<tool>:allow(<rule>)` markers, and
//! stale-suppression judges every marker by what it suppressed. One
//! findings list comes out, sorted by path, line and rule.

use std::path::Path;

use crate::audit::{audit_files, AUDIT};
use crate::flow::{flow_files, FLOW};
use crate::ipa::{ipa_files, IPA};
use crate::lint::{lint_sources, read_tree, split_suppressed, Rule, Tool, Violation, LINT};
use crate::parser::{parse_sources, SourceFile};
use crate::stale::stale;

/// Every analyzer, in reporting order.
pub const TOOLS: &[&Tool] = &[&LINT, &AUDIT, &FLOW, &IPA];

/// Every rule of every analyzer.
pub fn rules() -> impl Iterator<Item = &'static Rule> {
    TOOLS.iter().flat_map(|t| t.rules)
}

/// The analyzer that defines `rule` (rule names are unique across tools).
pub fn tool_of(rule: &str) -> &'static Tool {
    TOOLS.iter().copied().find(|t| t.rules.iter().any(|r| r.name == rule)).unwrap_or(&LINT)
}

/// Every finding of every analyzer over already-read sources and their
/// parse.
pub fn check(sources: &[(String, String)], parsed: &[SourceFile]) -> Vec<Violation> {
    let mut all = lint_sources(sources);
    all.extend(audit_files(parsed));
    all.extend(flow_files(parsed));
    all.extend(ipa_files(parsed));
    let (mut out, suppressed) = split_suppressed(sources, all);
    out.extend(stale(sources, &suppressed));
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}

/// Read, parse and check the tree rooted at `root`.
pub fn check_tree(root: &Path) -> std::io::Result<Vec<Violation>> {
    let sources = read_tree(root)?;
    Ok(check(&sources, &parse_sources(&sources)))
}
