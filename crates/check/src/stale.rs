//! `stale-suppression`: flag `<tool>:allow(<rule>)` markers that no longer
//! suppress any finding.
//!
//! Suppression markers are point-in-time waivers; when the code under one
//! is fixed or moves, the marker stays behind and silently waives the
//! *next* violation introduced on that line. The suite runs every analyzer
//! (lint, audit, flow, ipa) once, with no marker applied, and splits the
//! findings into reported and suppressed (`lint::split_suppressed`);
//! this pass checks each real marker against the suppressed ones: a
//! `tool:allow(rule)` on line L is *live* iff it suppressed a finding of
//! that rule at line L or L+1 of the same file — exactly the span the
//! marker suppresses. Everything else is stale.
//!
//! Marker recognition is deliberately strict: only inside a comment (after
//! `//` in Rust — doc comments `///`/`//!` document syntax, never carry
//! markers — after `#` in Cargo.toml, before the first `#[cfg(test)]`),
//! and only when the rule name is a plain `[a-z0-9-]+` token — so format
//! strings that *build* markers (`format!("flow:allow({rule})")`) and help
//! text (`flow:allow(<rule>)`) never match. A marker naming a rule the
//! tool does not define suppresses nothing by construction and is reported
//! stale with that explanation. The `stale-suppression` rule itself is
//! exempt from staleness (its own waivers are suppressed the normal lint
//! way, not re-judged here).

use std::collections::BTreeSet;
use std::path::PathBuf;

use crate::lint::{in_test_dir, sanitize, Violation, LINT};
use crate::suite::TOOLS;

/// One recognized marker occurrence.
struct Marker {
    rel: String,
    line: usize,
    tool: &'static str,
    rule: String,
    known_rule: bool,
    snippet: String,
}

/// Scan one file's comment text for markers. `comment` is the comment
/// opener for this file kind (`//` or `#`); `code_end` bounds the non-test
/// region (1-based line count). A marker under a
/// `lint:allow(stale-suppression)` is not collected.
fn collect_markers(rel: &str, raw: &[&str], comment: &str, code_end: usize, out: &mut Vec<Marker>) {
    for (idx, line) in raw.iter().enumerate().take(code_end) {
        let Some(at) = line.find(comment) else { continue };
        let text = &line[at..];
        // Doc comments document marker syntax; they never carry markers.
        if comment == "//" && (text.starts_with("///") || text.starts_with("//!")) {
            continue;
        }
        let prev = idx.checked_sub(1).map(|p| raw[p]);
        if LINT.suppressed("stale-suppression", line, prev) {
            continue;
        }
        for tool in TOOLS {
            let needle = format!("{}:allow(", tool.prefix);
            let mut from = 0;
            while let Some(pos) = text[from..].find(&needle) {
                let start = from + pos + needle.len();
                from = start;
                let rest = &text[start..];
                let Some(close) = rest.find(')') else { continue };
                let rule = &rest[..close];
                if rule.is_empty()
                    || !rule.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
                {
                    continue; // format-string or help-text shape, not a marker
                }
                if rule == "stale-suppression" {
                    continue;
                }
                out.push(Marker {
                    rel: rel.to_string(),
                    line: idx + 1,
                    tool: tool.prefix,
                    rule: rule.to_string(),
                    known_rule: tool.rules.iter().any(|r| r.name == rule),
                    snippet: line.to_string(),
                });
            }
        }
    }
}

/// Judge every marker in `sources` against the findings the suite's markers
/// `suppressed` (see [`crate::suite::check`]). Findings carry the
/// `stale-suppression` rule and point at the marker line.
pub(crate) fn stale(sources: &[(String, String)], suppressed: &[Violation]) -> Vec<Violation> {
    let mut markers: Vec<Marker> = Vec::new();
    for (rel, source) in sources {
        let raw: Vec<&str> = source.lines().collect();
        if rel.ends_with("Cargo.toml") {
            collect_markers(rel, &raw, "#", raw.len(), &mut markers);
        } else if !in_test_dir(rel) {
            let code_end = sanitize(source)
                .iter()
                .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
                .unwrap_or(raw.len());
            collect_markers(rel, &raw, "//", code_end, &mut markers);
        }
    }

    // Index suppressed findings by (tool, rule, rel, line).
    let live: BTreeSet<(&str, &str, String, usize)> = suppressed
        .iter()
        .map(|v| (crate::suite::tool_of(v.rule).prefix, v.rule, v.path.to_string_lossy().replace('\\', "/"), v.line))
        .collect();

    let mut out = Vec::new();
    for m in markers {
        let used = m.known_rule
            && [m.line, m.line + 1]
                .iter()
                .any(|&l| live.contains(&(m.tool, m.rule.as_str(), m.rel.clone(), l)));
        if used {
            continue;
        }
        let why = if m.known_rule {
            "no finding of that rule on this line or the next"
        } else {
            "the tool defines no such rule"
        };
        out.push(Violation {
            rule: "stale-suppression",
            path: PathBuf::from(&m.rel),
            line: m.line,
            snippet: m.snippet,
            message: format!("`{}:allow({})` suppresses nothing ({why}); remove it", m.tool, m.rule),
        });
    }
    out
}
