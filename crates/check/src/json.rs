//! Hand-rolled JSON emission for the analyzers' findings.
//!
//! The workspace is offline (no serde); the schema is small and stable, so
//! a ~40-line serializer keeps the machine-readable artifact contract
//! (`graphz-check --json analysis_findings.json` in CI) without a
//! dependency. Schema:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "tool": "graphz-check",
//!   "rules": ["lock-order", "…"],
//!   "count": 1,
//!   "findings": [
//!     {"rule": "…", "path": "…", "line": 3, "message": "…", "snippet": "…"}
//!   ]
//! }
//! ```

use crate::lint::{Rule, Violation};

/// Schema version stamped into every document this module renders. Bump on
/// any shape change; the gate tests pin it so downstream consumers get a
/// stable contract.
pub const SCHEMA_VERSION: u32 = 1;

/// Render a findings report as a JSON document.
pub fn render<'r>(
    tool: &str,
    rules: impl IntoIterator<Item = &'r Rule>,
    findings: &[Violation],
) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
    s.push_str(&format!("  \"tool\": {},\n", quote(tool)));
    let names: Vec<String> = rules.into_iter().map(|r| quote(r.name)).collect();
    s.push_str(&format!("  \"rules\": [{}],\n", names.join(", ")));
    s.push_str(&format!("  \"count\": {},\n", findings.len()));
    s.push_str("  \"findings\": [\n");
    for (i, v) in findings.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}, \"snippet\": {}}}{}\n",
            quote(v.rule),
            quote(&v.path.to_string_lossy()),
            v.line,
            quote(&v.message),
            quote(v.snippet.trim()),
            if i + 1 == findings.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn renders_schema_with_escapes() {
        let v = Violation {
            rule: "lock-order",
            path: PathBuf::from("crates/core/src/a.rs"),
            line: 7,
            snippet: "let g = m.lock(); // \"quoted\"".to_string(),
            message: "cycle a -> b".to_string(),
        };
        let json = render("graphz-check", crate::suite::rules(), &[v]);
        assert!(json.starts_with("{\n  \"schema_version\": 1,\n"), "{json}");
        assert!(json.contains("\"tool\": \"graphz-check\""));
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("\"line\": 7"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"rules\": [\"no-unwrap\""), "{json}");
        assert!(json.contains("\"lock-order\", "), "{json}");
    }

    #[test]
    fn empty_report_is_valid() {
        let json = render("graphz-check", &[], &[]);
        assert!(json.contains("\"count\": 0"));
        assert!(json.contains("\"findings\": [\n  ]"));
    }

    /// One document carries every tool's findings: the count is their sum,
    /// each finding is embedded with its rule, path and line, and `rules`
    /// names every tool's rules.
    #[test]
    fn combined_report_sums_counts_and_embeds_documents() {
        let at = |rule: &'static str, line: usize| Violation {
            rule,
            path: PathBuf::from("crates/io/src/x.rs"),
            line,
            snippet: "File::create(p)?".to_string(),
            message: "finding".to_string(),
        };
        let findings =
            [at("no-unwrap", 1), at("must-consume-paths", 2), at("fault-surface-reach", 3)];
        let json = render("graphz-check", crate::suite::rules(), &findings);
        let head = "{\n  \"schema_version\": 1,\n  \"tool\": \"graphz-check\",\n";
        assert!(json.starts_with(head), "{json}");
        assert!(json.contains("\"count\": 3"), "{json}");
        for v in &findings {
            let entry = format!(
                "{{\"rule\": \"{}\", \"path\": \"crates/io/src/x.rs\", \"line\": {}",
                v.rule, v.line
            );
            assert!(json.contains(&entry), "{entry} missing: {json}");
        }
        for rule in crate::suite::rules() {
            assert!(json.contains(&format!("\"{}\"", rule.name)), "{} missing: {json}", rule.name);
        }
    }
}
