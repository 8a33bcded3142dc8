//! The repo-invariant lint pass: hand-rolled line/token scanning, no
//! external dependencies, fully offline.
//!
//! clippy checks Rust-the-language; this pass checks *this repo's*
//! concurrency and determinism contract — invariants like "no panics in the
//! pipeline crates" or "nothing in the deterministic compute path reads the
//! wall clock" that no general-purpose tool knows about. Every rule is
//! named, scoped to the paths where it applies, and suppressible in place
//! with `// lint:allow(<rule>)` on the offending line or the line above.
//!
//! The scanner is deliberately token-level, not syntactic: it strips
//! comments and string/char literals with a small state machine
//! ([`sanitize`]), skips test code (`tests/`, `benches/`, `examples/`
//! directories, and everything after a top-level `#[cfg(test)]` — the
//! repo's universal test-module convention), then matches rule tokens
//! against what remains. That trades theoretical precision for a checker
//! that is ~400 lines, runs in milliseconds, and cannot rot against a
//! parser dependency.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::parser::SourceFile;

/// One rule violation, pointing at the offending line.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: &'static str,
    pub path: PathBuf,
    pub line: usize,
    pub snippet: String,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message,
            self.snippet.trim()
        )
    }
}

/// A named lint rule: its identity, scope, and rationale.
pub struct Rule {
    pub name: &'static str,
    /// One-line rationale, shown by `--list-rules` and in DESIGN.md.
    pub why: &'static str,
    /// Path substrings the rule applies to (empty = every scanned file).
    pub scope: &'static [&'static str],
    /// Path substrings exempt from the rule (checked after `scope`).
    pub allow: &'static [&'static str],
}

/// Every rule the linter enforces, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "no-unwrap",
        why: "pipeline crates return typed GraphError; a panic in a worker \
              thread poisons queues instead of surfacing an error",
        // serve is in scope: a panic in a reader thread would take down the
        // whole serving fleet for one bad query.
        scope: &["crates/core/src/", "crates/io/src/", "crates/serve/src/"],
        allow: &[],
    },
    Rule {
        name: "no-thread-spawn",
        why: "all concurrency flows through audited pipeline stages (the \
              engine's Sio read-ahead and checkpoint commit; \
              the serve fleet); \
              ad-hoc threads escape that topology, and ingest runs on the \
              calling thread",
        scope: &[],
        allow: &[
            "crates/core/src/sio.rs",
            // Serve fleet: one accept thread + N reader threads,
            // joined in Server::shutdown/wait; queries themselves never spawn
            // (enforced by the serve-read-alloc ipa rule).
            "crates/serve/src/server.rs",
            // Checkpoint commit: one thread per generation, at most one in
            // flight, joined before the engine's next gated op and on drop
            // (InFlightCommit), so no commit outlives Engine::run.
            "crates/core/src/generations.rs",
        ],
    },
    Rule {
        name: "no-wall-clock",
        why: "deterministic compute must not branch on time; stage timing \
              lives in engine.rs (observability) and the bench/baseline \
              crates, which are exempt by scope",
        scope: &[
            "crates/core/src/worker.rs",
            "crates/core/src/sio.rs",
            "crates/core/src/msgmanager.rs",
            "crates/algos/src/graphz/",
        ],
        allow: &[],
    },
    Rule {
        name: "no-unordered-iter",
        why: "HashMap/HashSet iteration order is randomized per process; \
              anything feeding the send-ordered message buffers must \
              iterate deterministically (BTreeMap, sorted Vec, or indexing)",
        scope: &["crates/core/src/"],
        allow: &[],
    },
    Rule {
        name: "no-new-deps",
        why: "the build is offline; dependencies must resolve to workspace \
              path crates or the shims, never a registry version",
        scope: &["Cargo.toml"],
        allow: &[],
    },
    Rule {
        name: "no-unsafe",
        why: "the workspace is #![forbid(unsafe_code)]; the lint catches \
              attempts to carve out exceptions before the compiler does",
        scope: &[],
        allow: &[],
    },
    Rule {
        // Detection lives in crate::stale (it judges every analyzer's markers);
        // the rule is registered here so --list-rules, the JSON rules
        // array, and suppression-name validation see one namespace.
        name: "stale-suppression",
        why: "a lint:/audit:/flow:/ipa:allow marker that no longer \
              suppresses any finding silently waives the next violation \
              introduced on its line; remove markers when the code is fixed",
        scope: &[],
        allow: &[],
    },
];

/// The lint pass as a [`Tool`].
pub const LINT: Tool = Tool { prefix: "lint", rules: RULES };

/// One analyzer: its rule table and the prefix of its suppression marker
/// (`// <prefix>:allow(<rule>)`). Every analyzer reports through one.
pub struct Tool {
    pub prefix: &'static str,
    pub rules: &'static [Rule],
}

impl Tool {
    /// Whether rule `name` of this tool reports in the file at `rel`.
    pub(crate) fn in_scope(&self, name: &str, rel: &str) -> bool {
        self.rules.iter().any(|r| {
            r.name == name
                && (r.scope.is_empty() || r.scope.iter().any(|s| rel.contains(s)))
                && !r.allow.iter().any(|a| rel.contains(a))
        })
    }

    /// Whether a marker for `rule` sits on line `raw` or the line above.
    pub(crate) fn suppressed(&self, rule: &str, raw: &str, prev: Option<&str>) -> bool {
        let marker = format!("{}:allow({rule})", self.prefix);
        raw.contains(&marker) || prev.is_some_and(|p| p.contains(&marker))
    }

    /// Record a finding at `line` of `file` unless the rule is out of scope
    /// there; markers are applied afterwards, by [`split_suppressed`].
    pub(crate) fn finding(
        &self,
        file: &SourceFile,
        rule: &'static str,
        line: usize,
        message: String,
        out: &mut Vec<Violation>,
    ) {
        let raw = file.raw.get(line.wrapping_sub(1)).map(String::as_str).unwrap_or("");
        if self.in_scope(rule, &file.rel) {
            out.push(Violation { rule, path: PathBuf::from(&file.rel), line, snippet: raw.to_string(), message });
        }
    }
}

/// Split every analyzer's `findings` over `sources` into those reported and
/// those a marker suppresses: the finding's tool's `<tool>:allow(<rule>)`
/// on the finding's line or the line above. Order is kept on both sides.
pub(crate) fn split_suppressed(
    sources: &[(String, String)],
    findings: Vec<Violation>,
) -> (Vec<Violation>, Vec<Violation>) {
    findings.into_iter().partition(|v| {
        let rel = v.path.to_string_lossy();
        let Some((_, text)) = sources.iter().find(|(r, _)| *r == rel) else { return true };
        let lines: Vec<&str> = text.lines().collect();
        let raw = lines.get(v.line.wrapping_sub(1)).copied().unwrap_or("");
        let prev = v.line.checked_sub(2).and_then(|p| lines.get(p)).copied();
        !crate::suite::tool_of(v.rule).suppressed(v.rule, raw, prev)
    })
}

/// Test code: files under these directories are out of scope for every
/// analyzer.
pub(crate) fn in_test_dir(rel: &str) -> bool {
    ["/tests/", "/benches/", "/examples/"].iter().any(|d| rel.contains(d))
}

/// Strip comments and string/char literals from a source file, preserving
/// line structure (stripped spans become spaces). Handles nested block
/// comments, escapes inside strings, raw and byte-raw strings (`r"…"`,
/// `r##"…"##`, `br#"…"#`, …), and distinguishes char literals from
/// lifetimes.
pub fn sanitize(source: &str) -> Vec<String> {
    #[derive(PartialEq)]
    enum St {
        Code,
        Block(u32),
        Line,
        Str,
        RawStr(u32),
    }
    let mut st = St::Code;
    let mut out = Vec::new();
    let mut cur = String::new();
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if st == St::Line {
                st = St::Code;
            }
            out.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match st {
            St::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    st = St::Line;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::Block(1);
                    cur.push(' ');
                    i += 2;
                } else if c == '"' {
                    st = St::Str;
                    cur.push(' ');
                    i += 1;
                } else if c == 'r'
                    && (next == Some('"') || next == Some('#'))
                    && (!prev_is_ident(&chars, i)
                        // Byte raw strings: the `b` of `br#"…"#` is an
                        // identifier char, but not an identifier tail.
                        || (chars[i - 1] == 'b' && !prev_is_ident(&chars, i - 1)))
                {
                    // Raw string: r"…" or r#…#"…"#…#
                    let mut hashes = 0u32;
                    let mut j = i + 1;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        st = St::RawStr(hashes);
                        cur.push(' ');
                        i = j + 1;
                    } else {
                        cur.push(c);
                        i += 1;
                    }
                } else if c == '\'' && !prev_is_ident_or_quote(&chars, i) {
                    // Char literal vs lifetime: 'x' / '\n' close with a
                    // quote; 'static / 'a do not.
                    if next == Some('\\') {
                        let mut j = i + 2;
                        while j < chars.len() && chars[j] != '\'' && chars[j] != '\n' {
                            j += 1;
                        }
                        cur.push(' ');
                        i = (j + 1).min(chars.len());
                    } else if chars.get(i + 2) == Some(&'\'') {
                        cur.push(' ');
                        i += 3;
                    } else {
                        cur.push(c); // lifetime; keep the tick (harmless)
                        i += 1;
                    }
                } else {
                    cur.push(c);
                    i += 1;
                }
            }
            St::Block(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    st = if depth == 1 { St::Code } else { St::Block(depth - 1) };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::Block(depth + 1);
                    i += 2;
                } else {
                    i += 1;
                }
            }
            St::Line => {
                i += 1;
            }
            St::Str => {
                if c == '\\' {
                    // An escaped newline (string continuation) must stay
                    // visible to the top-of-loop line handling, or every
                    // later line number in the file shifts by one.
                    i += if chars.get(i + 1) == Some(&'\n') { 1 } else { 2 };
                } else if c == '"' {
                    st = St::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if chars.get(i + 1 + k as usize) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        st = St::Code;
                        i += 1 + hashes as usize;
                    } else {
                        i += 1;
                    }
                } else {
                    i += 1;
                }
            }
        }
    }
    out.push(cur);
    out
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

fn prev_is_ident_or_quote(chars: &[char], i: usize) -> bool {
    // `'` after an identifier tail or another `'` is never a char-literal
    // opener (e.g. the generic position in `Vec<'a>` or `b'x'` tails).
    prev_is_ident(chars, i) || (i > 0 && chars[i - 1] == '\'')
}

/// Whether `needle` occurs in `line` *as a token*: the character before the
/// match must not be part of an identifier (so `x.unwrap()` matches
/// `.unwrap()` but `my_unwrap()` never matches `unwrap(`).
fn has_token(line: &str, needle: &str) -> bool {
    token_at(line, needle).is_some()
}

fn token_at(line: &str, needle: &str) -> Option<usize> {
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(needle) {
        let at = from + pos;
        // Identifier boundaries: only enforced on sides where the needle
        // itself starts/ends with an identifier character (so `.unwrap()`
        // needs no suffix check, but `unsafe` must not match `unsafe_code`).
        let pre_ok = !is_ident(needle.as_bytes()[0]) || at == 0 || !is_ident(bytes[at - 1]);
        let end = at + needle.len();
        let post_ok = !is_ident(*needle.as_bytes().last().unwrap_or(&b' '))
            || bytes.get(end).is_none_or(|&b| !is_ident(b));
        if pre_ok && post_ok {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// Identifiers in `lines` bound to a `HashMap`/`HashSet` type — fields,
/// `let` bindings, and `= HashMap::new()` initialisations.
fn unordered_bindings(lines: &[String]) -> Vec<String> {
    let mut names = Vec::new();
    for line in lines {
        for ty in ["HashMap", "HashSet"] {
            // `name: HashMap<...>` (field, param, or annotated let).
            let mut from = 0;
            while let Some(pos) = line[from..].find(&format!(": {ty}<")) {
                let at = from + pos;
                if let Some(name) = ident_before(line, at) {
                    push_unique(&mut names, name);
                }
                from = at + 1;
            }
            // `name = HashMap::new()` / `::with_capacity(...)`.
            if let Some(pos) = line.find(&format!("= {ty}::")) {
                if let Some(name) = ident_before(line, pos) {
                    push_unique(&mut names, name);
                }
            }
        }
    }
    names
}

fn ident_before(line: &str, at: usize) -> Option<String> {
    let bytes = line.as_bytes();
    let mut end = at;
    while end > 0 && bytes[end - 1] == b' ' {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
        start -= 1;
    }
    if start == end {
        None
    } else {
        Some(line[start..end].to_string())
    }
}

fn push_unique(names: &mut Vec<String>, name: String) {
    if name != "mut" && !names.contains(&name) {
        names.push(name);
    }
}

/// Does `line` iterate over the binding `name` in an unordered way?
fn iterates_unordered(line: &str, name: &str) -> bool {
    for call in [".iter()", ".keys()", ".values()", ".drain(", ".into_iter()", ".retain("] {
        if has_token(line, &format!("{name}{call}")) {
            return true;
        }
    }
    // `for x in <expr> {`: flag when the iterated expression is the binding
    // itself (optionally borrowed or reached through field access, e.g.
    // `&self.states`), since that iterates the collection directly.
    if let Some(for_at) = line.find("for ") {
        if let Some(in_at) = line[for_at..].find(" in ") {
            let expr_start = for_at + in_at + 4;
            let expr = line[expr_start..].split('{').next().unwrap_or("").trim();
            let expr = expr.trim_start_matches('&').trim_start_matches("mut ").trim();
            if expr == name || expr.ends_with(&format!(".{name}")) {
                return true;
            }
        }
    }
    false
}

/// Lint one Rust source file (already read) at repo-relative path `rel`.
pub fn lint_rust_source(rel: &str, source: &str, out: &mut Vec<Violation>) {
    if in_test_dir(rel) {
        return;
    }
    let raw: Vec<&str> = source.lines().collect();
    let clean = sanitize(source);

    // The repo convention puts the test module last; everything from the
    // first top-level `#[cfg(test)]` attribute onward is test code.
    let code_end = clean
        .iter()
        .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
        .unwrap_or(clean.len());

    let panics: &[(&str, &str)] = &[
        (".unwrap()", "unwrap() panics instead of returning GraphError"),
        (".unwrap_err()", "unwrap_err() panics instead of returning GraphError"),
        (".expect(", "expect() panics instead of returning GraphError"),
        ("panic!(", "panic! aborts the pipeline thread"),
    ];
    let spawns: &[&str] = &["std::thread::spawn", "thread::Builder::new"];
    let clocks: &[&str] = &["Instant::now", "SystemTime::now"];

    let bindings = if LINT.in_scope("no-unordered-iter", rel) {
        unordered_bindings(&clean[..code_end])
    } else {
        Vec::new()
    };

    for (idx, line) in clean[..code_end].iter().enumerate() {
        let lineno = idx + 1;
        let raw_line = raw.get(idx).copied().unwrap_or("");
        let mut flag = |name: &'static str, message: String| {
            if LINT.in_scope(name, rel) {
                out.push(Violation {
                    rule: name,
                    path: PathBuf::from(rel),
                    line: lineno,
                    snippet: raw_line.to_string(),
                    message,
                });
            }
        };

        for (tok, why) in panics {
            if has_token(line, tok) {
                flag("no-unwrap", (*why).to_string());
            }
        }
        for tok in spawns {
            if has_token(line, tok) {
                flag("no-thread-spawn", format!("{tok} outside the audited pipeline stages"));
            }
        }
        for tok in clocks {
            if has_token(line, tok) {
                flag("no-wall-clock", format!("{tok} read inside a deterministic compute path"));
            }
        }
        if has_token(line, "unsafe") {
            flag("no-unsafe", "unsafe code in a forbid(unsafe_code) workspace".to_string());
        }
        for name in &bindings {
            if iterates_unordered(line, name) {
                flag(
                    "no-unordered-iter",
                    format!("iteration over unordered collection `{name}`"),
                );
            }
        }
    }
}

/// Lint one `Cargo.toml` (rule `no-new-deps`): inside dependency sections,
/// every entry must resolve by `path` or `workspace = true`.
pub fn lint_manifest(rel: &str, source: &str, out: &mut Vec<Violation>) {
    if !LINT.in_scope("no-new-deps", rel) {
        return;
    }
    let mut in_deps = false;
    for (idx, raw_line) in source.lines().enumerate() {
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_deps = line.ends_with("dependencies]");
            continue;
        }
        if !in_deps || line.is_empty() {
            continue;
        }
        let ok = line.contains("workspace = true") || line.contains("path =") || !line.contains('=')
            // Inline-table continuation lines and feature lists are fine.
            || line.starts_with("features") || line.starts_with("optional")
            || line.starts_with("default-features");
        let versioned = line.contains("version =")
            || line.split('=').nth(1).is_some_and(|v| {
                let v = v.trim();
                v.starts_with('"') && v[1..].starts_with(|c: char| c.is_ascii_digit() || c == '^' || c == '~')
            });
        if !ok || versioned {
            out.push(Violation {
                rule: "no-new-deps",
                path: PathBuf::from(rel),
                line: idx + 1,
                snippet: raw_line.to_string(),
                message: "dependency does not resolve to a workspace path crate".to_string(),
            });
        }
    }
}

/// Read every `.rs` and `Cargo.toml` under `root/crates/` and
/// `root/shims/` (or under `root` itself for fixture trees with neither),
/// skipping `target/` and `.git/`. Returns `(repo-relative path, text)`
/// pairs sorted by path; every analyzer runs over this one read.
pub fn read_tree(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let bases: Vec<PathBuf> =
        ["crates", "shims"].iter().map(|b| root.join(b)).filter(|b| b.is_dir()).collect();
    if bases.is_empty() {
        collect_files(root, &mut files)?;
    }
    for base in &bases {
        collect_files(base, &mut files)?;
    }
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
            Ok((rel, std::fs::read_to_string(&path)?))
        })
        .collect()
}

/// Lint already-read sources (see [`read_tree`]), markers not applied;
/// violations sorted by path and line.
pub(crate) fn lint_sources(sources: &[(String, String)]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (rel, source) in sources {
        if rel.ends_with("Cargo.toml") {
            lint_manifest(rel, source, &mut out);
        } else {
            lint_rust_source(rel, source, &mut out);
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

/// Read and lint the tree rooted at `root`; suppressed findings dropped.
pub fn lint_tree(root: &Path) -> std::io::Result<Vec<Violation>> {
    let sources = read_tree(root)?;
    Ok(split_suppressed(&sources, lint_sources(&sources)).0)
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_files(&path, out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(rel: &str, src: &str) -> Vec<Violation> {
        let mut out = Vec::new();
        lint_rust_source(rel, src, &mut out);
        split_suppressed(&[(rel.to_string(), src.to_string())], out).0
    }

    #[test]
    fn sanitize_strips_comments_and_strings() {
        let src = "let x = \".unwrap()\"; // .expect(\nlet y = 1; /* panic!( */ let z = 2;\nlet c = '\\n'; let s = r#\".unwrap()\"#;";
        let clean = sanitize(src);
        assert_eq!(clean.len(), 3);
        assert!(!clean[0].contains("unwrap") && !clean[0].contains("expect"), "{:?}", clean[0]);
        assert!(!clean[1].contains("panic") && clean[1].contains("let z"), "{:?}", clean[1]);
        assert!(!clean[2].contains("unwrap"), "{:?}", clean[2]);
    }

    #[test]
    fn sanitize_raw_string_edge_cases() {
        // Multi-hash raw strings close only on the matching hash count: the
        // embedded `"#` must not end an `r##"…"##` literal early.
        let clean = sanitize("let s = r##\"has \"# inside .unwrap()\"##; x.trim();");
        assert!(!clean[0].contains("unwrap"), "{:?}", clean[0]);
        assert!(clean[0].contains("trim"), "{:?}", clean[0]);

        // Byte raw strings: the `b` prefix must not read as an identifier
        // tail that disables raw-string scanning.
        let clean = sanitize("let b = br#\"bytes .expect( \"#; y.len();");
        assert!(!clean[0].contains("expect"), "{:?}", clean[0]);
        assert!(clean[0].contains("len"), "{:?}", clean[0]);

        // `//` inside a raw string is content, not a comment: code after
        // the literal on the same line must survive.
        let clean = sanitize("let url = r\"scheme://host\"; z.shrink();");
        assert!(clean[0].contains("shrink"), "{:?}", clean[0]);

        // An identifier ending in `r` followed by `#` is not a raw string
        // (`attr` before an attribute-like token stays code).
        let clean = sanitize("let attr\"x\" = 1; w.purge();");
        assert!(clean[0].contains("attr"), "{:?}", clean[0]);
        assert!(clean[0].contains("purge"), "{:?}", clean[0]);
    }

    #[test]
    fn sanitize_keeps_lines_across_string_continuations() {
        // A `\`-newline continuation inside a string must not collapse the
        // two source lines into one, or every later line number shifts.
        let src = "let s = \"first \\\n    second\";\nafter();";
        let clean = sanitize(src);
        assert_eq!(clean.len(), 3, "{clean:?}");
        assert!(clean[2].contains("after"), "{clean:?}");
    }

    #[test]
    fn sanitize_keeps_code_around_lifetimes() {
        let clean = sanitize("fn f<'a>(x: &'a str) -> &'a str { x.trim() }");
        assert!(clean[0].contains("trim"));
        assert!(clean[0].contains("str"));
    }

    #[test]
    fn unwrap_flagged_in_scope_only() {
        let src = "fn f() { x.unwrap(); }";
        assert_eq!(lint_str("crates/core/src/engine.rs", src).len(), 1);
        assert_eq!(lint_str("crates/algos/src/runner.rs", src).len(), 0);
        assert_eq!(lint_str("crates/core/tests/foo.rs", src).len(), 0);
    }

    #[test]
    fn test_module_tail_is_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n  fn g() { x.unwrap(); }\n}";
        assert_eq!(lint_str("crates/core/src/engine.rs", src).len(), 0);
    }

    #[test]
    fn suppression_same_and_previous_line() {
        let same = "fn f() { x.unwrap(); } // lint:allow(no-unwrap)";
        assert_eq!(lint_str("crates/core/src/a.rs", same).len(), 0);
        let prev = "// lint:allow(no-unwrap)\nfn f() { x.unwrap(); }";
        assert_eq!(lint_str("crates/core/src/a.rs", prev).len(), 0);
        let wrong = "// lint:allow(no-unsafe)\nfn f() { x.unwrap(); }";
        assert_eq!(lint_str("crates/core/src/a.rs", wrong).len(), 1);
    }

    #[test]
    fn thread_spawn_allowlist() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(lint_str("crates/core/src/engine.rs", src).len(), 1);
        assert_eq!(lint_str("crates/core/src/worker.rs", src).len(), 1, "the Worker runs inline");
        assert_eq!(lint_str("crates/core/src/sio.rs", src).len(), 0);
        // The checkpoint commit thread lives in generations.rs; the engine
        // that starts it spawns nothing itself.
        assert_eq!(lint_str("crates/core/src/generations.rs", src).len(), 0);
        // Ingest has one path, on the calling thread.
        for path in [
            "crates/extsort/src/lib.rs",
            "crates/storage/src/edgelist.rs",
            "crates/io/src/tracked.rs",
        ] {
            assert_eq!(lint_str(path, src).len(), 1, "{path}");
        }
    }

    #[test]
    fn wall_clock_scope() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(lint_str("crates/core/src/worker.rs", src).len(), 1);
        assert_eq!(lint_str("crates/core/src/engine.rs", src).len(), 0, "stage timing exempt");
        assert_eq!(lint_str("crates/bench/src/lib.rs", src).len(), 0);
    }

    #[test]
    fn unordered_iteration_detected() {
        let src = "struct S { states: HashMap<u32, u32> }\nfn f(s: &S) { for (k, v) in &s.states {} }\nfn g(states: &HashMap<u32,u32>) { states.get(&1); }";
        let v = lint_str("crates/core/src/worker.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "no-unordered-iter");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn unordered_lookup_not_flagged() {
        let src = "fn f() { let mut states: HashMap<u32, u32> = HashMap::new(); states.insert(1, 2); states.remove(&1); }";
        assert_eq!(lint_str("crates/core/src/worker.rs", src).len(), 0);
    }

    #[test]
    fn unsafe_flagged_everywhere() {
        let src = "fn f() { unsafe { std::hint::unreachable_unchecked() } }";
        assert_eq!(lint_str("crates/algos/src/runner.rs", src).len(), 1);
        // ...but not as a substring of an identifier.
        assert_eq!(lint_str("crates/algos/src/runner.rs", "fn not_unsafe_fn() {}").len(), 0);
        // The forbid attribute itself must not trip the rule.
        assert_eq!(lint_str("crates/algos/src/lib.rs", "#![forbid(unsafe_code)]").len(), 0);
    }

    #[test]
    fn manifest_rules() {
        let mut out = Vec::new();
        lint_manifest(
            "crates/foo/Cargo.toml",
            "[package]\nname = \"x\"\nversion = \"1.0\"\n[dependencies]\nserde = \"1.0\"\ngraphz-types = { workspace = true }\nrand = { path = \"../shims/rand\" }\n",
            &mut out,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].snippet.contains("serde"));
        assert_eq!(out[0].line, 5);
    }

    #[test]
    fn manifest_version_key_flagged() {
        let mut out = Vec::new();
        lint_manifest(
            "crates/foo/Cargo.toml",
            "[dev-dependencies]\nserde = { version = \"1\", features = [\"derive\"] }\n",
            &mut out,
        );
        assert_eq!(out.len(), 1);
    }
}
