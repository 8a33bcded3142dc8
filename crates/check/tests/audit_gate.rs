//! End-to-end gate for the audit rules: the real repository must audit
//! clean, and seeded fixture trees must trip every rule — a lock-order
//! cycle, an unchecked Eq. 1 multiply, a bare truncating cast, and a
//! silently dropped Result.

mod common;

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;
use std::process::{Command, Output};

use common::{repo_root, scratch, write};
use graphz_check::audit::{audit_tree, AUDIT_RULES};

/// Run the `graphz-check` binary with `args`.
fn check_bin(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_graphz-check")).args(args).output().expect("run graphz-check")
}

/// One file per rule; `suppress: true` adds an `audit:allow` marker above
/// every seeded violation so the suppression path is tested on the same
/// sources.
fn seed_fixture(root: &Path, suppress: bool) {
    let allow = |rule: &str| {
        if suppress {
            format!("    // audit:allow({rule}) seeded fixture\n")
        } else {
            String::new()
        }
    };

    // lock-order: two functions acquire m1/m2 in opposite orders.
    write(
        root,
        "crates/core/src/locks.rs",
        &format!(
            "pub struct S {{ m1: Mutex<u32>, m2: Mutex<u32> }}\n\
             impl S {{\n\
             pub fn ab(&self) -> u32 {{ let a = self.m1.lock(); \n{}let b = self.m2.lock(); *a + *b }}\n\
             pub fn ba(&self) -> u32 {{ let b = self.m2.lock(); \n{}let a = self.m1.lock(); *a + *b }}\n\
             }}\n",
            allow("lock-order"),
            allow("lock-order"),
        ),
    );

    // unchecked-offset-arith: the paper's Eq. 1 written with bare `+`/`*`,
    // plus a byte-offset multiply.
    write(
        root,
        "crates/storage/src/eq1.rs",
        &format!(
            "pub fn eq1(id_offset: u64, v: u32, first: u32, d: u32) -> u64 {{\n\
             {}    id_offset + u64::from(v - first) * u64::from(d)\n}}\n\
             pub fn byte_offset(offset: u64) -> u64 {{\n{}    offset * 4\n}}\n",
            allow("unchecked-offset-arith"),
            allow("unchecked-offset-arith"),
        ),
    );

    // unchecked-cast: a bare truncating cast in storage.
    write(
        root,
        "crates/storage/src/cast.rs",
        &format!(
            "pub fn truncate(n: u64) -> u32 {{\n{}    n as u32\n}}\n",
            allow("unchecked-cast"),
        ),
    );

    // dropped-result: a Result-returning helper called as a bare statement.
    write(
        root,
        "crates/core/src/dropres.rs",
        &format!(
            "fn flush_segment(p: u32) -> Result<()> {{ Ok(()) }}\n\
             pub fn caller(p: u32) {{\n{}    flush_segment(p);\n}}\n",
            allow("dropped-result"),
        ),
    );
}

#[test]
fn repository_audits_clean() {
    let findings = audit_tree(repo_root()).expect("audit repo");
    assert!(
        findings.is_empty(),
        "repository must audit clean, got:\n{}",
        findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn seeded_fixtures_trip_every_rule() {
    let root = scratch("audit_fixture_bad");
    seed_fixture(&root, false);
    let findings = audit_tree(&root).expect("audit fixture");
    let tripped: BTreeSet<&str> = findings.iter().map(|v| v.rule).collect();
    let all: BTreeSet<&str> = AUDIT_RULES.iter().map(|r| r.name).collect();
    assert_eq!(tripped, all, "every audit rule must trip, got:\n{findings:?}");
    // The Eq. 1 fixture is flagged on the offset addition, and the
    // byte-offset multiply separately.
    let arith: Vec<_> =
        findings.iter().filter(|v| v.rule == "unchecked-offset-arith").collect();
    assert!(arith.len() >= 2, "{arith:?}");
}

#[test]
fn suppressions_silence_seeded_violations() {
    let root = scratch("audit_fixture_allowed");
    seed_fixture(&root, true);
    let findings = audit_tree(&root).expect("audit fixture");
    assert!(findings.is_empty(), "audit:allow must silence every finding:\n{findings:?}");
}

#[test]
fn findings_name_file_line_and_rule() {
    let root = scratch("audit_fixture_report");
    seed_fixture(&root, false);
    let findings = audit_tree(&root).expect("audit fixture");
    let cast = findings.iter().find(|v| v.rule == "unchecked-cast").expect("cast finding");
    assert_eq!(cast.path, Path::new("crates/storage/src/cast.rs"));
    assert_eq!(cast.line, 2);
    assert!(cast.snippet.contains("n as u32"));
    let shown = cast.to_string();
    assert!(shown.contains("crates/storage/src/cast.rs:2"), "{shown}");
    assert!(shown.contains("[unchecked-cast]"), "{shown}");
}

/// Exit-code contract of `graphz-check`, the CI gate: clean repository ⇒
/// 0 with a clean `--json` document, the seeded audit fixture ⇒ 1 with
/// every audit rule printed with its suppression marker, usage errors ⇒
/// 2; `--list-rules` names every audit rule under its tool.
#[test]
fn audit_binary_exit_codes_and_json() {
    let json_clean = scratch("audit_json_clean").join("analysis_findings.json");
    let repo = repo_root().to_string_lossy();
    let out = check_bin(&["--root", &repo, "--json", &json_clean.to_string_lossy()]);
    assert!(out.status.success(), "clean tree must exit 0: {out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean"), "{out:?}");
    let json = fs::read_to_string(&json_clean).expect("json document");
    assert!(json.starts_with("{\n  \"schema_version\": 1,\n"), "{json}");
    assert!(json.contains("\"tool\": \"graphz-check\""), "{json}");
    assert!(json.contains("\"count\": 0"), "{json}");

    let root = scratch("audit_fixture_exit");
    seed_fixture(&root, false);
    let json_bad = root.join("analysis_findings.json");
    let out = check_bin(&["--root", &root.to_string_lossy(), "--json", &json_bad.to_string_lossy()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in AUDIT_RULES {
        let marker = format!("audit:allow({})", rule.name);
        assert!(stdout.contains(&marker), "stdout must print `{marker}`: {stdout}");
    }
    let json = fs::read_to_string(&json_bad).expect("json document");
    assert!(json.contains("\"rule\": \"lock-order\""), "{json}");

    for args in [&["--no-such-flag"][..], &["--fix-allowlist"], &["--root"]] {
        assert_eq!(check_bin(args).status.code(), Some(2), "{args:?} is a usage error");
    }

    let out = check_bin(&["--list-rules"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in AUDIT_RULES {
        let listed = stdout.lines().any(|l| l.split_whitespace().take(2).eq(["audit", rule.name]));
        assert!(listed, "{} missing from:\n{stdout}", rule.name);
    }
}

/// Lint findings reach the same `--json` document and print their
/// `lint:allow` marker.
#[test]
fn lint_binary_emits_json() {
    let root = scratch("lint_json_fixture");
    write(&root, "crates/core/src/engine.rs", "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n");
    let json_path = root.join("analysis_findings.json");
    let out = check_bin(&["--root", &root.to_string_lossy(), "--json", &json_path.to_string_lossy()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("lint:allow(no-unwrap)"), "{out:?}");
    let json = fs::read_to_string(&json_path).expect("json document");
    assert!(json.contains("\"schema_version\": 1"), "{json}");
    assert!(json.contains("\"tool\": \"graphz-check\""), "{json}");
    assert!(json.contains("\"count\": 1"), "{json}");
    let entry = "\"rule\": \"no-unwrap\", \"path\": \"crates/core/src/engine.rs\", \"line\": 1";
    assert!(json.contains(entry), "{json}");
}
