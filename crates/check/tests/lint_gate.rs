//! End-to-end gate for the lint rules: the real repository must lint
//! clean, and a fixture tree seeded with one violation per rule must trip
//! every rule.

mod common;

use std::collections::BTreeSet;
use std::path::Path;

use common::{repo_root, scratch, write};
use graphz_check::lint::{lint_tree, Violation, RULES};
use graphz_check::suite::{check_tree, tool_of};

/// The suite's findings of lint rules (stale-suppression included).
fn lint_findings(root: &Path) -> Vec<Violation> {
    let all = check_tree(root).expect("check tree");
    all.into_iter().filter(|v| tool_of(v.rule).prefix == "lint").collect()
}

#[test]
fn repository_lints_clean() {
    let violations = lint_findings(repo_root());
    assert!(
        violations.is_empty(),
        "repository must lint clean, got:\n{}",
        violations.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn seeded_fixture_trips_every_rule() {
    let root = scratch("lint_fixture_bad");

    // no-unwrap: in-scope core source using unwrap outside tests.
    write(
        &root,
        "crates/core/src/engine.rs",
        "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n",
    );
    // no-thread-spawn: raw spawn outside the pipeline allowlist.
    write(
        &root,
        "crates/core/src/rogue.rs",
        "pub fn g() { std::thread::spawn(|| {}); }\n",
    );
    // no-wall-clock: timing a deterministic compute path.
    write(
        &root,
        "crates/core/src/worker.rs",
        "pub fn h() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    // no-unordered-iter: iterating a HashMap feeding the ordered merge.
    write(
        &root,
        "crates/core/src/msgmanager.rs",
        "use std::collections::HashMap;\n\
         pub fn k() -> u64 {\n\
             let m: HashMap<u32, u64> = HashMap::new();\n\
             let mut s = 0;\n\
             for (_k, v) in m.iter() { s += v; }\n\
             s\n\
         }\n",
    );
    // no-new-deps: a version-pinned external dependency.
    write(
        &root,
        "crates/core/Cargo.toml",
        "[package]\nname = \"fixture\"\n[dependencies]\nserde = \"1.0\"\n",
    );
    // no-unsafe: an unsafe block anywhere.
    write(
        &root,
        "crates/io/src/lib.rs",
        "pub fn p(x: *const u8) -> u8 { unsafe { *x } }\n",
    );
    // stale-suppression: a marker with nothing underneath it to suppress.
    write(
        &root,
        "crates/io/src/clean.rs",
        "// lint:allow(no-unwrap)\npub fn q() -> u8 { 0 }\n",
    );

    let violations = lint_findings(&root);
    let tripped: BTreeSet<&str> = violations.iter().map(|v| v.rule).collect();
    let all: BTreeSet<&str> = RULES.iter().map(|r| r.name).collect();
    assert_eq!(
        tripped, all,
        "every rule must fire on the seeded fixture; violations:\n{}",
        violations.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn suppressions_silence_seeded_violations() {
    let root = scratch("lint_fixture_allowed");
    write(
        &root,
        "crates/core/src/engine.rs",
        "// lint:allow(no-unwrap)\n\
         pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n\
         pub fn g() { std::thread::spawn(|| {}); } // lint:allow(no-thread-spawn)\n",
    );
    let violations = lint_tree(&root).expect("lint fixture");
    assert!(
        violations.is_empty(),
        "lint:allow must suppress, got:\n{}",
        violations.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn violation_report_names_file_line_and_rule() {
    let root = scratch("lint_fixture_report");
    write(
        &root,
        "crates/core/src/engine.rs",
        "// first line\npub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n",
    );
    let violations = lint_tree(&root).expect("lint fixture");
    assert_eq!(violations.len(), 1);
    let v = &violations[0];
    assert_eq!(v.rule, "no-unwrap");
    assert_eq!(v.line, 2);
    assert!(v.path.ends_with("crates/core/src/engine.rs"));
    let rendered = v.to_string();
    assert!(rendered.contains("engine.rs:2"), "rendered: {rendered}");
    assert!(rendered.contains("[no-unwrap]"), "rendered: {rendered}");
}
