//! End-to-end gate for the flow rules: the real repository — including
//! this crate analyzing itself — must flow clean, and seeded fixture trees
//! must trip every rule: an `AtomicFile` committed on only one path, one
//! never committed, a message claim never retired, and a HashMap-iteration
//! value reaching a `push` sink.

mod common;

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;
use std::process::{Command, Output};

use common::{repo_root, scratch, write};
use graphz_check::flow::{flow_tree, FLOW_RULES};
use graphz_check::suite::rules;

/// Run the `graphz-check` binary with `args`.
fn check_bin(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_graphz-check")).args(args).output().expect("run graphz-check")
}

/// One file per rule; `suppress: true` adds a `flow:allow` marker directly
/// above every seeded violation so the suppression path is tested on the
/// same sources.
fn seed_fixture(root: &Path, suppress: bool) {
    let allow = |rule: &str| {
        if suppress {
            format!("    // flow:allow({rule}) seeded fixture\n")
        } else {
            String::new()
        }
    };

    // must-consume-paths: an AtomicFile committed only under a flag — the
    // fall-through success path silently drops the staged bytes.
    write(
        root,
        "crates/io/src/stagecond.rs",
        &format!(
            "pub fn stage(dest: &Path, flag: bool) -> Result<()> {{\n\
             {}    let mut f = AtomicFile::create(dest)?;\n\
             f.write_all(b\"data\")?;\n\
             if flag {{\n        f.commit()?;\n    }}\n    Ok(())\n}}\n",
            allow("must-consume-paths"),
        ),
    );

    // must-consume-paths: a tempfile written but never committed, and a
    // claim that is read but never retired.
    write(
        root,
        "crates/io/src/leak.rs",
        &format!(
            "pub fn write(dest: &Path, bytes: &[u8]) -> Result<()> {{\n\
             {}    let mut f = AtomicFile::create(dest)?;\n\
             f.write_all(bytes)?;\n    Ok(())\n}}\n",
            allow("must-consume-paths"),
        ),
    );
    write(
        root,
        "crates/core/src/claimleak.rs",
        &format!(
            "pub fn peek(mgr: &mut MsgManager) -> Result<u64> {{\n\
             {}    let c = mgr.claim(0)?;\n    Ok(c.total)\n}}\n",
            allow("must-consume-paths"),
        ),
    );

    // determinism-taint: a HashMap-iteration value reaching a push sink.
    write(
        root,
        "crates/core/src/order.rs",
        &format!(
            "pub fn collect(out: &mut Vec<u32>) {{\n\
             let m = HashMap::new();\n\
             for v in m.iter() {{\n\
             {}        out.push(v);\n    }}\n}}\n",
            allow("determinism-taint"),
        ),
    );
}

#[test]
fn repository_flows_clean() {
    let findings = flow_tree(repo_root()).expect("flow repo");
    assert!(
        findings.is_empty(),
        "repository must flow clean, got:\n{}",
        findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn seeded_fixtures_trip_every_rule() {
    let root = scratch("flow_fixture_bad");
    seed_fixture(&root, false);
    let findings = flow_tree(&root).expect("flow fixture");
    let tripped: BTreeSet<&str> = findings.iter().map(|v| v.rule).collect();
    let all: BTreeSet<&str> = FLOW_RULES.iter().map(|r| r.name).collect();
    assert_eq!(tripped, all, "every flow rule must trip, got:\n{findings:?}");
    // All three resource leaks (branch, tempfile, claim) are reported.
    let consume: Vec<_> = findings.iter().filter(|v| v.rule == "must-consume-paths").collect();
    assert_eq!(consume.len(), 3, "{consume:?}");
}

#[test]
fn suppressions_silence_seeded_violations() {
    let root = scratch("flow_fixture_allowed");
    seed_fixture(&root, true);
    let findings = flow_tree(&root).expect("flow fixture");
    assert!(findings.is_empty(), "flow:allow must silence every finding:\n{findings:?}");
}

/// The analysis is path-sensitive, not presence-based: a commit on one
/// branch does not cover the other, while a commit on every success path
/// is clean and the `?`-error paths (the implicit abort) are not reported.
#[test]
fn path_sensitivity_distinguishes_branches() {
    let root = scratch("flow_fixture_paths");
    write(
        &root,
        "crates/io/src/halfcommit.rs",
        "pub fn half(dest: &Path, flag: bool) -> Result<()> {\n\
         let mut f = AtomicFile::create(dest)?;\n\
         if flag {\n        f.commit()?;\n    }\n    Ok(())\n}\n",
    );
    write(
        &root,
        "crates/io/src/bothcommit.rs",
        "pub fn both(dest: &Path, flag: bool) -> Result<()> {\n\
         let mut f = AtomicFile::create(dest)?;\n\
         if flag {\n        f.write_all(b\"a\")?;\n        f.commit()?;\n    } \
         else {\n        f.commit()?;\n    }\n    Ok(())\n}\n",
    );
    let findings = flow_tree(&root).expect("flow fixture");
    assert_eq!(findings.len(), 1, "only the half-committed file may fire:\n{findings:?}");
    assert_eq!(findings[0].rule, "must-consume-paths");
    assert_eq!(findings[0].path, Path::new("crates/io/src/halfcommit.rs"));
}

/// A stage manifest committed on only one success path is a finding; one
/// committed on every path is clean.
#[test]
fn a_stage_manifest_committed_on_one_path_is_flagged() {
    let root = scratch("flow_fixture_manifest");
    write(
        &root,
        "crates/storage/src/stagemf.rs",
        "pub fn record(path: &Path, s: &FaultSurface, flag: bool) -> Result<()> {\n\
         let mut m = MetaFile::stage(\"runs\");\n\
         m.set(\"num_edges\", 7);\n\
         if flag {\n        m.commit(path, s)?;\n    }\n    Ok(())\n}\n\
         pub fn always(path: &Path, s: &FaultSurface) -> Result<()> {\n\
         let mut m = MetaFile::stage(\"emit\");\n\
         m.set(\"written\", 7);\n    m.commit(path, s)?;\n    Ok(())\n}\n",
    );
    let findings = flow_tree(&root).expect("flow fixture");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "must-consume-paths");
    assert_eq!(findings[0].line, 2, "{findings:?}");
}

#[test]
fn findings_name_file_line_and_rule() {
    let root = scratch("flow_fixture_report");
    seed_fixture(&root, false);
    let findings = flow_tree(&root).expect("flow fixture");
    let claim = findings
        .iter()
        .find(|v| v.path == Path::new("crates/core/src/claimleak.rs"))
        .expect("claim finding");
    assert_eq!(claim.rule, "must-consume-paths");
    assert_eq!(claim.line, 2);
    assert!(claim.snippet.contains("mgr.claim(0)"), "{claim:?}");
    assert!(claim.message.contains("message claim"), "{claim:?}");
    let shown = claim.to_string();
    assert!(shown.contains("crates/core/src/claimleak.rs:2"), "{shown}");
    assert!(shown.contains("[must-consume-paths]"), "{shown}");
}

/// `graphz-check` on the seeded flow fixture: exit 1, every flow rule
/// printed with its suppression marker, the findings in the `--json`
/// document; `--list-rules` names exactly the surviving rules of every
/// tool, none of the three subsumed ones.
#[test]
fn flow_binary_exit_codes_and_json() {
    let root = scratch("flow_fixture_exit");
    seed_fixture(&root, false);
    let json_bad = root.join("analysis_findings.json");
    let out = check_bin(&["--root", &root.to_string_lossy(), "--json", &json_bad.to_string_lossy()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in FLOW_RULES {
        let marker = format!("flow:allow({})", rule.name);
        assert!(stdout.contains(&marker), "stdout must print `{marker}`: {stdout}");
    }
    let json = fs::read_to_string(&json_bad).expect("json document");
    assert!(json.contains("\"schema_version\": 1"), "{json}");
    assert!(json.contains("\"rule\": \"must-consume-paths\""), "{json}");

    let out = check_bin(&["--list-rules"]);
    assert!(out.status.success(), "{out:?}");
    let listed: BTreeSet<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.split_whitespace().nth(1).map(str::to_string))
        .collect();
    let all: BTreeSet<String> = rules().map(|r| r.name.to_string()).collect();
    assert_eq!(listed, all);
    for gone in ["must-consume", "fault-surface-bypass", "error-context"] {
        assert!(!listed.contains(gone), "{gone} is subsumed and must not be listed");
    }
}

/// One `--json` document merges every analyzer's findings: a fixture with
/// one finding per tool (a hot-path allocation one call away, an unwrap
/// in core, a claim never retired, a dropped Result) yields their summed
/// count, and each finding prints its own tool's marker.
#[test]
fn report_binary_merges_artifacts() {
    let root = scratch("flow_report_merge");
    write(
        &root,
        "crates/core/src/worker.rs",
        "pub struct Worker { sent: u64 }\n\
         impl Worker {\n\
         \x20   pub fn process(&mut self, n: usize) -> u64 {\n\
         \x20       let buf = staging(n);\n\
         \x20       buf.len() as u64\n\
         \x20   }\n\
         }\n\
         fn staging(n: usize) -> Vec<u8> {\n\
         \x20   vec![0u8; n]\n\
         }\n",
    );
    write(&root, "crates/core/src/engine.rs", "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n");
    write(
        &root,
        "crates/core/src/claimleak.rs",
        "pub fn peek(mgr: &mut MsgManager) -> Result<u64> {\n\
         \x20   let c = mgr.claim(0)?;\n    Ok(c.total)\n}\n",
    );
    write(
        &root,
        "crates/core/src/dropres.rs",
        "fn flush_segment(p: u32) -> Result<()> { Ok(()) }\n\
         pub fn caller(p: u32) {\n    flush_segment(p);\n}\n",
    );
    let out_path = root.join("analysis_findings.json");
    let out = check_bin(&["--root", &root.to_string_lossy(), "--json", &out_path.to_string_lossy()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json = fs::read_to_string(&out_path).expect("findings document");
    assert!(json.contains("\"schema_version\": 1"), "{json}");
    assert!(json.contains("\"count\": 4"), "{json}");
    for (tool, rule) in [
        ("ipa", "hot-path-alloc"),
        ("lint", "no-unwrap"),
        ("flow", "must-consume-paths"),
        ("audit", "dropped-result"),
    ] {
        assert!(stdout.contains(&format!("{tool}:allow({rule})")), "{tool} marker: {stdout}");
        assert!(json.contains(&format!("\"rule\": \"{rule}\"")), "{rule} missing: {json}");
    }
}
