//! End-to-end gate for `graphz-flow` (ISSUE 8 acceptance): the real
//! repository — including this crate analyzing itself — must flow clean,
//! and seeded fixture trees must trip every rule: a raw `File::create`
//! bypassing the fault surface, an `AtomicFile` committed on only one
//! path, a HashMap-iteration value reaching a `push` sink, and a raw
//! `std::fs` call `?`-propagating without `.ctx`. Fixture trees are
//! *scanned*, not compiled, so they only need to be token-plausible Rust.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use graphz_check::flow::{flow_tree, FLOW_RULES};

/// A scratch directory under the target dir, wiped per test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn write(root: &Path, rel: &str, contents: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
    fs::write(path, contents).expect("write fixture file");
}

fn repo_root() -> &'static Path {
    // crates/check/ → workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
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

    // fault-surface-bypass: a raw File::create in an ingest crate with no
    // surface gate on any path to it.
    write(
        root,
        "crates/io/src/rawdump.rs",
        &format!(
            "pub fn dump(path: &Path, bytes: &[u8]) -> Result<()> {{\n\
             {}    let mut f = File::create(path)?;\n\
             f.write_all(bytes)?;\n    Ok(())\n}}\n",
            allow("fault-surface-bypass"),
        ),
    );

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

    // error-context: a raw fs call whose error `?`-propagates bare.
    write(
        root,
        "crates/storage/src/readraw.rs",
        &format!(
            "pub fn read(p: &Path) -> Result<String> {{\n\
             {}    let text = fs::read_to_string(p)?;\n\
             Ok(text)\n}}\n",
            allow("error-context"),
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
}

#[test]
fn suppressions_silence_seeded_violations() {
    let root = scratch("flow_fixture_allowed");
    seed_fixture(&root, true);
    let findings = flow_tree(&root).expect("flow fixture");
    assert!(findings.is_empty(), "flow:allow must silence every finding:\n{findings:?}");
}

/// The analyses are path-sensitive, not presence-based: a surface gate on
/// one branch does not cover the other, while a gate that dominates the
/// sink is clean; a commit on every success path consumes the stage.
#[test]
fn path_sensitivity_distinguishes_branches() {
    let root = scratch("flow_fixture_paths");
    // Gate under `if` only — the else path reaches the sink ungated.
    write(
        &root,
        "crates/io/src/halfgate.rs",
        "pub fn half(surface: &FaultSurface, path: &Path) -> Result<()> {\n\
         if cheap() {\n        surface.op(\"gate\")?;\n    }\n\
         let f = File::create(path)?;\n    Ok(())\n}\n",
    );
    // Gate before the sink on the single path — clean.
    write(
        &root,
        "crates/io/src/fullgate.rs",
        "pub fn full(surface: &FaultSurface, path: &Path) -> Result<()> {\n\
         surface.op(\"gate\")?;\n\
         let f = File::create(path)?;\n    Ok(())\n}\n",
    );
    // Commit on both success paths — clean; the `?`-error paths are the
    // implicit abort and must not be reported.
    write(
        &root,
        "crates/io/src/bothcommit.rs",
        "pub fn both(dest: &Path, flag: bool) -> Result<()> {\n\
         let mut f = AtomicFile::create(dest)?;\n\
         if flag {\n        f.write_all(b\"a\")?;\n        f.commit()?;\n    } \
         else {\n        f.commit()?;\n    }\n    Ok(())\n}\n",
    );
    let findings = flow_tree(&root).expect("flow fixture");
    assert_eq!(findings.len(), 1, "only the half-gated sink may fire:\n{findings:?}");
    assert_eq!(findings[0].rule, "fault-surface-bypass");
    assert_eq!(findings[0].path, Path::new("crates/io/src/halfgate.rs"));
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
    let ec = findings.iter().find(|v| v.rule == "error-context").expect("errctx finding");
    assert_eq!(ec.path, Path::new("crates/storage/src/readraw.rs"));
    assert_eq!(ec.line, 2);
    assert!(ec.snippet.contains("read_to_string"), "{ec:?}");
    let shown = ec.to_string();
    assert!(shown.contains("crates/storage/src/readraw.rs:2"), "{shown}");
    assert!(shown.contains("[error-context]"), "{shown}");
}

/// Exit-code contract for the CI gate: clean tree ⇒ 0, the seeded fixture
/// (a deliberate fault-surface bypass among others) ⇒ 1 with every rule
/// named on stdout, usage errors ⇒ 2. Also covers the `--json` artifact
/// both clean and dirty.
#[test]
fn flow_binary_exit_codes_and_json() {
    let bin = env!("CARGO_BIN_EXE_graphz-flow");

    // Clean repository ⇒ exit 0 and a clean JSON artifact.
    let json_clean = scratch("flow_json_clean").join("flow_findings.json");
    let out = Command::new(bin)
        .args(["--root", &repo_root().to_string_lossy()])
        .args(["--json", &json_clean.to_string_lossy()])
        .output()
        .expect("run graphz-flow");
    assert!(out.status.success(), "clean tree must exit 0: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("clean"), "{stdout}");
    let json = fs::read_to_string(&json_clean).expect("json artifact");
    assert!(json.contains("\"schema_version\": 1"), "{json}");
    assert!(json.contains("\"count\": 0"), "{json}");
    assert!(json.contains("\"tool\": \"graphz-flow\""));

    // Seeded fixture ⇒ exit 1, every rule named on stdout, findings in JSON.
    let root = scratch("flow_fixture_exit");
    seed_fixture(&root, false);
    let json_bad = root.join("flow_findings.json");
    let out = Command::new(bin)
        .args(["--root", &root.to_string_lossy()])
        .args(["--json", &json_bad.to_string_lossy()])
        .output()
        .expect("run graphz-flow");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in FLOW_RULES {
        assert!(stdout.contains(rule.name), "stdout must name {}: {stdout}", rule.name);
    }
    assert!(stdout.contains("flow:allow("), "must print the suppression hint: {stdout}");
    let json = fs::read_to_string(&json_bad).expect("json artifact");
    assert!(json.contains("\"rule\": \"fault-surface-bypass\""), "{json}");

    // Usage error ⇒ exit 2.
    let out = Command::new(bin).arg("--no-such-flag").output().expect("run graphz-flow");
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    // --list-rules names every rule and exits 0.
    let out = Command::new(bin).arg("--list-rules").output().expect("run graphz-flow");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in FLOW_RULES {
        assert!(stdout.contains(rule.name), "{stdout}");
    }
}

/// `graphz-report` merges per-tool artifacts: the combined document embeds
/// each input and its top-level count is the sum of theirs.
#[test]
fn report_binary_merges_artifacts() {
    let bin = env!("CARGO_BIN_EXE_graphz-report");
    let dir = scratch("flow_report_merge");
    let a = dir.join("a.json");
    let b = dir.join("b.json");
    fs::write(&a, "{\n    \"tool\": \"graphz-lint\",\n    \"count\": 2\n}\n").unwrap();
    fs::write(&b, "{\n    \"tool\": \"graphz-flow\",\n    \"count\": 3\n}\n").unwrap();
    let out_path = dir.join("analysis_findings.json");
    let out = Command::new(bin)
        .args(["--out", &out_path.to_string_lossy()])
        .arg(format!("graphz-lint={}", a.display()))
        .arg(format!("graphz-flow={}", b.display()))
        .output()
        .expect("run graphz-report");
    assert!(out.status.success(), "{out:?}");
    let json = fs::read_to_string(&out_path).expect("combined artifact");
    assert!(json.contains("\"schema_version\": 1"), "{json}");
    assert!(json.contains("\"count\": 5"), "{json}");
    assert!(json.contains("\"graphz-lint\""), "{json}");
    assert!(json.contains("\"graphz-flow\""), "{json}");

    // Missing --out or unreadable inputs ⇒ exit 2.
    let out = Command::new(bin).arg("tool=/no/such/file.json").output().expect("run");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}
