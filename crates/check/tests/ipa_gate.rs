//! End-to-end gate for `graphz-ipa` (ISSUE 9 acceptance): the real
//! repository — including the engine hot path this crate certifies — must
//! analyze clean, and seeded fixture trees must trip every rule through a
//! *call chain*: an allocation in a helper the Worker loop calls, an
//! unchecked index behind the Executor feed path, an ungated file-creating
//! sink reached through a mechanism file the flow pass exempts wholesale,
//! a bare fs error `?`-crossing a crate boundary, and an allocation behind
//! a GraphView point query on the serve read path. Fixture trees are
//! *scanned*, not compiled, so they only need to be token-plausible Rust.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use graphz_check::flow::flow_tree;
use graphz_check::ipa::{ipa_tree, IPA_RULES};

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

/// One seeded violation per rule, each reached through at least one call
/// edge; `suppress: true` adds an `ipa:allow` marker directly above every
/// offending site so the suppression path is tested on the same sources.
fn seed_fixture(root: &Path, suppress: bool) {
    let allow = |rule: &str| {
        if suppress {
            format!("    // ipa:allow({rule}) seeded fixture\n")
        } else {
            String::new()
        }
    };

    // hot-path-alloc: the per-message loop calls a helper that allocates.
    write(
        root,
        "crates/core/src/worker.rs",
        &format!(
            "pub struct ShardState {{ sent: u64 }}\n\
             impl ShardState {{\n\
             \x20   pub fn process(&mut self, n: usize) -> u64 {{\n\
             \x20       let buf = staging(n);\n\
             \x20       buf.len() as u64\n\
             \x20   }}\n\
             }}\n\
             fn staging(n: usize) -> Vec<u8> {{\n\
             {}    vec![0u8; n]\n\
             }}\n",
            allow("hot-path-alloc"),
        ),
    );

    // panic-freedom: an unchecked index in a helper the feed path calls.
    write(
        root,
        "crates/core/src/exec.rs",
        &format!(
            "pub struct Executor {{ shards: usize }}\n\
             impl Executor {{\n\
             \x20   pub fn feed(&self, xs: &[u32], i: usize) -> u32 {{\n\
             \x20       pick(xs, i)\n\
             \x20   }}\n\
             }}\n\
             fn pick(xs: &[u32], i: usize) -> u32 {{\n\
             {}    xs[i]\n\
             }}\n",
            allow("panic-freedom"),
        ),
    );

    // fault-surface-reach: an ungated file-creating sink inside a
    // mechanism file (exempt from flow's intraprocedural rule), reached
    // from an ungated storage-crate root.
    write(
        root,
        "crates/io/src/record.rs",
        &format!(
            "pub fn raw_writer(path: &Path) -> Result<File> {{\n\
             {}    Ok(File::create(path)?)\n\
             }}\n",
            allow("fault-surface-reach"),
        ),
    );
    write(
        root,
        "crates/storage/src/pipe.rs",
        "pub fn emit(path: &Path) {\n    let _w = raw_writer(path);\n}\n",
    );

    // serve-read-alloc: a GraphView point query calls a helper that
    // allocates per request.
    write(
        root,
        "crates/serve/src/view.rs",
        &format!(
            "pub struct GraphView {{ hits: u64 }}\n\
             impl GraphView {{\n\
             \x20   pub fn degree(&mut self, v: u32) -> u64 {{\n\
             \x20       label(v)\n\
             \x20   }}\n\
             }}\n\
             fn label(v: u32) -> u64 {{\n\
             {}    let s = format!(\"v{{v}}\");\n\
             \x20   s.len() as u64\n\
             }}\n",
            allow("serve-read-alloc"),
        ),
    );

    // error-context-prop: a bare fs error `?`-crossing io → core.
    write(
        root,
        "crates/io/src/rawread.rs",
        "pub fn read_bare(p: &Path) -> Result<Vec<u8>> {\n    Ok(fs::read(p)?)\n}\n",
    );
    write(
        root,
        "crates/core/src/loader.rs",
        &format!(
            "pub fn load(p: &Path) -> Result<Vec<u8>> {{\n\
             {}    let bytes = read_bare(p)?;\n\
             \x20   Ok(bytes)\n\
             }}\n",
            allow("error-context-prop"),
        ),
    );
}

#[test]
fn repository_is_ipa_clean() {
    let findings = ipa_tree(repo_root()).expect("analyze repo");
    assert!(
        findings.is_empty(),
        "repository must be ipa-clean, got:\n{}",
        findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn seeded_fixtures_trip_every_rule() {
    let root = scratch("ipa_fixture_bad");
    seed_fixture(&root, false);
    let findings = ipa_tree(&root).expect("analyze fixture");
    let tripped: BTreeSet<&str> = findings.iter().map(|v| v.rule).collect();
    let all: BTreeSet<&str> = IPA_RULES.iter().map(|r| r.name).collect();
    assert_eq!(tripped, all, "every ipa rule must trip, got:\n{findings:?}");
}

#[test]
fn suppressions_silence_seeded_violations() {
    let root = scratch("ipa_fixture_allowed");
    seed_fixture(&root, true);
    let findings = ipa_tree(&root).expect("analyze fixture");
    assert!(findings.is_empty(), "ipa:allow must silence every finding:\n{findings:?}");
}

/// The two holes interprocedural analysis closes, demonstrated on cases
/// the flow pass *provably* misses on the same sources: an allocation one
/// call away from the per-message loop (flow has no reachability notion),
/// and an ungated sink inside a mechanism file flow exempts wholesale,
/// reached from an ungated caller in another crate.
#[test]
fn helper_chain_cases_flow_misses() {
    let root = scratch("ipa_fixture_flow_miss");
    // Allocation behind a helper on the hot path.
    write(
        &root,
        "crates/core/src/worker.rs",
        "pub struct ShardState { sent: u64 }\n\
         impl ShardState {\n\
         \x20   pub fn process(&mut self, n: usize) -> u64 {\n\
         \x20       let buf = staging(n);\n\
         \x20       buf.len() as u64\n\
         \x20   }\n\
         }\n\
         fn staging(n: usize) -> Vec<u8> {\n\
         \x20   vec![0u8; n]\n\
         }\n",
    );
    // Ungated sink inside a flow-exempt mechanism file, reached from an
    // ungated storage-crate root.
    write(
        &root,
        "crates/io/src/record.rs",
        "pub fn raw_writer(path: &Path) -> Result<File> {\n    Ok(File::create(path)?)\n}\n",
    );
    write(
        &root,
        "crates/storage/src/pipe.rs",
        "pub fn emit(path: &Path) {\n    let _w = raw_writer(path);\n}\n",
    );

    let flow = flow_tree(&root).expect("flow fixture");
    assert!(flow.is_empty(), "flow must miss both helper-chain cases:\n{flow:?}");

    let ipa = ipa_tree(&root).expect("analyze fixture");
    let alloc = ipa
        .iter()
        .find(|v| v.rule == "hot-path-alloc")
        .expect("hot-path-alloc through the helper");
    assert!(
        alloc.message.contains("core::ShardState::process → core::staging"),
        "finding must show the call chain: {}",
        alloc.message
    );
    let sink = ipa
        .iter()
        .find(|v| v.rule == "fault-surface-reach")
        .expect("fault-surface-reach through the mechanism file");
    assert!(
        sink.message.contains("storage::emit → io::raw_writer"),
        "finding must show the call chain: {}",
        sink.message
    );
}

/// Message routing written as a closure inside `ShardState::process` — the
/// apply-or-defer the broadcast expansion calls per neighbor — is part of
/// the hot-path and compute-phase roots: an allocation or an unchecked
/// index there trips both rules without naming the closure as a root.
#[test]
fn routing_closure_inside_process_is_covered() {
    let root = scratch("ipa_fixture_routing_closure");
    write(
        &root,
        "crates/core/src/worker.rs",
        "pub struct ShardState { deferred: Vec<Vec<u32>> }\n\
         impl ShardState {\n\
         \x20   pub fn process(&mut self, neighbors: &[u32]) {\n\
         \x20       let deferred = &mut self.deferred;\n\
         \x20       let mut route = |dst: u32| {\n\
         \x20           let staged = vec![dst];\n\
         \x20           deferred[dst as usize].extend(staged);\n\
         \x20       };\n\
         \x20       for &n in neighbors {\n\
         \x20           route(n);\n\
         \x20       }\n\
         \x20   }\n\
         }\n",
    );
    let ipa = ipa_tree(&root).expect("analyze fixture");
    let at = |rule: &str| ipa.iter().find(|v| v.rule == rule).map(|v| v.line);
    assert_eq!(at("hot-path-alloc"), Some(6), "{ipa:?}");
    assert_eq!(at("panic-freedom"), Some(7), "{ipa:?}");
}

/// The activity checks — marking the vertices that want an update, the gap
/// re-check on a skipped block, and the Sio block test — are roots too: an
/// allocation or an unchecked index in any of them trips the rules.
#[test]
fn activity_checks_are_hot_path_and_panic_roots() {
    let root = scratch("ipa_fixture_activity");
    write(
        &root,
        "crates/core/src/worker.rs",
        "pub struct ShardState { data: Vec<u32> }\n\
         impl ShardState {\n\
         \x20   fn mark_active(&self, active: &mut Vec<bool>) {\n\
         \x20       active.extend(vec![self.data.is_empty()]);\n\
         \x20   }\n\
         \x20   fn wakes_in(&self, lo: usize) -> bool {\n\
         \x20       self.data[lo] > 0\n\
         \x20   }\n\
         }\n",
    );
    write(
        &root,
        "crates/core/src/sio.rs",
        "pub struct ActiveSet { words: Vec<u64> }\n\
         impl ActiveSet {\n\
         \x20   pub fn any_in(&self, lo: usize) -> bool {\n\
         \x20       self.words[lo] != 0\n\
         \x20   }\n\
         }\n",
    );
    let ipa = ipa_tree(&root).expect("analyze fixture");
    let lines = |rule: &str, file: &str| -> Vec<usize> {
        ipa.iter().filter(|v| v.rule == rule && v.path.ends_with(file)).map(|v| v.line).collect()
    };
    assert_eq!(lines("hot-path-alloc", "worker.rs"), vec![4], "{ipa:?}");
    assert_eq!(lines("panic-freedom", "worker.rs"), vec![7], "{ipa:?}");
    assert_eq!(lines("panic-freedom", "sio.rs"), vec![4], "{ipa:?}");
}

/// The serve rule's offends set deliberately admits file reads — adjacency
/// stays out-of-core, so `File::open`/`fs::read` behind a point query are
/// the design — while an allocation one call away still trips, with the
/// chain named from the `GraphView` entry method.
#[test]
fn serve_read_path_allows_file_io_but_not_alloc() {
    let root = scratch("ipa_fixture_serve");
    write(
        &root,
        "crates/serve/src/view.rs",
        "pub struct GraphView { hits: u64 }\n\
         impl GraphView {\n\
         \x20   pub fn neighbors_into(&mut self, v: u32) -> u64 {\n\
         \x20       page_in(v) + label(v)\n\
         \x20   }\n\
         }\n\
         fn page_in(v: u32) -> u64 {\n\
         \x20   let _f = File::open(\"edges.bin\");\n\
         \x20   v as u64\n\
         }\n\
         fn label(v: u32) -> u64 {\n\
         \x20   let s = format!(\"v{v}\");\n\
         \x20   s.len() as u64\n\
         }\n",
    );
    let findings = ipa_tree(&root).expect("analyze fixture");
    let serve: Vec<_> = findings.iter().filter(|v| v.rule == "serve-read-alloc").collect();
    assert_eq!(serve.len(), 1, "only the alloc helper must trip:\n{findings:?}");
    assert!(
        serve[0].message.contains("serve::GraphView::neighbors_into → serve::label"),
        "finding must show the call chain: {}",
        serve[0].message
    );
    assert!(serve[0].snippet.contains("format!"), "{:?}", serve[0]);
}

#[test]
fn findings_name_file_line_and_rule() {
    let root = scratch("ipa_fixture_report");
    seed_fixture(&root, false);
    let findings = ipa_tree(&root).expect("analyze fixture");
    let sink = findings
        .iter()
        .find(|v| v.rule == "fault-surface-reach")
        .expect("fault-surface-reach finding");
    assert_eq!(sink.path, Path::new("crates/io/src/record.rs"));
    assert_eq!(sink.line, 2);
    assert!(sink.snippet.contains("File::create"), "{sink:?}");
    let shown = sink.to_string();
    assert!(shown.contains("crates/io/src/record.rs:2"), "{shown}");
    assert!(shown.contains("[fault-surface-reach]"), "{shown}");

    let errctx = findings
        .iter()
        .find(|v| v.rule == "error-context-prop")
        .expect("error-context-prop finding");
    assert_eq!(errctx.path, Path::new("crates/core/src/loader.rs"));
    assert!(errctx.message.contains("io→core"), "{}", errctx.message);
}

/// Exit-code contract for the CI gate: clean tree ⇒ 0, seeded fixture ⇒ 1
/// with every rule named on stdout, usage errors ⇒ 2. Covers the `--json`
/// artifact (schema_version pinned) and the `--dump-callgraph` debug view.
#[test]
fn ipa_binary_exit_codes_and_json() {
    let bin = env!("CARGO_BIN_EXE_graphz-ipa");

    // Clean repository ⇒ exit 0 and a clean JSON artifact.
    let json_clean = scratch("ipa_json_clean").join("ipa_findings.json");
    let out = Command::new(bin)
        .args(["--root", &repo_root().to_string_lossy()])
        .args(["--json", &json_clean.to_string_lossy()])
        .output()
        .expect("run graphz-ipa");
    assert!(out.status.success(), "clean tree must exit 0: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("clean"), "{stdout}");
    let json = fs::read_to_string(&json_clean).expect("json artifact");
    assert!(json.contains("\"schema_version\": 1"), "{json}");
    assert!(json.contains("\"count\": 0"), "{json}");
    assert!(json.contains("\"tool\": \"graphz-ipa\""));

    // Seeded fixture ⇒ exit 1, every rule named on stdout, findings in JSON.
    let root = scratch("ipa_fixture_exit");
    seed_fixture(&root, false);
    let json_bad = root.join("ipa_findings.json");
    let out = Command::new(bin)
        .args(["--root", &root.to_string_lossy()])
        .args(["--json", &json_bad.to_string_lossy()])
        .output()
        .expect("run graphz-ipa");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in IPA_RULES {
        assert!(stdout.contains(rule.name), "stdout must name {}: {stdout}", rule.name);
    }
    assert!(stdout.contains("ipa:allow("), "must print the suppression hint: {stdout}");
    let json = fs::read_to_string(&json_bad).expect("json artifact");
    assert!(json.contains("\"schema_version\": 1"), "{json}");
    assert!(json.contains("\"rule\": \"hot-path-alloc\""), "{json}");

    // Usage error ⇒ exit 2.
    let out = Command::new(bin).arg("--no-such-flag").output().expect("run graphz-ipa");
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    // --list-rules names every rule and exits 0.
    let out = Command::new(bin).arg("--list-rules").output().expect("run graphz-ipa");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in IPA_RULES {
        assert!(stdout.contains(rule.name), "{stdout}");
    }

    // --dump-callgraph shows nodes with summaries and resolved edges.
    let out = Command::new(bin)
        .args(["--root", &root.to_string_lossy()])
        .arg("--dump-callgraph")
        .output()
        .expect("run graphz-ipa");
    assert!(out.status.success(), "{out:?}");
    let dump = String::from_utf8_lossy(&out.stdout);
    assert!(dump.contains("core::ShardState::process"), "{dump}");
    assert!(dump.contains("core::staging"), "{dump}");
    assert!(dump.contains("[alloc]"), "summary bits: {dump}");
}
