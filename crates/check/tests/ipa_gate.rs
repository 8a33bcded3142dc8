//! End-to-end gate for the ipa rules: the real repository — including the
//! engine hot path this crate certifies — must analyze clean, and seeded
//! fixture trees must trip every rule, most through a *call chain*: an
//! allocation in a helper the Worker loop calls, an unchecked index behind
//! the Worker's start, an ungated file-creating sink reached through
//! one of the surface's own plumbing files (and one in a plain public
//! function), a bare fs error `?`-crossing a crate boundary (and one
//! leaving a storage root), and an allocation behind a GraphView point
//! query on the serve read path.

mod common;

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;
use std::process::{Command, Output};

use common::{repo_root, scratch, write};
use graphz_check::ipa::{ipa_tree, IPA_RULES};
use graphz_check::suite::check_tree;

/// Run the `graphz-check` binary with `args`.
fn check_bin(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_graphz-check")).args(args).output().expect("run graphz-check")
}

/// At least one seeded violation per rule, most reached through a call
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
            "pub struct Worker {{ sent: u64 }}\n\
             impl Worker {{\n\
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

    // panic-freedom: an unchecked index in a helper the Worker's start calls.
    write(
        root,
        "crates/core/src/exec.rs",
        &format!(
            "pub struct Worker {{ first: usize }}\n\
             impl Worker {{\n\
             \x20   pub fn start(xs: &[u32], i: usize) -> u32 {{\n\
             \x20       pick(xs, i)\n\
             \x20   }}\n\
             }}\n\
             fn pick(xs: &[u32], i: usize) -> u32 {{\n\
             {}    xs[i]\n\
             }}\n",
            allow("panic-freedom"),
        ),
    );

    // fault-surface-reach: a raw File::create in a public io function with
    // no surface gate on any path to it, and an ungated sink inside one of
    // the surface's own plumbing files, reached from an ungated
    // storage-crate root.
    write(
        root,
        "crates/io/src/rawdump.rs",
        &format!(
            "pub fn dump(path: &Path, bytes: &[u8]) -> Result<()> {{\n\
             {}    let mut f = File::create(path)?;\n\
             f.write_all(bytes)?;\n    Ok(())\n}}\n",
            allow("fault-surface-reach"),
        ),
    );
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

    // error-context-prop: a bare fs error leaving a storage root, which no
    // workspace function calls (the CLI is outside the call graph).
    write(
        root,
        "crates/storage/src/readraw.rs",
        &format!(
            "pub fn read(p: &Path) -> Result<String> {{\n\
             {}    let text = fs::read_to_string(p)?;\n\
             Ok(text)\n}}\n",
            allow("error-context-prop"),
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

/// Findings one call away name the whole chain: an allocation in a helper
/// of the per-message loop, and an ungated sink inside one of the
/// surface's own plumbing files, reached from an ungated caller in another
/// crate.
#[test]
fn helper_chain_findings_name_the_call_chain() {
    let root = scratch("ipa_fixture_flow_miss");
    // Allocation behind a helper on the hot path.
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
    // Ungated sink inside a plumbing file, reached from an ungated
    // storage-crate root.
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

    let ipa = ipa_tree(&root).expect("analyze fixture");
    let alloc = ipa
        .iter()
        .find(|v| v.rule == "hot-path-alloc")
        .expect("hot-path-alloc through the helper");
    assert!(
        alloc.message.contains("core::Worker::process → core::staging"),
        "finding must show the call chain: {}",
        alloc.message
    );
    let sink = ipa
        .iter()
        .find(|v| v.rule == "fault-surface-reach")
        .expect("fault-surface-reach through the plumbing file");
    assert!(
        sink.message.contains("storage::emit → io::raw_writer"),
        "finding must show the call chain: {}",
        sink.message
    );
}

/// Gating is path-sensitive, not presence-based: a surface gate on one
/// branch does not cover the other, while a gate that dominates the sink
/// is clean.
#[test]
fn a_gate_on_one_branch_does_not_cover_the_sink() {
    let root = scratch("ipa_fixture_gate_paths");
    write(
        &root,
        "crates/io/src/halfgate.rs",
        "pub fn half(surface: &FaultSurface, path: &Path) -> Result<()> {\n\
         if cheap() {\n        surface.op(\"gate\")?;\n    }\n\
         let f = File::create(path)?;\n    Ok(())\n}\n",
    );
    write(
        &root,
        "crates/io/src/fullgate.rs",
        "pub fn full(surface: &FaultSurface, path: &Path) -> Result<()> {\n\
         surface.op(\"gate\")?;\n\
         let f = File::create(path)?;\n    Ok(())\n}\n",
    );
    let findings = ipa_tree(&root).expect("analyze fixture");
    assert_eq!(findings.len(), 1, "only the half-gated sink may fire:\n{findings:?}");
    assert_eq!(findings[0].rule, "fault-surface-reach");
    assert_eq!(findings[0].path, Path::new("crates/io/src/halfgate.rs"));
    assert_eq!(findings[0].line, 5);
}

/// Message routing written as a closure inside `Worker::process` — the
/// apply-or-defer the broadcast expansion calls per neighbor — is part of
/// the hot-path and compute-phase roots: an allocation or an unchecked
/// index there trips both rules without naming the closure as a root.
#[test]
fn routing_closure_inside_process_is_covered() {
    let root = scratch("ipa_fixture_routing_closure");
    write(
        &root,
        "crates/core/src/worker.rs",
        "pub struct Worker { deferred: Vec<Vec<u32>> }\n\
         impl Worker {\n\
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
        "pub struct Worker { data: Vec<u32> }\n\
         impl Worker {\n\
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
    let at = |rule: &str, rel: &str| {
        findings
            .iter()
            .find(|v| v.rule == rule && v.path == Path::new(rel))
            .unwrap_or_else(|| panic!("{rule} finding in {rel}: {findings:?}"))
    };
    let sink = at("fault-surface-reach", "crates/io/src/record.rs");
    assert_eq!(sink.line, 2);
    assert!(sink.snippet.contains("File::create"), "{sink:?}");
    let shown = sink.to_string();
    assert!(shown.contains("crates/io/src/record.rs:2"), "{shown}");
    assert!(shown.contains("[fault-surface-reach]"), "{shown}");

    let errctx = at("error-context-prop", "crates/core/src/loader.rs");
    assert!(errctx.message.contains("io→core"), "{}", errctx.message);
    let root_exit = at("error-context-prop", "crates/storage/src/readraw.rs");
    assert_eq!(root_exit.line, 2);
    assert!(root_exit.message.contains("storage::read"), "{}", root_exit.message);
}

/// `graphz-check` on the seeded ipa fixture: exit 1, every ipa rule
/// printed with its suppression marker, the findings in the `--json`
/// document; `--dump-callgraph` shows nodes, summaries and edges.
#[test]
fn ipa_binary_exit_codes_and_json() {
    let root = scratch("ipa_fixture_exit");
    seed_fixture(&root, false);
    let json_bad = root.join("analysis_findings.json");
    let out = check_bin(&["--root", &root.to_string_lossy(), "--json", &json_bad.to_string_lossy()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in IPA_RULES {
        let marker = format!("ipa:allow({})", rule.name);
        assert!(stdout.contains(&marker), "stdout must print `{marker}`: {stdout}");
    }
    let json = fs::read_to_string(&json_bad).expect("json document");
    assert!(json.contains("\"schema_version\": 1"), "{json}");
    assert!(json.contains("\"rule\": \"hot-path-alloc\""), "{json}");

    let out = check_bin(&["--root", &root.to_string_lossy(), "--dump-callgraph"]);
    assert!(out.status.success(), "{out:?}");
    let dump = String::from_utf8_lossy(&out.stdout);
    assert!(dump.contains("core::Worker::process"), "{dump}");
    assert!(dump.contains("core::staging [alloc]"), "summary bits: {dump}");
}

/// The seeded fixtures of the three deleted rules, verbatim, and the
/// successor that reports each at the same site: flow's
/// `fault-surface-bypass` → ipa `fault-surface-reach`, flow's
/// `error-context` → ipa `error-context-prop` (its storage-root clause),
/// audit's `must-consume` → flow `must-consume-paths` (both the dropped
/// tempfile and the unretired claim).
#[test]
fn subsumed_rules_report_their_old_fixtures_at_the_same_site() {
    let root = scratch("check_fixture_parity");
    write(
        &root,
        "crates/io/src/rawdump.rs",
        "pub fn dump(path: &Path, bytes: &[u8]) -> Result<()> {\n\
         \x20   let mut f = File::create(path)?;\n\
         f.write_all(bytes)?;\n    Ok(())\n}\n",
    );
    write(
        &root,
        "crates/storage/src/readraw.rs",
        "pub fn read(p: &Path) -> Result<String> {\n\
         \x20   let text = fs::read_to_string(p)?;\n\
         Ok(text)\n}\n",
    );
    write(
        &root,
        "crates/io/src/leak.rs",
        "pub fn write(dest: &Path, bytes: &[u8]) -> Result<()> {\n\
         \x20   let mut f = AtomicFile::create(dest)?;\n\
         f.write_all(bytes)?;\n    Ok(())\n}\n",
    );
    write(
        &root,
        "crates/core/src/claimleak.rs",
        "pub fn peek(mgr: &mut MsgManager) -> Result<u64> {\n\
         \x20   let c = mgr.claim(0)?;\n    Ok(c.total)\n}\n",
    );
    let findings = check_tree(&root).expect("check fixture");
    let sites: BTreeSet<(&str, String, usize)> = findings
        .iter()
        .map(|v| (v.rule, v.path.to_string_lossy().into_owned(), v.line))
        .collect();
    for (rule, rel) in [
        ("fault-surface-reach", "crates/io/src/rawdump.rs"),
        ("error-context-prop", "crates/storage/src/readraw.rs"),
        ("must-consume-paths", "crates/io/src/leak.rs"),
        ("must-consume-paths", "crates/core/src/claimleak.rs"),
    ] {
        assert!(sites.contains(&(rule, rel.to_string(), 2)), "{rule} at {rel}:2 missing:\n{findings:?}");
    }
}
