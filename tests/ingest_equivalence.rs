//! Property test for the ingest determinism claim (DESIGN.md §6g): run
//! boundaries cannot show in the bytes. For a memory budget so small that
//! every edge sort spills 50 or more runs and most need pre-merge passes, the
//! DOS directory produced by [`IngestPipeline`] is **byte-identical** to
//! the one built under a budget where every sort is one in-memory run —
//! every file, including the `checksums.txt` sidecar — and `verify_dos`
//! reports the same clean result.
//!
//! Covered shapes:
//! * an unweighted power-law-ish graph from a seeded LCG;
//! * the same graph with derived weights (`weights.bin` must match too);
//! * a graph whose id space ends in a zero-out-degree tail (ids that only
//!   ever appear as destinations), exercising the zero-degree group and the
//!   `next_zero` fill in the relabeling pass.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use graphz_io::{FaultState, FaultSurface, IoStats, ScratchDir};
use graphz_storage::{scratch_root_for, verify_dos, IngestPipeline, IngestPipelineBuilder};
use graphz_types::MemoryBudget;

/// Every sort of these fixtures fits one in-memory run: the reference.
const FITS: MemoryBudget = MemoryBudget::from_mib(64);
/// Each stage sort gets half (48 bytes): 6 edges or 4 triads per run, so the
/// 300- to 600-edge fixtures spill 50 to 150 runs per edge sort, and every
/// sort of more than 64 runs (the merge fan-in) takes a pre-merge pass.
const SPILLS: MemoryBudget = MemoryBudget(96);

fn stats() -> Arc<IoStats> {
    IoStats::new()
}

/// Every file in a DOS directory, name → bytes.
fn dir_contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        out.insert(
            entry.file_name().to_string_lossy().into_owned(),
            std::fs::read(entry.path()).unwrap(),
        );
    }
    out
}

/// A deterministic edge-list text with comments, blank lines, and mixed
/// separators.
fn lcg_graph_text(seed: u64, edges: usize, id_space: u64) -> String {
    let mut text = String::from("# ingest equivalence fixture\n\n");
    let mut x = seed;
    for i in 0..edges {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let src = (x >> 33) % id_space;
        let dst = (x >> 15) % id_space;
        let sep = if i % 3 == 0 { '\t' } else { ' ' };
        text.push_str(&format!("{src}{sep}{dst}\n"));
        if i % 97 == 0 {
            text.push_str("# interior comment\n");
        }
    }
    text
}

fn builder() -> IngestPipelineBuilder {
    IngestPipeline::builder().budget(MemoryBudget::from_kib(32)).stats(stats())
}

/// Ingest `text` under `budget`; returns the directory and the bytes the
/// ingest wrote.
fn ingest(src: &Path, dir: &Path, budget: MemoryBudget, weighted: bool) -> u64 {
    let stats = stats();
    let mut b = IngestPipeline::builder().budget(budget).stats(Arc::clone(&stats));
    if weighted {
        b = b.weights(graphz_types::derive_weight);
    }
    b.build().unwrap().run(src, dir).unwrap();
    stats.snapshot().bytes_written
}

/// Ingest `text` under the spilling budget and assert the produced
/// directory is byte-identical to the one-run build.
fn assert_equivalent(label: &str, text: &str, weighted: bool) {
    let scratch = ScratchDir::new(&format!("ingest-eq-{label}")).unwrap();
    let src = scratch.file("g.txt");
    std::fs::write(&src, text).unwrap();

    let want_dir = scratch.path().join("fits");
    let fits_written = ingest(&src, &want_dir, FITS, weighted);
    let want = dir_contents(&want_dir);
    let want_report = verify_dos(&want_dir, stats()).unwrap();
    assert!(want_report.is_clean(), "{label}: one-run build fails verify");
    assert!(want_report.files_checksummed > 0, "{label}: sidecar missing");

    let dir = scratch.path().join("spills");
    let spills_written = ingest(&src, &dir, SPILLS, weighted);
    // Spilled runs and pre-merged runs are written on top of the image.
    assert!(
        spills_written > fits_written,
        "{label}: the small budget wrote {spills_written} bytes, the large {fits_written}"
    );
    let got = dir_contents(&dir);
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "{label}: file set differs between budgets"
    );
    for (name, bytes) in &got {
        assert_eq!(bytes, &want[name], "{label}: {name} differs between budgets");
    }
    let report = verify_dos(&dir, stats()).unwrap();
    assert_eq!(report, want_report, "{label}: verify report differs between budgets");
}

#[test]
fn unweighted_graph_is_byte_identical_across_configurations() {
    assert_equivalent("plain", &lcg_graph_text(7, 600, 90), false);
}

#[test]
fn weighted_graph_is_byte_identical_across_configurations() {
    assert_equivalent("weighted", &lcg_graph_text(11, 400, 60), true);
}

/// DESIGN.md §6h: kill the pipeline at *every* stage-commit point in turn,
/// then rerun with `resume(true)` — the finished directory must be
/// byte-identical to an uninterrupted run, `checksums.txt` included, and the
/// scratch root must be gone afterwards.
#[test]
fn resume_after_a_kill_at_every_stage_is_byte_identical() {
    let scratch = ScratchDir::new("ingest-kill-resume").unwrap();
    let src = scratch.file("g.txt");
    std::fs::write(&src, lcg_graph_text(31, 300, 50)).unwrap();

    let clean_dir = scratch.path().join("clean");
    builder()
        .build()
        .unwrap()
        .run(&src, &clean_dir)
        .unwrap();
    let want = dir_contents(&clean_dir);

    // Every stage the pipeline commits, in order. A text source exercises
    // the import stage too; binary sources simply have one fewer commit.
    const STAGES: &[&str] = &["import", "triads", "old2new", "new2old", "adjacency", "emit"];
    for stage in STAGES {
        let dir = scratch.path().join(format!("kill-{stage}"));
        let faults = FaultState::fail_at_label(&format!("commit-manifest:{stage}"));
        let err = builder()
            .faults(FaultSurface::none().with_faults(Arc::clone(&faults)))
            .build()
            .unwrap()
            .run(&src, &dir)
            .unwrap_err();
        assert!(
            faults.fired(),
            "kill at `{stage}`: the labeled commit never ran — stage renamed? ({err})"
        );
        assert!(
            scratch_root_for(&dir).exists(),
            "kill at `{stage}`: the scratch root must survive the crash for resume"
        );

        builder()
            .resume(true)
            .build()
            .unwrap()
            .run(&src, &dir)
            .unwrap();
        let got = dir_contents(&dir);
        assert_eq!(
            got.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>(),
            "kill at `{stage}`: file set differs after resume"
        );
        for (name, bytes) in &got {
            assert_eq!(bytes, &want[name], "kill at `{stage}`: {name} differs after resume");
        }
        assert!(
            !scratch_root_for(&dir).exists(),
            "kill at `{stage}`: resume must clean up the scratch root"
        );
        let report = verify_dos(&dir, stats()).unwrap();
        assert!(report.is_clean(), "kill at `{stage}`: resumed directory fails verify");
    }
}

#[test]
fn zero_degree_tail_is_byte_identical_across_configurations() {
    // Sources drawn from [0, 40) but destinations from [0, 120): ids 40..120
    // have out-degree zero, and the top of the id space (119) appears only
    // as a destination, so num_vertices comes entirely from the dst side.
    let mut text = String::new();
    let mut x: u64 = 23;
    for _ in 0..300 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        text.push_str(&format!("{} {}\n", (x >> 33) % 40, (x >> 15) % 120));
    }
    text.push_str("0 119\n");
    assert_equivalent("tail", &text, false);
}
