//! Property test for the ingest determinism claim (DESIGN.md §6g): run
//! boundaries and the relabel path cannot show in the bytes. The DOS
//! directory produced by [`IngestPipeline`] is **byte-identical** — every
//! file, including the `checksums.txt` sidecar, and `verify_dos`'s report —
//! across three budget arms:
//!
//! * [`FITS`]: every sort is one in-memory run, and the id map is relabeled
//!   in memory (the reference);
//! * [`MAP_FITS_SPILLS`]: the id map still fits half the budget, but the
//!   source runs spill as several files — the seam of the in-memory path,
//!   whose adjacency stage places each list at its offset with no sort;
//! * [`SPILLS`]: so small that every edge sort spills 50 or more runs, most
//!   need pre-merge passes, and the id map does not fit, so the sorted path
//!   (degree scratch, pair sort, by-dst sort, two co-scans) runs.
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
use graphz_storage::{
    id_map_fits, scratch_root_for, verify_dos, DosGraph, EdgeListFile, IngestPipeline,
    IngestPipelineBuilder,
};
use graphz_types::MemoryBudget;

/// Every sort of these fixtures fits one in-memory run: the reference.
const FITS: MemoryBudget = MemoryBudget::from_mib(64);
/// Each stage sort gets half (1024 bytes): 128 edges per run, so the
/// source runs of the 300- to 600-edge fixtures spill 3 to 5 runs, while
/// the id map of their at most 120 vertices (480 bytes) fits that half
/// too.
const MAP_FITS_SPILLS: MemoryBudget = MemoryBudget(2048);
/// Each stage sort gets half (48 bytes): 6 edges (4 weighted) per run, so
/// the 300- to 600-edge fixtures spill 50 to 150 runs per edge sort, and
/// every sort of more than 64 runs (the merge fan-in) takes a pre-merge
/// pass — the source runs' inside the `runs` stage among them. The id map
/// of any fixture here (50 vertices or more, 200 bytes) exceeds that half.
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

fn spilling() -> IngestPipelineBuilder {
    IngestPipeline::builder().budget(SPILLS).stats(stats())
}

fn map_fits_spilling() -> IngestPipelineBuilder {
    IngestPipeline::builder().budget(MAP_FITS_SPILLS).stats(stats())
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

/// The source runs an ingest of `src` under `budget` spills: the run
/// files the `runs` stage leaves in the scratch root, counted after a kill
/// at the next stage's commit.
fn source_runs(scratch: &ScratchDir, src: &Path, budget: MemoryBudget, weighted: bool) -> usize {
    let dir = scratch.path().join(format!("runs-{}-{weighted}", budget.bytes()));
    let faults = FaultState::fail_at_label("commit-manifest:old2new");
    let mut b = IngestPipeline::builder()
        .budget(budget)
        .stats(stats())
        .faults(FaultSurface::none().with_faults(faults));
    if weighted {
        b = b.weights(graphz_types::derive_weight);
    }
    b.build().unwrap().run(src, &dir).unwrap_err();
    std::fs::read_dir(scratch_root_for(&dir).join("runs")).unwrap().count()
}

/// Ingest `text` under each spilling budget and assert the produced
/// directory is byte-identical to the one-run build, and that the budgets
/// put the fixture on the relabel path they are meant to.
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
    let num_vertices = DosGraph::open(&want_dir, stats()).unwrap().meta().num_vertices;
    assert!(id_map_fits(MAP_FITS_SPILLS, num_vertices), "{label}: map must fit at 2048 B");
    assert!(!id_map_fits(SPILLS, num_vertices), "{label}: map must not fit at 96 B");

    for (arm, budget) in [("map-fits-spills", MAP_FITS_SPILLS), ("spills", SPILLS)] {
        let dir = scratch.path().join(arm);
        let spills_written = ingest(&src, &dir, budget, weighted);
        if budget == MAP_FITS_SPILLS {
            // The source runs spill as more files, and no other sort runs:
            // each list is written at its offset, so the bytes written do
            // not depend on the budget.
            let [one, many] = [FITS, budget].map(|b| source_runs(&scratch, &src, b, weighted));
            assert!(many > one, "{label}/{arm}: {many} source runs, {one} at the large budget");
            assert_eq!(spills_written, fits_written, "{label}/{arm}: bytes written");
        } else {
            // Spilled runs of the sorted path's sorts (and pre-merged runs)
            // are written on top of the image.
            assert!(
                spills_written > fits_written,
                "{label}/{arm}: the small budget wrote {spills_written} bytes, the large {fits_written}"
            );
        }
        let got = dir_contents(&dir);
        assert_eq!(
            got.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>(),
            "{label}/{arm}: file set differs between budgets"
        );
        for (name, bytes) in &got {
            assert_eq!(bytes, &want[name], "{label}/{arm}: {name} differs between budgets");
        }
        let report = verify_dos(&dir, stats()).unwrap();
        assert_eq!(report, want_report, "{label}/{arm}: verify report differs between budgets");
    }
}

#[test]
fn unweighted_graph_is_byte_identical_across_configurations() {
    assert_equivalent("plain", &lcg_graph_text(7, 600, 90), false);
}

#[test]
fn weighted_graph_is_byte_identical_across_configurations() {
    assert_equivalent("weighted", &lcg_graph_text(11, 400, 60), true);
}

/// The edges of [`lcg_graph_text`] as a Matrix Market file: the same ids,
/// one-based.
fn as_matrix_market(text: &str) -> String {
    let mut out = String::from("%%MatrixMarket matrix coordinate pattern general\n% fixture\n");
    let edges: Vec<(u64, u64)> = text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut it = l.split_whitespace().map(|f| f.parse::<u64>().unwrap());
            (it.next().unwrap(), it.next().unwrap())
        })
        .collect();
    let n = edges.iter().map(|&(s, d)| s.max(d) + 1).max().unwrap_or(0);
    out.push_str(&format!("{n} {n} {}\n", edges.len()));
    for (s, d) in edges {
        out.push_str(&format!("{} {}\n", s + 1, d + 1));
    }
    out
}

/// DESIGN.md §6h: kill the pipeline at *every* stage-commit point in turn,
/// then rerun with `resume(true)` — the finished directory must be
/// byte-identical to an uninterrupted run, `checksums.txt` included, and the
/// scratch root must be gone afterwards. For a text, a Matrix Market and a
/// binary source of the same edges, under all three arms: 32 KiB, where the
/// id map fits and only the source runs reach disk; [`MAP_FITS_SPILLS`],
/// where the map fits and the source runs spill, so a resume that skipped the
/// `old2new` stage loads the map from `old2new.bin`; and [`SPILLS`], where
/// the sorted path's stages killed and resumed have spilled and pre-merged
/// runs.
#[test]
fn resume_after_a_kill_at_every_stage_is_byte_identical() {
    let scratch = ScratchDir::new("ingest-kill-resume").unwrap();
    let text = lcg_graph_text(31, 300, 50);
    let txt = scratch.file("g.txt");
    std::fs::write(&txt, &text).unwrap();
    let mtx = scratch.file("g.mtx");
    std::fs::write(&mtx, as_matrix_market(&text)).unwrap();
    let bin = scratch.file("g.bin");
    EdgeListFile::import_text(&txt, &bin, stats()).unwrap();

    let clean_dir = scratch.path().join("clean");
    builder()
        .build()
        .unwrap()
        .run(&txt, &clean_dir)
        .unwrap();
    let want = dir_contents(&clean_dir);
    let num_vertices = DosGraph::open(&clean_dir, stats()).unwrap().meta().num_vertices;
    let paths = [MemoryBudget::from_kib(32), MAP_FITS_SPILLS, SPILLS]
        .map(|b| id_map_fits(b, num_vertices));
    assert_eq!(paths, [true, true, false], "the arms' relabel paths");

    for (kind, src) in [("text", &txt), ("mtx", &mtx), ("binary", &bin)] {
        kill_at_every_stage(&scratch, src, builder, &format!("{kind}-one-run"), &want);
        kill_at_every_stage(
            &scratch,
            src,
            map_fits_spilling,
            &format!("{kind}-map-fits-spilling"),
            &want,
        );
        kill_at_every_stage(&scratch, src, spilling, &format!("{kind}-spilling"), &want);
    }
}

/// Kill `pipeline` at each stage commit, resume it, and compare with `want`.
fn kill_at_every_stage(
    scratch: &ScratchDir,
    src: &Path,
    pipeline: fn() -> IngestPipelineBuilder,
    arm: &str,
    want: &BTreeMap<String, Vec<u8>>,
) {
    // Every stage the pipeline commits, in order, for every source kind.
    const STAGES: &[&str] = &["runs", "old2new", "new2old", "adjacency", "emit"];
    for stage in STAGES {
        let dir = scratch.path().join(format!("kill-{arm}-{stage}"));
        let faults = FaultState::fail_at_label(&format!("commit-manifest:{stage}"));
        let err = pipeline()
            .faults(FaultSurface::none().with_faults(Arc::clone(&faults)))
            .build()
            .unwrap()
            .run(src, &dir)
            .unwrap_err();
        assert!(
            faults.fired(),
            "{arm}: kill at `{stage}`: the labeled commit never ran — stage renamed? ({err})"
        );
        assert!(
            scratch_root_for(&dir).exists(),
            "{arm}: kill at `{stage}`: the scratch root must survive the crash for resume"
        );

        pipeline()
            .resume(true)
            .build()
            .unwrap()
            .run(src, &dir)
            .unwrap();
        let got = dir_contents(&dir);
        assert_eq!(
            got.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>(),
            "{arm}: kill at `{stage}`: file set differs after resume"
        );
        for (name, bytes) in &got {
            assert_eq!(bytes, &want[name], "{arm}: kill at `{stage}`: {name} differs after resume");
        }
        assert!(
            !scratch_root_for(&dir).exists(),
            "{arm}: kill at `{stage}`: resume must clean up the scratch root"
        );
        let report = verify_dos(&dir, stats()).unwrap();
        assert!(report.is_clean(), "{arm}: kill at `{stage}`: resumed directory fails verify");
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
