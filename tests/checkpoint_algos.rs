//! Checkpoint/restore through the runner layer, across all six algorithms:
//! a run that dies mid-way and resumes from an intermediate generation must
//! produce exactly the values of an uninterrupted run, and a run under the
//! default retention keeps exactly its newest two generations, the older of
//! which is a usable fallback when the newest is damaged.

use std::sync::Arc;

use graphz_algos::runner::{self, CheckpointSpec};
use graphz_algos::{AlgoParams, Algorithm};
use graphz_gen::rmat_edges;
use graphz_io::{IoStats, ScratchDir};
use graphz_storage::EdgeListFile;
use graphz_core::list_generations;
use graphz_types::{EngineOptions, MemoryBudget};

#[test]
fn all_six_algorithms_resume_to_identical_values() {
    let dir = ScratchDir::new("ckpt-algos").unwrap();
    let stats = IoStats::new();
    let edges = rmat_edges(10, 3_000, Default::default(), 77);
    let el = EdgeListFile::create(&dir.file("g.bin"), Arc::clone(&stats), edges).unwrap();
    let sym = el
        .symmetrize(&dir.file("sym.bin"), Arc::clone(&stats), MemoryBudget::from_mib(4))
        .unwrap();
    let budget = MemoryBudget::from_kib(16);
    let prep = MemoryBudget::from_mib(4);

    for algo in Algorithm::all() {
        let input = if algo.wants_symmetrized() { &sym } else { &el };
        let dos = runner::prepare_dos(
            input,
            &dir.path().join(format!("dos-{algo}")),
            prep,
            Arc::clone(&stats),
        )
        .unwrap();
        let params = AlgoParams::new(algo).with_source(0).with_max_iterations(300).with_rounds(5);

        let reference = runner::run_graphz(&dos, &params, budget, Arc::clone(&stats)).unwrap();

        // Checkpointed run: one generation per iteration, every one kept so
        // an early one is there to resume from.
        let gens = dir.path().join(format!("gens-{algo}"));
        let writing = CheckpointSpec { dir: Some(gens.clone()), every: 1, resume: false };
        runner::run_graphz_keeping_generations(
            &dos,
            &params,
            budget,
            EngineOptions::full(),
            &writing,
            Arc::clone(&stats),
        )
        .unwrap();

        // Simulate a crash partway through: drop every generation newer
        // than gen 2, leaving an intermediate state to resume from.
        let mut newest_kept = 0u32;
        for entry in std::fs::read_dir(&gens).unwrap() {
            let entry = entry.unwrap();
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(n) = name.strip_prefix("gen-").and_then(|d| d.parse::<u32>().ok()) else {
                continue;
            };
            if n > 2 {
                std::fs::remove_dir_all(entry.path()).unwrap();
            } else {
                newest_kept = newest_kept.max(n);
            }
        }
        assert!(newest_kept >= 1, "{algo}: no surviving generation to resume from");

        let resuming = CheckpointSpec { dir: Some(gens), every: 0, resume: true };
        let resumed =
            runner::run_graphz_checkpointed(&dos, &params, budget, &resuming, Arc::clone(&stats))
                .unwrap();
        assert!(resumed.converged, "{algo}: resumed run did not converge");
        assert_eq!(resumed.values, reference.values, "{algo}: resumed run diverged");

        // Default retention: the newest two generations stay, and the older
        // one is a usable fallback when the newest is damaged.
        let kept = dir.path().join(format!("kept-{algo}"));
        let writing = CheckpointSpec { dir: Some(kept.clone()), every: 1, resume: false };
        let full =
            runner::run_graphz_checkpointed(&dos, &params, budget, &writing, Arc::clone(&stats))
                .unwrap();
        let on_disk = list_generations(&kept).unwrap();
        let numbers: Vec<u32> = on_disk.iter().map(|g| g.number).collect();
        let last = full.iterations;
        let want: Vec<u32> = if last >= 2 { vec![last, last - 1] } else { vec![last] };
        assert_eq!(numbers, want, "{algo}: retention must keep exactly the newest two");
        let leftovers = std::fs::read_dir(&kept).unwrap().count();
        assert_eq!(leftovers, want.len(), "{algo}: no .old or .tmp debris may stay");
        if last >= 2 {
            let newest = on_disk[0].path.join("vertices.bin");
            let len = std::fs::metadata(&newest).unwrap().len();
            let file = std::fs::OpenOptions::new().write(true).open(&newest).unwrap();
            file.set_len(len / 2).unwrap();
            let resuming = CheckpointSpec { dir: Some(kept), every: 0, resume: true };
            let fallback = runner::run_graphz_checkpointed(
                &dos,
                &params,
                budget,
                &resuming,
                Arc::clone(&stats),
            )
            .unwrap();
            assert_eq!(fallback.values, reference.values, "{algo}: fallback resume diverged");
        }
    }
}
