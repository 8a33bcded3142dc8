//! Whole-pipeline IO chaos sweep (DESIGN.md §6h).
//!
//! A counting probe first measures how many gated file operations one clean
//! ingest performs, then the sweep replays the pipeline with a fault planted
//! at evenly-spaced operation indices — one run per (index, kind) — and
//! asserts the §6h contract at every point:
//!
//! * **hard / torn / disk-full** faults fail the run with a typed error and
//!   leave the scratch root resumable: a `resume(true)` rerun produces a DOS
//!   directory byte-identical to an uninterrupted run;
//! * **transient** faults retry through under the default [`RetryPolicy`]
//!   and the run succeeds on the spot, still byte-identical;
//! * a whole-run **ENOSPC** (a nearly-empty [`DiskBudget`]) fails with
//!   [`GraphError::StorageFull`] — not a panic, not a raw IO error — and the
//!   scratch survives for resume.
//!
//! When `CHAOS_INGEST_OUT` names a path, a JSON summary of the sweep is
//! written there (the CI `ingest chaos` step collects it as an artifact).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use graphz_io::{
    DiskBudget, FaultPlan, FaultState, FaultSurface, IoStats, RetryPolicy, ScratchDir,
};
use graphz_storage::{scratch_root_for, IngestPipeline, IngestPipelineBuilder};
use graphz_types::{GraphError, MemoryBudget};

fn stats() -> Arc<IoStats> {
    IoStats::new()
}

/// A deterministic ~300-edge graph with comments and a zero-degree tail so
/// every conversion stage has real work.
fn graph_text() -> String {
    let mut text = String::from("# chaos fixture\n");
    let mut x: u64 = 77;
    for _ in 0..300 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        text.push_str(&format!("{} {}\n", (x >> 33) % 60, (x >> 15) % 90));
    }
    text
}

/// The pipeline every sweep runs: at 32 KiB each of the fixture's sorts is
/// one in-memory run.
fn builder() -> IngestPipelineBuilder {
    IngestPipeline::builder().budget(MemoryBudget::from_kib(32)).stats(stats())
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

fn assert_identical(got: &Path, want: &BTreeMap<String, Vec<u8>>, ctx: &str) {
    let got = dir_contents(got);
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "{ctx}: file set differs"
    );
    for (name, bytes) in &got {
        assert_eq!(bytes, &want[name], "{ctx}: {name} differs");
    }
}

/// Fail the run with `plan`, assert the fault actually fired, then resume
/// without faults and require byte-identical output.
fn fail_then_resume(
    src: &Path,
    dir: &Path,
    plan: FaultPlan,
    want: &BTreeMap<String, Vec<u8>>,
    ctx: &str,
) -> GraphError {
    let faults = FaultState::new(plan);
    let surface = FaultSurface::none()
        .with_faults(Arc::clone(&faults))
        .with_retry(RetryPolicy::none());
    let err = builder().faults(surface).build().unwrap().run(src, dir).unwrap_err();
    assert!(faults.fired(), "{ctx}: planted fault never fired ({err})");
    assert!(scratch_root_for(dir).exists(), "{ctx}: scratch root must survive the failure");
    builder().resume(true).build().unwrap().run(src, dir).unwrap();
    assert_identical(dir, want, ctx);
    assert!(!scratch_root_for(dir).exists(), "{ctx}: resume must clean up scratch");
    err
}

#[test]
fn fault_sweep_across_the_whole_pipeline() {
    let scratch = ScratchDir::new("ingest-chaos").unwrap();
    let src = scratch.file("g.txt");
    std::fs::write(&src, graph_text()).unwrap();

    // Reference run and operation-count probe in one: the counting state
    // never fires but sees every gated write and metadata op.
    let probe = FaultState::counting();
    let clean = scratch.path().join("clean");
    builder()
        .faults(FaultSurface::none().with_faults(Arc::clone(&probe)))
        .build()
        .unwrap()
        .run(&src, &clean)
        .unwrap();
    let ops = probe.ops_seen();
    assert!(!probe.fired());
    assert!(ops > 20, "probe saw only {ops} gated ops — surface unthreaded?");
    let want = dir_contents(&clean);

    // ~12 evenly-spaced injection points, endpoints included. The tail
    // points now land inside the surface-routed sidecar saves
    // (`save-meta:meta.txt` / `save-meta:checksums.txt`) and the emit-stage
    // writes that used to bypass the surface.
    let points: Vec<u64> = (0..12).map(|i| i * (ops - 1) / 11).collect();
    let dir = scratch.path().join("dos");

    let mut hard = 0u32;
    let mut torn = 0u32;
    let mut full = 0u32;
    let mut transient = 0u32;
    for &at in &points {
        // Hard failure: typed error, resumable.
        fail_then_resume(&src, &dir, FaultPlan::fail_at(at), &want, &format!("hard@{at}"));
        hard += 1;

        // Torn write: a real partial prefix lands before the error.
        fail_then_resume(&src, &dir, FaultPlan::torn_at(at, 3), &want, &format!("torn@{at}"));
        torn += 1;

        // Injected ENOSPC: must surface as the typed StorageFull.
        let err =
            fail_then_resume(&src, &dir, FaultPlan::full_at(at), &want, &format!("full@{at}"));
        assert!(matches!(err, GraphError::StorageFull(_)), "full@{at}: got {err:?}");
        full += 1;

        // Transient: the default retry policy absorbs it — no error at all.
        let faults = FaultState::new(FaultPlan::transient_at(at, 2));
        builder()
            .faults(FaultSurface::none().with_faults(Arc::clone(&faults)))
            .build()
            .unwrap()
            .run(&src, &dir)
            .unwrap();
        assert!(faults.fired(), "transient@{at}: planted fault never fired");
        assert_identical(&dir, &want, &format!("transient@{at}"));
        transient += 1;
    }

    // Label-targeted faults at the sidecar gates added when meta/checksum
    // saves were routed through the surface: killing exactly those writes
    // must still leave the run resumable to a byte-identical directory.
    for label in ["save-meta:meta.txt", "save-meta:checksums.txt"] {
        let faults = FaultState::fail_at_label(label);
        let surface = FaultSurface::none()
            .with_faults(Arc::clone(&faults))
            .with_retry(RetryPolicy::none());
        let err = builder().faults(surface).build().unwrap().run(&src, &dir).unwrap_err();
        assert!(faults.fired(), "{label}: labeled fault never fired ({err})");
        builder().resume(true).build().unwrap().run(&src, &dir).unwrap();
        assert_identical(&dir, &want, label);
        hard += 1;
    }

    // The CI chaos step collects this as an artifact.
    if let Ok(out) = std::env::var("CHAOS_INGEST_OUT") {
        let points_json =
            points.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        let json = format!(
            "{{\n  \"gated_ops\": {ops},\n  \"injection_points\": [{points_json}],\n  \
             \"hard\": {hard},\n  \"torn\": {torn},\n  \"full\": {full},\n  \
             \"transient_retried\": {transient},\n  \"resumed_byte_identical\": {}\n}}\n",
            hard + torn + full
        );
        std::fs::write(out, json).unwrap();
    }
}

/// DESIGN.md §6h graceful degradation: a pipeline run against an exhausted
/// scratch disk budget fails with the *typed* `StorageFull` — scratch left
/// resumable — and an attached-but-ample budget both completes and is
/// actually charged.
#[test]
fn enospc_fails_typed_and_resumes() {
    let scratch = ScratchDir::new("ingest-enospc").unwrap();
    let src = scratch.file("g.txt");
    std::fs::write(&src, graph_text()).unwrap();

    let clean = scratch.path().join("clean");
    builder().build().unwrap().run(&src, &clean).unwrap();
    let want = dir_contents(&clean);

    let dir = scratch.path().join("dos");
    let err = builder()
        .faults(FaultSurface::none().with_disk_budget(DiskBudget::new(256)))
        .build()
        .unwrap()
        .run(&src, &dir)
        .unwrap_err();
    assert!(matches!(err, GraphError::StorageFull(_)), "got {err:?}");
    assert!(scratch_root_for(&dir).exists(), "scratch must survive ENOSPC for resume");

    // Resume with a budget that fits: the run completes, the budget is
    // charged, and the output is byte-identical to the clean run.
    let ample = DiskBudget::new(64 << 20);
    builder()
        .faults(FaultSurface::none().with_disk_budget(Arc::clone(&ample)))
        .resume(true)
        .build()
        .unwrap()
        .run(&src, &dir)
        .unwrap();
    assert!(ample.used() > 0, "disk budget attached but never charged");
    assert_identical(&dir, &want, "enospc-resume");
    assert!(!scratch_root_for(&dir).exists());
}
