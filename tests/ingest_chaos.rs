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
use graphz_storage::{id_map_fits, scratch_root_for, IngestPipeline, IngestPipelineBuilder};
use graphz_types::{GraphError, MemoryBudget};

fn stats() -> Arc<IoStats> {
    IoStats::new()
}

/// A deterministic 301-edge graph with comments and a zero-degree tail so
/// every conversion stage has real work. 301 is no multiple of the
/// spilling budget's four edges per run, so the source runs end in a
/// partial run, spilled like the rest.
fn graph_text() -> String {
    let mut text = String::from("# chaos fixture\n");
    let mut x: u64 = 77;
    for _ in 0..301 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        text.push_str(&format!("{} {}\n", (x >> 33) % 60, (x >> 15) % 90));
    }
    text
}

/// The pipeline every sweep runs: at 32 KiB each of the fixture's sorts is
/// one in-memory run, and the id map is relabeled in memory.
fn builder() -> IngestPipelineBuilder {
    IngestPipeline::builder().budget(MemoryBudget::from_kib(32)).stats(stats())
}

/// The same pipeline at 64 bytes: each stage sort gets 32 (4 edges or id
/// pairs per run), so every sort of the fixture spills runs, the edge sorts
/// 75 or more, and each of those takes a pre-merge pass at the merge
/// fan-in of 64 — the durable source runs' inside the `runs` stage too. The
/// id map (4 bytes for each of the fixture's 90 vertex ids) does not fit
/// those 32 bytes, so this arm takes the sorted relabel path.
fn spilling_builder() -> IngestPipelineBuilder {
    IngestPipeline::builder().budget(MemoryBudget(64)).stats(stats())
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
    fail_then_resume_with(builder, src, dir, FaultState::new(plan), want, ctx)
}

/// [`fail_then_resume`] for any pipeline and any armed fault state.
fn fail_then_resume_with(
    pipeline: fn() -> IngestPipelineBuilder,
    src: &Path,
    dir: &Path,
    faults: Arc<FaultState>,
    want: &BTreeMap<String, Vec<u8>>,
    ctx: &str,
) -> GraphError {
    let surface = FaultSurface::none()
        .with_faults(Arc::clone(&faults))
        .with_retry(RetryPolicy::none());
    let err = pipeline().faults(surface).build().unwrap().run(src, dir).unwrap_err();
    assert!(faults.fired(), "{ctx}: planted fault never fired ({err})");
    assert!(scratch_root_for(dir).exists(), "{ctx}: scratch root must survive the failure");
    pipeline().resume(true).build().unwrap().run(src, dir).unwrap();
    assert_identical(dir, want, ctx);
    assert!(!scratch_root_for(dir).exists(), "{ctx}: resume must clean up scratch");
    err
}

/// The two arms sweep the two relabel paths: the fixture's id map fits
/// half of 32 KiB but not half of 64 bytes. The sorted path leaves a degree
/// scratch file in the scratch root until the `old2new` stage commits, the
/// in-memory path none, so a kill at that commit shows which path ran.
#[test]
fn each_arm_takes_its_relabel_path() {
    let scratch = ScratchDir::new("ingest-chaos-paths").unwrap();
    let src = scratch.file("g.txt");
    std::fs::write(&src, graph_text()).unwrap();
    let clean = scratch.path().join("clean");
    let num_vertices = builder().build().unwrap().run(&src, &clean).unwrap().meta().num_vertices;
    assert_eq!(num_vertices, 90);
    assert!(id_map_fits(MemoryBudget::from_kib(32), num_vertices));
    assert!(!id_map_fits(MemoryBudget(64), num_vertices));
    let want = dir_contents(&clean);

    for (arm, sorted) in [("in-memory", false), ("sorted", true)] {
        let pipeline: fn() -> IngestPipelineBuilder =
            if sorted { spilling_builder } else { builder };
        let dir = scratch.path().join(arm);
        let surface = FaultSurface::none()
            .with_faults(FaultState::fail_at_label("commit-manifest:old2new"))
            .with_retry(RetryPolicy::none());
        pipeline().faults(surface).build().unwrap().run(&src, &dir).unwrap_err();
        let degrees = scratch_root_for(&dir).join("degrees.bin");
        assert_eq!(degrees.exists(), sorted, "{arm}: degree scratch file");
        pipeline().resume(true).build().unwrap().run(&src, &dir).unwrap();
        assert_identical(&dir, &want, arm);
    }
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

/// The sweep above converts at 32 KiB, where only the source runs reach
/// disk, one run. This one converts the same fixture at 64 bytes and plants
/// faults by label at sampled occurrences: the writes of spilled runs
/// (`write-run`), the opens of run files for pre-merges and merges
/// (`open-run`) and the writes of pre-merged runs (`write-merge`). Every one
/// must fire, fail the run with a typed error — `StorageFull` for an
/// injected ENOSPC — and resume to the bytes of the one-run build. Not part
/// of the `CHAOS_INGEST_OUT` summary.
///
/// Occurrences, in pipeline order, one per 8- or 12-byte record written or
/// per file opened: `write-run` 0–300 are the source runs of the `runs`
/// stage (300, the last, in the partial run at the end), 301–388 the
/// new2old sort's, then the by-dst and final sorts'; `write-merge` 0–300
/// are the `runs` stage's pre-merge, then the by-dst and final pre-merges;
/// `open-run` 0–75 open the source runs for that pre-merge, 76–77 for the
/// degree count, 78–99 the new2old runs, 100–101 the source runs again for
/// the adjacency stage, then the by-dst and final merges'.
#[test]
fn faults_in_spilled_runs_and_pre_merge_passes_resume_byte_identical() {
    let scratch = ScratchDir::new("ingest-chaos-spill").unwrap();
    let src = scratch.file("g.txt");
    std::fs::write(&src, graph_text()).unwrap();
    let clean = scratch.path().join("clean");
    builder().build().unwrap().run(&src, &clean).unwrap();
    let want = dir_contents(&clean);
    let dir = scratch.path().join("dos");

    let sampled: [(&str, &[u64]); 3] = [
        ("write-run", &[0, 1, 150, 300, 301, 500, 988]),
        ("open-run", &[0, 1, 75, 76, 100, 140, 255]),
        ("write-merge", &[0, 3, 280, 301, 900]),
    ];
    for (label, occurrences) in sampled {
        for &nth in occurrences {
            for (kind, plan) in [
                ("hard", FaultPlan::fail_at(u64::MAX)),
                ("torn", FaultPlan::torn_at(u64::MAX, 3)),
                ("full", FaultPlan::full_at(u64::MAX)),
            ] {
                let ctx = format!("{kind}@{label}#{nth}");
                let faults = FaultState::at_label_occurrence(plan, label, nth);
                let err = fail_then_resume_with(spilling_builder, &src, &dir, faults, &want, &ctx);
                match kind {
                    "full" => assert!(matches!(err, GraphError::StorageFull(_)), "{ctx}: {err:?}"),
                    _ => assert!(
                        err.to_string().contains(&format!("injected fault: {label}")),
                        "{ctx}: the error must carry the injected fault: {err}"
                    ),
                }
            }
        }
    }

    // A transient fault at a spilled run's write retries through.
    let transient = FaultPlan::transient_at(u64::MAX, 2);
    let faults = FaultState::at_label_occurrence(transient, "write-run", 5);
    spilling_builder()
        .faults(FaultSurface::none().with_faults(Arc::clone(&faults)))
        .build()
        .unwrap()
        .run(&src, &dir)
        .unwrap();
    assert!(faults.fired(), "transient@write-run: planted fault never fired");
    assert_identical(&dir, &want, "transient@write-run");
}

/// The adjacency stage of the map-fits arm writes each source's list at
/// its Eq. 1 offset through one write lane per degree group, gated as
/// `write-adjacency`. At 32 KiB every lane's buffer holds its whole region,
/// so each lane writes once, at the stage's end: one occurrence per degree
/// group with edges, and none past them. Hard, torn and full faults at the
/// first, a middle and the last lane write fail typed and resume to the
/// clean bytes; a transient one retries through.
#[test]
fn faults_in_lane_writes_resume_byte_identical() {
    let scratch = ScratchDir::new("ingest-chaos-lanes").unwrap();
    let src = scratch.file("g.txt");
    std::fs::write(&src, graph_text()).unwrap();
    let clean = scratch.path().join("clean");
    let dos = builder().build().unwrap().run(&src, &clean).unwrap();
    let lanes = dos.index().groups().iter().filter(|g| g.degree > 0).count() as u64;
    assert!(lanes >= 3, "only {lanes} degree groups");
    let want = dir_contents(&clean);
    let dir = scratch.path().join("dos");

    for nth in [0, lanes / 2, lanes - 1] {
        for (kind, plan) in [
            ("hard", FaultPlan::fail_at(u64::MAX)),
            ("torn", FaultPlan::torn_at(u64::MAX, 3)),
            ("full", FaultPlan::full_at(u64::MAX)),
        ] {
            let ctx = format!("{kind}@write-adjacency#{nth}");
            let faults = FaultState::at_label_occurrence(plan, "write-adjacency", nth);
            let err = fail_then_resume_with(builder, &src, &dir, faults, &want, &ctx);
            match kind {
                "full" => assert!(matches!(err, GraphError::StorageFull(_)), "{ctx}: {err:?}"),
                _ => assert!(
                    err.to_string().contains("injected fault: write-adjacency"),
                    "{ctx}: the error must carry the injected fault: {err}"
                ),
            }
        }
    }

    // A transient fault at a lane write retries through.
    let transient = FaultPlan::transient_at(u64::MAX, 2);
    let faults = FaultState::at_label_occurrence(transient, "write-adjacency", lanes / 2);
    builder()
        .faults(FaultSurface::none().with_faults(Arc::clone(&faults)))
        .build()
        .unwrap()
        .run(&src, &dir)
        .unwrap();
    assert!(faults.fired(), "transient@write-adjacency: planted fault never fired");
    assert_identical(&dir, &want, "transient@write-adjacency");

    // No lane writes twice: a fault planted one occurrence past the last
    // never fires.
    let hard = FaultPlan::fail_at(u64::MAX);
    let past = FaultState::at_label_occurrence(hard, "write-adjacency", lanes);
    let surface =
        FaultSurface::none().with_faults(Arc::clone(&past)).with_retry(RetryPolicy::none());
    builder().faults(surface).build().unwrap().run(&src, &dir).unwrap();
    assert!(!past.fired(), "more than {lanes} lane writes");
    assert_identical(&dir, &want, "past the last lane write");
}

/// DESIGN.md §6h graceful degradation: a pipeline run against an exhausted
/// scratch disk budget fails with the *typed* `StorageFull` — scratch left
/// resumable — and an attached-but-ample budget both completes and is
/// actually charged. A text source learns its edge count only by parsing,
/// so the first pre-stage check that can refuse it is the next stage's, on
/// the counts the `runs` stage committed: a budget that holds the runs and
/// the id maps but not the image the adjacency stage writes fails there,
/// before it starts. (At 32 KiB the id map fits, so that stage writes each
/// list at its offset and needs no scratch beyond the image.)
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

    // 301 edges, 90 ids: 2408 bytes of runs and 2 * 4 * 90 = 720 bytes of
    // old2new.bin and new2old.bin fit, 4 * 301 = 1204 bytes of edges.bin
    // do not fit what is left.
    let err = builder()
        .faults(FaultSurface::none().with_disk_budget(DiskBudget::new(4000)))
        .build()
        .unwrap()
        .run(&src, &scratch.path().join("dos-checked"))
        .unwrap_err();
    assert!(matches!(err, GraphError::StorageFull(_)), "got {err:?}");
    assert!(err.to_string().contains("stage `adjacency` needs about 1204"), "{err}");

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
