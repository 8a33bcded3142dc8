//! Chaos sweep over the checkpoint path: inject a crash at *every* gated IO
//! operation a periodically-checkpointing run performs — hard error and torn
//! write — and assert that a fresh engine resuming from whatever survived
//! finishes with exactly the values of an uninterrupted run. The ops include
//! the vertex frame teed from each flush, the spill frames, the staged
//! manifest write and the retention that retires generations older than the
//! newest two (rename to `.old`, then remove). Transient faults must instead
//! be retried through to success.

use std::sync::Arc;

use graphz_core::{
    generation_path, list_generations, parse_generation_name, DosStore, Engine, EngineConfig,
    GenerationManifest, UpdateContext, VertexProgram,
};
use graphz_io::{FaultPlan, FaultState, FaultSurface, IoStats, RetryPolicy, ScratchDir};
use graphz_storage::{DosConverter, EdgeListFile};
use graphz_types::{Edge, EngineOptions, MemoryBudget, VertexId};

const ROUNDS: u32 = 5;
const MAX_ITER: u32 = 20;
const BUDGET: MemoryBudget = MemoryBudget(32);

/// Each iteration every vertex sends `1` to each out-neighbor, so after the
/// run vertex v holds rounds * in_degree(v) — cheap, message-heavy (spill
/// files exist at this budget), and fully deterministic.
struct Counter {
    rounds: u32,
}

impl VertexProgram for Counter {
    type VertexData = u64;
    type Message = u64;

    fn update(&self, _vid: VertexId, _data: &mut u64, ctx: &mut UpdateContext<'_, u64>) {
        if ctx.iteration() < self.rounds {
            ctx.mark_changed();
            for &n in ctx.neighbors() {
                ctx.send(n, 1);
            }
        }
    }

    fn apply_message(&self, _vid: VertexId, data: &mut u64, msg: &u64) {
        *data += msg;
    }
}

fn edges() -> Vec<Edge> {
    vec![
        Edge::new(0, 1),
        Edge::new(0, 2),
        Edge::new(0, 3),
        Edge::new(1, 2),
        Edge::new(2, 0),
        Edge::new(3, 0),
        Edge::new(3, 1),
    ]
}

fn make_engine(config: EngineConfig) -> (ScratchDir, Engine<Counter>) {
    make_engine_for(Counter { rounds: ROUNDS }, config)
}

fn make_engine_for<P: VertexProgram>(program: P, config: EngineConfig) -> (ScratchDir, Engine<P>) {
    let dir = ScratchDir::new("chaos").unwrap();
    let stats = IoStats::new();
    let el = EdgeListFile::create(&dir.file("g.bin"), Arc::clone(&stats), edges()).unwrap();
    let dos = DosConverter::new(MemoryBudget::from_kib(64), Arc::clone(&stats))
        .convert(&el, &dir.path().join("dos"))
        .unwrap();
    let engine = Engine::new(Box::new(DosStore::new(dos)), program, config, stats).unwrap();
    (dir, engine)
}

fn plain_config() -> EngineConfig {
    EngineConfig::new(BUDGET).with_options(EngineOptions::full())
}

fn reference_values() -> Vec<u64> {
    let (_dir, mut reference) = make_engine(plain_config());
    reference.run(MAX_ITER).unwrap();
    reference.values_by_original_id().unwrap()
}

/// Total gated IO ops of one fully-checkpointed run, learned by running the
/// identical deterministic workload under a never-firing fault plan.
fn count_checkpoint_ops(gens: &ScratchDir) -> u64 {
    let probe = FaultState::counting();
    let config = plain_config().checkpoint_every(gens.path(), 1).with_checkpoint_faults(
        FaultSurface::none().with_faults(Arc::clone(&probe)).with_retry(RetryPolicy::none()),
    );
    let (_dir, mut engine) = make_engine(config);
    engine.run(MAX_ITER).unwrap();
    probe.ops_seen()
}

#[test]
fn crash_at_every_op_recovers_to_exact_values() {
    let expected = reference_values();
    let count_gens = ScratchDir::new("chaos-count").unwrap();
    let total_ops = count_checkpoint_ops(&count_gens);
    // The sweep's op sequence is pinned (DESIGN.md §6c): a change that moves
    // it on purpose updates this count there and here.
    assert_eq!(total_ops, 94, "checkpoint gated-op count moved");

    for op in 0..total_ops {
        for plan in [FaultPlan::fail_at(op), FaultPlan::torn_at(op, 3)] {
            let gens = ScratchDir::new("chaos-sweep").unwrap();
            let faults = FaultState::new(plan);
            let config = plain_config().checkpoint_every(gens.path(), 1).with_checkpoint_faults(
                FaultSurface::none()
                    .with_faults(Arc::clone(&faults))
                    .with_retry(RetryPolicy::none()),
            );
            let (_dir, mut victim) = make_engine(config);
            let outcome = victim.run(MAX_ITER);
            assert!(outcome.is_err(), "{plan:?} should have killed the run");
            assert!(faults.fired(), "{plan:?} never fired");
            drop(victim);

            // Simulated restart: a fresh engine over the same graph resumes
            // from the newest surviving generation (or from scratch if the
            // very first checkpoint died) and finishes.
            let (_dir2, mut resumed) = make_engine(plain_config());
            resumed.resume_latest(gens.path()).unwrap();
            resumed.run(MAX_ITER).unwrap();
            assert_eq!(
                resumed.values_by_original_id().unwrap(),
                expected,
                "recovery after {plan:?} diverged from the uninterrupted run"
            );
        }
    }
}

#[test]
fn transient_faults_retry_through_to_success() {
    let expected = reference_values();
    let count_gens = ScratchDir::new("chaos-tcount").unwrap();
    let total_ops = count_checkpoint_ops(&count_gens);

    for op in [0, total_ops / 2, total_ops - 1] {
        let gens = ScratchDir::new("chaos-transient").unwrap();
        let faults = FaultState::new(FaultPlan::transient_at(op, 2));
        let config = plain_config().checkpoint_every(gens.path(), 1).with_checkpoint_faults(
            FaultSurface::none()
                .with_faults(Arc::clone(&faults))
                .with_retry(RetryPolicy::default()),
        );
        let (_dir, mut engine) = make_engine(config);
        // Two consecutive failures at one op are inside the default retry
        // budget: the run itself must succeed.
        engine.run(MAX_ITER).unwrap();
        assert!(faults.fired(), "transient fault at op {op} never fired");
        assert_eq!(engine.values_by_original_id().unwrap(), expected);
        drop(engine);

        // The checkpoints written under retries are themselves sound.
        let (_dir2, mut resumed) = make_engine(plain_config());
        assert!(resumed.resume_latest(gens.path()).unwrap().is_some());
        resumed.run(MAX_ITER).unwrap();
        assert_eq!(resumed.values_by_original_id().unwrap(), expected);
    }
}

#[test]
fn exhausted_retry_budget_still_recovers() {
    let expected = reference_values();
    let gens = ScratchDir::new("chaos-exhaust").unwrap();
    // Five consecutive failures exceed the default 4-retry budget: the run
    // dies like a hard error, and recovery must still work.
    let faults = FaultState::new(FaultPlan::transient_at(10, 5));
    let config = plain_config().checkpoint_every(gens.path(), 1).with_checkpoint_faults(
        FaultSurface::none().with_faults(Arc::clone(&faults)).with_retry(RetryPolicy::default()),
    );
    let (_dir, mut victim) = make_engine(config);
    assert!(victim.run(MAX_ITER).is_err());
    drop(victim);

    let (_dir2, mut resumed) = make_engine(plain_config());
    resumed.resume_latest(gens.path()).unwrap();
    resumed.run(MAX_ITER).unwrap();
    assert_eq!(resumed.values_by_original_id().unwrap(), expected);
}

/// Every checkpoint op kind has a probe that fires, and a crash there still
/// resumes to the exact values: the staged manifest write and both
/// retention steps.
#[test]
fn label_probes_fire_at_manifest_and_retention_ops() {
    let expected = reference_values();
    for label in ["write-manifest", "retire-rename", "retire-remove"] {
        let gens = ScratchDir::new("chaos-label").unwrap();
        let faults = FaultState::fail_at_label(label);
        let config = plain_config().checkpoint_every(gens.path(), 1).with_checkpoint_faults(
            FaultSurface::none().with_faults(Arc::clone(&faults)).with_retry(RetryPolicy::none()),
        );
        let (_dir, mut victim) = make_engine(config);
        assert!(victim.run(MAX_ITER).is_err(), "a fault at `{label}` must kill the run");
        assert!(faults.fired(), "no op labeled `{label}` ran");
        drop(victim);

        let (_dir2, mut resumed) = make_engine(plain_config());
        resumed.resume_latest(gens.path()).unwrap();
        resumed.run(MAX_ITER).unwrap();
        assert_eq!(resumed.values_by_original_id().unwrap(), expected, "after `{label}`");
    }
}

/// Assert what a crash leaves under a checkpoint root: no staging tree, and
/// every generation there loads and verifies. `.old` debris of a retirement
/// is allowed only where `debris_ok`.
fn assert_only_committed(root: &std::path::Path, debris_ok: bool, what: &str) {
    for entry in std::fs::read_dir(root).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if debris_ok && name.strip_suffix(".old").and_then(parse_generation_name).is_some() {
            continue;
        }
        assert!(parse_generation_name(&name).is_some(), "{what}: `{name}` left in the root");
    }
    for g in list_generations(root).unwrap() {
        let manifest = GenerationManifest::load(&g.path, &IoStats::new()).unwrap();
        manifest.verify_files(&IoStats::new()).unwrap();
        assert_eq!(manifest.next_iteration().unwrap(), g.number, "{what}");
    }
}

/// Faults at the ops the commit thread performs — the staged tree's fsyncs,
/// the rename, the directory fsyncs, the removal of a retired generation —
/// in a generation past the first. The run returns the injected error; the
/// next generation never began staging (its first gated op joins the failed
/// commit first); and resume is exact.
#[test]
fn label_probes_fire_at_commit_thread_ops() {
    let expected = reference_values();
    for (label, nth) in [("fsync", 5), ("rename", 2), ("fsync-dir", 4), ("retire-remove", 1)] {
        let gens = ScratchDir::new("chaos-commit").unwrap();
        let faults = FaultState::at_label_occurrence(FaultPlan::fail_at(u64::MAX), label, nth);
        let config = plain_config().checkpoint_every(gens.path(), 1).with_checkpoint_faults(
            FaultSurface::none().with_faults(Arc::clone(&faults)).with_retry(RetryPolicy::none()),
        );
        let (_dir, mut victim) = make_engine(config);
        let err = victim.run(MAX_ITER).expect_err("a commit-thread fault must fail the run");
        assert!(faults.fired(), "no op labeled `{label}` #{nth} ran");
        let injected = format!("injected fault: {label} ");
        assert!(err.to_string().contains(&injected), "`{label}`: run returned {err}");
        drop(victim);
        // No gated op passed after the failed one — the engine joined the
        // commit before staging more — so the sweep's fault at the index of
        // the ops that passed hits the same op.
        let at = faults.ops_seen();
        let gens_at = ScratchDir::new("chaos-commit-at").unwrap();
        let config = plain_config().checkpoint_every(gens_at.path(), 1).with_checkpoint_faults(
            FaultSurface::none()
                .with_faults(FaultState::new(FaultPlan::fail_at(at)))
                .with_retry(RetryPolicy::none()),
        );
        let (_dir_at, mut same) = make_engine(config);
        let err_at = same.run(MAX_ITER).expect_err("the indexed fault must fail the run");
        let indexed = format!("injected fault: {label} (op {at})");
        assert!(err_at.to_string().contains(&indexed), "`{label}` #{nth} is op {at}: {err_at}");
        drop(same);
        assert!(!list_generations(gens.path()).unwrap().is_empty(), "`{label}` #{nth}");
        assert_only_committed(gens.path(), label == "retire-remove", label);

        let (_dir2, mut resumed) = make_engine(plain_config());
        resumed.resume_latest(gens.path()).unwrap();
        resumed.run(MAX_ITER).unwrap();
        assert_eq!(resumed.values_by_original_id().unwrap(), expected, "after `{label}`");
    }
}

/// [`Counter`] that, in iteration `stray`, also sends one message to a
/// vertex id past the graph.
struct StrayAt {
    stray: u32,
}

impl VertexProgram for StrayAt {
    type VertexData = u64;
    type Message = u64;

    fn update(&self, vid: VertexId, data: &mut u64, ctx: &mut UpdateContext<'_, u64>) {
        if ctx.iteration() == self.stray {
            ctx.send(VertexId::MAX, 1);
        }
        Counter { rounds: ROUNDS }.update(vid, data, ctx);
    }

    fn apply_message(&self, vid: VertexId, data: &mut u64, msg: &u64) {
        Counter { rounds: ROUNDS }.apply_message(vid, data, msg);
    }
}

/// A run that fails in iteration k fails while generation k's commit (the
/// one iteration k - 1 ended in) is still in flight: the error return joins
/// it, so the generation is whole, committed and verifiable once `run`
/// returns, and nothing of generation k + 1 was staged.
#[test]
fn a_failing_run_joins_the_commit_in_flight() {
    const K: u32 = 3;
    let gens = ScratchDir::new("chaos-join").unwrap();
    let config = plain_config().checkpoint_every(gens.path(), 1);
    let (_dir, mut victim) = make_engine_for(StrayAt { stray: K }, config);
    let err = victim.run(MAX_ITER).expect_err("a stray send must fail the run");
    assert!(err.to_string().contains(&format!("iteration {K}")), "{err}");
    let numbers: Vec<u32> =
        list_generations(gens.path()).unwrap().iter().map(|g| g.number).collect();
    assert_eq!(numbers, vec![K, K - 1], "generation {K} is committed and retention ran");
    let manifest = GenerationManifest::load(&generation_path(gens.path(), K), &IoStats::new())
        .expect("the commit in flight finished before run returned");
    manifest.verify_files(&IoStats::new()).unwrap();
    assert_eq!(manifest.next_iteration().unwrap(), K);
    assert_only_committed(gens.path(), false, "stray send");
}

#[test]
fn a_run_keeps_only_the_newest_two_generations() {
    let gens = ScratchDir::new("chaos-retain").unwrap();
    let (_dir, mut engine) = make_engine(plain_config().checkpoint_every(gens.path(), 1));
    let run = engine.run(MAX_ITER).unwrap();
    let numbers: Vec<u32> =
        list_generations(gens.path()).unwrap().iter().map(|g| g.number).collect();
    assert_eq!(numbers, vec![run.iterations, run.iterations - 1]);
    assert_eq!(std::fs::read_dir(gens.path()).unwrap().count(), 2, "retention left debris");
}

/// Copy generation `from` to number `to` with its vertex frame truncated:
/// a damaged generation numbered above the resume point.
fn plant_damaged(root: &std::path::Path, from: u32, to: u32) {
    let (src, dst) = (generation_path(root, from), generation_path(root, to));
    std::fs::create_dir_all(dst.join("msgs")).unwrap();
    for entry in std::fs::read_dir(&src).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    }
    let vertices = dst.join("vertices.bin");
    let len = std::fs::metadata(&vertices).unwrap().len();
    std::fs::OpenOptions::new().write(true).open(&vertices).unwrap().set_len(len - 5).unwrap();
}

#[test]
fn damaged_newer_generations_never_retire_the_one_just_committed() {
    let expected = reference_values();
    let gens = ScratchDir::new("chaos-damaged").unwrap();
    let root = gens.path();
    // A run that stops after generation 2, then two damaged generations
    // numbered above it — what a run that crashed further on could leave.
    let (_dir, mut head) = make_engine(plain_config().checkpoint_every(root, 1));
    head.run(2).unwrap();
    drop(head);
    plant_damaged(root, 2, 5);
    plant_damaged(root, 2, 6);

    // Resume from 2 (5 and 6 fail verification) and commit one generation:
    // it and the one before it stay, the damaged ones are not counted.
    let (_dir2, mut one) = make_engine(plain_config().checkpoint_every(root, 1));
    assert_eq!(one.resume_latest(root).unwrap(), Some(2));
    one.run(1).unwrap();
    drop(one);
    let numbers: Vec<u32> = list_generations(root).unwrap().iter().map(|g| g.number).collect();
    assert_eq!(numbers, vec![6, 5, 3, 2], "generation 3 must survive its own retention pass");

    // Resume from 3 and run on past the damaged numbers: they are replaced,
    // and the newest generation on disk is valid.
    let (_dir3, mut tail) = make_engine(plain_config().checkpoint_every(root, 1));
    assert_eq!(tail.resume_latest(root).unwrap(), Some(3));
    tail.run(MAX_ITER).unwrap();
    assert_eq!(tail.values_by_original_id().unwrap(), expected);
    let newest = &list_generations(root).unwrap()[0];
    GenerationManifest::load(&newest.path, &IoStats::new()).unwrap().verify_files(&IoStats::new()).unwrap();
    let (_dir4, mut again) = make_engine(plain_config());
    assert_eq!(again.resume_latest(root).unwrap(), Some(newest.number));
}
