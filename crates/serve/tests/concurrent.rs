//! Concurrent-reader correctness (ISSUE 10 acceptance): N client threads
//! replay the same mixed point/k-hop/value script against a running server
//! whose snapshot was pinned *before* a writer starts laying down new
//! checkpoint generations into the same root. Three properties:
//!
//! 1. every concurrent transcript is bit-identical to a single-threaded
//!    [`Session`] replay over an identically pinned [`GraphView`];
//! 2. no reader observes a generation newer than the pinned one, even
//!    while the resumed engine run commits generations mid-flight — and
//!    retires the older ones, the pinned one included;
//! 3. pins taken *while* the writer commits and retires always succeed, and
//!    every response of a session over such a pin comes from one
//!    generation: the same bytes a pin of that generation from a run that
//!    kept every generation serves;
//! 4. a fresh pin afterwards lands on the newest *valid* generation,
//!    skipping a torn in-progress directory.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use graphz_algos::common::{AlgoParams, Algorithm};
use graphz_algos::runner::{self, CheckpointSpec};
use graphz_gen::rmat_edges;
use graphz_io::{IoStats, ScratchDir};
use graphz_serve::{GraphView, ServeOptions, Server, Session};
use graphz_types::{Edge, EngineOptions, MemoryBudget};

const CLIENTS: usize = 4;
const ROUNDS: usize = 3;

/// BFS wants every edge walkable both ways so the frontier reaches the
/// whole component.
fn symmetrized(edges: Vec<Edge>) -> Vec<Edge> {
    let mut out: Vec<Edge> = edges
        .iter()
        .filter(|e| e.src != e.dst)
        .flat_map(|e| [*e, Edge::new(e.dst, e.src)])
        .collect();
    out.sort();
    out.dedup();
    out
}

/// The mixed query script every reader replays: point lookups, 2-hop
/// expansions, checkpoint-value reads, and one typed-error probe.
fn script(num_vertices: u32) -> Vec<String> {
    let mut lines = vec!["ping".to_string(), "stats".to_string(), "snapshot".to_string()];
    for v in (0..num_vertices).step_by(7) {
        lines.push(format!("degree {v}"));
        lines.push(format!("neighbors {v}"));
        lines.push(format!("khop {v} 2"));
        lines.push(format!("value {v}"));
    }
    lines.push(format!("degree {}", num_vertices + 5));
    lines
}

/// What a session over one pin answers: the generation line, every
/// vertex's value, and the generation line again.
fn pinned_transcript(dos_dir: &Path, root: &Path, generation: Option<u32>) -> (u32, Vec<String>) {
    let mut view = GraphView::open(dos_dir, IoStats::new()).unwrap();
    let pinned = view.pin_snapshot(root, generation).unwrap();
    let num_vertices = u32::try_from(view.graph().index().num_vertices()).unwrap();
    let mut lines = vec!["snapshot".to_string()];
    lines.extend((0..num_vertices).map(|v| format!("value {v}")));
    lines.push("snapshot".to_string());
    let mut session = Session::new(view);
    let answers = lines
        .iter()
        .map(|line| {
            assert!(session.handle(line));
            session.response().to_string()
        })
        .collect();
    (pinned, answers)
}

#[test]
fn concurrent_readers_match_single_threaded_replay_under_writes() {
    let dir = ScratchDir::new("serve-concurrent").unwrap();
    let stats = IoStats::new();
    // A 96-vertex ring keeps the BFS frontier alive for several iterations
    // (several checkpoint generations); rmat chords add power-law degrees
    // so k-hop answers are non-trivial.
    let mut raw: Vec<Edge> = (0..96u32).map(|v| Edge::new(v, (v + 1) % 96)).collect();
    raw.extend(rmat_edges(7, 120, Default::default(), 42).filter(|e| e.src < 96 && e.dst < 96));
    let edges = symmetrized(raw);
    let el = graphz_storage::EdgeListFile::create(&dir.file("g.bin"), Arc::clone(&stats), edges)
        .unwrap();
    let dos_dir = dir.path().join("dos");
    let dos = runner::prepare_dos(&el, &dos_dir, MemoryBudget::from_mib(4), Arc::clone(&stats))
        .unwrap();

    // Reference run to learn when BFS converges, then an interrupted head
    // run that checkpoints every iteration but stops strictly before that.
    let params = AlgoParams::new(Algorithm::Bfs).with_source(0).with_max_iterations(100);
    let budget = MemoryBudget::from_mib(4);
    let none = CheckpointSpec::disabled();
    let reference =
        runner::run_graphz_checkpointed(&dos, &params, budget, &none, Arc::clone(&stats)).unwrap();
    assert!(reference.converged);
    assert!(reference.iterations >= 4, "need room to interrupt: {}", reference.iterations);
    // Far enough from the end that the tail retires the generation the
    // server pins.
    let cut = reference.iterations / 2;

    let gens = dir.path().join("gens");
    let head = CheckpointSpec { dir: Some(gens.clone()), every: 1, resume: false };
    let interrupted = runner::run_graphz_checkpointed(
        &dos,
        &params.with_max_iterations(cut),
        budget,
        &head,
        Arc::clone(&stats),
    )
    .unwrap();
    assert!(!interrupted.converged, "head run must stop before convergence");

    // The server pins the newest generation before accepting connections.
    let options = ServeOptions::builder(&dos_dir)
        .threads(CLIENTS)
        .checkpoint_dir(&gens)
        .max_conns(CLIENTS as u64)
        .stats(Arc::clone(&stats))
        .build()
        .unwrap();
    let server = Server::start(options).unwrap();
    let addr = server.addr();

    // Single-threaded replay over an identically pinned view is the oracle.
    let mut view = GraphView::open(&dos_dir, Arc::clone(&stats)).unwrap();
    let pinned = view.pin_snapshot(&gens, None).unwrap();
    let num_vertices = u32::try_from(dos.index().num_vertices()).unwrap();
    let lines = script(num_vertices);
    let mut session = Session::new(view);
    let mut expect = Vec::with_capacity(lines.len());
    for line in &lines {
        assert!(session.handle(line), "script must not close the session: {line}");
        expect.push(session.response().to_string());
    }
    let gen_tag = format!("generation={pinned} ");
    assert!(
        expect.iter().any(|r| r.contains(&gen_tag)),
        "snapshot response must name the pinned generation: {expect:?}"
    );
    assert!(
        expect.iter().any(|r| r.starts_with("OK ") && r.contains(" u32=")),
        "value responses must carry checkpoint bytes: {expect:?}"
    );

    // N readers replay the script in lockstep with the oracle transcript
    // while the main thread resumes the engine, committing newer
    // generations into the same checkpoint root mid-flight.
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let lines = lines.clone();
        let expect = expect.clone();
        clients.push(thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            for round in 0..ROUNDS {
                for (i, line) in lines.iter().enumerate() {
                    stream.write_all(line.as_bytes()).unwrap();
                    stream.write_all(b"\n").unwrap();
                    let mut resp = String::new();
                    reader.read_line(&mut resp).unwrap();
                    assert_eq!(
                        resp.trim_end_matches(['\r', '\n']),
                        expect[i],
                        "client {c} round {round} diverged on {line:?}"
                    );
                }
            }
            stream.write_all(b"quit\n").unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            assert_eq!(resp.trim_end_matches(['\r', '\n']), "OK bye");
        }));
    }

    // Two more threads pin afresh, over and over, while the writer commits
    // and retires generations under them.
    let writing = Arc::new(AtomicBool::new(true));
    let pinners: Vec<_> = (0..2)
        .map(|_| {
            let (writing, dos_dir, gens) = (Arc::clone(&writing), dos_dir.clone(), gens.clone());
            thread::spawn(move || {
                let mut pins = vec![pinned_transcript(&dos_dir, &gens, None)];
                while writing.load(Ordering::SeqCst) {
                    pins.push(pinned_transcript(&dos_dir, &gens, None));
                }
                pins
            })
        })
        .collect();

    let tail = CheckpointSpec { dir: Some(gens.clone()), every: 1, resume: true };
    let resumed =
        runner::run_graphz_checkpointed(&dos, &params, budget, &tail, Arc::clone(&stats)).unwrap();
    writing.store(false, Ordering::SeqCst);
    assert!(resumed.converged);
    assert_eq!(reference.values, resumed.values, "resume must land where the clean run did");

    for client in clients {
        client.join().unwrap();
    }
    assert_eq!(server.wait().unwrap(), CLIENTS as u64);

    // The writer kept only the newest two generations; the one the server
    // pinned is gone from disk, and its readers never noticed.
    let on_disk: Vec<u32> =
        graphz_core::list_generations(&gens).unwrap().iter().map(|g| g.number).collect();
    assert_eq!(on_disk, vec![reference.iterations, reference.iterations - 1]);
    assert!(!on_disk.contains(&pinned), "the pinned generation must have been retired");

    // Oracle for the mid-flight pins: the same run, every generation kept.
    let all = dir.path().join("all-gens");
    let keep = CheckpointSpec { dir: Some(all.clone()), every: 1, resume: false };
    runner::run_graphz_keeping_generations(
        &dos,
        &params,
        budget,
        EngineOptions::full(),
        &keep,
        Arc::clone(&stats),
    )
    .unwrap();
    for pinner in pinners {
        for (generation, answers) in pinner.join().unwrap() {
            let tag = format!("generation={generation} ");
            assert!(answers[0].contains(&tag) && answers[answers.len() - 1].contains(&tag));
            let (_, want) = pinned_transcript(&dos_dir, &all, Some(generation));
            assert_eq!(answers, want, "a mid-flight pin of generation {generation} mixed bytes");
        }
    }

    // A torn in-progress generation (manifest garbage) must be invisible:
    // a fresh pin lands on the newest generation the resumed run committed.
    let torn = gens.join("gen-00009999");
    std::fs::create_dir_all(&torn).unwrap();
    std::fs::write(torn.join("manifest.txt"), "not a manifest\n").unwrap();
    let mut fresh = GraphView::open(&dos_dir, Arc::clone(&stats)).unwrap();
    let newest = fresh.pin_snapshot(&gens, None).unwrap();
    assert!(newest > pinned, "resumed run must add generations: {newest} vs {pinned}");
    assert_ne!(newest, 9999, "the torn generation must be skipped");
}
