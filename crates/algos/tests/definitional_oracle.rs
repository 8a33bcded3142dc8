//! The engine against the definitional oracle (`common/oracle.rs`): a plain
//! in-memory interpreter that follows the ordering guarantee of paper §IV-C
//! literally, over the engine's own partition ranges. The plan matrix only
//! compares plans with one another, so an ordering bug every plan shares
//! passes it; here the engine must match the stated order itself — values,
//! iterations and message counters bit for bit, and the messages still
//! queued at the end in send order — on one partition and on eight, with
//! dynamic messages on and off.

mod common;

use common::oracle::{interpret, Adjacency};
use common::{graph_for, normalized, rmat, tree, Fixture, Plan};
use graphz_algos::common::{AlgoParams, Algorithm};
use graphz_algos::graphz as gz;
use graphz_core::{GraphStore, VertexProgram};
use graphz_io::{IoStats, ScratchDir};
use graphz_storage::Partitioner;
use graphz_types::{codec, FixedCodec};

/// Run `make`'s program under `plan` on the oracle, over the partition
/// ranges the plan's budget gives, and on the engine twice: plain, and
/// writing a generation per iteration, whose last one holds every message
/// still queued, each partition's in send order.
fn agrees<P: VertexProgram>(fx: &Fixture, plan: Plan, make: impl Fn(&dyn GraphStore) -> P, max: u32) {
    let gens = ScratchDir::new("oracle-gens").unwrap();
    for ckpt in [None, Some(gens.path())] {
        let mut engine = fx.engine(plan, &make, ckpt);
        let (graph, program) = (Adjacency::of(engine.store()), make(engine.store()));
        let size = P::VertexData::SIZE;
        let (budget, _) = plan.budget(graph.num_vertices(), size as u64);
        let layout = Partitioner::new(budget).layout(graph.num_vertices(), size);
        let ranges: Vec<_> = layout.iter().map(|(_, a, b)| (a, b)).collect();
        assert_eq!(ranges.len() as u32, engine.num_partitions(), "{plan:?}: partition ranges");

        let run = engine.run(max).unwrap();
        let want = interpret(&program, &graph, &ranges, plan.options().dynamic_messages, max);
        let values = codec::encode_slice(&engine.values().unwrap());
        assert!(values == codec::encode_slice(&want.values), "{plan:?}: values differ");
        assert_eq!(
            (run.iterations, run.converged, run.messages_sent, run.dynamic_applied, run.buffered),
            (want.iterations, want.converged, want.messages_sent, want.dynamic_applied, want.buffered),
            "{plan:?}: (iterations, converged, messages_sent, dynamic_applied, buffered)"
        );
        assert!(run.iterations > 1 && run.messages_sent > 0, "{plan:?}: the run must send");
        let Some(root) = ckpt else { continue };
        let queued = normalized(&tree(root));
        for (p, pending) in want.pending.iter().enumerate() {
            let key = format!("gen-{:08}/msgs/{p:05}", run.iterations);
            let got = queued.get(&key).map_or(&[][..], Vec::as_slice);
            assert!(got == pending.as_slice(), "{plan:?}: partition {p}'s queue differs");
        }
    }
}

const PLANS: [Plan; 3] = [Plan::Partitions(1), Plan::Partitions(8), Plan::WithoutDosAndDm(8)];

/// PageRank broadcasts along every edge every iteration, and its votes are
/// float sums: any change in the order messages apply moves a bit.
#[test]
fn pagerank_matches_the_oracle() {
    let p = AlgoParams::new(Algorithm::PageRank);
    let fx = Fixture::new(graph_for(Algorithm::PageRank, rmat(8, 1500, 5)), None);
    for plan in PLANS {
        agrees(&fx, plan, |_| gz::PageRank { tolerance: p.pr_tolerance }, 30);
    }
}

/// BFS sends to a sparse frontier, and quiet vertices skip their update: a
/// message applied late or early moves a level.
#[test]
fn bfs_matches_the_oracle() {
    let fx = Fixture::new(graph_for(Algorithm::Bfs, rmat(8, 1500, 7)), None);
    let stats = IoStats::new();
    let source = |s: &dyn GraphStore| s.to_storage_id(0, &stats).unwrap();
    for plan in PLANS {
        agrees(&fx, plan, |s| gz::Bfs { source: source(s) }, 200);
    }
}
