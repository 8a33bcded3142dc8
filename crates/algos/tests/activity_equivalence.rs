//! Activity-aware passes change which bytes move, never what is computed.
//!
//! BFS, SSSP (over a derived-weight and a stored-weight image) and CC
//! override `VertexProgram::wants_update`, so the engine skips quiet
//! partitions, seeks past quiet adjacency blocks and writes back only
//! changed slab blocks. Each is run as-is and behind
//! [`Eager`], whose `wants_update` is always `true` — the schedule that
//! reads and writes everything — on every plan, whole and as a
//! checkpoint/resume split run. Compared: final values, iterations, every
//! `RunSummary` message counter and the bytes of every checkpoint
//! generation (vertex array and spilled message segments).
//!
//! Also here: a ring whose frontier wakes, mid-pass, vertices inside blocks
//! the Sio stream already skipped (the gap re-check), and a program whose
//! `wants_update` lies, which the comparison must catch.

mod common;

use std::sync::Arc;

use common::{
    assert_same, assert_spills_mid_pass, differences, mid_pass_spill, rmat, run, Fixture, Plan,
};
use graphz_algos::graphz::{Bfs, Cc, Sssp};
use graphz_core::{ActivityCounters, GraphStore, UpdateContext, VertexProgram};
use graphz_io::IoStats;
use graphz_types::{derive_weight, Edge, VertexId};

/// `P` with the default `wants_update`: every vertex is updated every pass.
struct Eager<P>(P);

impl<P: VertexProgram> VertexProgram for Eager<P> {
    type VertexData = P::VertexData;
    type Message = P::Message;

    fn init(&self, vid: VertexId, degree: u32) -> P::VertexData {
        self.0.init(vid, degree)
    }

    fn update(
        &self,
        vid: VertexId,
        data: &mut P::VertexData,
        ctx: &mut UpdateContext<'_, P::Message>,
    ) {
        self.0.update(vid, data, ctx)
    }

    fn apply_message(&self, vid: VertexId, data: &mut P::VertexData, msg: &P::Message) {
        self.0.apply_message(vid, data, msg)
    }
}

/// BFS whose `wants_update` wrongly calls a vertex quiet when its offer is
/// 1 mod 3: it breaks the contract, so skipping loses updates.
struct Liar(Bfs);

impl VertexProgram for Liar {
    type VertexData = (u32, u32);
    type Message = u32;

    fn init(&self, vid: VertexId, degree: u32) -> (u32, u32) {
        self.0.init(vid, degree)
    }

    fn update(&self, vid: VertexId, data: &mut (u32, u32), ctx: &mut UpdateContext<'_, u32>) {
        self.0.update(vid, data, ctx)
    }

    fn apply_message(&self, vid: VertexId, data: &mut (u32, u32), msg: &u32) {
        self.0.apply_message(vid, data, msg)
    }

    fn wants_update(&self, data: &(u32, u32), _iteration: u32) -> bool {
        data.1 < data.0 && data.1 % 3 != 1
    }
}

/// Blocks of at most this many edges, so one partition spans many blocks.
const BATCH_EDGES: usize = 32;

/// BFS from original vertex `source`.
fn bfs(source: VertexId) -> impl Fn(&dyn GraphStore) -> Bfs {
    move |s| Bfs { source: s.to_storage_id(source, &IoStats::new()).unwrap() }
}

/// Resident; eight partitions (the Sio read-ahead thread, prefetch, spill,
/// replay — and block skipping); and `without_dos_and_dm` over the dense
/// CSR store at eight partitions, where every message is buffered.
fn plans() -> [Plan; 3] {
    [Plan::Resident, Plan::Partitions(8), Plan::WithoutDosAndDm(8)]
}

/// Compare `P` as-is against [`Eager`]`<P>` on `plans`, whole and split
/// after two iterations. Returns the as-is uninterrupted run's activity
/// counters on eight partitions.
fn assert_equivalent<P: VertexProgram>(
    fx: &Fixture,
    name: &str,
    plans: &[Plan],
    make: &dyn Fn(&dyn GraphStore) -> P,
) -> ActivityCounters {
    let mut activity = ActivityCounters::default();
    for &plan in plans {
        for split_at in [None, Some(2)] {
            let lazy = run(fx, plan, make, 200, split_at);
            let eager = run(fx, plan, |s| Eager(make(s)), 200, split_at);
            let (run, eager_run) = (&lazy.run, &eager.run);
            let label = format!("{name} {plan:?} split_at={split_at:?}");
            assert!(run.converged, "{label}");
            // A resumed tail may start converged; the whole run must send.
            assert!(split_at.is_some() || run.messages_sent > 0, "{label}: nothing sent");
            assert_eq!(lazy.generations.is_empty(), split_at.is_none(), "{label}");
            assert_same(&label, &lazy, &eager);
            assert_eq!(eager_run.activity.passes_skipped, 0, "{label}: eager never skips");
            let (read, eager_read) = (run.io.bytes_read, eager_run.io.bytes_read);
            assert!(read <= eager_read, "{label}: skipping read more ({read} > {eager_read})");
            if (plan, split_at) == (Plan::Partitions(8), None) {
                activity = run.activity;
            }
        }
    }
    activity
}

#[test]
fn bfs_sssp_and_cc_are_unchanged_by_activity_skipping() {
    let edges = rmat(10, 6000, 5);
    // An original vertex id with out-edges.
    let source = edges[0].src;
    let fx = Fixture::new(edges.clone(), None).with_batch_edges(BATCH_EDGES);
    let weighted = Fixture::new(edges, Some(derive_weight)).with_batch_edges(BATCH_EDGES);
    let sssp = |s: &dyn GraphStore| {
        let stats = IoStats::new();
        Sssp {
            source: s.to_storage_id(source, &stats).unwrap(),
            new2old: Arc::new(s.original_ids(&stats).unwrap()),
        }
    };
    let bfs_activity = assert_equivalent(&fx, "bfs", &plans(), &bfs(source));
    assert_equivalent(&fx, "sssp", &plans(), &sssp);
    let sssp_w = assert_equivalent(&weighted, "weighted sssp", &plans(), &sssp);
    assert_equivalent(&fx, "cc", &plans(), &|_: &dyn GraphStore| Cc);
    // The mechanisms really ran: the 8-partition plan skipped passes and
    // adjacency, on the weighted image too.
    for act in [bfs_activity, sssp_w] {
        assert!(act.passes_skipped > 0 && act.adjacency_bytes_skipped > 0, "{act:?}");
    }
}

/// On the mid-pass fixture the MsgManager's cap is crossed inside a block,
/// so which messages spill is decided between two messages of one batch.
/// Skipping quiet blocks changes the batches, never the messages sent, so
/// every spill must fall at the same message as in the eager schedule.
#[test]
fn mid_pass_spills_are_unchanged_by_activity_skipping() {
    let edges = rmat(10, 16_000, 9);
    let source = edges[0].src;
    let fx = mid_pass_spill(edges);
    let vertices = fx.dos.meta().num_vertices;
    // CC keeps an 8-byte vertex and sends 4-byte messages.
    let cap = Plan::Partitions(8).message_cap(vertices, 8, 8);
    let cc = run(&fx, Plan::Partitions(8), |_| Cc, 200, None);
    assert_spills_mid_pass("cc", &cc.run, cap);
    assert_equivalent(&fx, "bfs mid-pass", &plans(), &bfs(source));
    let act = assert_equivalent(&fx, "cc mid-pass", &plans(), &|_: &dyn GraphStore| Cc);
    assert!(act.passes_skipped > 0 || act.adjacency_bytes_skipped > 0, "{act:?}");
}

/// A directed ring with a back edge per vertex: BFS from vertex 0 walks it,
/// and every hop wakes the next vertex — often inside a block the Sio
/// stream skipped because that vertex was quiet when the pass began.
fn ring() -> Fixture {
    let n = 1024u32;
    let edges = (0..n).flat_map(|i| [Edge::new(i, (i + 1) % n), Edge::new(i, i / 3)]).collect();
    Fixture::new(edges, None).with_batch_edges(BATCH_EDGES)
}

#[test]
fn a_vertex_woken_inside_a_skipped_block_is_read_back_and_updated() {
    let fx = ring();
    // Without dynamic messages the ring takes one iteration per hop; the
    // plans with them cross it in a few.
    let act = assert_equivalent(&fx, "ring bfs", &plans()[..2], &bfs(0));
    // The frontier crosses the whole ring in the first iteration, so only
    // the uninterrupted run sees it (a resumed tail is the quiet pass).
    assert!(act.gaps_reread > 0, "no gap was woken: {act:?}");
    assert!(act.adjacency_bytes_skipped > 0, "{act:?}");
}

#[test]
fn a_program_whose_wants_update_lies_is_caught() {
    let fx = ring();
    let liar = |s: &dyn GraphStore| Liar(bfs(0)(s));
    let plan = plans()[1];
    let lied = run(&fx, plan, liar, 200, None);
    let eager = run(&fx, plan, |s| Eager(liar(s)), 200, None);
    assert!(lied.run.converged && eager.run.converged);
    assert!(!differences(&lied, &eager).is_empty(), "skipping on a lie must change the outcome");
}
