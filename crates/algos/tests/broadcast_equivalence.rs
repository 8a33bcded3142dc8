//! `UpdateContext::send_to_neighbors(msg)` is exactly
//! `for &n in ctx.neighbors() { ctx.send(n, msg) }`: the same messages in
//! the same order, whichever plan runs them. The test program folds
//! messages with a non-commuting `d * 31 + msg`, so any reordering — within
//! a broadcast, or between a broadcast and the point-to-point sends around
//! it — changes the final bits. Compared per plan: final values, every
//! `RunSummary` message counter and, for a checkpoint/resume split run, the
//! bytes of every checkpoint generation — whose spilled message files record
//! the send order even between messages to different vertices.
//!
//! Also here: a send to a vertex id outside the graph is a typed
//! `GraphError::Algorithm` from `Engine::run`, never a panic, on every plan.

mod common;

use common::{assert_same, rmat, run, Fixture, Plan};
use graphz_core::{UpdateContext, VertexProgram};
use graphz_types::{GraphError, VertexId};

/// What one `update` sends.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// One message to every out-neighbor.
    Pure,
    /// A send to itself, a broadcast, a send to the next vertex id, and a
    /// second broadcast — in that order.
    Mixed,
}

struct Fold {
    shape: Shape,
    /// Broadcast with `send_to_neighbors` instead of a per-edge `send` loop.
    broadcast: bool,
    rounds: u32,
}

impl Fold {
    fn to_neighbors(&self, ctx: &mut UpdateContext<'_, u64>, msg: u64) {
        if self.broadcast {
            ctx.send_to_neighbors(msg);
        } else {
            for &n in ctx.neighbors() {
                ctx.send(n, msg);
            }
        }
    }
}

impl VertexProgram for Fold {
    type VertexData = u64;
    type Message = u64;

    fn init(&self, vid: VertexId, degree: u32) -> u64 {
        u64::from(vid) * 7 + u64::from(degree)
    }

    fn update(&self, vid: VertexId, data: &mut u64, ctx: &mut UpdateContext<'_, u64>) {
        if ctx.iteration() >= self.rounds {
            return;
        }
        ctx.mark_changed();
        let base = data.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(ctx.iteration());
        match self.shape {
            Shape::Pure => self.to_neighbors(ctx, base),
            Shape::Mixed => {
                ctx.send(vid, base ^ 1);
                self.to_neighbors(ctx, base ^ 2);
                let next = (u64::from(vid) + 1) % ctx.num_vertices();
                ctx.send(next as VertexId, base ^ 3);
                self.to_neighbors(ctx, base ^ 4);
            }
        }
    }

    fn apply_message(&self, _vid: VertexId, data: &mut u64, msg: &u64) {
        *data = data.wrapping_mul(31).wrapping_add(*msg);
    }
}

/// Sends one stray message past the last vertex id on top of a broadcast.
struct Stray;

impl VertexProgram for Stray {
    type VertexData = u64;
    type Message = u64;

    fn update(&self, vid: VertexId, _data: &mut u64, ctx: &mut UpdateContext<'_, u64>) {
        ctx.mark_changed();
        ctx.send_to_neighbors(1);
        if vid == 0 {
            ctx.send(ctx.num_vertices() as VertexId, 1);
        }
    }

    fn apply_message(&self, _vid: VertexId, data: &mut u64, msg: &u64) {
        *data += msg;
    }
}

/// The plans compared, with the partition count each must yield.
fn plans() -> [Plan; 3] {
    [Plan::Resident, Plan::Partitions(8), Plan::WithoutDosAndDm(8)]
}

const ROUNDS: u32 = 4;

#[test]
fn broadcast_matches_per_edge_sends_on_every_plan() {
    let fx = Fixture::new(rmat(8, 2000, 11), None);
    for plan in plans() {
        for shape in [Shape::Pure, Shape::Mixed] {
            for split_at in [None, Some(2)] {
                let outcome = |broadcast| {
                    run(&fx, plan, |_| Fold { shape, broadcast, rounds: ROUNDS }, 100, split_at)
                };
                let (per_edge, broadcast) = (outcome(false), outcome(true));
                let label = format!("{plan:?} {shape:?} split_at={split_at:?}");
                let counters = &per_edge.run;
                assert!(counters.converged, "{label}");
                assert!(counters.messages_sent > 0, "{label}: nothing sent");
                assert_eq!(per_edge.generations.is_empty(), split_at.is_none(), "{label}");
                assert_same(&label, &per_edge, &broadcast);
                match plan {
                    Plan::Resident => assert_eq!(counters.buffered, 0, "{label}"),
                    Plan::WithoutDosAndDm(_) => assert_eq!(counters.dynamic_applied, 0, "{label}"),
                    _ => assert!(counters.spilled > 0 && counters.replayed > 0, "{label}"),
                }
            }
        }
    }
}

#[test]
fn out_of_range_send_is_a_typed_error_not_a_panic() {
    let fx = Fixture::new(rmat(8, 2000, 11), None);
    for plan in plans() {
        match fx.engine(plan, &|_| Stray, None).run(3) {
            Err(GraphError::Algorithm(m)) => {
                assert!(m.contains("1 message(s)") && m.contains("num_vertices"), "{plan:?}: {m}")
            }
            other => panic!("{plan:?}: expected GraphError::Algorithm, got {other:?}"),
        }
    }
}
