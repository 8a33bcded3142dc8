//! A definitional oracle for ordered dynamic messages (paper §IV-C): a plain
//! in-memory interpreter of [`VertexProgram`] that follows the stated order
//! literally, over the partition ranges the engine runs. No spill, no
//! stream, no skipping: every partition's pass in every iteration
//!
//! 1. replays the partition's queue in send order,
//! 2. updates its vertices in ascending id, each only if it wants an update,
//! 3. applies a message to a vertex inside the partition at once (when
//!    dynamic messages are on) and queues every other message for its
//!    destination's partition,
//! 4. expands a broadcast neighbor by neighbor, in neighbor order.
//!
//! What the engine computes must equal what this computes, bit for bit, on
//! every plan with the same partition ranges: the values, the counters, and
//! the messages still queued when the run ends, in order.

use std::collections::VecDeque;

use graphz_core::{GraphStore, Outgoing, UpdateContext, VertexProgram};
use graphz_io::IoStats;
use graphz_types::{codec, VertexId};

/// A graph as a store serves it: out-neighbors (and weights, if stored) in
/// storage order.
pub struct Adjacency {
    /// `offsets[v]..offsets[v + 1]` indexes vertex `v`'s edges.
    offsets: Vec<usize>,
    edges: Vec<VertexId>,
    weights: Vec<f32>,
}

impl Adjacency {
    /// Read `store`'s whole adjacency into memory.
    pub fn of(store: &dyn GraphStore) -> Adjacency {
        let n = store.num_vertices() as VertexId;
        let (start_edge, degrees) = store.partition_index(0, n, &IoStats::new()).unwrap();
        let mut offsets = vec![0usize];
        for d in &degrees {
            offsets.push(offsets.last().unwrap() + *d as usize);
        }
        let span = start_edge as usize * 4..(start_edge as usize + offsets[n as usize]) * 4;
        let read = |path: std::path::PathBuf| std::fs::read(path).unwrap()[span.clone()].to_vec();
        let edges = codec::decode_slice(&read(store.edges_path()));
        let weights = store.weights_path().map_or_else(Vec::new, |p| codec::decode_slice(&read(p)));
        Adjacency { offsets, edges, weights }
    }

    pub fn num_vertices(&self) -> u64 {
        self.offsets.len() as u64 - 1
    }

    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.edges[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    fn weights(&self, v: VertexId) -> &[f32] {
        if self.weights.is_empty() {
            &[]
        } else {
            &self.weights[self.offsets[v as usize]..self.offsets[v as usize + 1]]
        }
    }
}

/// What the interpreter computed, in the engine's `RunSummary` terms.
pub struct Interpreted<V> {
    /// Final values in storage order.
    pub values: Vec<V>,
    pub iterations: u32,
    pub converged: bool,
    pub messages_sent: u64,
    pub dynamic_applied: u64,
    pub buffered: u64,
    /// Per partition, the messages queued for it when the run ended, in
    /// send order, encoded as the MsgManager spills them.
    pub pending: Vec<Vec<u8>>,
}

/// Run `program` over `graph` to convergence or `max_iterations`, one
/// partition of `ranges` (ascending, covering every vertex) at a time.
pub fn interpret<P: VertexProgram>(
    program: &P,
    graph: &Adjacency,
    ranges: &[(VertexId, VertexId)],
    dynamic: bool,
    max_iterations: u32,
) -> Interpreted<P::VertexData> {
    let n = graph.num_vertices();
    let mut values: Vec<P::VertexData> =
        (0..n as VertexId).map(|v| program.init(v, graph.neighbors(v).len() as u32)).collect();
    let mut queues: Vec<VecDeque<(VertexId, P::Message)>> =
        ranges.iter().map(|_| VecDeque::new()).collect();
    let partition_of = |dst: VertexId| {
        ranges.iter().position(|&(a, b)| (a..b).contains(&dst)).expect("message out of range")
    };
    let mut out = Interpreted {
        values: Vec::new(),
        iterations: 0,
        converged: false,
        messages_sent: 0,
        dynamic_applied: 0,
        buffered: 0,
        pending: Vec::new(),
    };
    for iteration in 0..max_iterations {
        out.iterations = iteration + 1;
        let mut changed = 0u64;
        for (p, &(a, b)) in ranges.iter().enumerate() {
            while let Some((dst, msg)) = queues[p].pop_front() {
                program.apply_message(dst, &mut values[dst as usize], &msg);
            }
            for v in a..b {
                if !program.wants_update(&values[v as usize], iteration) {
                    continue;
                }
                let (neighbors, weights) = (graph.neighbors(v), graph.weights(v));
                let mut outbox = Vec::new();
                let mut ctx = UpdateContext::new(iteration, n, neighbors, weights, &mut outbox);
                program.update(v, &mut values[v as usize], &mut ctx);
                changed += u64::from(ctx.changed());
                let mut sends = Vec::new();
                for entry in outbox {
                    match entry {
                        Outgoing::To(dst, msg) => sends.push((dst, msg)),
                        Outgoing::Neighbors(msg) => {
                            sends.extend(neighbors.iter().map(|&dst| (dst, msg.clone())))
                        }
                    }
                }
                for (dst, msg) in sends {
                    out.messages_sent += 1;
                    let q = partition_of(dst);
                    if dynamic && q == p {
                        program.apply_message(dst, &mut values[dst as usize], &msg);
                        out.dynamic_applied += 1;
                    } else {
                        queues[q].push_back((dst, msg));
                        out.buffered += 1;
                    }
                }
            }
        }
        if changed == 0 {
            out.converged = true;
            break;
        }
    }
    out.values = values;
    out.pending = queues.into_iter().map(|q| codec::encode_slice(&Vec::from(q))).collect();
    out
}
