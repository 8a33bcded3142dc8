//! The GraphZ programming model (paper §IV).
//!
//! Users supply a `VertexDataType`, a `MessageDataType`, an `update()`
//! function and an `apply_message()` function (paper Algorithms 1–2). The
//! runtime iterates vertices in storage order calling `update()`, and runs
//! `apply_message()` on each message — immediately when the destination is
//! memory-resident, or when its partition next loads otherwise.

use graphz_types::{FixedCodec, VertexId};

/// A vertex-centric GraphZ program.
///
/// # Ordering guarantee (paper §IV-C)
///
/// Within every iteration the runtime calls `update()` in ascending storage
/// id, and all messages emitted while updating vertex `v` are applied before
/// any vertex `w > v` in the same partition is updated. Given the same graph
/// and program, every execution performs the identical sequence of
/// operations regardless of thread count. A
/// [`send_to_neighbors`](UpdateContext::send_to_neighbors) broadcast counts
/// as one [`send`](UpdateContext::send) per out-neighbor, in neighbor order,
/// at the point in the `update()` where it was called.
pub trait VertexProgram: Send + Sync + 'static {
    /// Per-vertex resident state. Spilled to disk between partition loads,
    /// hence the [`FixedCodec`] bound.
    type VertexData: FixedCodec + Default;
    /// Message payload.
    type Message: FixedCodec;

    /// Initial state for vertex `vid` (storage id) with out-degree `degree`.
    fn init(&self, _vid: VertexId, _degree: u32) -> Self::VertexData {
        Self::VertexData::default()
    }

    /// Per-iteration vertex update: read/adjust the vertex value, then
    /// optionally send messages to out-neighbors via [`UpdateContext::send`]
    /// or [`UpdateContext::send_to_neighbors`].
    fn update(&self, vid: VertexId, data: &mut Self::VertexData, ctx: &mut UpdateContext<'_, Self::Message>);

    /// Fold one message into the destination's state. This is the
    /// computation a *dynamic message* carries; it is usually a small
    /// commutative/associative fold (`min`, `+`, append — paper Alg. 2) but
    /// does not have to be.
    fn apply_message(&self, vid: VertexId, data: &mut Self::VertexData, msg: &Self::Message);

    /// Whether `update()` on a vertex holding `data` could do anything in
    /// `iteration`. The default, `true`, is always safe.
    ///
    /// # Contract
    ///
    /// Returning `false` promises that `update()` would leave `data`
    /// unchanged, send nothing and not call
    /// [`mark_changed`](UpdateContext::mark_changed) — and that the answer
    /// stays `false` for every later iteration until a message is applied to
    /// the vertex. The engine relies on it to move fewer bytes: a partition
    /// with no pending messages and no vertex that wants an update is not
    /// loaded, streamed or flushed, and the Sio stream seeks past every
    /// adjacency block whose vertices are all quiet.
    /// Results stay bit-identical to calling `update()` everywhere only if
    /// the promise holds; a program that lies loses updates.
    fn wants_update(&self, _data: &Self::VertexData, _iteration: u32) -> bool {
        true
    }
}

/// One entry of a vertex's outbox, in send order.
#[derive(Debug, PartialEq)]
pub(crate) enum Outgoing<M> {
    /// [`UpdateContext::send`]: one message to one vertex.
    To(VertexId, M),
    /// [`UpdateContext::send_to_neighbors`]: the same message to every
    /// out-neighbor of the sender, expanded in neighbor order when routed.
    Neighbors(M),
}

/// Everything an `update()` call may observe and do.
pub struct UpdateContext<'a, M> {
    pub(crate) iteration: u32,
    pub(crate) num_vertices: u64,
    pub(crate) neighbors: &'a [VertexId],
    pub(crate) weights: &'a [f32],
    pub(crate) outbox: &'a mut Vec<Outgoing<M>>,
    pub(crate) changed: bool,
}

impl<'a, M> UpdateContext<'a, M> {
    /// Current iteration (0-based).
    #[inline]
    pub fn iteration(&self) -> u32 {
        self.iteration
    }

    /// Total vertices in the graph.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Out-neighbors of the vertex being updated (storage ids).
    #[inline]
    pub fn neighbors(&self) -> &'a [VertexId] {
        self.neighbors
    }

    /// Out-degree of the vertex being updated.
    #[inline]
    pub fn out_degree(&self) -> u32 {
        self.neighbors.len() as u32
    }

    /// Whether per-edge weights accompany this vertex's neighbor list
    /// (always false for a vertex with no out-edges — there is nothing to
    /// weight).
    #[inline]
    pub fn has_weights(&self) -> bool {
        !self.weights.is_empty()
    }

    /// Per-edge weights parallel to [`neighbors`](Self::neighbors); empty
    /// for unweighted graphs.
    #[inline]
    pub fn neighbor_weights(&self) -> &'a [f32] {
        self.weights
    }

    /// Send `msg` to `dst`. The runtime intercepts it (paper Alg. 7): if
    /// `dst` is in the active partition and dynamic messages are enabled it
    /// is applied as soon as this `update()` returns; otherwise the
    /// MsgManager buffers it for `dst`'s partition. A `dst` outside
    /// `0..num_vertices()` makes [`Engine::run`](crate::Engine::run) fail
    /// with [`GraphError::Algorithm`](graphz_types::GraphError::Algorithm)
    /// at the partition barrier.
    #[inline]
    pub fn send(&mut self, dst: VertexId, msg: M) {
        self.outbox.push(Outgoing::To(dst, msg));
    }

    /// Send `msg` to every out-neighbor: exactly
    /// `for &n in ctx.neighbors() { ctx.send(n, msg.clone()) }` — the same
    /// messages in the same order — but stored as one outbox entry that the
    /// runtime expands straight into apply-or-buffer per neighbor.
    #[inline]
    pub fn send_to_neighbors(&mut self, msg: M) {
        self.outbox.push(Outgoing::Neighbors(msg));
    }

    /// Declare that this vertex's observable state changed this iteration.
    /// The engine converges (stops early) after an iteration in which no
    /// vertex declared a change.
    #[inline]
    pub fn mark_changed(&mut self) {
        self.changed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_accessors_and_outbox() {
        let neighbors = [3u32, 5, 9];
        let mut outbox: Vec<Outgoing<f32>> = Vec::new();
        let weights = [1.5f32, 2.0, 2.5];
        let mut ctx = UpdateContext {
            iteration: 2,
            num_vertices: 10,
            neighbors: &neighbors,
            weights: &weights,
            outbox: &mut outbox,
            changed: false,
        };
        assert!(ctx.has_weights());
        assert_eq!(ctx.neighbor_weights(), &[1.5, 2.0, 2.5]);
        assert_eq!(ctx.iteration(), 2);
        assert_eq!(ctx.num_vertices(), 10);
        assert_eq!(ctx.out_degree(), 3);
        assert_eq!(ctx.neighbors(), &[3, 5, 9]);
        ctx.send(3, 1.5);
        ctx.send_to_neighbors(0.5);
        ctx.send(5, 2.5);
        ctx.mark_changed();
        assert!(ctx.changed);
        assert_eq!(
            outbox,
            vec![Outgoing::To(3, 1.5), Outgoing::Neighbors(0.5), Outgoing::To(5, 2.5)]
        );
    }
}
