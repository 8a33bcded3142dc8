//! Single-source shortest paths for GraphZ.

use std::sync::Arc;

use graphz_core::{UpdateContext, VertexProgram};
use graphz_types::VertexId;

use crate::common::sssp_weight;

/// Bellman–Ford relaxation over edge weights.
///
/// When the graph store carries a `weights.bin` (DOS converted
/// `with_weights`), the stored per-edge weights are streamed alongside the
/// adjacency lists and used directly. Otherwise weights are derived on the
/// fly from the *original* endpoint ids — identical numbers, because
/// weighted conversion stores exactly `derive_weight(old_src, old_dst)` —
/// which requires the resident `new -> old` id map (4 bytes/vertex).
pub struct Sssp {
    /// Source in storage-id space.
    pub source: VertexId,
    /// Storage id -> original id (fallback weight derivation).
    pub new2old: Arc<Vec<VertexId>>,
}

impl VertexProgram for Sssp {
    type VertexData = (f32, f32); // (dist, pending)
    type Message = f32;

    fn init(&self, vid: VertexId, _degree: u32) -> (f32, f32) {
        (f32::INFINITY, if vid == self.source { 0.0 } else { f32::INFINITY })
    }

    fn update(&self, vid: VertexId, data: &mut (f32, f32), ctx: &mut UpdateContext<'_, f32>) {
        if data.1 < data.0 {
            data.0 = data.1;
            ctx.mark_changed();
            if ctx.has_weights() {
                let weights = ctx.neighbor_weights();
                for (i, &n) in ctx.neighbors().iter().enumerate() {
                    ctx.send(n, data.0 + weights[i]);
                }
            } else {
                let src_orig = self.new2old[vid as usize];
                for &n in ctx.neighbors() {
                    let w = sssp_weight(src_orig, self.new2old[n as usize]);
                    ctx.send(n, data.0 + w);
                }
            }
        }
    }

    fn apply_message(&self, _vid: VertexId, data: &mut (f32, f32), msg: &f32) {
        data.1 = data.1.min(*msg);
    }

    /// Only a vertex holding a shorter offer than its distance relaxes.
    fn wants_update(&self, data: &(f32, f32), _iteration: u32) -> bool {
        data.1 < data.0
    }
}
