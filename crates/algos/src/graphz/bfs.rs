//! Breadth-first search for GraphZ.

use graphz_core::{UpdateContext, VertexProgram};
use graphz_types::VertexId;

/// BFS: vertex data is `(adopted distance, best pending offer)`; a message
/// is a candidate distance folded with `min` — the canonical dynamic
/// message.
pub struct Bfs {
    /// Source vertex in *storage* id space (translate with
    /// `Engine::to_storage_id` before constructing).
    pub source: VertexId,
}

impl VertexProgram for Bfs {
    type VertexData = (u32, u32); // (dist, pending)
    type Message = u32;

    fn init(&self, vid: VertexId, _degree: u32) -> (u32, u32) {
        (u32::MAX, if vid == self.source { 0 } else { u32::MAX })
    }

    fn update(&self, _vid: VertexId, data: &mut (u32, u32), ctx: &mut UpdateContext<'_, u32>) {
        if data.1 < data.0 {
            data.0 = data.1;
            ctx.mark_changed();
            ctx.send_to_neighbors(data.0 + 1);
        }
    }

    fn apply_message(&self, _vid: VertexId, data: &mut (u32, u32), msg: &u32) {
        data.1 = data.1.min(*msg);
    }

    /// Only a vertex holding a better offer than its distance does anything.
    fn wants_update(&self, data: &(u32, u32), _iteration: u32) -> bool {
        data.1 < data.0
    }
}
