//! Connected components for GraphZ.

use graphz_core::{UpdateContext, VertexProgram};
use graphz_types::VertexId;

/// Minimum-label propagation. Labels live in storage-id space; the runner
/// canonicalizes them afterwards (`common::canonicalize_labels`). Run on a
/// symmetrized graph for undirected semantics.
pub struct Cc;

impl VertexProgram for Cc {
    type VertexData = (u32, u32); // (label, pending)
    type Message = u32;

    fn init(&self, vid: VertexId, _degree: u32) -> (u32, u32) {
        (vid, vid)
    }

    fn update(&self, _vid: VertexId, data: &mut (u32, u32), ctx: &mut UpdateContext<'_, u32>) {
        let mut announce = false;
        if ctx.iteration() == 0 {
            // Every vertex announces its initial label once.
            ctx.mark_changed();
            announce = true;
        }
        if data.1 < data.0 {
            data.0 = data.1;
            ctx.mark_changed();
            announce = true;
        }
        if announce {
            ctx.send_to_neighbors(data.0);
        }
    }

    fn apply_message(&self, _vid: VertexId, data: &mut (u32, u32), msg: &u32) {
        data.1 = data.1.min(*msg);
    }

    /// Every vertex announces in iteration 0; after that only a vertex
    /// holding a smaller pending label does anything.
    fn wants_update(&self, data: &(u32, u32), iteration: u32) -> bool {
        iteration == 0 || data.1 < data.0
    }
}
