//! PageRank for GraphZ — the paper's running example (Algorithms 3 & 4).

use graphz_core::{UpdateContext, VertexProgram};
use graphz_types::VertexId;

use crate::common::pr_rank;

/// PageRank: `VertexDataType` is `(rank, accumulated votes)`, the
/// `MessageDataType` is one vote share (paper Alg. 3).
pub struct PageRank {
    pub tolerance: f32,
}

impl VertexProgram for PageRank {
    type VertexData = (f32, f32); // (vval, votes)
    type Message = f32;

    fn init(&self, _vid: VertexId, _degree: u32) -> (f32, f32) {
        (1.0, 0.0)
    }

    fn update(&self, _vid: VertexId, data: &mut (f32, f32), ctx: &mut UpdateContext<'_, f32>) {
        if ctx.iteration() == 0 {
            ctx.mark_changed();
        } else {
            let new = pr_rank(data.1);
            if (new - data.0).abs() > self.tolerance {
                ctx.mark_changed();
            }
            data.0 = new;
        }
        data.1 = 0.0;
        let deg = ctx.out_degree();
        if deg > 0 {
            let share = data.0 / deg as f32;
            ctx.send_to_neighbors(share);
        }
    }

    fn apply_message(&self, _vid: VertexId, data: &mut (f32, f32), msg: &f32) {
        data.1 += msg;
    }
}
