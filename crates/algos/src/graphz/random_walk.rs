//! Random-walk visit mass for GraphZ.

use graphz_core::{UpdateContext, VertexProgram};
use graphz_types::VertexId;

/// Walker mass diffusion: every vertex starts with one unit of walker mass
/// which splits uniformly over its out-edges each round (dead ends absorb).
/// `visits` integrates the mass seen over `rounds` rounds.
///
/// Messages carry a parity tag (like [`crate::graphz::Bp`]) so one round of
/// movement per iteration is preserved under asynchronous execution and the
/// totals match the other engines exactly.
pub struct RandomWalk {
    pub rounds: u32,
}

impl VertexProgram for RandomWalk {
    type VertexData = (f32, f32, f32); // (visits, bucket even, bucket odd)
    type Message = (f32, u32); // (mass, parity)

    fn init(&self, _vid: VertexId, _degree: u32) -> (f32, f32, f32) {
        (0.0, 1.0, 0.0) // one walker's mass, arriving at round 0
    }

    fn update(
        &self,
        _vid: VertexId,
        data: &mut (f32, f32, f32),
        ctx: &mut UpdateContext<'_, (f32, u32)>,
    ) {
        let k = ctx.iteration();
        if k >= self.rounds {
            return;
        }
        ctx.mark_changed();
        let mass = if k % 2 == 0 { std::mem::take(&mut data.1) } else { std::mem::take(&mut data.2) };
        data.0 += mass;
        let deg = ctx.out_degree();
        if deg > 0 && mass != 0.0 {
            let share = mass / deg as f32;
            let tag = (k + 1) % 2;
            ctx.send_to_neighbors((share, tag));
        }
    }

    fn apply_message(
        &self,
        _vid: VertexId,
        data: &mut (f32, f32, f32),
        msg: &(f32, u32),
    ) {
        if msg.1 == 0 {
            data.1 += msg.0;
        } else {
            data.2 += msg.0;
        }
    }
}
