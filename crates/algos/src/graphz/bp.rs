//! Two-state loopy belief propagation for GraphZ.

use std::sync::Arc;

use graphz_core::{UpdateContext, VertexProgram};
use graphz_types::prelude::*;

use crate::common::{bp_combine, bp_message, bp_prior};

/// Vertex state: current belief plus two parity-indexed accumulators of
/// incoming log-messages (this round's and next round's).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BpData {
    pub belief: [f32; 2],
    acc: [[f32; 2]; 2],
}

impl FixedCodec for BpData {
    const SIZE: usize = 24;

    fn write_to(&self, buf: &mut [u8]) {
        let vals =
            [self.belief[0], self.belief[1], self.acc[0][0], self.acc[0][1], self.acc[1][0], self.acc[1][1]];
        for (i, v) in vals.iter().enumerate() {
            buf[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
    }

    fn read_from(buf: &[u8]) -> Self {
        let f = |i: usize| f32::from_le_bytes(buf[i * 4..i * 4 + 4].try_into().unwrap());
        BpData { belief: [f(0), f(1)], acc: [[f(2), f(3)], [f(4), f(5)]] }
    }
}

/// Loopy BP over `rounds` synchronized message exchanges.
///
/// Messages carry an iteration *parity tag* so that, even on this
/// asynchronous engine, a message is folded into the accumulator of the
/// round it belongs to — giving trajectories comparable across all engines
/// (see the crate docs on cross-engine semantics).
pub struct Bp {
    pub rounds: u32,
    /// Storage id -> original id, for the per-vertex prior.
    pub new2old: Arc<Vec<VertexId>>,
}

impl VertexProgram for Bp {
    type VertexData = BpData;
    type Message = (f32, f32, u32); // (log m0, log m1, parity)

    fn init(&self, vid: VertexId, _degree: u32) -> BpData {
        BpData { belief: bp_prior(self.new2old[vid as usize]), acc: [[0.0; 2]; 2] }
    }

    fn update(&self, vid: VertexId, data: &mut BpData, ctx: &mut UpdateContext<'_, Self::Message>) {
        let k = ctx.iteration();
        let par = (k % 2) as usize;
        let a = std::mem::take(&mut data.acc[par]);
        if k > 0 {
            data.belief = bp_combine(bp_prior(self.new2old[vid as usize]), a);
        }
        if k < self.rounds {
            ctx.mark_changed();
            let m = bp_message(data.belief);
            let tag = (k + 1) % 2;
            ctx.send_to_neighbors((m[0], m[1], tag));
        }
    }

    fn apply_message(&self, _vid: VertexId, data: &mut BpData, msg: &Self::Message) {
        let acc = &mut data.acc[msg.2 as usize];
        acc[0] += msg.0;
        acc[1] += msg.1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bp_data_codec_roundtrip() {
        let d = BpData { belief: [0.25, 0.75], acc: [[1.5, -0.5], [0.0, 2.0]] };
        let bytes = d.to_bytes();
        assert_eq!(bytes.len(), BpData::SIZE);
        assert_eq!(BpData::read_from(&bytes), d);
    }
}
