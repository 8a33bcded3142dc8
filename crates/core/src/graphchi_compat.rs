//! The expressiveness construction of paper §IV-E (Algorithms 5 & 6):
//! any GraphChi program can be converted into a GraphZ program.
//!
//! GraphChi programs communicate by *writing edge values* that the
//! destination later reads as in-edges. The construction emulates that with
//! dynamic messages: a message carries `(neighbor, edge_value)` — the paper's
//! `Edge` struct — and `apply_message` simply appends it to the destination's
//! in-edge list (`vertex.edges.append(msg.edge)`). No commutativity or
//! associativity is required of the fold, which is the point: GraphZ's
//! message model is at least as expressive as GraphChi's edge model.
//!
//! One Rust-specific adaptation: GraphZ vertex data must be fixed-size to be
//! spillable, so the emulated in-edge list is bounded by the const parameter
//! `N` (the maximum in-degree the program will observe). This preserves the
//! construction's semantics for any graph that respects the bound and keeps
//! the demonstration honest about its storage cost — which is exactly the
//! paper's criticism of static edge data: you pay for it whether you need it
//! or not.

use graphz_types::{FixedCodec, VertexId};

use crate::program::{UpdateContext, VertexProgram};

/// A GraphChi-style program: compute a new vertex value from the in-edge
/// values, then (optionally) write one value onto every out-edge.
pub trait GraphChiStyleProgram: Send + Sync + 'static {
    type VertexValue: FixedCodec + Default + Copy + PartialEq;
    type EdgeData: FixedCodec + Default + Copy;

    /// One GraphChi `update()`: `in_edges` is `(source, edge value)` for each
    /// in-edge written since this vertex last ran. Returns the new vertex
    /// value and, if `Some`, the value to write on every out-edge.
    fn update(
        &self,
        vid: VertexId,
        value: Self::VertexValue,
        in_edges: &[(VertexId, Self::EdgeData)],
        out_degree: u32,
        iteration: u32,
    ) -> (Self::VertexValue, Option<Self::EdgeData>);
}

/// Paper Alg. 5's `VertexDataType`: the real vertex value plus the emulated
/// in-edge list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompatVertex<V, E: Copy, const N: usize> {
    pub value: V,
    len: u32,
    edges: [(u32, E); N],
}

impl<V: Default, E: Copy + Default, const N: usize> Default for CompatVertex<V, E, N> {
    fn default() -> Self {
        CompatVertex { value: V::default(), len: 0, edges: [(0, E::default()); N] }
    }
}

impl<V, E: Copy, const N: usize> CompatVertex<V, E, N> {
    pub fn in_edges(&self) -> &[(u32, E)] {
        &self.edges[..self.len as usize]
    }

    fn push(&mut self, src: u32, data: E) {
        assert!(
            (self.len as usize) < N,
            "CompatVertex in-edge capacity {N} exceeded; raise N for this graph"
        );
        self.edges[self.len as usize] = (src, data);
        self.len += 1;
    }

    fn clear(&mut self) {
        self.len = 0;
    }
}

impl<V, E, const N: usize> FixedCodec for CompatVertex<V, E, N>
where
    V: FixedCodec + Copy,
    E: FixedCodec + Copy,
{
    const SIZE: usize = V::SIZE + 4 + N * (4 + E::SIZE);

    fn write_to(&self, buf: &mut [u8]) {
        self.value.write_to(buf);
        let mut at = V::SIZE;
        buf[at..at + 4].copy_from_slice(&self.len.to_le_bytes());
        at += 4;
        for (src, data) in &self.edges {
            buf[at..at + 4].copy_from_slice(&src.to_le_bytes());
            at += 4;
            data.write_to(&mut buf[at..]);
            at += E::SIZE;
        }
    }

    fn read_from(buf: &[u8]) -> Self {
        let value = V::read_from(buf);
        let mut at = V::SIZE;
        let len = graphz_types::codec::read_u32_le(&buf[at..]);
        at += 4;
        let edges = std::array::from_fn(|_| {
            let src = graphz_types::codec::read_u32_le(&buf[at..]);
            at += 4;
            let data = E::read_from(&buf[at..]);
            at += E::SIZE;
            (src, data)
        });
        CompatVertex { value, len, edges }
    }
}

/// Paper Alg. 6: the adapter that runs a [`GraphChiStyleProgram`] on the
/// GraphZ engine.
pub struct GraphChiAdapter<G, const N: usize> {
    inner: G,
}

impl<G, const N: usize> GraphChiAdapter<G, N> {
    pub fn new(inner: G) -> Self {
        GraphChiAdapter { inner }
    }
}

impl<G: GraphChiStyleProgram, const N: usize> VertexProgram for GraphChiAdapter<G, N> {
    type VertexData = CompatVertex<G::VertexValue, G::EdgeData, N>;
    // `MessageDataType { Edge edge }` — the edge the source would have
    // written in GraphChi.
    type Message = (u32, G::EdgeData);

    fn update(
        &self,
        vid: VertexId,
        data: &mut Self::VertexData,
        ctx: &mut UpdateContext<'_, Self::Message>,
    ) {
        let (new_value, out) =
            self.inner.update(vid, data.value, data.in_edges(), ctx.out_degree(), ctx.iteration());
        if new_value != data.value {
            ctx.mark_changed();
        }
        data.value = new_value;
        // The in-edges have been consumed, exactly like GraphChi clearing
        // its per-interval in-edge window.
        data.clear();
        if let Some(edge_val) = out {
            ctx.send_to_neighbors((vid, edge_val));
        }
    }

    fn apply_message(&self, _vid: VertexId, data: &mut Self::VertexData, msg: &Self::Message) {
        // `vertex.edges.append(msg.edge)` — no computation, preserving
        // GraphChi's semantics verbatim.
        data.push(msg.0, msg.1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::store::DosStore;
    use graphz_io::IoStats;
    use graphz_storage::{DosConverter, EdgeListFile};
    use graphz_types::{Edge, MemoryBudget};
    use std::sync::Arc;

    #[test]
    fn compat_vertex_codec_roundtrip() {
        let mut v =
            CompatVertex::<f32, f32, 4> { value: 2.5, ..CompatVertex::default() };
        v.push(7, 0.5);
        v.push(9, 1.5);
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), <CompatVertex<f32, f32, 4>>::SIZE);
        let back = <CompatVertex<f32, f32, 4>>::read_from(&bytes);
        assert_eq!(back.value, 2.5);
        assert_eq!(back.in_edges(), &[(7, 0.5), (9, 1.5)]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn capacity_overflow_is_loud() {
        let mut v: CompatVertex<u32, u32, 2> = CompatVertex::default();
        v.push(0, 0);
        v.push(1, 1);
        v.push(2, 2);
    }

    /// GraphChi-style PageRank, written against the edge model: read vote
    /// contributions off in-edges, write `rank / out_degree` on out-edges.
    struct ChiPageRank;

    impl GraphChiStyleProgram for ChiPageRank {
        type VertexValue = f32;
        type EdgeData = f32;

        fn update(
            &self,
            _vid: VertexId,
            _value: f32,
            in_edges: &[(VertexId, f32)],
            out_degree: u32,
            iteration: u32,
        ) -> (f32, Option<f32>) {
            let rank = if iteration == 0 {
                1.0
            } else {
                0.15 + 0.85 * in_edges.iter().map(|(_, w)| *w).sum::<f32>()
            };
            let out = if out_degree > 0 { Some(rank / out_degree as f32) } else { None };
            (rank, out)
        }
    }

    #[test]
    fn graphchi_emulation_computes_pagerank() {
        // 0 -> 1 -> 2 -> 0 triangle plus 0 -> 2 chord.
        let edges = vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0), Edge::new(0, 2)];
        let dir = graphz_io::ScratchDir::new("compat").unwrap();
        let stats = IoStats::new();
        let el = EdgeListFile::create(&dir.file("g.bin"), Arc::clone(&stats), edges).unwrap();
        let dos = DosConverter::new(MemoryBudget::from_kib(64), Arc::clone(&stats))
            .convert(&el, &dir.path().join("dos"))
            .unwrap();
        let mut engine = Engine::new(
            Box::new(DosStore::new(dos)),
            GraphChiAdapter::<ChiPageRank, 4>::new(ChiPageRank),
            EngineConfig::new(MemoryBudget::from_mib(1)),
            stats,
        )
        .unwrap();
        engine.run(30).unwrap();
        let values = engine.values_by_original_id().unwrap();
        let ranks: Vec<f32> = values.iter().map(|v| v.value).collect();

        // Reference fixed point of r = 0.15 + 0.85 * (in-contributions):
        //   r0 = 0.15 + 0.85 * r2        (2 has out-degree 1)
        //   r1 = 0.15 + 0.85 * r0 / 2
        //   r2 = 0.15 + 0.85 * (r0 / 2 + r1)
        // Solve by iteration for the expected values.
        let (mut r0, mut r1, mut r2) = (1.0f32, 1.0, 1.0);
        for _ in 0..60 {
            let n0 = 0.15 + 0.85 * r2;
            let n1 = 0.15 + 0.85 * r0 / 2.0;
            let n2 = 0.15 + 0.85 * (r0 / 2.0 + r1);
            (r0, r1, r2) = (n0, n1, n2);
        }
        assert!((ranks[0] - r0).abs() < 1e-2, "{} vs {r0}", ranks[0]);
        assert!((ranks[1] - r1).abs() < 1e-2, "{} vs {r1}", ranks[1]);
        assert!((ranks[2] - r2).abs() < 1e-2, "{} vs {r2}", ranks[2]);
    }
}
