//! Fixed-size binary codec for every record that crosses the disk boundary.
//!
//! Out-of-core engines live and die by being able to compute the byte offset
//! of record *i* as `i * SIZE` — the degree-ordered-storage index (paper
//! Eq. 1) is exactly such a computation. [`FixedCodec`] captures that
//! contract: a type with a compile-time size and infallible little-endian
//! encode/decode into exactly that many bytes.

use crate::{Edge, VertexId};

/// A record with a fixed on-disk size and infallible little-endian encoding.
///
/// Implementations must uphold `SIZE > 0` and that `write_to` fills exactly
/// `SIZE` bytes. Encoding is little-endian so files are portable across the
/// x86-64/aarch64 machines this workload targets.
pub trait FixedCodec: Sized + Clone + Send + 'static {
    /// Exact encoded size in bytes.
    const SIZE: usize;

    /// Encode `self` into `buf[..Self::SIZE]`.
    ///
    /// # Panics
    /// Panics if `buf.len() < Self::SIZE`.
    fn write_to(&self, buf: &mut [u8]);

    /// Decode a value from `buf[..Self::SIZE]`.
    ///
    /// # Panics
    /// Panics if `buf.len() < Self::SIZE`.
    fn read_from(buf: &[u8]) -> Self;

    /// Encode into a fresh vector (convenience for tests and small writers).
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = vec![0u8; Self::SIZE];
        self.write_to(&mut buf);
        buf
    }
}

macro_rules! impl_fixed_codec_int {
    ($($t:ty),*) => {$(
        impl FixedCodec for $t {
            const SIZE: usize = std::mem::size_of::<$t>();

            #[inline]
            fn write_to(&self, buf: &mut [u8]) {
                buf[..Self::SIZE].copy_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn read_from(buf: &[u8]) -> Self {
                <$t>::from_le_bytes(buf[..Self::SIZE].try_into().unwrap())
            }
        }
    )*};
}

impl_fixed_codec_int!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl FixedCodec for () {
    const SIZE: usize = 1; // zero-size records would make offsets degenerate

    #[inline]
    fn write_to(&self, buf: &mut [u8]) {
        buf[0] = 0;
    }

    #[inline]
    fn read_from(_buf: &[u8]) -> Self {}
}

macro_rules! impl_fixed_codec_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: FixedCodec),+> FixedCodec for ($($name,)+) {
            const SIZE: usize = 0 $(+ $name::SIZE)+;

            #[inline]
            fn write_to(&self, buf: &mut [u8]) {
                let mut at = 0;
                $(
                    self.$idx.write_to(&mut buf[at..]);
                    at += $name::SIZE;
                )+
                let _ = at;
            }

            #[inline]
            fn read_from(buf: &[u8]) -> Self {
                let mut at = 0;
                ($(
                    {
                        let v = $name::read_from(&buf[at..]);
                        at += $name::SIZE;
                        let _ = at;
                        v
                    },
                )+)
            }
        }
    };
}

impl_fixed_codec_tuple!(A: 0);
impl_fixed_codec_tuple!(A: 0, B: 1);
impl_fixed_codec_tuple!(A: 0, B: 1, C: 2);
impl_fixed_codec_tuple!(A: 0, B: 1, C: 2, D: 3);

impl<T: FixedCodec + Copy, const N: usize> FixedCodec for [T; N] {
    const SIZE: usize = T::SIZE * N;

    #[inline]
    fn write_to(&self, buf: &mut [u8]) {
        for (i, v) in self.iter().enumerate() {
            v.write_to(&mut buf[i * T::SIZE..]);
        }
    }

    #[inline]
    fn read_from(buf: &[u8]) -> Self {
        std::array::from_fn(|i| T::read_from(&buf[i * T::SIZE..]))
    }
}

impl FixedCodec for Edge {
    const SIZE: usize = 8;

    #[inline]
    fn write_to(&self, buf: &mut [u8]) {
        buf[..4].copy_from_slice(&self.src.to_le_bytes());
        buf[4..8].copy_from_slice(&self.dst.to_le_bytes());
    }

    #[inline]
    fn read_from(buf: &[u8]) -> Self {
        Edge {
            src: VertexId::from_le_bytes(buf[..4].try_into().unwrap()),
            dst: VertexId::from_le_bytes(buf[4..8].try_into().unwrap()),
        }
    }
}

/// Decode a little-endian `u32` from the first 4 bytes of `buf` without the
/// `try_into().unwrap()` idiom (callers in `crates/core`/`crates/io` are
/// panic-token-free by lint rule `no-unwrap`; bounds are still checked by
/// the slice index).
#[inline]
pub fn read_u32_le(buf: &[u8]) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[..4]);
    u32::from_le_bytes(b)
}

/// Decode a little-endian `u64` from the first 8 bytes of `buf`; see
/// [`read_u32_le`].
#[inline]
pub fn read_u64_le(buf: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[..8]);
    u64::from_le_bytes(b)
}

/// Encode a whole slice of records into a byte vector.
pub fn encode_slice<T: FixedCodec>(records: &[T]) -> Vec<u8> {
    let mut out = vec![0u8; records.len() * T::SIZE];
    for (i, r) in records.iter().enumerate() {
        r.write_to(&mut out[i * T::SIZE..]);
    }
    out
}

/// Decode a byte slice (whose length must be a multiple of `T::SIZE`) into
/// records.
pub fn decode_slice<T: FixedCodec>(bytes: &[u8]) -> Vec<T> {
    let mut out = Vec::new();
    decode_into(bytes, &mut out);
    out
}

/// Decode a byte slice into an existing vector, reusing its capacity.
///
/// The vector is cleared first; after the call it holds exactly
/// `bytes.len() / T::SIZE` records. This is the allocation-free variant of
/// [`decode_slice`] for hot paths that recycle buffers.
pub fn decode_into<T: FixedCodec>(bytes: &[u8], out: &mut Vec<T>) {
    let records = bytes.chunks_exact(T::SIZE);
    // ipa:allow(panic-freedom) — once per call: a partial record is the caller's bug, and the Sio reader sizes its buffer in whole records
    assert!(
        records.remainder().is_empty(),
        "byte length {} is not a multiple of record size {}",
        bytes.len(),
        T::SIZE
    );
    out.clear();
    // `ChunksExact` knows its length, so `extend` reserves room for every
    // record up front.
    out.extend(records.map(T::read_from));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: FixedCodec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), T::SIZE);
        assert_eq!(T::read_from(&bytes), v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(-123i32);
        roundtrip(3.5f32);
        roundtrip(-0.25f64);
        roundtrip(200u8);
        roundtrip(0xBEEFu16);
    }

    #[test]
    fn tuple_roundtrips() {
        roundtrip((1u32, 2u64));
        roundtrip((1u32, 2.5f32, 3u8));
        roundtrip((1u32, 2u32, 3u32, 4u32));
        assert_eq!(<(u32, u64)>::SIZE, 12);
    }

    #[test]
    fn array_roundtrips() {
        roundtrip([1.0f32, 2.0, 3.0]);
        assert_eq!(<[f32; 3]>::SIZE, 12);
    }

    #[test]
    fn edge_roundtrip_is_little_endian() {
        let e = Edge::new(1, 0x0102_0304);
        let b = e.to_bytes();
        assert_eq!(b, vec![1, 0, 0, 0, 0x04, 0x03, 0x02, 0x01]);
        roundtrip(e);
    }

    #[test]
    fn unit_codec_occupies_one_byte() {
        assert_eq!(<()>::SIZE, 1);
        roundtrip(());
    }

    #[test]
    fn slice_encode_decode() {
        let recs: Vec<u32> = (0..100).collect();
        let bytes = encode_slice(&recs);
        assert_eq!(bytes.len(), 400);
        assert_eq!(decode_slice::<u32>(&bytes), recs);
    }

    #[test]
    #[should_panic(expected = "multiple of record size")]
    fn decode_rejects_ragged_input() {
        decode_slice::<u32>(&[1, 2, 3]);
    }

    #[test]
    fn decode_into_reuses_capacity() {
        let recs: Vec<u32> = (0..100).collect();
        let bytes = encode_slice(&recs);
        let mut out: Vec<u32> = Vec::with_capacity(256);
        out.push(7); // stale content must be cleared
        let cap = out.capacity();
        decode_into(&bytes, &mut out);
        assert_eq!(out, recs);
        assert_eq!(out.capacity(), cap);
        decode_into(&[], &mut out);
        assert!(out.is_empty());
    }
}
