//! Checked integer conversions and arithmetic for offset/length math.
//!
//! GraphZ's storage formats live and die by offset arithmetic — the DOS
//! Eq. 1 computation `offset = id_offset[d] + (v - ids[d]) * d`, CSR range
//! lookups, partition byte layouts, extsort run bookkeeping. Log(Graph)
//! (PAPERS.md) documents how easily compact offset encodings silently
//! overflow at YahooWeb scale, so this module is the workspace's *single*
//! blessed funnel for every narrowing cast and offset-domain arithmetic
//! operation: each helper either widens losslessly or returns a typed
//! [`GraphError::OffsetOverflow`] instead of wrapping or truncating.
//!
//! The `types` crate itself is deliberately *outside* the scope of the
//! `unchecked-cast` audit rule that `graphz-check` runs (see
//! `crates/check/src/audit/`):
//! the casts inside these helpers are the audited escape hatch, guarded by
//! explicit bound checks and tests, so every other scoped crate can be held
//! to "no bare `as`" without suppressions.

use crate::error::{GraphError, Result};
use crate::VertexId;

/// Widen a `usize` (buffer length, vector index) to `u64`. Lossless on all
/// supported platforms (`usize` ≤ 64 bits).
#[inline]
pub fn len_u64(n: usize) -> u64 {
    n as u64
}

/// Widen a `u32` to `u64`. Always lossless; exists so call sites read as
/// intent ("this is a widening") rather than a bare cast.
#[inline]
pub fn widen_u32(n: u32) -> u64 {
    u64::from(n)
}

/// Widen a [`VertexId`] to a `usize` for indexing. `u32 → usize` is
/// lossless on every platform this workspace targets (≥ 32-bit).
#[inline]
pub fn vertex_index(v: VertexId) -> usize {
    v as usize
}

/// Widen a [`crate::Degree`] (`u32`) to `usize`. Same guarantee as
/// [`vertex_index`]; named separately so call sites document which domain
/// the value came from.
#[inline]
pub fn degree_index(d: u32) -> usize {
    d as usize
}

/// Narrow a `u64` to `usize`, failing with a typed overflow error on
/// 32-bit targets where the value does not fit. `what` names the quantity
/// for the error message ("dos adjacency block", "csr offsets").
#[inline]
pub fn to_usize(n: u64, what: &str) -> Result<usize> {
    usize::try_from(n)
        .map_err(|_| GraphError::OffsetOverflow(format!("{what}: {n} does not fit in usize")))
}

/// Narrow a `u64` to `u32`, failing with a typed overflow error.
#[inline]
pub fn to_u32(n: u64, what: &str) -> Result<u32> {
    u32::try_from(n)
        .map_err(|_| GraphError::OffsetOverflow(format!("{what}: {n} does not fit in u32")))
}

/// Narrow a `usize` to `u32`, failing with a typed overflow error.
#[inline]
pub fn usize_to_u32(n: usize, what: &str) -> Result<u32> {
    u32::try_from(n)
        .map_err(|_| GraphError::OffsetOverflow(format!("{what}: {n} does not fit in u32")))
}

/// Widen a `u64` into `usize` saturating at `usize::MAX`. For capacity
/// *hints* (e.g. sizing an in-memory sort run from a byte budget) where
/// clamping is semantically fine and an error would be noise.
#[inline]
pub fn clamp_usize(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// Checked `a + b` over `u64` offsets.
#[inline]
pub fn add_u64(a: u64, b: u64, what: &str) -> Result<u64> {
    a.checked_add(b)
        // ipa:allow(serve-read-alloc) — allocates only on the overflow error path, which aborts the query
        .ok_or_else(|| GraphError::OffsetOverflow(format!("{what}: {a} + {b} overflows u64")))
}

/// Checked `a - b` over `u64` offsets (underflow is an overflow error too:
/// a negative byte offset is always a logic bug, never a valid state).
#[inline]
pub fn sub_u64(a: u64, b: u64, what: &str) -> Result<u64> {
    a.checked_sub(b)
        .ok_or_else(|| GraphError::OffsetOverflow(format!("{what}: {a} - {b} underflows u64")))
}

/// Checked `a * b` over `u64` offsets (the Eq. 1 `(v - first_id) * d` term
/// and every records→bytes scaling).
#[inline]
pub fn mul_u64(a: u64, b: u64, what: &str) -> Result<u64> {
    a.checked_mul(b)
        // ipa:allow(serve-read-alloc) — allocates only on the overflow error path, which aborts the query
        .ok_or_else(|| GraphError::OffsetOverflow(format!("{what}: {a} * {b} overflows u64")))
}

/// Checked `a - b` over `u32` ids (the Eq. 1 `v - first_id` term).
#[inline]
pub fn sub_u32(a: u32, b: u32, what: &str) -> Result<u32> {
    a.checked_sub(b)
        // ipa:allow(serve-read-alloc) — allocates only on the overflow error path, which aborts the query
        .ok_or_else(|| GraphError::OffsetOverflow(format!("{what}: {a} - {b} underflows u32")))
}

/// Checked `a + b` over `usize` (in-memory cursor/length bookkeeping).
#[inline]
pub fn add_usize(a: usize, b: usize, what: &str) -> Result<usize> {
    a.checked_add(b)
        .ok_or_else(|| GraphError::OffsetOverflow(format!("{what}: {a} + {b} overflows usize")))
}

/// Checked `a * b` over `usize` (element-count → byte-count scaling for
/// in-memory buffers).
#[inline]
pub fn mul_usize(a: usize, b: usize, what: &str) -> Result<usize> {
    a.checked_mul(b)
        // ipa:allow(serve-read-alloc) — allocates only on the overflow error path, which aborts the query
        .ok_or_else(|| GraphError::OffsetOverflow(format!("{what}: {a} * {b} overflows usize")))
}

/// `floor(bytes * fraction)` for budget splits, without routing offset
/// values through bare float→int casts at call sites. `fraction` must be
/// in `[0, 1]`; the result is therefore always `≤ bytes` and exact
/// conversion back to `u64` cannot overflow.
#[inline]
pub fn fraction_of(bytes: u64, fraction: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&fraction), "fraction {fraction} outside [0,1]");
    let scaled = bytes as f64 * fraction.clamp(0.0, 1.0);
    // f64 → u64: non-negative by construction and ≤ bytes, so in range.
    scaled as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widenings_are_lossless() {
        assert_eq!(len_u64(7usize), 7u64);
        assert_eq!(widen_u32(u32::MAX), u64::from(u32::MAX));
        assert_eq!(vertex_index(42u32), 42usize);
        assert_eq!(degree_index(9u32), 9usize);
    }

    #[test]
    fn narrowing_within_range_succeeds() {
        assert_eq!(to_usize(123, "x").unwrap(), 123usize);
        assert_eq!(to_u32(u64::from(u32::MAX), "x").unwrap(), u32::MAX);
        assert_eq!(usize_to_u32(77usize, "x").unwrap(), 77u32);
    }

    #[test]
    fn narrowing_out_of_range_is_typed_overflow() {
        let e = to_u32(u64::from(u32::MAX) + 1, "vertex count").unwrap_err();
        assert!(matches!(e, GraphError::OffsetOverflow(_)), "got {e:?}");
        assert!(e.to_string().contains("vertex count"), "{e}");
    }

    #[test]
    fn checked_arithmetic_happy_paths() {
        assert_eq!(add_u64(3, 4, "x").unwrap(), 7);
        assert_eq!(sub_u64(9, 4, "x").unwrap(), 5);
        assert_eq!(mul_u64(6, 7, "x").unwrap(), 42);
        assert_eq!(sub_u32(9, 9, "x").unwrap(), 0);
        assert_eq!(add_usize(1, 2, "x").unwrap(), 3);
        assert_eq!(mul_usize(5, 4, "x").unwrap(), 20);
    }

    #[test]
    fn checked_arithmetic_overflow_paths() {
        assert!(matches!(
            add_u64(u64::MAX, 1, "eq1 base + span"),
            Err(GraphError::OffsetOverflow(_))
        ));
        assert!(matches!(sub_u64(0, 1, "x"), Err(GraphError::OffsetOverflow(_))));
        assert!(matches!(
            mul_u64(u64::MAX, 2, "records to bytes"),
            Err(GraphError::OffsetOverflow(_))
        ));
        assert!(matches!(sub_u32(0, 1, "v - first_id"), Err(GraphError::OffsetOverflow(_))));
        assert!(matches!(add_usize(usize::MAX, 1, "x"), Err(GraphError::OffsetOverflow(_))));
        assert!(matches!(mul_usize(usize::MAX, 2, "x"), Err(GraphError::OffsetOverflow(_))));
        let msg = mul_u64(u64::MAX, 3, "dos eq1").unwrap_err().to_string();
        assert!(msg.contains("dos eq1"), "{msg}");
    }

    #[test]
    fn clamp_usize_saturates() {
        assert_eq!(clamp_usize(11), 11usize);
        // On 64-bit targets u64::MAX fits exactly; either way the call must
        // not panic and must round-trip values that fit.
        let _ = clamp_usize(u64::MAX);
    }

    #[test]
    fn fraction_of_budget() {
        assert_eq!(fraction_of(1000, 0.5), 500);
        assert_eq!(fraction_of(1000, 1.0), 1000);
        assert_eq!(fraction_of(1000, 0.0), 0);
        assert_eq!(fraction_of(u64::MAX, 0.0), 0);
    }
}
