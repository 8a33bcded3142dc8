//! Hand-rolled CRC32 (IEEE 802.3 polynomial, the zlib/gzip variant).
//!
//! The build environment is offline, so rather than pull in a checksum
//! crate this implements the standard reflected table-driven algorithm with
//! slicing-by-8: eight 256-entry tables, built at compile time, fold eight
//! bytes per step, and a byte-at-a-time loop over the first table takes
//! the remainder. Initial value and final XOR are `0xFFFF_FFFF`. Output is
//! bit-for-bit what `zlib.crc32` / `crc32fast` would produce, so
//! checksummed files remain verifiable by external tooling.

use std::io::{self, Write};

const POLY: u32 = 0xEDB8_8320; // 0x04C11DB7 reflected

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes, so one step can fold eight input
/// bytes with eight independent lookups.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Streaming CRC32 state; feed bytes with [`update`](Self::update), read the
/// digest with [`finish`](Self::finish).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut c = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The digest of everything fed so far. Does not consume the state:
    /// feeding more bytes afterwards continues the same stream.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// The CRC32 of `A ‖ B` from `crc32(A)`, `crc32(B)` and `B`'s length,
/// with neither byte string at hand — zlib's `crc32_combine`. Appending
/// `len_b` zero bytes to `A` multiplies its CRC register by
/// `x^(8·len_b)` modulo the CRC polynomial over GF(2); that power is
/// assembled from the table of `x^(2^k)` one set bit of the length at a
/// time, so a combine costs O(log len_b) 32-step products. A writer that
/// fills a file in separate regions folds one CRC per region and combines
/// them in file order.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    // x^0, then x^(8·len_b): bit k of the length in bytes is bit k + 3 of
    // the length in bits.
    let mut op = 1u32 << 31;
    let mut len = len_b;
    for power in &X2N[3..] {
        if len == 0 {
            break;
        }
        if len & 1 != 0 {
            op = multmodp(*power, op);
        }
        len >>= 1;
    }
    multmodp(op, crc_a) ^ crc_b
}

/// `x^(2^k)` modulo the CRC polynomial, for `k` up to the bits of a `u64`
/// byte count counted in bits.
static X2N: [u32; 67] = build_x2n();

const fn build_x2n() -> [u32; 67] {
    let mut t = [0u32; 67];
    let mut p = 1u32 << 30; // x^1
    t[0] = p;
    let mut k = 1;
    while k < 67 {
        p = multmodp(p, p);
        t[k] = p;
        k += 1;
    }
    t
}

/// `a · b` modulo the CRC polynomial over GF(2), in the register's
/// reflected order (bit 31 is `x^0`).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        m >>= 1;
    }
    product
}

/// Length and CRC32 of a file's bytes, rendered `len,crc` with the CRC as
/// eight hex digits — the form every `file:` entry of a manifest records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub len: u64,
    pub crc: u32,
}

impl Fingerprint {
    /// The fingerprint of `bytes`.
    pub fn of(bytes: &[u8]) -> Self {
        Fingerprint { len: bytes.len() as u64, crc: crc32(bytes) }
    }

    /// Parse the `len,crc` rendering; `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        let (len, crc) = s.split_once(',')?;
        Some(Fingerprint { len: len.parse().ok()?, crc: u32::from_str_radix(crc, 16).ok()? })
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{},{:08x}", self.len, self.crc)
    }
}

/// A writer that folds the length and CRC32 of exactly the bytes its inner
/// writer reports as accepted, so a file's [`Fingerprint`] is known when
/// the write ends and nothing has to read the file back to learn it.
#[derive(Debug)]
pub struct CrcWriter<W> {
    inner: W,
    crc: Crc32,
    len: u64,
}

impl<W> CrcWriter<W> {
    pub fn new(inner: W) -> Self {
        CrcWriter { inner, crc: Crc32::new(), len: 0 }
    }

    /// Length and CRC of every byte accepted so far.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint { len: self.len, crc: self.crc.finish() }
    }
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc.update(&buf[..n]);
        self.len += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Length and CRC32 of everything remaining in `r`, streamed in 64 KiB
/// chunks — for checksumming whole files without loading them.
pub fn crc32_stream<R: std::io::Read>(mut r: R) -> std::io::Result<Fingerprint> {
    let mut crc = Crc32::new();
    let mut len = 0u64;
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = r.read(&mut buf)?;
        if n == 0 {
            break;
        }
        crc.update(&buf[..n]);
        len += n as u64;
    }
    Ok(Fingerprint { len, crc: crc.finish() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0u32..10_000).map(|i| (i * 31 % 251) as u8).collect();
        let whole = crc32(&data);
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), whole);
        // finish() is non-destructive.
        assert_eq!(c.finish(), whole);
    }

    /// The byte-at-a-time fold slicing-by-8 replaced, kept as the oracle.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_fold() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for size in [4099usize, 77, 200_003] {
            let data: Vec<u8> = (0..size)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x >> 24) as u8
                })
                .collect();
            // Every start and end alignment modulo 8.
            for start in 0..8 {
                for end_trim in 0..8 {
                    let slice = &data[start..data.len() - end_trim];
                    assert_eq!(crc32(slice), bytewise(slice), "size {size} {start}..-{end_trim}");
                }
            }
            for len in 0..24 {
                assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "len {len}");
            }
            // Split updates at every offset of the first few words and at
            // uneven steps through the whole buffer.
            let want = bytewise(&data);
            for split in 0..40 {
                let mut c = Crc32::new();
                c.update(&data[..split]);
                c.update(&data[split..]);
                assert_eq!(c.finish(), want, "size {size} split at {split}");
            }
            for step in [1usize, 3, 5, 7, 9, 13, 64, 1000] {
                let mut c = Crc32::new();
                for chunk in data.chunks(step) {
                    c.update(chunk);
                }
                assert_eq!(c.finish(), want, "size {size} step {step}");
            }
        }
    }

    /// Combining the CRCs of two parts gives the CRC of their
    /// concatenation: empty parts, one byte, splits at every alignment and
    /// random splits of random data, and a three-way fold in order.
    #[test]
    fn combine_equals_the_crc_of_the_concatenation() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let data: Vec<u8> = (0..70_001).map(|_| (next() >> 24) as u8).collect();
        let check = |a: &[u8], b: &[u8]| {
            let whole: Vec<u8> = a.iter().chain(b).copied().collect();
            let got = crc32_combine(crc32(a), crc32(b), b.len() as u64);
            assert_eq!(got, crc32(&whole), "split {} + {}", a.len(), b.len());
        };
        check(b"", b"");
        check(b"", b"a");
        check(b"a", b"");
        check(b"a", b"b");
        check(b"1234", b"56789");
        for split in 0..=17 {
            check(&data[..split], &data[split..40]);
            check(&data[3..3 + split], &data[3 + split..3 + 2 * split + 1]);
        }
        for _ in 0..200 {
            let end = (next() % data.len() as u64) as usize;
            let split = (next() % (end as u64 + 1)) as usize;
            check(&data[..split], &data[split..end]);
        }
        check(&data[..1], &data[1..]);
        check(&data[..data.len() - 1], &data[data.len() - 1..]);
        // Regions folded separately, combined in file order.
        let (a, b, c) = (&data[..1000], &data[1000..1003], &data[1003..50_000]);
        let ab = crc32_combine(crc32(a), crc32(b), b.len() as u64);
        assert_eq!(crc32_combine(ab, crc32(c), c.len() as u64), crc32(&data[..50_000]));
        // Lengths no test buffer reaches: shifting by m zero bytes, then
        // by n, is shifting by m + n, up to the top bit of a u64.
        let shift = |crc: u32, n: u64| crc32_combine(crc, 0, n);
        for (m, n) in [(1u64 << 40, 1u64 << 40), (u64::MAX / 2, 12_345), (1 << 62, (1 << 63) - 7)] {
            let x = crc32(&data[..100]);
            assert_eq!(shift(shift(x, m), n), shift(x, m + n), "{m} + {n}");
        }
    }

    #[test]
    fn fingerprint_renders_and_parses() {
        let fp = Fingerprint::of(b"123456789");
        assert_eq!(fp, Fingerprint { len: 9, crc: 0xCBF4_3926 });
        assert_eq!(fp.to_string(), "9,cbf43926");
        assert_eq!(Fingerprint::parse("9,cbf43926"), Some(fp));
        assert_eq!(Fingerprint::parse("0,00000000"), Some(Fingerprint::of(b"")));
        assert_eq!(Fingerprint::parse("9"), None);
        assert_eq!(Fingerprint::parse("x,cbf43926"), None);
    }

    /// Accepts at most `step` bytes per call, then fails once `fail_at`
    /// bytes have landed.
    struct Stingy {
        out: Vec<u8>,
        step: usize,
        fail_at: usize,
    }

    impl Write for Stingy {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.out.len() >= self.fail_at {
                return Err(io::Error::other("full"));
            }
            let n = buf.len().min(self.step).min(self.fail_at - self.out.len());
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn crc_writer_folds_exactly_the_accepted_bytes() {
        let data: Vec<u8> = (0u32..5000).map(|i| (i * 7 % 253) as u8).collect();
        let mut w = CrcWriter::new(Stingy { out: Vec::new(), step: 3, fail_at: usize::MAX });
        w.write_all(&data).unwrap();
        assert_eq!(w.fingerprint(), Fingerprint::of(&data));
        // A short write followed by an error: only what landed is folded.
        let mut w = CrcWriter::new(Stingy { out: Vec::new(), step: 64, fail_at: 100 });
        assert!(w.write_all(&data).is_err());
        assert_eq!(w.fingerprint(), Fingerprint::of(&w.inner.out));
        assert_eq!(w.fingerprint().len, 100);
    }

    #[test]
    fn sensitive_to_any_flip() {
        let data = vec![0xA5u8; 64];
        let base = crc32(&data);
        for i in 0..64 {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {i} bit {bit} undetected");
            }
        }
    }
}
