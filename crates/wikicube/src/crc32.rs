//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial) for persistence
//! checksums.
//!
//! Two implementations compute the same function:
//!
//! - on x86-64 CPUs with PCLMULQDQ and SSE4.1, a carry-less-multiply
//!   kernel folds four 16-byte lanes per 64-byte step and reduces the
//!   result with a Barrett reduction (the constants of zlib's
//!   `crc32_simd.c` and Linux's `crc32-pclmul`). It takes the
//!   16-byte-multiple bulk of every input of at least 64 bytes and runs
//!   near memory bandwidth;
//! - everywhere else, and for the tail and short inputs, a table-driven
//!   slicing-by-8 loop (8 lookup tables generated at first use). It runs
//!   at about 1.5 GB/s, which made it nearly half of `binio::decode`, and
//!   it is the oracle the kernel is tested against.
//!
//! The build environment cannot fetch crates, so both are written here;
//! the kernel's one `unsafe` call lives in this module. The CPU check runs
//! on every [`Crc32::update`] (the standard library caches it).
//!
//! ```
//! use wikistale_wikicube::crc32::{crc32, Crc32};
//!
//! assert_eq!(crc32(b"123456789"), 0xCBF4_3926); // the standard check value
//! let mut hasher = Crc32::new();
//! hasher.update(b"1234");
//! hasher.update(b"56789");
//! assert_eq!(hasher.finalize(), crc32(b"123456789"));
//! ```

use std::sync::OnceLock;

const POLY: u32 = 0xEDB8_8320; // reflected 0x04C11DB7

fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        for slice in 1..8 {
            for i in 0..256 {
                let prev = t[slice - 1][i];
                t[slice][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// Advance the raw (inverted) CRC state over `data` with the tables.
fn update_table(mut crc: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Advance the raw CRC state over `data`: the kernel takes the
/// 16-byte-multiple bulk when the CPU has one and there are at least 64
/// bytes, the tables take the rest.
fn update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN && clmul::available() {
        let (bulk, tail) = data.split_at(data.len() & !15);
        // SAFETY: `available` just confirmed that this CPU executes the
        // PCLMULQDQ and SSE4.1 instructions `fold` is compiled for.
        let crc = unsafe { clmul::fold(crc, bulk) };
        return update_table(crc, tail);
    }
    update_table(crc, data)
}

/// The carry-less-multiply kernel: fold-by-4 over 64-byte blocks, then a
/// Barrett reduction to 32 bits, in the bit-reflected domain.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input `fold` accepts: one block of four lanes.
    pub(super) const MIN_LEN: usize = 64;

    /// `(low, high)` fold constants, each x^n mod P bit-reflected and
    /// shifted left by one: n = 4·128 + 32 and 4·128 − 32 fold across 64
    /// bytes, n = 128 + 32 and 128 − 32 across 16, and `K5` (n = 64) folds
    /// 64 bits into 32.
    const K1_K2: (i64, i64) = (0x0001_5444_2bd4, 0x0001_c6e4_1596);
    const K3_K4: (i64, i64) = (0x0001_7519_97d0, 0x0000_ccaa_009e);
    const K5: i64 = 0x0001_63cd_6124;
    /// The reflected polynomial P' and the Barrett constant μ'.
    const P_MU: (i64, i64) = (0x0001_db71_0641, 0x0001_f701_1641);

    /// Whether this CPU runs [`fold`].
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// One 16-byte lane, little-endian.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(lane: &[u8]) -> __m128i {
        let word = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&lane[i..i + 8]);
            i64::from_le_bytes(b)
        };
        _mm_set_epi64x(word(8), word(0))
    }

    /// `x` carried 128 bits forward by the constants in `k`, plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold16(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advance the raw CRC state over `data`, whose length must be a
    /// multiple of 16 and at least [`MIN_LEN`] (checked by assertion).
    /// Only callable once PCLMULQDQ and SSE4.1 are known to be present.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(crc: u32, data: &[u8]) -> u32 {
        assert!(data.len() >= MIN_LEN && data.len().is_multiple_of(16));
        let (head, rest) = data.split_at(MIN_LEN);
        let mut x = [
            _mm_xor_si128(load(&head[..16]), _mm_cvtsi32_si128(crc as i32)),
            load(&head[16..32]),
            load(&head[32..48]),
            load(&head[48..]),
        ];
        let k1_k2 = _mm_set_epi64x(K1_K2.1, K1_K2.0);
        let mut blocks = rest.chunks_exact(MIN_LEN);
        for block in &mut blocks {
            for (lane, x) in x.iter_mut().enumerate() {
                *x = fold16(*x, k1_k2, load(&block[16 * lane..16 * lane + 16]));
            }
        }

        // Four lanes into one, then the remaining 16-byte lanes.
        let k3_k4 = _mm_set_epi64x(K3_K4.1, K3_K4.0);
        let mut acc = fold16(x[0], k3_k4, x[1]);
        acc = fold16(acc, k3_k4, x[2]);
        acc = fold16(acc, k3_k4, x[3]);
        for lane in blocks.remainder().chunks_exact(16) {
            acc = fold16(acc, k3_k4, load(lane));
        }

        // 128 bits to 64, then 64 to 32.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        let folded = _mm_clmulepi64_si128::<0x10>(acc, k3_k4);
        acc = _mm_xor_si128(_mm_srli_si128::<8>(acc), folded);
        let high = _mm_srli_si128::<4>(acc);
        acc = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5));
        acc = _mm_xor_si128(acc, high);

        // Barrett reduction: q = ⌊low32 · μ'⌋, crc = acc ⊕ q · P'.
        let p_mu = _mm_set_epi64x(P_MU.1, P_MU.0);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), p_mu);
        let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), p_mu);
        _mm_extract_epi32::<1>(_mm_xor_si128(acc, qp)) as u32
    }
}

/// Streaming CRC-32 state.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

impl Crc32 {
    /// Fresh hasher.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Feed `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// The checksum of everything fed so far.
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The table-only CRC, the oracle for the kernel path.
    fn table_crc(data: &[u8]) -> u32 {
        !update_table(!0, data)
    }

    #[test]
    fn known_vectors() {
        // Reference values from the zlib `crc32` function.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
        // Long enough for the kernel: zlib's values for 64 and 1000 zero
        // bytes and for 4096 bytes of 0..=255 repeated.
        assert_eq!(crc32(&[0u8; 64]), 0x758D_6336);
        assert_eq!(crc32(&[0u8; 1000]), 0x060B_1780);
        let ramp: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        assert_eq!(crc32(&ramp), 0xA291_2082);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_007).collect();
        // Every split of the first 200 bytes, so each side crosses the
        // kernel's 64-byte floor and its 16-byte lanes somewhere, then a
        // few splits of the whole buffer.
        let short = &data[..200];
        let splits = (0..=short.len())
            .map(|split| (short, split))
            .chain([0, 1, 7, 8, 9, 5_000, 10_006, 10_007].map(|split| (&data[..], split)));
        for (data, split) in splits {
            let whole = crc32(data);
            assert_eq!(whole, table_crc(data));
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split} of {}", data.len());
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"wikistale cube payload".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }

    proptest! {
        /// The dispatching CRC (the kernel wherever the CPU has one)
        /// equals the table CRC on random bytes at unaligned offsets.
        #[test]
        fn prop_kernel_matches_table(
            bytes in proptest::collection::vec(0u8..=255, 0..4113),
            offset in 0usize..16,
            len in 0usize..=4096,
        ) {
            let start = offset.min(bytes.len());
            let end = (start + len).min(bytes.len());
            let data = &bytes[start..end];
            prop_assert_eq!(crc32(data), table_crc(data));
        }
    }
}
