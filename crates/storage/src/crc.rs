//! CRC-32 (IEEE 802.3) used for page checksums.
//!
//! Two kernels, one function, the same value for every input:
//!
//! * **Carry-less multiply** (x86_64 with `PCLMULQDQ`, probed once at
//!   run time): four 128-bit accumulators fold 64 bytes per iteration,
//!   then fold to one, then 16 bytes at a time, then reduce to 32 bits.
//!   A 4 KiB page costs ~0.2 µs instead of ~3 µs.
//! * **Slice-by-8** (portable): eight 256-entry tables built at compile
//!   time fold eight bytes per iteration. It is the whole checksum on
//!   every other target and on an x86_64 without the instruction, and on
//!   x86_64 it still handles inputs shorter than 64 bytes and the
//!   < 16-byte tail the folding loop leaves.
//!
//! No external crate, per the workspace's offline-build constraint, and
//! the same polynomial/init/final-xor as the classic byte-at-a-time
//! form, so every checksum value — and with it every page, WAL and
//! spill image — is unchanged. Page-sized inputs (4 KiB) are the common
//! case: every physical page write seals and every physical read
//! verifies, so checksum throughput sits directly on the bulk-load and
//! buffer-pool-miss critical paths.

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    // Table k maps a byte processed k positions early: one more table
    // lookup in place of eight shift/xor rounds.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][(t[k - 1][i] & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `bytes` (IEEE polynomial, init/final xor `0xFFFF_FFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN && clmul::available() {
        let (body, tail) = bytes.split_at(bytes.len() & !15);
        return !update_sliced(clmul::fold(0xFFFF_FFFF, body), tail);
    }
    crc32_sliced(bytes)
}

/// The portable kernel on its own: [`crc32`] wherever the carry-less
/// multiply path does not apply.
fn crc32_sliced(bytes: &[u8]) -> u32 {
    !update_sliced(0xFFFF_FFFF, bytes)
}

/// Advances the raw (un-inverted) CRC state over `bytes`, slice-by-8.
fn update_sliced(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
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

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    //! The `PCLMULQDQ` folding kernel (Gopal et al., "Fast CRC
    //! Computation for Generic Polynomials Using PCLMULQDQ
    //! Instruction", Intel 2009), bit-reflected form. The crate's only
    //! `unsafe` is the one call below from [`fold`] into the
    //! `#[target_feature]` function, behind the cached CPUID probe.

    use core::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_set_epi32,
        _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };
    use std::sync::atomic::{AtomicU8, Ordering};

    /// Shortest input the folding loop takes (one 64-byte block).
    pub(super) const MIN_LEN: usize = 64;

    // x^n mod P(x), bit-reflected, for the fold distances used below.
    /// Fold by 512 bits: `x^(512+32)`, `x^(512-32)`.
    const K1: i64 = 0x0001_5444_2bd4;
    const K2: i64 = 0x0001_c6e4_1596;
    /// Fold by 128 bits: `x^(128+32)`, `x^(128-32)`.
    const K3: i64 = 0x0001_7519_97d0;
    const K4: i64 = 0x0000_ccaa_009e;
    /// 96 → 64 bits: `x^64`.
    const K5: i64 = 0x0001_63cd_6124;
    /// Barrett reduction: the polynomial `P(x)` and `µ = ⌊x^64 / P(x)⌋`.
    const POLY: i64 = 0x0001_db71_0641;
    const MU: i64 = 0x0001_f701_1641;

    /// Cached `PCLMULQDQ` availability: 0 = unprobed, 1 = yes, 2 = no.
    static PCLMUL: AtomicU8 = AtomicU8::new(0);

    #[inline]
    pub(super) fn available() -> bool {
        match PCLMUL.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => {
                let yes = std::arch::is_x86_feature_detected!("pclmulqdq");
                PCLMUL.store(if yes { 1 } else { 2 }, Ordering::Relaxed);
                yes
            }
        }
    }

    /// Advances the raw CRC state `crc` over `bytes`.
    ///
    /// # Panics
    ///
    /// Panics unless [`available`] holds and `bytes` is a multiple of 16
    /// bytes at least [`MIN_LEN`] long.
    #[inline]
    pub(super) fn fold(crc: u32, bytes: &[u8]) -> u32 {
        assert!(
            available() && bytes.len() >= MIN_LEN && bytes.len().is_multiple_of(16),
            "clmul::fold needs PCLMULQDQ and whole 16-byte lanes"
        );
        // SAFETY: `fold_pclmul`'s only requirement is that the CPU
        // implements PCLMULQDQ, which the `available()` runtime probe
        // asserted above just established; it touches memory through
        // safe slice reads only.
        unsafe { fold_pclmul(crc, bytes) }
    }

    /// Sixteen little-endian bytes as one lane.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn lane(b: &[u8]) -> __m128i {
        let lo = i64::from_le_bytes(b[0..8].try_into().expect("8 bytes"));
        let hi = i64::from_le_bytes(b[8..16].try_into().expect("8 bytes"));
        _mm_set_epi64x(hi, lo)
    }

    /// `acc` moved `k`'s fold distance along the message, plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_lane(acc: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    #[target_feature(enable = "pclmulqdq")]
    fn fold_pclmul(crc: u32, bytes: &[u8]) -> u32 {
        let mut blocks = bytes.chunks_exact(64);
        let first = blocks.next().expect("at least one 64-byte block");
        let mut x1 = _mm_xor_si128(lane(&first[0..16]), _mm_set_epi32(0, 0, 0, crc as i32));
        let mut x2 = lane(&first[16..32]);
        let mut x3 = lane(&first[32..48]);
        let mut x4 = lane(&first[48..64]);

        // Four independent lanes, 64 bytes per iteration.
        let k1k2 = _mm_set_epi64x(K2, K1);
        for b in &mut blocks {
            x1 = fold_lane(x1, k1k2, lane(&b[0..16]));
            x2 = fold_lane(x2, k1k2, lane(&b[16..32]));
            x3 = fold_lane(x3, k1k2, lane(&b[32..48]));
            x4 = fold_lane(x4, k1k2, lane(&b[48..64]));
        }

        // Four lanes into one, then the remaining 16-byte lanes.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_lane(x1, k3k4, x2);
        x = fold_lane(x, k3k4, x3);
        x = fold_lane(x, k3k4, x4);
        for b in blocks.remainder().chunks_exact(16) {
            x = fold_lane(x, k3k4, lane(b));
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, -1, 0, -1);
        let t = _mm_clmulepi64_si128::<0x10>(x, k3k4);
        x = _mm_xor_si128(_mm_srli_si128::<8>(x), t);
        let t = _mm_srli_si128::<4>(x);
        x = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5));
        x = _mm_xor_si128(x, t);

        // Barrett reduction to 32 bits.
        let poly_mu = _mm_set_epi64x(MU, POLY);
        let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly_mu);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), poly_mu);
        x = _mm_xor_si128(x, t);
        _mm_cvtsi128_si32(_mm_srli_si128::<4>(x)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic byte-at-a-time form, kept as the reference the
    /// sliced implementation must agree with on every input.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// Every public-path check also runs against the portable kernel
    /// called directly, so both are covered whatever CPU runs the tests.
    fn assert_all_agree(bytes: &[u8], what: &str) {
        let want = crc32_bytewise(bytes);
        assert_eq!(crc32(bytes), want, "crc32, {what}");
        assert_eq!(crc32_sliced(bytes), want, "portable kernel, {what}");
    }

    #[test]
    fn known_vectors() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_sliced(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // The check value again behind 64 bytes of prefix, so it goes
        // through the folding loop where there is one.
        let mut long = vec![0x5Au8; 64];
        long.extend_from_slice(b"123456789");
        assert_all_agree(&long, "prefixed check string");
    }

    #[test]
    fn matches_bytewise_reference_at_every_length_and_alignment() {
        let data: Vec<u8> = (0..640u32).map(|i| (i * 31 + 7) as u8).collect();
        for start in [0usize, 1, 3, 8, 15] {
            for len in 0..=600 {
                let slice = &data[start..start + len];
                assert_all_agree(slice, &format!("start {start} len {len}"));
            }
        }
    }

    #[test]
    fn matches_bytewise_reference_on_page_shaped_inputs() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut noise = vec![0u8; 4096];
        for b in noise.iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (state >> 56) as u8;
        }
        // Payload, sealed span and whole page.
        for len in [4088usize, 4092, 4096] {
            assert_all_agree(&noise[..len], &format!("noise, {len} bytes"));
            assert_all_agree(&vec![0u8; len], &format!("zeroes, {len} bytes"));
        }
        // A node page as PACK writes them under M = 4: 168 bytes used,
        // the other 96 % zero.
        let mut sparse = vec![0u8; 4092];
        sparse[..168].copy_from_slice(&noise[..168]);
        sparse[4088] = 1;
        assert_all_agree(&sparse, "4 %-full node page");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_kernel_continues_a_running_state() {
        if !clmul::available() {
            return;
        }
        // `fold` takes and returns the raw state, so a prefix done by
        // the tables and a suffix done by the tables must bracket it.
        let data: Vec<u8> = (0..200u32).map(|i| (i * 13 + 5) as u8).collect();
        let state = update_sliced(0xFFFF_FFFF, &data[..7]);
        let state = clmul::fold(state, &data[7..7 + 176]);
        let state = update_sliced(state, &data[7 + 176..]);
        assert_eq!(!state, crc32_bytewise(&data));
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let mut data = vec![0u8; 4096];
        data[100] = 0x55;
        let base = crc32(&data);
        for bit in 0..8 {
            data[2000] ^= 1 << bit;
            assert_ne!(crc32(&data), base, "bit {bit} undetected");
            data[2000] ^= 1 << bit;
        }
        assert_eq!(crc32(&data), base);
    }

    #[test]
    fn zeros_are_not_fixed_point() {
        // An all-zero payload must not checksum to zero, so a page of
        // zeroes with a zero CRC field is distinguishable from a sealed
        // page (the pager special-cases fully zeroed pages instead).
        assert_ne!(crc32(&[0u8; 4092]), 0);
    }
}
