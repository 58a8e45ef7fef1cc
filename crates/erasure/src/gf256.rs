//! Arithmetic in the Galois field GF(2⁸).
//!
//! The field is constructed with the primitive polynomial
//! `x⁸ + x⁴ + x³ + x² + 1` (0x11D), the same polynomial used by most
//! Reed–Solomon implementations (including zfec).  Scalar multiplication and
//! division use exponential/logarithm tables computed once at startup.
//!
//! # The slice hot path
//!
//! The Reed–Solomon inner loop is `dst[i] ^= c · src[i]` over whole shards
//! ([`mul_slice_xor`]).  That path does **not** go through the exp/log
//! tables: multiplication by a constant `c` is split into two 4-bit halves,
//! `c·b = c·(b & 0x0F) ⊕ c·(b >> 4 << 4)`, each half answered by a 16-entry
//! table precomputed for every coefficient (two 256×16 half-tables, 8 KiB
//! total).  The 16-entry tables fit in two SIMD registers, so on x86-64 with
//! SSSE3 the kernel processes 16 bytes per `pshufb` pair; everywhere else a
//! branch-free chunked lookup loop takes over.  The original byte-at-a-time
//! exp/log implementation is preserved in [`scalar`] as the reference
//! baseline for equivalence tests and the throughput benchmarks.

use std::sync::OnceLock;

/// The primitive polynomial used to generate the field.
pub const PRIMITIVE_POLY: u16 = 0x11D;

struct Tables {
    exp: [u8; 512],
    log: [u8; 256],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= PRIMITIVE_POLY;
            }
        }
        // Duplicate the table so mul can index exp[log a + log b] without a
        // modulo operation.
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Tables { exp, log }
    })
}

/// Addition in GF(2⁸) (bitwise XOR).
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Subtraction in GF(2⁸) (identical to addition).
#[inline]
pub fn sub(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplication in GF(2⁸).
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
}

/// Division in GF(2⁸).
///
/// # Panics
/// Panics on division by zero.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "division by zero in GF(256)");
    if a == 0 {
        return 0;
    }
    let t = tables();
    let log_a = t.log[a as usize] as usize;
    let log_b = t.log[b as usize] as usize;
    t.exp[log_a + 255 - log_b]
}

/// Multiplicative inverse in GF(2⁸).
///
/// # Panics
/// Panics for zero, which has no inverse.
#[inline]
pub fn inv(a: u8) -> u8 {
    div(1, a)
}

/// Exponentiation: `a` raised to the (integer) power `n`.
pub fn pow(a: u8, n: u32) -> u8 {
    if n == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let t = tables();
    let log_a = t.log[a as usize] as u64;
    let e = (log_a * n as u64) % 255;
    t.exp[e as usize]
}

/// The generator element α = 2 raised to the power `n`; enumerates all
/// non-zero field elements as `n` ranges over `0..255`.
pub fn exp(n: u8) -> u8 {
    tables().exp[n as usize]
}

/// The two half-tables of the 4-bit split multiply: for every coefficient
/// `c`, `lo[c][n] = c·n` and `hi[c][n] = c·(n << 4)` for `n` in `0..16`, so
/// `c·b = lo[c][b & 0x0F] ⊕ hi[c][b >> 4]` without touching exp/log.
struct NibbleTables {
    lo: [[u8; 16]; 256],
    hi: [[u8; 16]; 256],
}

fn nibble_tables() -> &'static NibbleTables {
    static NIBBLE: OnceLock<Box<NibbleTables>> = OnceLock::new();
    NIBBLE.get_or_init(|| {
        let mut t = Box::new(NibbleTables {
            lo: [[0; 16]; 256],
            hi: [[0; 16]; 256],
        });
        for c in 0..256 {
            for n in 0..16 {
                t.lo[c][n] = mul(c as u8, n as u8);
                t.hi[c][n] = mul(c as u8, (n << 4) as u8);
            }
        }
        t
    })
}

/// Multiplies every byte of `src` by `c` and XORs the result into `dst`
/// (`dst[i] ^= c · src[i]`).  This is the inner loop of Reed–Solomon
/// encoding and decoding.
///
/// The multiply is table-driven via the 4-bit split half-tables: 16 bytes
/// per iteration through SSSE3 `pshufb` where available, a branch-free
/// two-lookup loop otherwise.  Semantics are identical to the scalar
/// reference ([`scalar::mul_slice_xor`]), which the property tests enforce.
pub fn mul_slice_xor(c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "slice length mismatch");
    if c == 0 {
        return;
    }
    if c == 1 {
        xor_slice(src, dst);
        return;
    }
    let t = nibble_tables();
    let lo = &t.lo[c as usize];
    let hi = &t.hi[c as usize];
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("ssse3") {
        // SAFETY: SSSE3 support was just verified at runtime.
        unsafe { simd::mul_slice_xor_ssse3(lo, hi, src, dst) };
        return;
    }
    mul_slice_xor_nibble(lo, hi, src, dst);
}

/// Multiplies every byte of `slice` by `c` in place, through the same
/// split-table kernels as [`mul_slice_xor`].
pub fn mul_slice(c: u8, slice: &mut [u8]) {
    if c == 1 {
        return;
    }
    if c == 0 {
        slice.fill(0);
        return;
    }
    let t = nibble_tables();
    let lo = &t.lo[c as usize];
    let hi = &t.hi[c as usize];
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("ssse3") {
        // SAFETY: SSSE3 support was just verified at runtime.
        unsafe { simd::mul_slice_ssse3(lo, hi, slice) };
        return;
    }
    mul_slice_nibble(lo, hi, slice);
}

/// `dst[i] ^= src[i]`; written as a plain element loop that LLVM reliably
/// auto-vectorises.
fn xor_slice(src: &[u8], dst: &mut [u8]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= *s;
    }
}

/// Portable split-table kernel: two 16-entry lookups and two XORs per byte,
/// no data-dependent branches.
fn mul_slice_xor_nibble(lo: &[u8; 16], hi: &[u8; 16], src: &[u8], dst: &mut [u8]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= lo[(s & 0x0F) as usize] ^ hi[(s >> 4) as usize];
    }
}

/// In-place variant of [`mul_slice_xor_nibble`].
fn mul_slice_nibble(lo: &[u8; 16], hi: &[u8; 16], slice: &mut [u8]) {
    for b in slice.iter_mut() {
        *b = lo[(*b & 0x0F) as usize] ^ hi[(*b >> 4) as usize];
    }
}

/// SSSE3 kernels: the two 16-entry half-tables live in two XMM registers and
/// `pshufb` answers 16 lookups at once.
#[cfg(target_arch = "x86_64")]
mod simd {
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_slice_xor_ssse3(
        lo: &[u8; 16],
        hi: &[u8; 16],
        src: &[u8],
        dst: &mut [u8],
    ) {
        use std::arch::x86_64::*;
        let lo_v = _mm_loadu_si128(lo.as_ptr() as *const __m128i);
        let hi_v = _mm_loadu_si128(hi.as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let n = src.len();
        let mut i = 0;
        while i + 16 <= n {
            let s = _mm_loadu_si128(src.as_ptr().add(i) as *const __m128i);
            let d = _mm_loadu_si128(dst.as_ptr().add(i) as *const __m128i);
            let lo_idx = _mm_and_si128(s, mask);
            let hi_idx = _mm_and_si128(_mm_srli_epi64::<4>(s), mask);
            let prod = _mm_xor_si128(
                _mm_shuffle_epi8(lo_v, lo_idx),
                _mm_shuffle_epi8(hi_v, hi_idx),
            );
            _mm_storeu_si128(
                dst.as_mut_ptr().add(i) as *mut __m128i,
                _mm_xor_si128(d, prod),
            );
            i += 16;
        }
        super::mul_slice_xor_nibble(lo, hi, &src[i..], &mut dst[i..]);
    }

    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_slice_ssse3(lo: &[u8; 16], hi: &[u8; 16], slice: &mut [u8]) {
        use std::arch::x86_64::*;
        let lo_v = _mm_loadu_si128(lo.as_ptr() as *const __m128i);
        let hi_v = _mm_loadu_si128(hi.as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let n = slice.len();
        let mut i = 0;
        while i + 16 <= n {
            let s = _mm_loadu_si128(slice.as_ptr().add(i) as *const __m128i);
            let lo_idx = _mm_and_si128(s, mask);
            let hi_idx = _mm_and_si128(_mm_srli_epi64::<4>(s), mask);
            let prod = _mm_xor_si128(
                _mm_shuffle_epi8(lo_v, lo_idx),
                _mm_shuffle_epi8(hi_v, hi_idx),
            );
            _mm_storeu_si128(slice.as_mut_ptr().add(i) as *mut __m128i, prod);
            i += 16;
        }
        super::mul_slice_nibble(lo, hi, &mut slice[i..]);
    }
}

/// The original byte-at-a-time exp/log implementation of the slice
/// operations, kept as the reference the fast kernels are tested against
/// (here, and by the benchmark's scalar-oracle gate).
pub mod scalar {
    use super::tables;

    /// Reference `dst[i] ^= c · src[i]`, one exp/log multiply per byte.
    pub fn mul_slice_xor(c: u8, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "slice length mismatch");
        if c == 0 {
            return;
        }
        if c == 1 {
            for (d, s) in dst.iter_mut().zip(src) {
                *d ^= *s;
            }
            return;
        }
        let t = tables();
        let log_c = t.log[c as usize] as usize;
        for (d, s) in dst.iter_mut().zip(src) {
            if *s != 0 {
                *d ^= t.exp[log_c + t.log[*s as usize] as usize];
            }
        }
    }

    /// Reference in-place `slice[i] = c · slice[i]`.
    pub fn mul_slice(c: u8, slice: &mut [u8]) {
        if c == 1 {
            return;
        }
        if c == 0 {
            slice.fill(0);
            return;
        }
        let t = tables();
        let log_c = t.log[c as usize] as usize;
        for b in slice.iter_mut() {
            if *b != 0 {
                *b = t.exp[log_c + t.log[*b as usize] as usize];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn addition_is_xor_and_self_inverse() {
        assert_eq!(add(0x53, 0xCA), 0x53 ^ 0xCA);
        for a in 0..=255u8 {
            assert_eq!(add(a, a), 0);
            assert_eq!(sub(a, a), 0);
        }
    }

    #[test]
    fn multiplication_identity_and_zero() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(1, a), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(0, a), 0);
        }
    }

    #[test]
    fn known_product() {
        // In the 0x11D field, 2 · 0x8E = 0x11C ⊕ 0x11D = 1, so inv(2) = 0x8E.
        assert_eq!(mul(0x02, 0x8E), 0x01);
        assert_eq!(inv(0x02), 0x8E);
        // And mul by 2 of a value without the high bit is a plain shift.
        assert_eq!(mul(0x02, 0x40), 0x80);
    }

    #[test]
    fn every_nonzero_element_has_an_inverse() {
        for a in 1..=255u8 {
            let i = inv(a);
            assert_eq!(mul(a, i), 1, "a={a}");
        }
    }

    #[test]
    fn division_inverts_multiplication() {
        for a in 1..=255u8 {
            for b in (1..=255u8).step_by(7) {
                assert_eq!(div(mul(a, b), b), a);
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        div(5, 0);
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for a in [0u8, 1, 2, 3, 29, 144, 255] {
            let mut acc = 1u8;
            for n in 0..20u32 {
                assert_eq!(pow(a, n), acc, "a={a} n={n}");
                acc = mul(acc, a);
            }
        }
        assert_eq!(pow(0, 0), 1);
    }

    #[test]
    fn generator_has_full_order() {
        // α = 2 must generate all 255 non-zero elements.
        let mut seen = std::collections::HashSet::new();
        for n in 0..255u8 {
            seen.insert(exp(n));
        }
        assert_eq!(seen.len(), 255);
        assert!(!seen.contains(&0));
    }

    #[test]
    fn mul_slice_xor_matches_scalar_path() {
        let src: Vec<u8> = (0..=255u8).collect();
        for c in [0u8, 1, 2, 37, 255] {
            let mut dst = vec![0xAAu8; 256];
            let mut expected = dst.clone();
            for (e, s) in expected.iter_mut().zip(&src) {
                *e ^= mul(c, *s);
            }
            mul_slice_xor(c, &src, &mut dst);
            assert_eq!(dst, expected, "c={c}");
        }
    }

    #[test]
    fn mul_slice_in_place() {
        let mut v: Vec<u8> = (0..=255u8).collect();
        let orig = v.clone();
        mul_slice(7, &mut v);
        for (a, b) in v.iter().zip(&orig) {
            assert_eq!(*a, mul(7, *b));
        }
        mul_slice(0, &mut v);
        assert!(v.iter().all(|&x| x == 0));
    }

    #[test]
    fn split_tables_agree_with_field_multiplication() {
        let t = nibble_tables();
        for c in 0..=255u8 {
            for b in 0..=255u8 {
                let split =
                    t.lo[c as usize][(b & 0x0F) as usize] ^ t.hi[c as usize][(b >> 4) as usize];
                assert_eq!(split, mul(c, b), "c={c} b={b}");
            }
        }
    }

    /// The fast kernels must match the scalar reference bit-exactly at every
    /// length, including the SIMD tail (lengths that are not multiples of 16).
    #[test]
    fn fast_kernels_match_scalar_reference_at_odd_lengths() {
        for len in [0usize, 1, 7, 15, 16, 17, 31, 33, 64, 100, 1024, 1027] {
            let src: Vec<u8> = (0..len)
                .map(|i| (i as u8).wrapping_mul(37) ^ 0xC3)
                .collect();
            for c in [0u8, 1, 2, 29, 123, 255] {
                let mut fast = vec![0x5Au8; len];
                let mut reference = fast.clone();
                mul_slice_xor(c, &src, &mut fast);
                scalar::mul_slice_xor(c, &src, &mut reference);
                assert_eq!(fast, reference, "mul_slice_xor c={c} len={len}");

                let mut fast = src.clone();
                let mut reference = src.clone();
                mul_slice(c, &mut fast);
                scalar::mul_slice(c, &mut reference);
                assert_eq!(fast, reference, "mul_slice c={c} len={len}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_field_axioms(a: u8, b: u8, c: u8) {
            // Commutativity
            prop_assert_eq!(mul(a, b), mul(b, a));
            prop_assert_eq!(add(a, b), add(b, a));
            // Associativity
            prop_assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
            prop_assert_eq!(add(add(a, b), c), add(a, add(b, c)));
            // Distributivity
            prop_assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
        }

        #[test]
        fn prop_division_round_trip(a: u8, b in 1u8..=255) {
            prop_assert_eq!(div(mul(a, b), b), a);
            prop_assert_eq!(mul(div(a, b), b), a);
        }

        /// The multiplicative-inverse laws: `a · a⁻¹ = 1`, `(a⁻¹)⁻¹ = a`,
        /// and division is multiplication by the inverse.
        #[test]
        fn prop_inverse_laws(a in 1u8..=255, b in 1u8..=255) {
            prop_assert_eq!(mul(a, inv(a)), 1);
            prop_assert_eq!(inv(inv(a)), a);
            prop_assert_eq!(div(a, b), mul(a, inv(b)));
            // Inverses distribute over products: (ab)⁻¹ = a⁻¹ b⁻¹.
            prop_assert_eq!(inv(mul(a, b)), mul(inv(a), inv(b)));
        }

        /// `pow` respects the exponent laws of the multiplicative group
        /// (order 255).
        #[test]
        fn prop_pow_laws(a in 1u8..=255, n in 0u32..600, m in 0u32..600) {
            prop_assert_eq!(mul(pow(a, n), pow(a, m)), pow(a, n + m));
            prop_assert_eq!(pow(a, n + 255), pow(a, n));
        }

        /// The split-table kernels are byte-identical to the scalar exp/log
        /// reference for arbitrary coefficients, payloads and lengths.
        #[test]
        fn prop_fast_slice_kernels_match_scalar(
            c: u8,
            src in proptest::collection::vec(any::<u8>(), 0..300),
            fill: u8,
        ) {
            let mut fast = vec![fill; src.len()];
            let mut reference = fast.clone();
            mul_slice_xor(c, &src, &mut fast);
            scalar::mul_slice_xor(c, &src, &mut reference);
            prop_assert_eq!(&fast, &reference);

            let mut fast = src.clone();
            let mut reference = src;
            mul_slice(c, &mut fast);
            scalar::mul_slice(c, &mut reference);
            prop_assert_eq!(fast, reference);
        }
    }
}
