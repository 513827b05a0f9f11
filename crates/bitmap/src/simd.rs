//! AVX2 vector popcount kernels (Mula's nibble-lookup algorithm).
//!
//! Each 256-bit lane is split into nibbles, every nibble is mapped
//! through a 16-entry popcount table with `_mm256_shuffle_epi8`, and the
//! per-byte counts are folded into four `u64` lanes with
//! `_mm256_sad_epu8`. The byte accumulator is flushed every
//! [`SAD_EVERY`] vectors — each vector adds at most 8 to a byte lane, so
//! 31 × 8 = 248 stays under the `u8` ceiling. The batched column kernel
//! ([`and_weight_cols`]) is also compiled with POPCNT, for columns
//! narrower than one vector.
//!
//! This is the only module in the crate allowed to use `unsafe`: the
//! intrinsics require it. Every public entry point re-checks AVX2 and
//! POPCNT availability at runtime (a cached atomic load inside `std`),
//! so the functions exposed to the dispatcher are safe — the
//! `#[target_feature]` bodies are unreachable on hosts without the
//! feature, even if [`force_kernel`](crate::words::force_kernel) is
//! misused.
//!
//! Loads are `_mm256_loadu_si256` (no alignment requirement): callers
//! hand in ordinary `&[u64]` slices with no alignment promise beyond 8.

use core::arch::x86_64::*;

/// Vectors accumulated into byte counters between `sad` flushes.
const SAD_EVERY: usize = 31;

/// Below this many words the straight-line scalar kernel wins; the
/// dispatcher in [`crate::words`] short-circuits before calling here.
pub(crate) const AVX2_MIN_WORDS: usize = 8;

/// Whether this host can run the kernels of this module (AVX2 and
/// POPCNT; `std` caches the detection in an atomic).
pub(crate) fn supported() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("popcnt")
}

macro_rules! assert_avx2 {
    () => {
        assert!(
            supported(),
            "AVX2 kernel invoked on a host without AVX2 and POPCNT (force_kernel misuse?)"
        )
    };
}

/// Population count of a word slice.
pub(crate) fn weight(words: &[u64]) -> u32 {
    assert_avx2!();
    // SAFETY: AVX2 and POPCNT availability verified above.
    unsafe { weight_impl(words) }
}

/// Population count of `a & b` (equal-length slices).
pub(crate) fn and_weight(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len(), "and_weight: length mismatch");
    assert_avx2!();
    // SAFETY: AVX2 and POPCNT availability verified above.
    unsafe { binary_weight_impl::<OP_AND>(a, b) }
}

/// Population count of `a | b` (equal-length slices).
pub(crate) fn or_weight(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len(), "or_weight: length mismatch");
    assert_avx2!();
    // SAFETY: AVX2 and POPCNT availability verified above.
    unsafe { binary_weight_impl::<OP_OR>(a, b) }
}

/// `out[k] = popcount(base & col_k)` over columns of `base.len()` words
/// stored back to back in `cols` (see
/// [`and_weight_cols`](crate::words::and_weight_cols)).
pub(crate) fn and_weight_cols(base: &[u64], cols: &[u64], out: &mut [u32]) {
    debug_assert_eq!(cols.len(), out.len() * base.len());
    assert_avx2!();
    // SAFETY: AVX2 and POPCNT availability verified above.
    unsafe { and_weight_cols_impl(base, cols, out) }
}

/// One-word columns (up to 64 routers) are a single AND + popcount per
/// column, a loop the compiler vectorises (nibble lookup + `vpsadbw`,
/// four columns per vector); columns narrower than [`AVX2_MIN_WORDS`]
/// take a POPCNT word loop; wider ones the vector AND-popcount per
/// column, with the base slice cache-hot across the batch.
#[target_feature(enable = "avx2,popcnt")]
unsafe fn and_weight_cols_impl(base: &[u64], cols: &[u64], out: &mut [u32]) {
    let w = base.len();
    if w == 1 {
        let b = base[0];
        for (o, &c) in out.iter_mut().zip(cols) {
            *o = (b & c).count_ones();
        }
    } else if w < AVX2_MIN_WORDS {
        for (o, col) in out.iter_mut().zip(cols.chunks_exact(w)) {
            *o = base
                .iter()
                .zip(col)
                .map(|(x, y)| (x & y).count_ones())
                .sum();
        }
    } else {
        for (o, col) in out.iter_mut().zip(cols.chunks_exact(w)) {
            *o = binary_weight_impl::<OP_AND>(base, col);
        }
    }
}

const OP_AND: u8 = 0;
const OP_OR: u8 = 1;

/// Per-byte popcount of a 256-bit vector: nibble-split + table shuffle.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn popcount_epi8(v: __m256i) -> __m256i {
    let table = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, // low 128-bit lane
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, // high 128-bit lane
    );
    let low_mask = _mm256_set1_epi8(0x0f);
    let lo = _mm256_and_si256(v, low_mask);
    let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_mask);
    _mm256_add_epi8(
        _mm256_shuffle_epi8(table, lo),
        _mm256_shuffle_epi8(table, hi),
    )
}

/// Sum of the four `u64` lanes of an accumulator.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hsum_epi64(acc: __m256i) -> u64 {
    let mut lanes = [0u64; 4];
    _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
    lanes.iter().sum()
}

#[target_feature(enable = "avx2")]
unsafe fn weight_impl(words: &[u64]) -> u32 {
    let ptr = words.as_ptr().cast::<__m256i>();
    let nvec = words.len() / 4;
    let zero = _mm256_setzero_si256();
    let mut acc = zero;
    let mut i = 0;
    while i < nvec {
        let run = (nvec - i).min(SAD_EVERY);
        let mut bytes = zero;
        for k in 0..run {
            let v = _mm256_loadu_si256(ptr.add(i + k));
            bytes = _mm256_add_epi8(bytes, popcount_epi8(v));
        }
        acc = _mm256_add_epi64(acc, _mm256_sad_epu8(bytes, zero));
        i += run;
    }
    let mut total = hsum_epi64(acc) as u32;
    for &w in &words[4 * nvec..] {
        total += w.count_ones();
    }
    total
}

/// Band-signature extraction: four consecutive rows per iteration, the
/// same word position of each row gathered into one vector and pushed
/// through the vectorised [`mix_word`](crate::sig::mix_word) finalizer.
/// Bit-identical to the scalar kernel because the per-word hashes are
/// XOR-combined (order-free) and the vector multiply emulation computes
/// the exact low 64 bits.
pub(crate) fn band_signatures(
    data: &[u64],
    words_per_row: usize,
    nrows: usize,
    bands: usize,
    out: &mut [u64],
) {
    assert_avx2!();
    let quads = nrows / 4;
    if quads > 0 {
        // SAFETY: AVX2 availability verified above; gather indices stay
        // inside `data` because row r < nrows and word j < words_per_row.
        unsafe { band_signatures_impl(data, words_per_row, quads, bands, out) };
    }
    let r = quads * 4;
    if r < nrows {
        crate::sig::band_signatures_scalar(
            &data[r * words_per_row..],
            words_per_row,
            nrows - r,
            bands,
            &mut out[r * bands..],
        );
    }
}

/// Exact low-64-bit product of each lane of `a` with the broadcast
/// constant `b`: `lo64(a*b) = lo(a)·lo(b) + ((lo(a)·hi(b) + hi(a)·lo(b)) << 32)`
/// built from 32×32→64 `_mm256_mul_epu32` multiplies.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mullo_epi64(a: __m256i, b: __m256i) -> __m256i {
    let lo_lo = _mm256_mul_epu32(a, b);
    let a_hi = _mm256_srli_epi64::<32>(a);
    let b_hi = _mm256_srli_epi64::<32>(b);
    let cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b), _mm256_mul_epu32(a, b_hi));
    _mm256_add_epi64(lo_lo, _mm256_slli_epi64::<32>(cross))
}

/// Vector form of [`crate::sig::mix_word`]'s splitmix64 finalizer (the
/// position term is pre-mixed into `v` by the caller).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mix_finalize(v: __m256i) -> __m256i {
    let c1 = _mm256_set1_epi64x(0xBF58_476D_1CE4_E5B9_u64 as i64);
    let c2 = _mm256_set1_epi64x(0x94D0_49BB_1331_11EB_u64 as i64);
    let z = mullo_epi64(_mm256_xor_si256(v, _mm256_srli_epi64::<30>(v)), c1);
    let z = mullo_epi64(_mm256_xor_si256(z, _mm256_srli_epi64::<27>(z)), c2);
    _mm256_xor_si256(z, _mm256_srli_epi64::<31>(z))
}

#[target_feature(enable = "avx2")]
unsafe fn band_signatures_impl(
    data: &[u64],
    words_per_row: usize,
    quads: usize,
    bands: usize,
    out: &mut [u64],
) {
    let stream = _mm256_set1_epi64x(0xD1B5_4A32_D192_ED03_u64 as i64);
    let gamma = 0x9E37_79B9_7F4A_7C15_u64;
    for q in 0..quads {
        let r0 = q * 4;
        let base = data.as_ptr().add(r0 * words_per_row).cast::<i64>();
        let row_stride = _mm256_setr_epi64x(
            0,
            words_per_row as i64,
            2 * words_per_row as i64,
            3 * words_per_row as i64,
        );
        for b in 0..bands {
            let (s, e) = crate::sig::band_bounds(words_per_row, bands, b);
            let mut acc = _mm256_setzero_si256();
            for j in s..e {
                let idx = _mm256_add_epi64(row_stride, _mm256_set1_epi64x(j as i64));
                let words = _mm256_i64gather_epi64::<8>(base, idx);
                let pos = _mm256_set1_epi64x((j as u64).wrapping_mul(gamma) as i64);
                let seeded = _mm256_xor_si256(_mm256_xor_si256(words, pos), stream);
                acc = _mm256_xor_si256(acc, mix_finalize(seeded));
            }
            let mut lanes = [0u64; 4];
            _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
            for (lane, &v) in lanes.iter().enumerate() {
                out[(r0 + lane) * bands + b] = v;
            }
        }
    }
}

#[target_feature(enable = "avx2")]
unsafe fn binary_weight_impl<const OP: u8>(a: &[u64], b: &[u64]) -> u32 {
    let pa = a.as_ptr().cast::<__m256i>();
    let pb = b.as_ptr().cast::<__m256i>();
    let nvec = a.len() / 4;
    let zero = _mm256_setzero_si256();
    let mut acc = zero;
    let mut i = 0;
    while i < nvec {
        let run = (nvec - i).min(SAD_EVERY);
        let mut bytes = zero;
        for k in 0..run {
            let x = _mm256_loadu_si256(pa.add(i + k));
            let y = _mm256_loadu_si256(pb.add(i + k));
            let v = if OP == OP_AND {
                _mm256_and_si256(x, y)
            } else {
                _mm256_or_si256(x, y)
            };
            bytes = _mm256_add_epi8(bytes, popcount_epi8(v));
        }
        acc = _mm256_add_epi64(acc, _mm256_sad_epu8(bytes, zero));
        i += run;
    }
    let mut total = hsum_epi64(acc) as u32;
    for (&x, &y) in a[4 * nvec..].iter().zip(&b[4 * nvec..]) {
        let v = if OP == OP_AND { x & y } else { x | y };
        total += v.count_ones();
    }
    total
}
