//! Runtime-dispatched SIMD kernels — the arithmetic and bit-plane hot
//! loops of the host codec, at three interchangeable tiers.
//!
//! ## The tier model
//!
//! Every kernel here exists at up to three [`SimdLevel`] tiers that are
//! **byte-identical by contract** — the tier chooses instructions, never
//! results. [`resolve_level`] picks the tier: an explicit
//! [`CuszpConfig::simd`](crate::CuszpConfig::simd) override wins, then
//! the process-wide `CUSZP_SIMD` environment variable, then runtime
//! detection; whatever is requested is clamped **down** to what the host
//! can run, so an override can only ever disable vector paths.
//!
//! | kernel | scalar | AVX2 | AVX-512 |
//! |---|---|---|---|
//! | quantize + Lorenzo | ✓ | (scalar) | 8-lane, one call per tile at every `L` |
//! | dequantize | ✓ | (scalar) | 8-lane `vcvtqq2pd` |
//! | `L = 32` block encode | strip codec | `F ≤ 16` | `F ≤ 64`, one call per tile |
//! | `L = 32` block decode | strip codec | `F ≤ 16`, fused | `F ≤ 64`, fused, one call per batch of rows |
//!
//! The AVX2 tier leaves quantize/dequantize scalar on purpose: AVX2 has
//! no exact `f64`↔`i64` vector converts, and an approximate one would
//! break byte identity. Its block *decoder* still dequantizes in-vector
//! because decoded residual magnitudes are bounded (`F ≤ 16` ⇒ Lorenzo
//! sums below 2²¹), where the magic-number `i64 → f64` conversion is
//! exact.
//!
//! ## Bit-exact vector quantization (AVX-512)
//!
//! The scalar quantizer (`(d / 2eb).round() as i64`) spends most of its
//! time in the division, in `f64::round` (round **half away from zero**
//! has no direct x86 instruction) and in the saturating float→int cast.
//! The vector path reproduces all three **bit-exactly**:
//!
//! - *Division, by reciprocal*: the tile kernel first takes
//!   `y = d · r` with `r = fl(1/2eb)` and `n = y` rounded to the nearest
//!   integer, and keeps `n` for a vector whose every lane has
//!   `|y − n| < ½ − 2⁻⁴⁹·|y|`. That is exact: with `u = 2⁻⁵³`, both
//!   `x = fl(d/2eb)` and `y` are within `u` and `2u` of `d/2eb`
//!   relative (one rounding, and the rounded reciprocal times one more),
//!   so `|x − y| < 4u·|y| = 2⁻⁵¹·|y|`, a quarter of the margin. No
//!   half-integer lies between `x` and `y`, so both round to `n`, and
//!   `n` is not a tie, so half-away and half-even agree. The test also
//!   sends every lane at or past 2⁴⁸ (the margin reaches ½) and every
//!   NaN or infinite `y` to the division. A bound whose `r` is not a
//!   normal number divides every vector (the kernel then multiplies by
//!   NaN, which fails every lane's test); a subnormal `r` would in fact
//!   still stay inside the margin. On real data almost no vector falls
//!   back, and a multiply plus the test costs a fraction of
//!   `vdivpd`'s 16-cycle throughput.
//! - *Rounding, the tile kernel*: for a vector whose lanes all have
//!   `|x| < 2⁵¹`, `q = vcvttpd2qq(x + copysign(0.5 − 2⁻⁵⁴, x))`. The
//!   biased sum reaches the next integer exactly when the fraction is at
//!   least ½ — `0.5 − 2⁻⁵⁴` is the largest double below ½, which keeps
//!   the `x = 0.49999…94` case the classic `trunc(x + 0.5)` trick gets
//!   wrong at 0 — and no lane can overflow the convert. A vector with a
//!   lane at or past 2⁵¹, or a NaN lane, takes the general path below.
//! - *Rounding, general*: `t = trunc(x)`, `r = x − t` (exact — Sterbenz
//!   for `|t| ≥ 1`, trivially exact for `t = 0` or integral `x`), add
//!   `copysign(1, x)` where `|r| ≥ 0.5`. Branch-free, one lane step, and
//!   exactly round-half-away-from-zero for every finite `x`.
//! - *Saturation*: `vcvtpd2qq` yields `i64::MIN` for negative overflow
//!   (matching Rust's `as i64`) but also for positive overflow and NaN;
//!   two masked fix-ups restore `i64::MAX` / `0` for those lanes.
//!
//! `tests/simd_tiers.rs` pins all of it against the scalar oracle on
//! exact `k + ½` ties, one ulp either side, the 2⁵¹/2⁵² boundaries,
//! saturation, ±0, subnormals, NaN and ±∞, and for bounds with an
//! inexact reciprocal on `(k + ½)·2eb` ± 4 ulps, quotients at 2⁵¹ ± 1,
//! and bounds whose reciprocal overflows or is subnormal.
//!
//! ## Fused block decode
//!
//! The block decoders run the inverse bit-plane transposition *and* the
//! dequantize multiply in registers, storing finished `f32`/`f64`
//! elements straight to the output array. The q-integers never
//! round-trip through a scratch tile, which halves the decode path's L2
//! traffic (16 bytes of `i64` per element, gone) — the host analogue of
//! the paper's fused decompression kernel writing reconstructed data
//! directly from shared memory. The AVX-512 tier decodes a whole batch
//! of rows per call ([`decode_rows32`]): rows of whole blocks that follow
//! each other in the stream, each stored straight to its own place in
//! the output, with the batch's Eq-2 span, fixed lengths and
//! destinations checked once up front. A run of blocks into one
//! contiguous slice ([`decode_run32`]) is its one-row case. The AVX2
//! tier decodes one block per call ([`decode_block32_to`]).
//!
//! Every public function here is a drop-in for the scalar loop it
//! replaces: same outputs for every input, only faster. The differential
//! suites (`fast` unit tests, `tests/fast_vs_ref.rs`,
//! `tests/simd_tiers.rs`) pin this down against [`crate::host_ref`],
//! which still runs the scalar forms.

use crate::config::SimdLevel;
use crate::dtype::{DType, FloatData};
use crate::quantize::{dequantize, quantize};

/// Whether the AVX-512 paths are usable on this host (F: arithmetic and
/// masks; DQ: the `f64`↔`i64` vector converts; BW: 512-bit byte masks;
/// VBMI: `vpermb`, the cross-lane byte permute that does a whole 8×8
/// byte transpose in one instruction). `is_x86_feature_detected!`
/// caches, so calling this per tile is free.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx512() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
        && std::arch::is_x86_feature_detected!("avx512bw")
        && std::arch::is_x86_feature_detected!("avx512vbmi")
}

/// The best [`SimdLevel`] this host can run. Cheap to call repeatedly
/// (feature detection is cached by the standard library).
pub fn detect_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if avx512() {
            return SimdLevel::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
    }
    SimdLevel::Scalar
}

/// The `CUSZP_SIMD` override, read once per process. An unparseable
/// value warns on stderr and is ignored (treated as unset) rather than
/// aborting a library caller.
fn env_level() -> Option<SimdLevel> {
    static ENV: std::sync::OnceLock<Option<SimdLevel>> = std::sync::OnceLock::new();
    *ENV.get_or_init(|| {
        let s = std::env::var("CUSZP_SIMD").ok()?;
        if s.is_empty() {
            return None;
        }
        match SimdLevel::parse(&s) {
            Some(l) => Some(l),
            None => {
                eprintln!("cuszp: ignoring CUSZP_SIMD={s:?} (expected scalar, avx2, or avx512)");
                None
            }
        }
    })
}

/// Resolve the dispatch tier for a codec call: `forced` (the
/// [`CuszpConfig::simd`](crate::CuszpConfig::simd) field) wins, then
/// `CUSZP_SIMD`, then [`detect_level`] — and the result is clamped to
/// the detected tier, so forcing above the host's capability degrades
/// gracefully instead of faulting.
pub fn resolve_level(forced: Option<SimdLevel>) -> SimdLevel {
    let detected = detect_level();
    forced.or_else(env_level).unwrap_or(detected).min(detected)
}

/// Quantize `block` and apply the Lorenzo transform (`r₋₁ = 0` at the
/// block start), writing residuals into `resid[..block.len()]`. Returns
/// the maximum `unsigned_abs` over the residuals written. The scalar form
/// of [`quantize_blocks`]: bit-identical to
/// [`crate::quantize::quantize_block`] plus a max scan.
fn quantize_lorenzo_scalar<T: FloatData>(
    block: &[T],
    eb: f64,
    lorenzo: bool,
    resid: &mut [i64],
) -> u64 {
    let mut prev = 0i64;
    let mut max_abs = 0u64;
    for (dst, &d) in resid.iter_mut().zip(block) {
        let q = quantize(d, eb);
        let v = if lorenzo { q.wrapping_sub(prev) } else { q };
        if lorenzo {
            prev = q;
        }
        max_abs = max_abs.max(v.unsigned_abs());
        *dst = v;
    }
    max_abs
}

/// Quantize + Lorenzo a run of whole blocks at tier `level`: `data`
/// covers blocks of length `l` (the last may be partial), `resid` holds
/// `max_abs.len() · l` residuals (tail block zero-padded), and
/// `max_abs[b]` receives a magnitude whose highest set bit is that of
/// block `b`'s largest `|residual|` — the maximum itself, or on the
/// AVX-512 tile kernel the OR of the magnitudes — so
/// `64 − leading_zeros` is the block's fixed length `F` either way. The
/// Lorenzo predecessor resets at every block boundary.
///
/// At [`SimdLevel::Avx512`] the whole blocks are one kernel call
/// (constants hoisted, rounding inlined) at every block length; a ragged
/// final block and the other tiers run the scalar loop.
///
/// # Panics
/// Panics if `level` is above the host's tier or `l` is not a non-zero
/// multiple of 8.
pub fn quantize_blocks<T: FloatData>(
    level: SimdLevel,
    data: &[T],
    l: usize,
    eb: f64,
    lorenzo: bool,
    resid: &mut [i64],
    max_abs: &mut [u64],
) {
    debug_assert_eq!(resid.len(), max_abs.len() * l);
    debug_assert!(data.len() <= resid.len());
    // Real checks, once per call: the tile kernel relies on both.
    assert!(level <= detect_level(), "{level} is above the host's tier");
    assert!(
        l > 0 && l.is_multiple_of(8),
        "block length {l} is not a multiple of 8"
    );
    let n = data.len();
    let mut whole = 0;
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx512 {
        whole = n / l;
        let e = l * whole;
        // SAFETY: `level ≤ detect_level()` (asserted above) implies
        // avx512f/dq; `l` is a non-zero multiple of 8 (asserted above);
        // the kernel gets exactly `whole` blocks of data, residuals and
        // maxima (`e ≤ n`, and the other two slicings are bounds-checked);
        // FloatData is sealed, so T::DTYPE faithfully tags the element
        // type.
        unsafe {
            match T::DTYPE {
                DType::F32 => avx512_impl::quantize_tile_f32(
                    std::slice::from_raw_parts(data.as_ptr().cast::<f32>(), e),
                    l,
                    eb,
                    lorenzo,
                    &mut resid[..e],
                    &mut max_abs[..whole],
                ),
                DType::F64 => avx512_impl::quantize_tile_f64(
                    std::slice::from_raw_parts(data.as_ptr().cast::<f64>(), e),
                    l,
                    eb,
                    lorenzo,
                    &mut resid[..e],
                    &mut max_abs[..whole],
                ),
            }
        }
    }
    for (b, m) in max_abs.iter_mut().enumerate().skip(whole) {
        let start = b * l;
        let end = (start + l).min(n);
        let r = &mut resid[start..start + l];
        *m = quantize_lorenzo_scalar(&data[start..end], eb, lorenzo, r);
        r[end - start..].fill(0); // tail padding lives in the residual domain
    }
}

/// Dequantize `q[..]` into `out[..]` (`out[i] = qᵢ · 2eb`, narrowed to
/// `T`) at tier `level`. Bit-identical to a loop of
/// [`crate::quantize::dequantize`].
pub fn dequantize_slice<T: FloatData>(level: SimdLevel, q: &[i64], eb: f64, out: &mut [T]) {
    debug_assert!(q.len() >= out.len());
    debug_assert!(level <= detect_level());
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: FloatData is sealed, so T::DTYPE faithfully tags the
        // element type; `level ≤ detect_level()` implies the features.
        SimdLevel::Avx512 => unsafe {
            match T::DTYPE {
                DType::F32 => avx512_impl::dequantize_f32(
                    q,
                    eb,
                    std::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<f32>(), out.len()),
                ),
                DType::F64 => avx512_impl::dequantize_f64(
                    q,
                    eb,
                    std::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<f64>(), out.len()),
                ),
            }
        },
        _ => {
            for (dst, &r) in out.iter_mut().zip(q) {
                *dst = dequantize(r, eb);
            }
        }
    }
}

/// Largest per-block bit width `F` the `L = 32` vector block codec
/// handles at `level` (both directions); `0` means no vector block codec
/// at that tier. Blocks with a larger `F` — or any other block length —
/// take the portable word-parallel strip codec in [`crate::fast`].
pub fn block32_max_f(level: SimdLevel) -> u8 {
    match level {
        SimdLevel::Scalar => 0,
        // Magnitudes must fit u16 for the pack/movemask plane extraction.
        SimdLevel::Avx2 => 16,
        // The chunk-pair loop covers the full 64-bit magnitude strip.
        SimdLevel::Avx512 => 64,
    }
}

/// Encode one `L = 32` block (sign map + `f` bit planes, Fig 11 layout)
/// from `resid[..32]` into `out[..4 + 4f]` at the AVX2 tier.
/// Byte-identical to the generic strip codec. The AVX-512 tier encodes
/// whole tiles instead ([`encode_blocks32`]).
///
/// # Panics
/// Debug-asserts the preconditions; call only when `level` is
/// [`SimdLevel::Avx2`], `1 ≤ f ≤ block32_max_f(level)` and
/// `level ≤ detect_level()`.
pub fn encode_block32(level: SimdLevel, resid: &[i64], f: u8, out: &mut [u8]) {
    debug_assert!(level <= detect_level());
    debug_assert!(resid.len() == 32 && f >= 1 && f <= block32_max_f(level));
    debug_assert!(out.len() == 4 + 4 * f as usize);
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level ≤ detect_level()` implies the features; `f ≤ 16`
        // bounds magnitudes to u16.
        SimdLevel::Avx2 => unsafe { avx2_impl::encode_block32(resid, f, out) },
        _ => unreachable!("no per-block vector encoder at the {level} tier"),
    }
}

/// Encode a tile of `L = 32` blocks with the AVX-512 block kernel:
/// block `k` holds residuals `resid[32k..32k + 32]` and fixed length
/// `fls[k]`, and each non-zero block's sign map + bit planes are written
/// back to back into `out` (zero blocks write nothing). Byte-identical to
/// the generic strip codec per block, in one kernel call for the whole
/// tile. The AVX2 tier has no tile kernel; it calls [`encode_block32`]
/// per block.
///
/// # Panics
/// Panics if the host lacks [`SimdLevel::Avx512`]. Debug-asserts the
/// other preconditions (the kernel's slicing is bounds-checked either
/// way); call only when `resid.len() == 32 · fls.len()`, every
/// `fls[k] ≤ 64`, and `out.len()` is the tile's Eq-2 size (the sum of
/// `4 + 4F` over its non-zero blocks).
pub fn encode_blocks32(resid: &[i64], fls: &[u8], out: &mut [u8]) {
    assert_eq!(detect_level(), SimdLevel::Avx512, "the host lacks avx512");
    debug_assert_eq!(resid.len(), 32 * fls.len());
    debug_assert!(fls.iter().all(|&f| f <= 64));
    debug_assert_eq!(
        out.len(),
        fls.iter()
            .map(|&f| crate::encode::cmp_bytes_for(f, 32) as usize)
            .sum::<usize>()
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the host has the AVX-512 tier (asserted above), so the
    // features; the kernel slices each block's 32 residuals and `4 + 4F`
    // output bytes with bounds checks, and the block kernel loads and
    // stores only inside those slices.
    unsafe {
        avx512_impl::encode_tile32(resid, fls, out)
    }
}

/// Decode a run of whole `L = 32` blocks with the AVX-512 block kernel,
/// **fused with dequantization**: block `k` has fixed length `fls[k]`,
/// its payload follows the previous non-zero block's from the start of
/// `payload`, and its 32 elements go to `out[32k..32k + 32]` — signs
/// applied, Lorenzo prefix-summed when `lorenzo`, multiplied by `2eb`
/// and narrowed to `T`, all in registers. Zero blocks (`F = 0`) are
/// stores of `+0.0`. Bit-identical to the generic strip decode followed
/// by [`dequantize_slice`], per block, in one kernel call for the whole
/// run. Returns the run's Eq-2 span: the payload bytes it read.
///
/// This is the one-row case of [`decode_rows32`].
///
/// # Panics
/// Panics if the host lacks [`SimdLevel::Avx512`], if
/// `out.len() != 32 · fls.len()`, if some `fls[k]` exceeds 64, or if
/// `payload` is shorter than the run's span. These checks, made once per
/// run, keep the kernel's unchecked loads inside `payload` whatever its
/// bytes are.
pub fn decode_run32<T: FloatData>(
    fls: &[u8],
    payload: &[u8],
    lorenzo: bool,
    eb: f64,
    out: &mut [T],
) -> usize {
    assert_eq!(
        out.len(),
        32 * fls.len(),
        "run output length != 32 · blocks"
    );
    decode_rows32(fls, payload, lorenzo, eb, fls.len(), &[0], out)
}

/// Decode `dsts.len()` rows of `row_blocks` whole `L = 32` blocks each
/// with the AVX-512 block kernel, fused with dequantization as in
/// [`decode_run32`], in **one** kernel call. The rows' blocks follow
/// each other in the stream: `fls` holds their fixed lengths row after
/// row, and `payload` starts at the first row's first non-zero block.
/// Row `r`'s `32 · row_blocks` elements go to `out[dsts[r]..]`, so the
/// rows of a box land straight in their places in the caller's array.
/// Returns the batch's Eq-2 span: the payload bytes it read.
///
/// # Panics
/// Panics if the host lacks [`SimdLevel::Avx512`], if
/// `fls.len() != dsts.len() · row_blocks`, if some row's destination
/// range `dsts[r] + 32 · row_blocks` passes `out.len()`, if some
/// `fls[k]` exceeds 64, or if `payload` is shorter than the batch's
/// span. These checks, made once per call, keep the kernel's unchecked
/// loads inside `payload` and its stores inside `out` whatever the bytes
/// and destinations are.
pub fn decode_rows32<T: FloatData>(
    fls: &[u8],
    payload: &[u8],
    lorenzo: bool,
    eb: f64,
    row_blocks: usize,
    dsts: &[usize],
    out: &mut [T],
) -> usize {
    assert_eq!(detect_level(), SimdLevel::Avx512, "the host lacks avx512");
    assert_eq!(
        Some(fls.len()),
        dsts.len().checked_mul(row_blocks),
        "row blocks != rows · blocks per row"
    );
    let room = row_blocks
        .checked_mul(32)
        .and_then(|row| out.len().checked_sub(row));
    assert!(
        dsts.iter().all(|&d| room.is_some_and(|r| d <= r)),
        "row destination past the output"
    );
    let (mut span, mut f_max) = (0usize, 0u8);
    for &f in fls {
        f_max = f_max.max(f);
        span += crate::encode::cmp_bytes_for(f, 32) as usize;
    }
    assert!(f_max <= 64, "invalid stream: fixed length exceeds 64");
    let payload = payload
        .get(..span)
        .expect("invalid stream: payload shorter than the Eq-2 span of the requested blocks");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the host has the AVX-512 tier (asserted above), so the
    // features; every `F ≤ 64` and `payload` is exactly the batch's Eq-2
    // span (both checked above), so each block's sign load and masked
    // plane loads stay inside it; `fls` holds `row_blocks` lengths per
    // destination and each `dsts[r] + 32 · row_blocks ≤ out.len()` (both
    // asserted above), so every row's stores stay inside `out`;
    // FloatData is sealed, so T::DTYPE faithfully tags the element type.
    unsafe {
        match T::DTYPE {
            DType::F32 => avx512_impl::decode_rows32_f32(
                fls,
                payload,
                lorenzo,
                eb,
                row_blocks,
                dsts,
                std::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<f32>(), out.len()),
            ),
            DType::F64 => avx512_impl::decode_rows32_f64(
                fls,
                payload,
                lorenzo,
                eb,
                row_blocks,
                dsts,
                std::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<f64>(), out.len()),
            ),
        }
    }
    span
}

/// Decode one `L = 32` block payload **fused with dequantization** at
/// the AVX2 tier: signs applied, Lorenzo prefix-summed when `lorenzo`,
/// multiplied by `2eb` and narrowed to `T` — all in registers — then
/// stored to `out[..32]`. Bit-identical to the generic decode followed
/// by [`dequantize_slice`]. The AVX-512 tier decodes whole runs instead
/// ([`decode_run32`]).
///
/// # Panics
/// Debug-asserts the same preconditions as [`encode_block32`].
pub fn decode_block32_to<T: FloatData>(
    level: SimdLevel,
    payload: &[u8],
    f: u8,
    lorenzo: bool,
    eb: f64,
    out: &mut [T],
) {
    debug_assert!(level <= detect_level());
    debug_assert!(out.len() == 32 && f >= 1 && f <= block32_max_f(level));
    debug_assert!(payload.len() == 4 + 4 * f as usize);
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: features implied by the level; FloatData is sealed so
        // T::DTYPE faithfully tags the element type; `f ≤ 16` bounds
        // every decoded magnitude below 2¹⁶ and Lorenzo sums below 2²¹,
        // inside the exact range of the magic-number i64→f64 conversion.
        SimdLevel::Avx2 => unsafe {
            match T::DTYPE {
                DType::F32 => avx2_impl::decode_block32_f32(
                    payload,
                    f,
                    lorenzo,
                    eb,
                    std::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<f32>(), out.len()),
                ),
                DType::F64 => avx2_impl::decode_block32_f64(
                    payload,
                    f,
                    lorenzo,
                    eb,
                    std::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<f64>(), out.len()),
                ),
            }
        },
        _ => unreachable!("no per-block vector decoder at the {level} tier"),
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512_impl {
    use std::arch::x86_64::*;

    /// Byte-transpose permutation for `vpermb`: byte `8t + i` reads byte
    /// `8i + t` (its own inverse).
    const BT_IDX: [u8; 64] = {
        let mut idx = [0u8; 64];
        let mut j = 0;
        while j < 64 {
            idx[j] = (((j & 7) << 3) | (j >> 3)) as u8;
            j += 1;
        }
        idx
    };

    /// Encode-side final permute: plane-layout byte `m = 4k + g`
    /// (pair-relative plane `k = 8t + c`, group `g`) reads transposed
    /// byte `32t + 8g + c`.
    const ENC_PLANES_IDX: [u8; 64] = {
        let mut idx = [0u8; 64];
        let mut m = 0;
        while m < 64 {
            let (t, c, g) = (m >> 5, (m >> 2) & 7, m & 3);
            idx[m] = (32 * t + 8 * g + c) as u8;
            m += 1;
        }
        idx
    };

    /// Decode-side inverse: transposed byte `j = 32t + 8g + c` reads
    /// plane-layout byte `32t + 4c + g`.
    const DEC_PLANES_IDX: [u8; 64] = {
        let mut idx = [0u8; 64];
        let mut j = 0;
        while j < 64 {
            let (t, g, c) = (j >> 5, (j >> 3) & 3, j & 7);
            idx[j] = (32 * t + 4 * c + g) as u8;
            j += 1;
        }
        idx
    };

    /// Narrow-decode interleave: after the bit transpose, value `v`'s
    /// low magnitude byte sits at byte `v` and its high byte at `32 + v`,
    /// so word `v` of the output reads bytes `(v, 32 + v)` — one `vpermb`
    /// turns the transposed pair into 32 little-endian `u16` magnitudes
    /// in value order.
    const INTERLEAVE_IDX: [u8; 64] = {
        let mut idx = [0u8; 64];
        let mut v = 0;
        while v < 32 {
            idx[2 * v] = v as u8;
            idx[2 * v + 1] = (32 + v) as u8;
            v += 1;
        }
        idx
    };

    /// Eight independent 8×8 bit-matrix transposes, one per qword lane —
    /// `transpose8x8`'s three masked delta-swaps lifted to 512 bits.
    ///
    /// # Safety
    /// Requires `avx512f`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn transpose8x8_x8(mut z: __m512i) -> __m512i {
        let m1 = _mm512_set1_epi64(0x00AA_00AA_00AA_00AAu64 as i64);
        let t = _mm512_and_si512(_mm512_xor_si512(z, _mm512_srli_epi64(z, 7)), m1);
        z = _mm512_xor_si512(z, _mm512_xor_si512(t, _mm512_slli_epi64(t, 7)));
        let m2 = _mm512_set1_epi64(0x0000_CCCC_0000_CCCCu64 as i64);
        let t = _mm512_and_si512(_mm512_xor_si512(z, _mm512_srli_epi64(z, 14)), m2);
        z = _mm512_xor_si512(z, _mm512_xor_si512(t, _mm512_slli_epi64(t, 14)));
        let m3 = _mm512_set1_epi64(0x0000_0000_F0F0_F0F0u64 as i64);
        let t = _mm512_and_si512(_mm512_xor_si512(z, _mm512_srli_epi64(z, 28)), m3);
        _mm512_xor_si512(z, _mm512_xor_si512(t, _mm512_slli_epi64(t, 28)))
    }

    /// Encode at any `1 ≤ f ≤ 64`: planes are produced 16 at a time from
    /// one magnitude-byte *chunk pair* — for pair `p`, bytes `2p`/`2p+1`
    /// of all 32 magnitudes feed planes `16p .. 16p+16` through the same
    /// merge → bit-transpose → `vpermb` sequence the original `F ≤ 16`
    /// kernel ran once. Dense data (`F ≤ 16`) still runs exactly one
    /// iteration.
    ///
    /// # Safety
    /// Requires `avx512f`, `avx512dq`, `avx512bw`, `avx512vbmi`;
    /// `resid.len() == 32`, `1 ≤ f ≤ 64` and `out.len() == 4 + 4f` (the
    /// loads read 32 residuals, the masked stores write `4 + 4f` bytes).
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vbmi")]
    unsafe fn encode_block32(resid: &[i64], f: u8, out: &mut [u8]) {
        debug_assert!(resid.len() == 32 && (1..=64).contains(&f));
        debug_assert_eq!(out.len(), 4 + 4 * f as usize);
        let bt = _mm512_loadu_si512(BT_IDX.as_ptr() as *const _);
        // Per value-group: sign mask straight off the qword sign bits,
        // then |v| byte-transposed so qword t holds chunk t's 8 bytes.
        let mut signs = 0u32;
        let mut limbs = [_mm512_setzero_si512(); 4];
        for (g, l) in limbs.iter_mut().enumerate() {
            let v = _mm512_loadu_si512(resid.as_ptr().add(8 * g) as *const _);
            signs |= (_mm512_movepi64_mask(v) as u32) << (8 * g);
            *l = _mm512_permutexvar_epi8(bt, _mm512_abs_epi64(v));
        }
        out[..4].copy_from_slice(&signs.to_le_bytes());
        let enc = _mm512_loadu_si512(ENC_PLANES_IDX.as_ptr() as *const _);
        let fu = f as usize;
        for p in 0..fu.div_ceil(16) {
            // Merge the four groups' chunk-2p/2p+1 qwords into one vector
            // laid out `[x₀₀ x₀₁ x₀₂ x₀₃ x₁₀ x₁₁ x₁₂ x₁₃]`
            // (x_{pair-relative chunk, group}).
            let c0 = 2 * p as i64;
            let sel = _mm512_setr_epi64(c0, 8 + c0, 0, 0, c0 + 1, 9 + c0, 0, 0);
            let p01 = _mm512_permutex2var_epi64(limbs[0], sel, limbs[1]);
            let p23 = _mm512_permutex2var_epi64(limbs[2], sel, limbs[3]);
            let z =
                _mm512_permutex2var_epi64(p01, _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13), p23);
            // Eight bit transposes at once, then one byte permute lands
            // every plane byte at its Fig 11 position; a masked store
            // writes exactly the pair's `4·count` plane bytes.
            let y = transpose8x8_x8(z);
            let planes = _mm512_permutexvar_epi8(enc, y);
            let count = (fu - 16 * p).min(16);
            let mask: u64 = if count == 16 {
                !0
            } else {
                (1u64 << (4 * count)) - 1
            };
            _mm512_mask_storeu_epi8(out.as_mut_ptr().add(4 + 64 * p) as *mut _, mask, planes);
        }
    }

    /// A tile's non-zero blocks, each through the inlined
    /// [`encode_block32`], written back to back into `out`.
    ///
    /// # Safety
    /// Requires `avx512f`, `avx512dq`, `avx512bw`, `avx512vbmi`;
    /// `resid.len() == 32 · fls.len()`, every `fls[k] ≤ 64`, and
    /// `out.len()` equals the sum of `4 + 4F` over the non-zero blocks.
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vbmi")]
    pub unsafe fn encode_tile32(resid: &[i64], fls: &[u8], out: &mut [u8]) {
        debug_assert_eq!(resid.len(), 32 * fls.len());
        let mut at = 0;
        for (k, &f) in fls.iter().enumerate() {
            if f == 0 {
                continue;
            }
            let cmp = 4 + 4 * f as usize;
            encode_block32(&resid[32 * k..32 * k + 32], f, &mut out[at..at + cmp]);
            at += cmp;
        }
        debug_assert_eq!(at, out.len());
    }

    /// Decode one block's 32 quantization integers into four 8-lane
    /// vectors (value groups in order): inverse plane permute +
    /// bit transpose per chunk pair, then per group the magnitude chunks
    /// are gathered, byte-untransposed, sign-applied, and Lorenzo
    /// prefix-summed. `dec` and `bt` hold [`DEC_PLANES_IDX`] and
    /// [`BT_IDX`], loaded once per call by the caller.
    ///
    /// # Safety
    /// Requires `avx512f`, `avx512dq`, `avx512bw`, `avx512vbmi`;
    /// `1 ≤ f ≤ 64` and `block` is readable for the block's `4 + 4f`
    /// payload bytes.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vbmi")]
    unsafe fn decode_block32_groups(
        block: *const u8,
        f: u8,
        lorenzo: bool,
        dec: __m512i,
        bt: __m512i,
    ) -> [__m512i; 4] {
        let fu = f as usize;
        let pairs = fu.div_ceil(16);
        // zs[p]: bit-transposed plane pair p — qword g holds chunk 2p's
        // group-g bytes, qword 4+g chunk 2p+1's. Unused pairs stay zero
        // (absent planes decode as zero magnitude bits).
        let mut zs = [_mm512_setzero_si512(); 4];
        for (p, z) in zs.iter_mut().enumerate().take(pairs) {
            let count = (fu - 16 * p).min(16);
            let mask: u64 = if count == 16 {
                !0
            } else {
                (1u64 << (4 * count)) - 1
            };
            let planes = _mm512_maskz_loadu_epi8(mask, block.add(4 + 64 * p) as *const _);
            *z = transpose8x8_x8(_mm512_permutexvar_epi8(dec, planes));
        }
        let signs = u32::from_le(block.cast::<u32>().read_unaligned());
        let zero = _mm512_setzero_si512();
        let mut carry = _mm512_setzero_si512();
        let mut out = [_mm512_setzero_si512(); 4];
        for (g, dst) in out.iter_mut().enumerate() {
            // Gather group g's magnitude chunks (qword t = chunk t), un-
            // transpose bytes, apply the sign map, then the Lorenzo scan.
            let gi = g as i64;
            let lo_idx = _mm512_setr_epi64(gi, 4 + gi, 8 + gi, 12 + gi, 0, 0, 0, 0);
            let mut limbs = _mm512_maskz_permutex2var_epi64(0x0F, zs[0], lo_idx, zs[1]);
            if pairs > 2 {
                let hi_idx = _mm512_setr_epi64(0, 0, 0, 0, gi, 4 + gi, 8 + gi, 12 + gi);
                limbs = _mm512_or_si512(
                    limbs,
                    _mm512_maskz_permutex2var_epi64(0xF0, zs[2], hi_idx, zs[3]),
                );
            }
            let abs = _mm512_permutexvar_epi8(bt, limbs);
            let smask = ((signs >> (8 * g)) & 0xFF) as u8;
            let mut v = _mm512_mask_sub_epi64(abs, smask, zero, abs);
            if lorenzo {
                // In-lane inclusive scan (three shifted adds) plus the
                // running carry from the previous group.
                v = _mm512_add_epi64(v, _mm512_alignr_epi64(v, zero, 7));
                v = _mm512_add_epi64(v, _mm512_alignr_epi64(v, zero, 6));
                v = _mm512_add_epi64(v, _mm512_alignr_epi64(v, zero, 4));
                v = _mm512_add_epi64(v, carry);
                carry = _mm512_permutexvar_epi64(_mm512_set1_epi64(7), v);
            }
            *dst = v;
        }
        out
    }

    /// Narrow decode for `f ≤ 16`: one block's 32 quantization integers
    /// as two 16-lane `i32` vectors (value order). With at most 16
    /// planes every magnitude fits `u16`, so after the single pair's
    /// inverse permute + bit transpose, one [`INTERLEAVE_IDX`] `vpermb`
    /// yields all 32 magnitudes at once — the per-group qword gathers
    /// and byte un-transposes of the wide path vanish, and the Lorenzo
    /// scan runs over 16 lanes in two rounds-of-five instead of four
    /// rounds-of-four. Prefix sums stay below `32 · 2¹⁶ < 2²¹`, so `i32`
    /// arithmetic is exact (identical to the scalar `i64` decode).
    /// `dec` and `inter` hold [`DEC_PLANES_IDX`] and [`INTERLEAVE_IDX`],
    /// loaded once per call by the caller.
    ///
    /// # Safety
    /// Requires `avx512f`, `avx512dq`, `avx512bw`, `avx512vbmi`;
    /// `1 ≤ f ≤ 16` and `block` is readable for the block's `4 + 4f`
    /// payload bytes.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vbmi")]
    unsafe fn decode_block32_narrow(
        block: *const u8,
        f: u8,
        lorenzo: bool,
        dec: __m512i,
        inter: __m512i,
    ) -> [__m512i; 2] {
        let fu = f as usize;
        let mask: u64 = if fu == 16 { !0 } else { (1u64 << (4 * fu)) - 1 };
        let planes = _mm512_maskz_loadu_epi8(mask, block.add(4) as *const _);
        let z = transpose8x8_x8(_mm512_permutexvar_epi8(dec, planes));
        let mags = _mm512_permutexvar_epi8(inter, z);
        let signs = u32::from_le(block.cast::<u32>().read_unaligned());
        let zero = _mm512_setzero_si512();
        let mut carry = zero;
        let mut out = [zero; 2];
        for (h, dst) in out.iter_mut().enumerate() {
            let half = if h == 0 {
                _mm512_castsi512_si256(mags)
            } else {
                _mm512_extracti64x4_epi64(mags, 1)
            };
            let w = _mm512_cvtepu16_epi32(half);
            let smask = ((signs >> (16 * h)) & 0xFFFF) as u16;
            let mut v = _mm512_mask_sub_epi32(w, smask, zero, w);
            if lorenzo {
                v = _mm512_add_epi32(v, _mm512_alignr_epi32(v, zero, 15));
                v = _mm512_add_epi32(v, _mm512_alignr_epi32(v, zero, 14));
                v = _mm512_add_epi32(v, _mm512_alignr_epi32(v, zero, 12));
                v = _mm512_add_epi32(v, _mm512_alignr_epi32(v, zero, 8));
                v = _mm512_add_epi32(v, carry);
                carry = _mm512_permutexvar_epi32(_mm512_set1_epi32(15), v);
            }
            *dst = v;
        }
        out
    }

    /// Decode rows of `L = 32` blocks fused with dequantization: row `r`
    /// is blocks `r·row_blocks ..` of `fls`, each block's payload follows
    /// the previous non-zero block's in `payload`, and the row's block
    /// `b` puts its 32 finished elements at `out + dsts[r] + 32b`, eight
    /// at a time through `store` (`qᵢ · 2eb` in `f64` lanes, narrowed by
    /// `store` where `E` is `f32`). A zero block is four stores of
    /// `+0.0`, which is `dequantize(0)` for both element types. The
    /// integers live in registers only; a run of whole blocks is the
    /// one-row case (`dsts = [0]`).
    ///
    /// Always inlined, so it runs with its caller's target features.
    ///
    /// # Safety
    /// The caller enables `avx512f`, `avx512dq`, `avx512bw` and
    /// `avx512vbmi`; `fls.len() == dsts.len() · row_blocks`; every
    /// `fls[k] ≤ 64`; `payload.len()` is the batch's Eq-2 span (the sum
    /// of `4 + 4F` over its non-zero blocks), so every block's loads stay
    /// inside `payload`; and `out + dsts[r]` is valid for writes of
    /// `32 · row_blocks` elements for every `r`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn decode_rows32<E>(
        fls: &[u8],
        payload: &[u8],
        lorenzo: bool,
        eb: f64,
        row_blocks: usize,
        dsts: &[usize],
        out: *mut E,
        store: impl Fn(*mut E, __m512d),
    ) {
        debug_assert_eq!(fls.len(), dsts.len() * row_blocks);
        debug_assert!(fls.iter().all(|&f| f <= 64));
        debug_assert_eq!(
            payload.len(),
            fls.iter()
                .map(|&f| crate::encode::cmp_bytes_for(f, 32) as usize)
                .sum::<usize>()
        );
        if row_blocks == 0 {
            return;
        }
        let dec = _mm512_loadu_si512(DEC_PLANES_IDX.as_ptr() as *const _);
        let inter = _mm512_loadu_si512(INTERLEAVE_IDX.as_ptr() as *const _);
        let bt = _mm512_loadu_si512(BT_IDX.as_ptr() as *const _);
        let veb = _mm512_set1_pd(2.0 * eb);
        let zero = _mm512_setzero_pd();
        let mut block = payload.as_ptr();
        for (&d, row) in dsts.iter().zip(fls.chunks_exact(row_blocks)) {
            let row_out = out.add(d);
            for (k, &f) in row.iter().enumerate() {
                let dst = row_out.add(32 * k);
                if f == 0 {
                    for g in 0..4 {
                        store(dst.add(8 * g), zero);
                    }
                    continue;
                }
                if f <= 16 {
                    let halves = decode_block32_narrow(block, f, lorenzo, dec, inter);
                    for (h, v) in halves.iter().enumerate() {
                        let lo = _mm512_cvtepi32_pd(_mm512_castsi512_si256(*v));
                        let hi = _mm512_cvtepi32_pd(_mm512_extracti64x4_epi64(*v, 1));
                        store(dst.add(16 * h), _mm512_mul_pd(lo, veb));
                        store(dst.add(16 * h + 8), _mm512_mul_pd(hi, veb));
                    }
                } else {
                    let groups = decode_block32_groups(block, f, lorenzo, dec, bt);
                    for (g, v) in groups.iter().enumerate() {
                        store(dst.add(8 * g), _mm512_mul_pd(_mm512_cvtepi64_pd(*v), veb));
                    }
                }
                block = block.add(4 + 4 * f as usize);
            }
        }
    }

    macro_rules! decode_rows32_of {
        ($name:ident, $elem:ty, $store:expr) => {
            /// [`decode_rows32`] into `$elem` elements.
            ///
            /// # Safety
            /// Requires `avx512f`, `avx512dq`, `avx512bw`, `avx512vbmi`;
            /// `fls.len() == dsts.len() · row_blocks`, every
            /// `fls[k] ≤ 64`, `payload.len()` is the batch's Eq-2 span
            /// and every `dsts[r] + 32 · row_blocks ≤ out.len()`.
            #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vbmi")]
            pub unsafe fn $name(
                fls: &[u8],
                payload: &[u8],
                lorenzo: bool,
                eb: f64,
                row_blocks: usize,
                dsts: &[usize],
                out: &mut [$elem],
            ) {
                debug_assert!(dsts.iter().all(|&d| d + 32 * row_blocks <= out.len()));
                decode_rows32(
                    fls,
                    payload,
                    lorenzo,
                    eb,
                    row_blocks,
                    dsts,
                    out.as_mut_ptr(),
                    $store,
                )
            }
        };
    }

    decode_rows32_of!(decode_rows32_f32, f32, |p: *mut f32, d: __m512d| {
        _mm256_storeu_ps(p, _mm512_cvtpd_ps(d))
    });
    decode_rows32_of!(decode_rows32_f64, f64, |p: *mut f64, d: __m512d| {
        _mm512_storeu_pd(p, d)
    });

    /// `round(x)` (half away from zero) for 8 lanes, then saturating-cast
    /// to `i64` with Rust `as` semantics.
    ///
    /// # Safety
    /// Requires `avx512f` and `avx512dq`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn round_to_i64(x: __m512d) -> __m512i {
        let absmask = _mm512_castsi512_pd(_mm512_set1_epi64(0x7FFF_FFFF_FFFF_FFFFu64 as i64));
        let t = _mm512_roundscale_pd(x, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
        let r = _mm512_sub_pd(x, t); // exact (see module docs)
        let m = _mm512_cmp_pd_mask(_mm512_and_pd(r, absmask), _mm512_set1_pd(0.5), _CMP_GE_OQ);
        let adj = _mm512_or_pd(_mm512_set1_pd(1.0), _mm512_andnot_pd(absmask, x));
        let rounded = _mm512_mask_add_pd(t, m, t, adj);
        let q = _mm512_cvt_roundpd_epi64(rounded, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
        // `as i64` saturation: +overflow → MAX (the convert already gives
        // MIN for −overflow), NaN → 0.
        let m_pos = _mm512_cmp_pd_mask(
            rounded,
            _mm512_set1_pd(9.223_372_036_854_776e18),
            _CMP_GE_OQ,
        );
        let m_nan = _mm512_cmp_pd_mask(rounded, rounded, _CMP_UNORD_Q);
        let q = _mm512_mask_mov_epi64(q, m_pos, _mm512_set1_epi64(i64::MAX));
        _mm512_mask_mov_epi64(q, m_nan, _mm512_setzero_si512())
    }

    /// `|x|` below which [`quantize_tile`] rounds by
    /// `trunc(x + copysign(0.5⁻, x))`: 2⁵¹.
    const FAST_ROUND_LIMIT: f64 = 2_251_799_813_685_248.0;

    /// The largest double below ½ (`0.5 − 2⁻⁵⁴`).
    const HALF_BELOW: f64 = 0.499_999_999_999_999_94;

    /// `2⁻⁴⁹`: how far, relative to `|y|`, a quotient taken by
    /// reciprocal must sit from every half-integer for [`quantize_tile`]
    /// to round it instead of dividing.
    const RCP_MARGIN: f64 = 1.0 / 562_949_953_421_312.0;

    /// Quantize + Lorenzo `maxes.len()` whole blocks of `l` values, each
    /// 8-lane group loaded by `load`: `resid` receives the residuals,
    /// `maxes[b]` the OR of block `b`'s residual magnitudes (same top bit
    /// as their maximum).
    ///
    /// A group first tries the quotient by reciprocal, `y = d · fl(1/2eb)`,
    /// and rounds it to nearest (`vrndscalepd`). That is `round(d / 2eb)`
    /// whenever every lane's `|y − n|`, `n` the nearest integer, is below
    /// `½ − 2⁻⁴⁹·|y|` (see the module docs). A group with any other lane —
    /// within that margin of a half-integer, at or past 2⁴⁸ (the margin
    /// there reaches ½), non-finite, or any lane at all when `1/2eb` is
    /// not a normal number (the reciprocal is then NaN) — divides
    /// instead, exactly as the scalar quantizer does.
    ///
    /// A divided group whose lanes all have `|x| < 2⁵¹` rounds half away
    /// from zero as `trunc(x + copysign(0.5 − 2⁻⁵⁴, x))`: the biased sum
    /// never crosses the next integer unless the fraction is at least ½,
    /// and it never overflows the convert. Any other group — a lane at or
    /// past 2⁵¹, or NaN — takes [`round_to_i64`], which keeps `as i64`
    /// saturation and NaN → 0.
    ///
    /// Always inlined, so it runs with its caller's target features and
    /// a literal `l` gives the group loop a constant trip count.
    ///
    /// # Safety
    /// The caller enables `avx512f` and `avx512dq`; `l` is a non-zero
    /// multiple of 8 and `data.len() == resid.len() == l · maxes.len()`.
    #[inline(always)]
    unsafe fn quantize_tile<E>(
        data: &[E],
        l: usize,
        eb: f64,
        lorenzo: bool,
        resid: &mut [i64],
        maxes: &mut [u64],
        load: impl Fn(*const E) -> __m512d,
    ) {
        debug_assert!(
            l.is_multiple_of(8) && data.len() == l * maxes.len() && resid.len() == data.len()
        );
        let veb = _mm512_set1_pd(2.0 * eb);
        // A NaN reciprocal fails every lane's margin test below, so a
        // bound whose `1/2eb` is not normal divides every group.
        let rcp = 1.0 / (2.0 * eb);
        let vrcp = _mm512_set1_pd(if rcp.is_normal() { rcp } else { f64::NAN });
        let margin = _mm512_set1_pd(RCP_MARGIN);
        let one_half = _mm512_set1_pd(0.5);
        let absmask = _mm512_castsi512_pd(_mm512_set1_epi64(i64::MAX));
        let limit = _mm512_set1_pd(FAST_ROUND_LIMIT);
        let half = _mm512_set1_pd(HALF_BELOW);
        let zero = _mm512_setzero_si512();
        let src = data.as_ptr();
        let dst = resid.as_mut_ptr();
        for (b, m) in maxes.iter_mut().enumerate() {
            let mut prev = zero;
            let mut acc = zero;
            for g in 0..l / 8 {
                let i = l * b + 8 * g;
                let d = load(src.add(i));
                let y = _mm512_mul_pd(d, vrcp);
                let n = _mm512_roundscale_pd(y, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
                let off = _mm512_and_pd(_mm512_sub_pd(y, n), absmask);
                // ½ − 2⁻⁴⁹·|y|; NaN lanes fail the ordered compare.
                let room = _mm512_fnmadd_pd(_mm512_and_pd(y, absmask), margin, one_half);
                let q = if _mm512_cmp_pd_mask(off, room, _CMP_LT_OQ) == 0xFF {
                    _mm512_cvttpd_epi64(n)
                } else {
                    let x = _mm512_div_pd(d, veb);
                    if _mm512_cmp_pd_mask(_mm512_and_pd(x, absmask), limit, _CMP_LT_OQ) == 0xFF {
                        let bias = _mm512_or_pd(half, _mm512_andnot_pd(absmask, x));
                        _mm512_cvttpd_epi64(_mm512_add_pd(x, bias))
                    } else {
                        round_to_i64(x)
                    }
                };
                let v = if lorenzo {
                    // [prev₇, q₀ … q₆] — each lane's predecessor.
                    let shifted = _mm512_alignr_epi64(q, prev, 7);
                    prev = q;
                    _mm512_sub_epi64(q, shifted)
                } else {
                    q
                };
                acc = _mm512_or_si512(acc, _mm512_abs_epi64(v));
                _mm512_storeu_si512(dst.add(i) as *mut _, v);
            }
            *m = _mm512_reduce_or_epi64(acc) as u64;
        }
    }

    macro_rules! quantize_tile_of {
        ($name:ident, $elem:ty, $load:expr) => {
            /// [`quantize_tile`] over `$elem` data; the default block
            /// length runs its own copy of the loop, with a constant trip
            /// count.
            ///
            /// # Safety
            /// Requires `avx512f` and `avx512dq`; `l` is a non-zero
            /// multiple of 8 and `data.len() == resid.len() == l · maxes.len()`.
            #[target_feature(enable = "avx512f,avx512dq")]
            pub unsafe fn $name(
                data: &[$elem],
                l: usize,
                eb: f64,
                lorenzo: bool,
                resid: &mut [i64],
                maxes: &mut [u64],
            ) {
                if l == 32 {
                    quantize_tile(data, 32, eb, lorenzo, resid, maxes, $load)
                } else {
                    quantize_tile(data, l, eb, lorenzo, resid, maxes, $load)
                }
            }
        };
    }

    quantize_tile_of!(quantize_tile_f32, f32, |p: *const f32| {
        _mm512_cvtps_pd(_mm256_loadu_ps(p))
    });
    quantize_tile_of!(quantize_tile_f64, f64, |p: *const f64| {
        _mm512_loadu_pd(p)
    });

    /// # Safety
    /// Requires `avx512f` and `avx512dq`.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub unsafe fn dequantize_f32(q: &[i64], eb: f64, out: &mut [f32]) {
        let n = out.len();
        let veb = _mm512_set1_pd(2.0 * eb);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm512_loadu_si512(q.as_ptr().add(i) as *const _);
            let d = _mm512_mul_pd(_mm512_cvtepi64_pd(v), veb);
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm512_cvtpd_ps(d));
            i += 8;
        }
        for k in i..n {
            out[k] = (q[k] as f64 * 2.0 * eb) as f32;
        }
    }

    /// # Safety
    /// Requires `avx512f` and `avx512dq`.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub unsafe fn dequantize_f64(q: &[i64], eb: f64, out: &mut [f64]) {
        let n = out.len();
        let veb = _mm512_set1_pd(2.0 * eb);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm512_loadu_si512(q.as_ptr().add(i) as *const _);
            _mm512_storeu_pd(
                out.as_mut_ptr().add(i),
                _mm512_mul_pd(_mm512_cvtepi64_pd(v), veb),
            );
            i += 8;
        }
        for k in i..n {
            out[k] = q[k] as f64 * 2.0 * eb;
        }
    }
}

/// 256-bit block codec for `L = 32`, `F ≤ 16`.
///
/// AVX2 has no `vpermb` and no 512-bit delta-swap, so the kernel takes a
/// different route to the same bytes: the 32 magnitudes (which fit `u16`
/// because `F ≤ 16`) are packed into two byte vectors — one per
/// magnitude byte — put into **value order** with a `vpermd` + `vpshufb`
/// pair, and then each bit plane falls out of one `vpmovmskb` per plane
/// (bit `j` of the 32-bit mask *is* plane bit `j` of value `j`, exactly
/// the Fig 11 plane word). Decoding inverts that with a broadcast +
/// `vpshufb` + byte-test per plane, then rebuilds `i64` lanes and runs a
/// 4-lane Lorenzo scan. Dequantization is fused via the magic-number
/// `i64 → f64` conversion, exact below 2⁵¹ (decoded Lorenzo sums stay
/// below 2²¹).
#[cfg(target_arch = "x86_64")]
mod avx2_impl {
    use std::arch::x86_64::*;

    /// Bring the pack result into value order, part 1: dword gather.
    /// After `vpackuswb(w_lo & FF, w_hi & FF)` the byte that belongs to
    /// value `j` sits at a fixed permutation of positions whose dwords
    /// regroup per 128-bit destination lane as `[0, 1, 4, 5 | 2, 3, 6, 7]`.
    ///
    /// # Safety
    /// Requires `avx2`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn value_order(x: __m256i) -> __m256i {
        let perm = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
        // Part 2: in-lane byte shuffle. Post-gather, lane byte `4i + l`
        // holds value `4i + l`'s byte at position `4l + i` — the same
        // 4×4 transpose in both lanes.
        let shuf = _mm256_setr_epi8(
            0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15, //
            0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15,
        );
        _mm256_shuffle_epi8(_mm256_permutevar8x32_epi32(x, perm), shuf)
    }

    /// Store planes `base .. min(base+8, f)` from `x` (byte `j` = byte
    /// `base/8` of value `j`'s magnitude): one `vpmovmskb` per plane,
    /// walking bit 7 → 0 by per-byte doubling.
    ///
    /// # Safety
    /// Requires `avx2`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_planes(x: __m256i, base: u8, f: u8, out: &mut [u8]) {
        let mut s = x;
        for k in (0..8u8).rev() {
            let plane = base + k;
            if plane < f {
                let m = _mm256_movemask_epi8(s) as u32;
                out[4 + 4 * plane as usize..][..4].copy_from_slice(&m.to_le_bytes());
            }
            s = _mm256_add_epi8(s, s);
        }
    }

    /// # Safety
    /// Requires `avx2`; caller guarantees `resid.len() == 32`,
    /// `1 ≤ f ≤ 16` (so every `|residual| < 2¹⁶`), and
    /// `out.len() == 4 + 4f`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn encode_block32(resid: &[i64], f: u8, out: &mut [u8]) {
        let zero = _mm256_setzero_si256();
        let mut v = [zero; 8];
        let mut signs = 0u32;
        for (i, reg) in v.iter_mut().enumerate() {
            let x = _mm256_loadu_si256(resid.as_ptr().add(4 * i) as *const __m256i);
            // The i64 sign bit is the f64 sign bit — `vmovmskpd` reads it.
            signs |= (_mm256_movemask_pd(_mm256_castsi256_pd(x)) as u32) << (4 * i);
            let neg = _mm256_cmpgt_epi64(zero, x);
            *reg = _mm256_sub_epi64(_mm256_xor_si256(x, neg), neg);
        }
        out[..4].copy_from_slice(&signs.to_le_bytes());
        // Fold the 32 (≤16-bit) magnitudes into two u16 vectors: u16 slot
        // `4l + i` of w_lo holds value `4i + l` (i64 lane l survives, the
        // source register index i becomes the sub-slot).
        let w_lo = _mm256_or_si256(
            _mm256_or_si256(v[0], _mm256_slli_epi64(v[1], 16)),
            _mm256_or_si256(_mm256_slli_epi64(v[2], 32), _mm256_slli_epi64(v[3], 48)),
        );
        let w_hi = _mm256_or_si256(
            _mm256_or_si256(v[4], _mm256_slli_epi64(v[5], 16)),
            _mm256_or_si256(_mm256_slli_epi64(v[6], 32), _mm256_slli_epi64(v[7], 48)),
        );
        // Low magnitude bytes → planes 0..8; high bytes → planes 8..16.
        let ff = _mm256_set1_epi16(0x00FF);
        let lo = value_order(_mm256_packus_epi16(
            _mm256_and_si256(w_lo, ff),
            _mm256_and_si256(w_hi, ff),
        ));
        store_planes(lo, 0, f, out);
        if f > 8 {
            let hi = value_order(_mm256_packus_epi16(
                _mm256_srli_epi16(w_lo, 8),
                _mm256_srli_epi16(w_hi, 8),
            ));
            store_planes(hi, 8, f, out);
        }
    }

    /// Rebuild one magnitude byte (byte `base/8`, in value order) from
    /// planes `base .. min(base+8, f)`: per plane, broadcast the 32-bit
    /// plane word, replicate the byte that covers each value
    /// (`vpshufb`), test its bit, and accumulate `1 << k` where set.
    ///
    /// # Safety
    /// Requires `avx2`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gather_planes(payload: &[u8], base: u8, f: u8) -> __m256i {
        // Byte j of the replicate shuffle picks plane-word byte j/8; the
        // plane word is broadcast per dword, so lane 1 (values 16..32)
        // indexes bytes 2..4.
        let rep_shuf = _mm256_setr_epi8(
            0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, //
            2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3,
        );
        let bits = _mm256_setr_epi8(
            1, 2, 4, 8, 16, 32, 64, -128, 1, 2, 4, 8, 16, 32, 64, -128, //
            1, 2, 4, 8, 16, 32, 64, -128, 1, 2, 4, 8, 16, 32, 64, -128,
        );
        let mut acc = _mm256_setzero_si256();
        for k in 0..(f - base).min(8) {
            let plane = (base + k) as usize;
            let p = u32::from_le_bytes(payload[4 + 4 * plane..][..4].try_into().expect("plane"));
            let rep = _mm256_shuffle_epi8(_mm256_set1_epi32(p as i32), rep_shuf);
            let has = _mm256_cmpeq_epi8(_mm256_and_si256(rep, bits), bits);
            acc = _mm256_or_si256(
                acc,
                _mm256_and_si256(has, _mm256_set1_epi8((1u8 << k) as i8)),
            );
        }
        acc
    }

    /// Exact `i64 → f64` for `|v| < 2⁵¹` (magic-number trick): embed the
    /// two's-complement value in the mantissa of `2⁵² + 2⁵¹`, subtract
    /// the magic back out. Decoded quantization integers are bounded by
    /// `32 · (2¹⁶ − 1) < 2²¹`, far inside the exact range.
    ///
    /// # Safety
    /// Requires `avx2`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn i64_to_f64(v: __m256i) -> __m256d {
        let magic_bits = _mm256_set1_epi64x(0x4338_0000_0000_0000);
        let magic = _mm256_set1_pd(6_755_399_441_055_744.0); // 2⁵² + 2⁵¹
        _mm256_sub_pd(_mm256_castsi256_pd(_mm256_add_epi64(v, magic_bits)), magic)
    }

    /// `[0, v₀, v₁, v₂]` — the 1-lane shift of the 4-lane inclusive scan.
    ///
    /// # Safety
    /// Requires `avx2`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn scan_shift1(v: __m256i) -> __m256i {
        _mm256_blend_epi32(
            _mm256_permute4x64_epi64(v, 0b10_01_00_00),
            _mm256_setzero_si256(),
            0x03,
        )
    }

    /// `[0, 0, v₀, v₁]` — the 2-lane shift of the 4-lane inclusive scan.
    ///
    /// # Safety
    /// Requires `avx2`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn scan_shift2(v: __m256i) -> __m256i {
        _mm256_blend_epi32(
            _mm256_permute4x64_epi64(v, 0b01_00_00_00),
            _mm256_setzero_si256(),
            0x0F,
        )
    }

    /// Decode the block's 32 quantization integers as eight 4-lane
    /// vectors (value order), signs applied and Lorenzo prefix-summed.
    ///
    /// # Safety
    /// Requires `avx2`; caller guarantees `1 ≤ f ≤ 16` and
    /// `payload.len() == 4 + 4f`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn decode_block32_q_v(payload: &[u8], f: u8, lorenzo: bool) -> [__m256i; 8] {
        let lo = gather_planes(payload, 0, f);
        let hi = if f > 8 {
            gather_planes(payload, 8, f)
        } else {
            _mm256_setzero_si256()
        };
        // Interleave the two magnitude bytes back into u16s; the 128-bit
        // halves come out as value runs [0..8 | 16..24] / [8..16 | 24..32].
        let m_lo = _mm256_unpacklo_epi8(lo, hi);
        let m_hi = _mm256_unpackhi_epi8(lo, hi);
        let xs: [__m128i; 4] = [
            _mm256_castsi256_si128(m_lo),      // values 0..8
            _mm256_castsi256_si128(m_hi),      // values 8..16
            _mm256_extracti128_si256(m_lo, 1), // values 16..24
            _mm256_extracti128_si256(m_hi, 1), // values 24..32
        ];
        let signs = u32::from_le_bytes(payload[..4].try_into().expect("sign map"));
        let sign_bits = _mm256_setr_epi64x(1, 2, 4, 8);
        let mut carry = _mm256_setzero_si256();
        let mut out = [_mm256_setzero_si256(); 8];
        for (r, dst) in out.iter_mut().enumerate() {
            let x = xs[r / 2];
            let q = _mm256_cvtepu16_epi64(if r % 2 == 0 { x } else { _mm_srli_si128(x, 8) });
            // Negate lanes whose sign-map bit (values 4r .. 4r+4) is set.
            let s = _mm256_set1_epi64x(((signs >> (4 * r)) & 0xF) as i64);
            let neg = _mm256_cmpeq_epi64(_mm256_and_si256(s, sign_bits), sign_bits);
            let mut v = _mm256_sub_epi64(_mm256_xor_si256(q, neg), neg);
            if lorenzo {
                v = _mm256_add_epi64(v, scan_shift1(v));
                v = _mm256_add_epi64(v, scan_shift2(v));
                v = _mm256_add_epi64(v, carry);
                carry = _mm256_permute4x64_epi64(v, 0xFF);
            }
            *dst = v;
        }
        out
    }

    /// Fused decode + dequantize to `f32`.
    ///
    /// # Safety
    /// As [`decode_block32_q_v`]; `out.len() == 32`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn decode_block32_f32(
        payload: &[u8],
        f: u8,
        lorenzo: bool,
        eb: f64,
        out: &mut [f32],
    ) {
        let vs = decode_block32_q_v(payload, f, lorenzo);
        let veb = _mm256_set1_pd(2.0 * eb);
        for (r, v) in vs.iter().enumerate() {
            let d = _mm256_mul_pd(i64_to_f64(*v), veb);
            _mm_storeu_ps(out.as_mut_ptr().add(4 * r), _mm256_cvtpd_ps(d));
        }
    }

    /// Fused decode + dequantize to `f64`.
    ///
    /// # Safety
    /// As [`decode_block32_q_v`]; `out.len() == 32`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn decode_block32_f64(
        payload: &[u8],
        f: u8,
        lorenzo: bool,
        eb: f64,
        out: &mut [f64],
    ) {
        let vs = decode_block32_q_v(payload, f, lorenzo);
        let veb = _mm256_set1_pd(2.0 * eb);
        for (r, v) in vs.iter().enumerate() {
            _mm256_storeu_pd(
                out.as_mut_ptr().add(4 * r),
                _mm256_mul_pd(i64_to_f64(*v), veb),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Awkward inputs for round-half-away + saturation: exact ties, the
    /// largest double below 0.5 (scaled), infinities, NaN, overflow.
    fn nasty_f64() -> Vec<f64> {
        let mut v = vec![
            0.0,
            -0.0,
            0.01,
            -0.01,
            0.03,
            -0.03,
            0.05,
            0.009_999_999_999_999_998,
            -0.009_999_999_999_999_998,
            1e30,
            -1e30,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            123.456,
            -987.654,
            1e17,
            -1e17,
            f64::MAX,
            f64::MIN,
        ];
        // A dense sweep so every vector lane position sees varied data.
        for i in 0..200 {
            v.push((i as f64 - 100.0) * 0.007_3);
        }
        v
    }

    /// [`quantize_blocks`] at every runnable tier against the scalar loop,
    /// block by block: identical residuals (the ragged tail block
    /// zero-padded) and, per block, a magnitude with the scalar maximum's
    /// top bit.
    fn assert_quantize_blocks_match<T: FloatData>(data: &[T], l: usize, eb: f64) {
        let num_blocks = data.len().div_ceil(l);
        for level in SimdLevel::ALL.into_iter().filter(|&v| v <= detect_level()) {
            for lorenzo in [false, true] {
                let tag = format!("level={level} l={l} len={} lorenzo={lorenzo}", data.len());
                // A dirty residual buffer, so missing tail padding shows.
                let mut resid = vec![-1i64; num_blocks * l];
                let mut maxes = vec![0u64; num_blocks];
                quantize_blocks(level, data, l, eb, lorenzo, &mut resid, &mut maxes);
                for (b, block) in data.chunks(l).enumerate() {
                    let mut want = vec![0i64; l];
                    let want_max = quantize_lorenzo_scalar(block, eb, lorenzo, &mut want);
                    assert_eq!(resid[b * l..][..l], want, "{tag} block {b}");
                    assert_eq!(
                        maxes[b].leading_zeros(),
                        want_max.leading_zeros(),
                        "{tag} block {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn quantize_matches_scalar_f64() {
        let data = nasty_f64();
        for l in [8, 32, 64] {
            assert_quantize_blocks_match(&data, l, 0.01);
        }
    }

    #[test]
    fn quantize_matches_scalar_f32() {
        let data: Vec<f32> = nasty_f64().into_iter().map(|v| v as f32).collect();
        for len in [0, 1, 7, 8, 9, 16, 31, 32, 33, 95, data.len()] {
            for l in [8, 32, 64] {
                assert_quantize_blocks_match(&data[..len], l, 0.05);
            }
        }
    }

    #[test]
    fn dequantize_matches_scalar() {
        let q: Vec<i64> = vec![0, 1, -1, 7, -13, 1 << 40, -(1 << 52), i64::MAX, i64::MIN]
            .into_iter()
            .chain((0..100).map(|i| i * 37 - 1850))
            .collect();
        for level in SimdLevel::ALL {
            if level > detect_level() {
                continue;
            }
            let mut f32s = vec![0.0f32; q.len()];
            dequantize_slice(level, &q, 0.01, &mut f32s);
            let mut f64s = vec![0.0f64; q.len()];
            dequantize_slice(level, &q, 0.01, &mut f64s);
            for (i, &r) in q.iter().enumerate() {
                assert_eq!(f32s[i], dequantize::<f32>(r, 0.01), "f32 at {i} ({level})");
                assert_eq!(f64s[i], dequantize::<f64>(r, 0.01), "f64 at {i} ({level})");
            }
        }
    }

    #[test]
    fn tie_rounds_away_from_zero() {
        // 2eb = 0.5 exactly, so d = ±0.75 / ±1.25 are exact ±x.5 ties;
        // round half AWAY from zero (not to even) must come out, in the
        // vector block and in the ragged scalar tail alike.
        let ties = [0.75f64, -0.75, 1.25, -1.25, 0.25, -0.25];
        let data: Vec<f64> = ties
            .iter()
            .chain(&[0.0, 0.0])
            .chain(&ties)
            .copied()
            .collect();
        for level in SimdLevel::ALL.into_iter().filter(|&v| v <= detect_level()) {
            let mut out = [0i64; 16];
            quantize_blocks(level, &data, 8, 0.25, false, &mut out, &mut [0; 2]);
            let want = [2, -2, 3, -3, 1, -1];
            assert_eq!(&out[..6], &want, "{level}");
            assert_eq!(&out[8..14], &want, "{level} tail");
        }
    }

    #[test]
    fn resolve_clamps_to_detected() {
        let detected = detect_level();
        for level in SimdLevel::ALL {
            assert_eq!(resolve_level(Some(level)), level.min(detected));
        }
        assert_eq!(resolve_level(None).min(detected), resolve_level(None));
    }

    #[test]
    fn level_parse_roundtrip() {
        for level in SimdLevel::ALL {
            assert_eq!(SimdLevel::parse(level.name()), Some(level));
            assert_eq!(level.name().parse::<SimdLevel>(), Ok(level));
        }
        assert_eq!(SimdLevel::parse("AVX512"), Some(SimdLevel::Avx512));
        assert!(SimdLevel::parse("sse2").is_none());
        assert!("".parse::<SimdLevel>().is_err());
    }
}
