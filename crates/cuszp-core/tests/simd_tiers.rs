//! Forced-dispatch differential suite: every [`SimdLevel`] tier the host
//! can run must produce streams and reconstructions **byte-identical**
//! to the scalar [`host_ref`] oracle — across element types, ragged
//! tails, non-finite inputs, wide residuals (the `F > 16` planes only
//! the AVX-512 chunk-pair kernels touch), and sparse zero-block data
//! (the fused decoders' fill exit). The tier is forced per call through
//! [`CuszpConfig::simd`] / the `_at` entry points, so all tiers are
//! exercised in one process regardless of `CUSZP_SIMD` (the env override
//! itself is covered by the forced-tier CI jobs).

use cuszp_core::{fast, host_ref, simd, CuszpConfig, FloatData, Scratch, SimdLevel};
use proptest::prelude::*;

/// The tiers this host can actually run (forcing above the detected
/// tier clamps down, which would silently test the same kernels twice).
fn tiers() -> Vec<SimdLevel> {
    SimdLevel::ALL
        .into_iter()
        .filter(|&l| l <= simd::detect_level())
        .collect()
}

/// Compress + decompress (owned and arena forms) at every runnable tier
/// and compare each against the scalar reference oracle.
fn assert_tiers_match_ref<T: FloatData + Default + Copy>(
    data: &[T],
    eb: f64,
    base: CuszpConfig,
) -> Result<(), TestCaseError> {
    let reference = host_ref::compress(data, eb, base);
    let ref_back: Vec<T> = host_ref::decompress(&reference);
    let mut scratch = Scratch::new();
    for level in tiers() {
        let cfg = CuszpConfig {
            simd: Some(level),
            ..base
        };
        let c = fast::compress(data, eb, cfg);
        prop_assert_eq!(&c, &reference, "compress differs at {}", level);
        let mut back = vec![T::default(); data.len()];
        fast::decompress_into_at(c.as_ref(), &mut Scratch::new(), Some(level), &mut back);
        prop_assert_eq!(&back, &ref_back, "decompress differs at {}", level);
        // The arena path too, with the one scratch shared across tiers
        // (a dirty arena must never leak one tier's state into another).
        let mut into_back = vec![T::default(); data.len()];
        fast::decompress_into_at(c.as_ref(), &mut scratch, Some(level), &mut into_back);
        prop_assert_eq!(
            &into_back,
            &ref_back,
            "decompress_into differs at {}",
            level
        );
    }
    Ok(())
}

/// Lengths on, just before, and just after block boundaries.
fn awkward_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..700,
        Just(31usize),
        Just(32),
        Just(33),
        Just(255),
        Just(256),
        Just(257),
        Just(4096),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn f32_tiers_byte_identical(
        len in awkward_len(),
        seed in any::<u64>(),
        eb in 1e-5f64..1.0,
        lorenzo in any::<bool>(),
    ) {
        let mut s = seed | 1;
        let data: Vec<f32> = (0..len).map(|_| {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            ((s % 20_000) as f32 - 10_000.0) * 0.37
        }).collect();
        assert_tiers_match_ref(&data, eb, CuszpConfig { lorenzo, ..Default::default() })?;
    }

    #[test]
    fn f64_tiers_byte_identical(
        len in awkward_len(),
        seed in any::<u64>(),
        eb in 1e-6f64..0.5,
        lorenzo in any::<bool>(),
    ) {
        let mut s = seed | 1;
        let data: Vec<f64> = (0..len).map(|_| {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            ((s % 2_000_000) as f64 - 1_000_000.0) * 1.3e-2
        }).collect();
        assert_tiers_match_ref(&data, eb, CuszpConfig { lorenzo, ..Default::default() })?;
    }

    #[test]
    fn wide_residual_f64_tiers_identical(
        len in awkward_len(),
        seed in any::<u64>(),
        // Amplitudes up to 1e17 with bounds down to 1e-6 push F through
        // every chunk pair up to the 64-plane cap (and into quantizer
        // saturation) — the planes only the wide-F kernels handle.
        amp in prop_oneof![Just(1e6f64), Just(1e9), Just(1e13), Just(1e17)],
        eb in prop_oneof![Just(1e-6f64), Just(1e-3), Just(1.0)],
    ) {
        let mut s = seed | 1;
        let data: Vec<f64> = (0..len).map(|_| {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            ((s % 2_000_001) as f64 / 1_000_000.0 - 1.0) * amp
        }).collect();
        assert_tiers_match_ref(&data, eb, CuszpConfig::default())?;
    }

    #[test]
    fn non_finite_inputs_tiers_identical(
        len in 32usize..600,
        seed in any::<u64>(),
        eb in 1e-4f64..0.5,
    ) {
        // NaN and ±∞ scattered through otherwise ordinary data: the
        // saturating quantize fix-ups must agree with scalar `as` casts
        // at every tier, in every lane position.
        let mut s = seed | 1;
        let data: Vec<f32> = (0..len).map(|i| {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            match (s >> 24) % 11 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => f32::MAX * if i % 2 == 0 { 1.0 } else { -1.0 },
                _ => ((s % 9_000) as f32 - 4_500.0) * 0.21,
            }
        }).collect();
        assert_tiers_match_ref(&data, eb, CuszpConfig::default())?;
    }

    #[test]
    fn sparse_data_tiers_identical(
        len in awkward_len(),
        seed in any::<u64>(),
    ) {
        // Mostly zero blocks with occasional spikes: exercises the fused
        // decoders' zero-fill exit against blocks that do decode.
        let mut s = seed | 1;
        let data: Vec<f64> = (0..len).map(|_| {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            if s.is_multiple_of(97) { ((s % 1_000) as f64 - 500.0) * 0.3 } else { 0.0 }
        }).collect();
        assert_tiers_match_ref(&data, 0.01, CuszpConfig::default())?;
    }

    #[test]
    fn non_default_block_len_tiers_identical(
        seed in any::<u64>(),
        block_len in prop_oneof![Just(8usize), Just(16), Just(64), Just(128)],
    ) {
        // Any L ≠ 32 must fall back to the portable strip codec at every
        // tier (the vector block codec is L = 32 only) — same bytes.
        let mut s = seed | 1;
        let data: Vec<f32> = (0..777).map(|_| {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            ((s % 30_000) as f32 - 15_000.0) * 0.11
        }).collect();
        assert_tiers_match_ref(&data, 0.01, CuszpConfig { block_len, ..Default::default() })?;
    }
}

#[test]
fn forcing_above_detected_clamps_down() {
    // Requesting a tier the host lacks must degrade gracefully (clamp to
    // the detected tier), never fault — and still match the oracle.
    let data: Vec<f32> = (0..500).map(|i| (i as f32 * 0.1).sin() * 50.0).collect();
    assert_tiers_match_ref(&data, 0.01, CuszpConfig::default()).unwrap();
    let forced = CuszpConfig {
        simd: Some(SimdLevel::Avx512),
        ..Default::default()
    };
    let c = fast::compress(&data, 0.01, forced);
    assert_eq!(c, host_ref::compress(&data, 0.01, CuszpConfig::default()));
}

#[test]
fn empty_and_constant_inputs_all_tiers() {
    assert_tiers_match_ref::<f32>(&[], 0.1, CuszpConfig::default()).unwrap();
    for v in [0.0f64, 1.25, -7.5] {
        let data = vec![v; 300];
        assert_tiers_match_ref(&data, 0.01, CuszpConfig::default()).unwrap();
    }
}
