//! Differential suite for the word-parallel host codec: `fast` must be
//! **byte-identical** to `host_ref` — compressed stream and reconstructed
//! values — across element types, block lengths, Lorenzo on/off and
//! awkward tail lengths. Round-trips must also honor the error bound.

use cuszp_repro::cuszp_core::{fast, host_ref, CuszpConfig, DType, FloatData};
use proptest::prelude::*;

fn assert_fast_matches_ref<T: FloatData>(
    data: &[T],
    eb: f64,
    cfg: CuszpConfig,
) -> Result<(), TestCaseError> {
    let reference = host_ref::compress(data, eb, cfg);
    let ref_back: Vec<T> = host_ref::decompress(&reference);

    let stream = fast::compress(data, eb, cfg);
    prop_assert_eq!(&stream, &reference, "stream differs");
    prop_assert_eq!(
        stream.to_bytes(),
        reference.to_bytes(),
        "serialized bytes differ"
    );
    let back: Vec<T> = fast::decompress(&stream);
    prop_assert_eq!(&back, &ref_back, "reconstruction differs");

    // The shared reconstruction honors the bound (modulo T's rounding).
    let type_eps = match T::DTYPE {
        DType::F32 => f32::EPSILON as f64,
        DType::F64 => f64::EPSILON,
    };
    for (&d, &r) in data.iter().zip(&ref_back) {
        let slack = d.to_f64().abs() * type_eps + f64::EPSILON;
        prop_assert!((d.to_f64() - r.to_f64()).abs() <= eb * (1.0 + 1e-6) + slack);
    }
    Ok(())
}

/// Lengths that land on, just before, and just after block boundaries.
fn awkward_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..700,
        Just(31usize),
        Just(32),
        Just(33),
        Just(127),
        Just(128),
        Just(129),
        Just(1024),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn f32_fast_is_byte_identical(
        len in awkward_len(),
        seed in any::<u64>(),
        eb in 1e-5f64..1.0,
        block_len in prop_oneof![Just(8usize), Just(16), Just(32), Just(64), Just(128)],
        lorenzo in any::<bool>(),
    ) {
        let mut s = seed | 1;
        let data: Vec<f32> = (0..len).map(|_| {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            ((s % 20_000) as f32 - 10_000.0) * 0.37
        }).collect();
        assert_fast_matches_ref(&data, eb, CuszpConfig { block_len, lorenzo, ..CuszpConfig::default() })?;
    }

    #[test]
    fn f64_fast_is_byte_identical(
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
        assert_fast_matches_ref(&data, eb, CuszpConfig { lorenzo, ..CuszpConfig::default() })?;
    }

    #[test]
    fn smooth_fields_byte_identical(
        n in 64usize..2048,
        freq in 0.001f64..0.2,
        amp in 1.0f64..1e5,
        eb in 1e-4f64..0.1,
    ) {
        // Smooth data drives small residuals — the specialized low-F
        // vector paths — while the amplitude sweep reaches the wide-F
        // generic path.
        let data: Vec<f32> = (0..n).map(|i| ((i as f64 * freq).sin() * amp) as f32).collect();
        assert_fast_matches_ref(&data, eb, CuszpConfig::default())?;
    }
}

#[test]
fn constant_and_zero_data_byte_identical() {
    for v in [0.0f32, 1.25, -7.5] {
        let data = vec![v; 300];
        assert_fast_matches_ref(&data, 0.01, CuszpConfig::default()).unwrap();
    }
}

#[test]
fn wide_residuals_cross_block32_cutoff() {
    // Magnitudes pushing F through 15..=20 straddle the vector block
    // codec's F ≤ 16 specialization on hosts that have it.
    for amp in [3.0e4f32, 2.0e5, 3.0e6, 5.0e7] {
        let data: Vec<f32> = (0..512).map(|i| (i as f32 * 0.41).sin() * amp).collect();
        assert_fast_matches_ref(&data, 1e-4, CuszpConfig::default()).unwrap();
    }
}

#[test]
fn non_finite_values_byte_identical() {
    // NaN/±inf quantize through the same saturating casts on both paths.
    let mut data: Vec<f32> = (0..200).map(|i| (i as f32 * 0.11).cos() * 5.0).collect();
    data[3] = f32::NAN;
    data[50] = f32::INFINITY;
    data[51] = f32::NEG_INFINITY;
    let cfg = CuszpConfig::default();
    let reference = host_ref::compress(&data, 0.01, cfg);
    assert_eq!(fast::compress(&data, 0.01, cfg), reference);
}
