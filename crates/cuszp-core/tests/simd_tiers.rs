//! Forced-dispatch differential suite: every [`SimdLevel`] tier the host
//! can run must produce streams and reconstructions **byte-identical**
//! to the scalar [`host_ref`] oracle — across element types, ragged
//! tails, non-finite inputs, wide residuals (the `F > 16` planes only
//! the AVX-512 chunk-pair kernels touch), and sparse zero-block data
//! (the fused decoders' fill exit). The tier is forced per call through
//! [`CuszpConfig::simd`] / the `_at` entry points, so all tiers are
//! exercised in one process regardless of `CUSZP_SIMD` (the env override
//! itself is covered by the forced-tier CI jobs).

use cuszp_core::{
    fast, host_ref, hybrid, simd, CuszpConfig, FloatData, FrameRef, HybridScratch, Scratch,
    SimdLevel,
};
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
fn hybrid_frame_decodes_identically_at_every_tier() {
    // `FrameRef::decode_into` hands its tier to a `CUSZPHY1` frame's
    // first stage as it does to a plain stream's: every runnable tier
    // reconstructs the same floats as the scalar oracle, through one
    // pair of arenas shared across tiers.
    let data: Vec<f32> = (0..20_000)
        .map(|i| (i as f32 * 0.013).sin() * 40.0 + (i % 97) as f32 * 0.01)
        .collect();
    let plain = fast::compress(&data, 0.01, CuszpConfig::default());
    let mut frame = Vec::new();
    hybrid::encode(&plain.as_ref(), 64, &mut HybridScratch::new(), &mut frame);
    let parsed = FrameRef::parse(&frame).unwrap();
    assert!(matches!(parsed, FrameRef::Hybrid(_)), "a hybrid frame");
    let want: Vec<f32> = host_ref::decompress(&plain);
    let (mut scratch, mut hs) = (Scratch::new(), HybridScratch::new());
    for level in tiers() {
        let mut back = vec![0f32; data.len()];
        parsed
            .decode_into(Some(level), &mut scratch, &mut hs, &mut back)
            .unwrap();
        assert!(
            back.iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "hybrid decode differs at {level}"
        );
    }
}

#[test]
fn empty_and_constant_inputs_all_tiers() {
    assert_tiers_match_ref::<f32>(&[], 0.1, CuszpConfig::default()).unwrap();
    for v in [0.0f64, 1.25, -7.5] {
        let data = vec![v; 300];
        assert_tiers_match_ref(&data, 0.01, CuszpConfig::default()).unwrap();
    }
}

/// `d` with `d / 2eb` on every rounding edge the quantizers must agree
/// on, for a power-of-two `two_eb` (so each product below is exact):
/// exact `k + ½` ties and one ulp either side of each, the 2⁵¹/2⁵²
/// boundaries of the fast rounding path, values at and past 2⁶³ (where
/// `as i64` saturates), ±0, subnormals, NaN and ±∞. The edges sit in
/// every lane position, both in all-tie vectors and mixed with huge
/// lanes, so the vector kernels' fast and fallback rounding both run.
fn rounding_edges(two_eb: f64) -> Vec<f64> {
    let mut q = Vec::new();
    for k in -40i32..40 {
        let tie = (f64::from(k) + 0.5) * two_eb;
        q.extend([tie, tie.next_up(), tie.next_down(), f64::from(k) * two_eb]);
    }
    let ties = q.len();
    for x in [
        2f64.powi(51),
        2f64.powi(51) + 0.5,
        2f64.powi(51) - 0.5,
        2f64.powi(51) - 0.25,
        2f64.powi(52),
        2f64.powi(52) - 0.5,
        2f64.powi(52) + 1.0,
        2f64.powi(53),
        2f64.powi(63),
        2f64.powi(64),
        1e300,
    ] {
        let d = x * two_eb;
        q.extend([
            d,
            d.next_up(),
            d.next_down(),
            -d,
            -d.next_up(),
            -d.next_down(),
        ]);
    }
    q.extend([
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 2.0,
        -f64::MIN_POSITIVE / 2.0,
        5e-324,
        -5e-324,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN,
    ]);
    // The ties alone (all-fast vectors), then every edge interleaved
    // with ties at each lane offset.
    let mut data = q[..ties].to_vec();
    for shift in 0..8 {
        for (i, &x) in q[ties..].iter().enumerate() {
            data.extend_from_slice(&q[(i * 7 + shift) % ties..][..shift]);
            data.push(x);
        }
    }
    data
}

#[test]
fn rounding_ties_and_saturation_all_tiers() {
    for e in [-6i32, -1, 0, 4] {
        let eb = 2f64.powi(e);
        let data = rounding_edges(2.0 * eb);
        // In f32 the ties stay exact, but their f64 neighbours round
        // back onto them: add the f32 neighbours of every edge.
        let mut data32: Vec<f32> = data.iter().map(|&x| x as f32).collect();
        let neighbours: Vec<f32> = data32
            .iter()
            .flat_map(|&x| [x.next_up(), x.next_down()])
            .collect();
        data32.extend(neighbours);
        // The AVX-512 tile kernel serves every block length.
        for block_len in [8, 32, 64] {
            for lorenzo in [false, true] {
                let cfg = CuszpConfig {
                    block_len,
                    lorenzo,
                    ..Default::default()
                };
                assert_tiers_match_ref(&data, eb, cfg).unwrap();
                assert_tiers_match_ref(&data32, eb, cfg).unwrap();
            }
        }
    }
}

/// `edges` spread over every lane position: the edges alone, then each
/// edge after 0–7 ordinary values, so a vector mixes lanes the AVX-512
/// quantizer rounds by reciprocal with lanes it must divide.
fn in_every_lane(edges: &[f64], ordinary: f64) -> Vec<f64> {
    let mut data = edges.to_vec();
    for shift in 0..8 {
        for &x in edges {
            data.extend(std::iter::repeat_n(ordinary, shift));
            data.push(x);
        }
    }
    data
}

/// Compare every tier with the oracle on `data` and on its f32 form,
/// with Lorenzo on and off.
fn assert_quantizer_edges(data64: &[f64], data32: &[f32], eb: f64) {
    for lorenzo in [false, true] {
        let cfg = CuszpConfig {
            lorenzo,
            ..Default::default()
        };
        assert_tiers_match_ref(data64, eb, cfg).unwrap();
        assert_tiers_match_ref(data32, eb, cfg).unwrap();
    }
}

/// `x` and its `ulps` neighbours on each side.
fn ulp_walk64(x: f64, ulps: usize) -> Vec<f64> {
    let (mut up, mut down) = (x, x);
    let mut v = vec![x];
    for _ in 0..ulps {
        (up, down) = (up.next_up(), down.next_down());
        v.extend([up, down]);
    }
    v
}

fn ulp_walk32(x: f32, ulps: usize) -> Vec<f32> {
    let (mut up, mut down) = (x, x);
    let mut v = vec![x];
    for _ in 0..ulps {
        (up, down) = (up.next_up(), down.next_down());
        v.extend([up, down]);
    }
    v
}

/// Bounds whose `1/(2eb)` is inexact, so a quotient taken by reciprocal
/// can land an ulp or two from the divided one. For 0.325, 0.925 and
/// 1.85 the product lands on the far side of a rounding tie from the
/// quotient for some `(k + ½)·2eb` neighbours below, in f64 and in f32:
/// only the division rounds those right.
const INEXACT_EBS: [f64; 8] = [
    0.01,
    7.3e-3,
    0.3,
    0.325,
    0.925,
    1.85,
    1.7e-5,
    std::f64::consts::PI,
];

#[test]
fn quantizer_half_integers_within_four_ulps_all_tiers() {
    // `(k + ½)·2eb` and four ulps either side: the quotient sits on or
    // next to a rounding tie, where only the division decides.
    let ks = [
        -1_000_003.0f64,
        -4097.0,
        -3.0,
        -2.0,
        -1.0,
        0.0,
        1.0,
        2.0,
        7.0,
        1_000.0,
        123_456.0,
        4_194_303.0,
    ];
    for eb in INEXACT_EBS {
        let two_eb = 2.0 * eb;
        let edges64: Vec<f64> = ks
            .iter()
            .flat_map(|&k| ulp_walk64((k + 0.5) * two_eb, 4))
            .collect();
        let edges32: Vec<f64> = ks
            .iter()
            .flat_map(|&k| ulp_walk32(((k + 0.5) * two_eb) as f32, 4))
            .map(f64::from)
            .collect();
        let data64 = in_every_lane(&edges64, 1.25 * two_eb);
        let data32: Vec<f32> = in_every_lane(&edges32, 1.25 * two_eb)
            .into_iter()
            .map(|x| x as f32)
            .collect();
        assert_quantizer_edges(&data64, &data32, eb);
    }
}

#[test]
fn quantizer_quotients_at_two_to_the_51_all_tiers() {
    // |d / 2eb| at 2⁵¹ and 2⁵¹ ± 1, both signs, with their neighbours:
    // the reciprocal's margin covers every such lane, so these divide.
    for eb in INEXACT_EBS {
        let two_eb = 2.0 * eb;
        let mut edges = Vec::new();
        for q in [2f64.powi(51) - 1.0, 2f64.powi(51), 2f64.powi(51) + 1.0] {
            for x in ulp_walk64(q * two_eb, 2) {
                edges.extend([x, -x]);
            }
        }
        let data64 = in_every_lane(&edges, 0.75 * two_eb);
        let data32: Vec<f32> = data64.iter().map(|&x| x as f32).collect();
        assert_quantizer_edges(&data64, &data32, eb);
    }
}

#[test]
fn quantizer_non_finite_lanes_all_tiers() {
    for eb in INEXACT_EBS {
        let edges = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -f64::NAN];
        let data64 = in_every_lane(&edges, 3.3 * eb);
        let data32: Vec<f32> = data64.iter().map(|&x| x as f32).collect();
        assert_quantizer_edges(&data64, &data32, eb);
    }
}

#[test]
fn quantizer_bounds_with_a_non_normal_reciprocal_all_tiers() {
    // `1/(2eb)` overflows to ∞ for a subnormal `2eb`, and is subnormal
    // for `2eb` past 2¹⁰²²: every lane must divide.
    let tiny = 1e-310f64;
    assert!((1.0 / (2.0 * tiny)).is_infinite());
    let huge = 5e307f64;
    assert!((1.0 / (2.0 * huge)).is_subnormal());
    for eb in [tiny, huge] {
        let two_eb = 2.0 * eb;
        let mut edges = Vec::new();
        for k in [-3.0f64, -1.0, 0.0, 1.0, 2.0, 5.0] {
            edges.extend(ulp_walk64((k + 0.5) * two_eb, 2));
        }
        edges.extend([0.0, -0.0, 1.0, -1.0, 1e-300, 3.5, f64::MAX, f64::MIN]);
        let data64 = in_every_lane(&edges, 0.0);
        let data32: Vec<f32> = [1.0f32, -1.0, 0.5, 3.25, 1e-30, -2e30, 0.0]
            .into_iter()
            .chain(data64.iter().map(|&x| x as f32))
            .collect();
        assert_quantizer_edges(&data64, &data32, eb);
    }
}
