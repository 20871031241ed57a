//! Property tests for the cuSZp codec — the DESIGN.md §6 invariants.

use cuszp_core::{host_ref, Compressed, CuszpConfig};
use proptest::prelude::*;

/// Arbitrary finite f32 data with sane magnitudes for an f32 codec.
fn data_strategy() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(
        prop_oneof![
            3 => -1.0e6f32..1.0e6,
            1 => -1.0f32..1.0,
            1 => Just(0.0f32),
        ],
        1..600,
    )
}

fn eb_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![Just(1e-3), Just(1e-1), Just(1.0), Just(100.0), 1e-4f64..1e3,]
}

fn config_strategy() -> impl Strategy<Value = CuszpConfig> {
    (
        prop_oneof![Just(8usize), Just(16), Just(32), Just(64)],
        any::<bool>(),
    )
        .prop_map(|(block_len, lorenzo)| CuszpConfig {
            block_len,
            lorenzo,
            ..CuszpConfig::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Invariant 1: the round trip respects the error bound, always.
    #[test]
    fn roundtrip_respects_bound(data in data_strategy(), eb in eb_strategy(), cfg in config_strategy()) {
        let c = host_ref::compress(&data, eb, cfg);
        let back: Vec<f32> = host_ref::decompress(&c);
        prop_assert_eq!(back.len(), data.len());
        for (i, (&d, &r)) in data.iter().zip(&back).enumerate() {
            let err = (d as f64 - r as f64).abs();
            // eb plus the f32-representability slack (see verify::check_bound).
            let slack = (d.abs().max(r.abs()) as f64) * 2.0f64.powi(-23);
            prop_assert!(
                err <= eb * (1.0 + 1e-6) + slack + f64::EPSILON,
                "index {}: |{} - {}| = {} > eb {}", i, d, r, err, eb
            );
        }
    }

    /// Invariant 2: recompressing a reconstruction is lossless (fixed point).
    #[test]
    fn recompression_is_fixed_point(data in data_strategy(), eb in eb_strategy()) {
        let cfg = CuszpConfig::default();
        let d1: Vec<f32> = host_ref::decompress(&host_ref::compress(&data, eb, cfg));
        let d2: Vec<f32> = host_ref::decompress(&host_ref::compress(&d1, eb, cfg));
        prop_assert_eq!(d1, d2);
    }

    /// Invariant 5: stream size = N_blocks + Σ (F_k+1)·L/8 exactly (Eq 2).
    #[test]
    fn stream_size_matches_eq2(data in data_strategy(), eb in eb_strategy(), cfg in config_strategy()) {
        let c = host_ref::compress(&data, eb, cfg);
        c.validate().unwrap();
        let eq2: u64 = c
            .fixed_lengths
            .iter()
            .map(|&f| if f == 0 { 0 } else { (f as u64 + 1) * cfg.block_len as u64 / 8 })
            .sum();
        prop_assert_eq!(c.stream_bytes(), c.fixed_lengths.len() as u64 + eq2);
    }

    /// Invariant 3: blocks whose quantization integers are all zero cost
    /// exactly one fixed-length byte.
    #[test]
    fn near_zero_data_is_zero_blocks(n in 1usize..300, eb in 0.5f64..10.0) {
        // All values strictly inside (−eb, eb) quantize to 0.
        let data: Vec<f32> = (0..n).map(|i| ((i % 7) as f32 - 3.0) * (eb as f32) * 0.12).collect();
        let c = host_ref::compress(&data, eb, CuszpConfig::default());
        prop_assert!(c.fixed_lengths.iter().all(|&f| f == 0));
        prop_assert_eq!(c.payload.len(), 0);
        prop_assert_eq!(c.stream_bytes(), c.num_blocks() as u64);
    }

    /// Serialization is total: to_bytes ∘ from_bytes = identity.
    #[test]
    fn serialization_roundtrip(data in data_strategy(), eb in eb_strategy(), cfg in config_strategy()) {
        let c = host_ref::compress(&data, eb, cfg);
        let back = Compressed::from_bytes(&c.to_bytes()).unwrap();
        prop_assert_eq!(back, c);
    }

    /// Corrupted headers never decode to Ok with wrong geometry (they
    /// error out rather than panic).
    #[test]
    fn header_corruption_is_detected(data in data_strategy(), flip in 0usize..28) {
        let c = host_ref::compress(&data, 0.1, CuszpConfig::default());
        let mut bytes = c.to_bytes();
        bytes[flip] ^= 0xFF;
        // Must not panic; any Ok result must still be structurally valid.
        if let Ok(parsed) = Compressed::from_bytes(&bytes) {
            prop_assert!(parsed.validate().is_ok());
        }
    }

    /// Lorenzo-off streams still round trip (ablation config).
    #[test]
    fn lorenzo_off_roundtrip(data in data_strategy(), eb in eb_strategy()) {
        let cfg = CuszpConfig { lorenzo: false, ..Default::default() };
        let c = host_ref::compress(&data, eb, cfg);
        let back: Vec<f32> = host_ref::decompress(&c);
        for (&d, &r) in data.iter().zip(&back) {
            let slack = (d.abs().max(r.abs()) as f64) * 2.0f64.powi(-23);
            prop_assert!((d as f64 - r as f64).abs() <= eb * (1.0 + 1e-6) + slack + f64::EPSILON);
        }
    }
}
