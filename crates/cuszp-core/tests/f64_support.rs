//! Double-precision support (the reference cuSZp's `-d` mode): host round
//! trips, stream tagging, and type-safety checks. The f64 device kernel is
//! checked against the host in the root `tests/device_host_equivalence.rs`.

use cuszp_core::{host_ref, Compressed, Cuszp, CuszpConfig, DType, ErrorBound};
use proptest::prelude::*;

fn wave64(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.013).sin() * 1.0e9 + (i as f64 * 0.11).cos())
        .collect()
}

#[test]
fn f64_host_roundtrip_respects_bound() {
    let data = wave64(5000);
    let codec = Cuszp::new();
    let stream = codec.compress(&data, ErrorBound::Rel(1e-6));
    assert_eq!(stream.dtype, DType::F64);
    let back: Vec<f64> = codec.decompress(&stream);
    for (&d, &r) in data.iter().zip(&back) {
        assert!((d - r).abs() <= stream.eb * (1.0 + 1e-9));
    }
}

#[test]
fn f64_reaches_bounds_f32_cannot_represent() {
    // A bound below f32's ULP at this magnitude: only the f64 path can
    // honour it.
    let data: Vec<f64> = (0..2048).map(|i| 1.0e6 + (i as f64) * 1.0e-4).collect();
    let eb = 1.0e-5;
    let stream = host_ref::compress(&data, eb, CuszpConfig::default());
    let back: Vec<f64> = host_ref::decompress(&stream);
    for (&d, &r) in data.iter().zip(&back) {
        assert!((d - r).abs() <= eb * (1.0 + 1e-9), "{d} vs {r}");
    }
}

#[test]
fn dtype_mismatch_is_rejected() {
    let data = wave64(100);
    let stream = host_ref::compress(&data, 1.0, CuszpConfig::default());
    let result = std::panic::catch_unwind(|| host_ref::decompress::<f32>(&stream));
    assert!(result.is_err(), "decoding f64 stream as f32 must panic");
}

#[test]
fn dtype_survives_serialization() {
    let data = wave64(100);
    let stream = host_ref::compress(&data, 1.0, CuszpConfig::default());
    let parsed = Compressed::from_bytes(&stream.to_bytes()).unwrap();
    assert_eq!(parsed.dtype, DType::F64);
    assert_eq!(parsed, stream);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn f64_roundtrip_bound_property(
        data in proptest::collection::vec(-1.0e12f64..1.0e12, 1..400),
        eb in prop_oneof![Just(1e-6), Just(1.0), Just(1e6)],
    ) {
        let stream = host_ref::compress(&data, eb, CuszpConfig::default());
        let back: Vec<f64> = host_ref::decompress(&stream);
        for (&d, &r) in data.iter().zip(&back) {
            // f64 reconstruction ULP slack, mirroring verify::check_bound.
            let slack = d.abs().max(r.abs()) * 2.0f64.powi(-52);
            prop_assert!((d - r).abs() <= eb * (1.0 + 1e-9) + slack + f64::EPSILON);
        }
    }
}
