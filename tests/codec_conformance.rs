//! Cross-codec conformance: one parameterized table run against **every**
//! codec in the default registry (cuSZp and hybrid cuSZp). Each codec
//! must pass round-trip identity, the ABS/REL error-bound contract,
//! empty/constant/non-finite inputs, and exact-length frame validation.
//! Registering a new codec makes it subject to this suite with zero test
//! changes.

use cuszp_repro::cuszp_core::{value_range, DType};
use cuszp_repro::cuszp_store::{CodecRegistry, CodecScratch, ErrorBoundedCodec, StoreError};

/// Narrowing the f64 reconstruction to f32 costs up to a ULP of the
/// value; every bound check allows that slop on top of `eb`.
fn slack(v: f32) -> f64 {
    v.abs() as f64 * f32::EPSILON as f64 + f64::EPSILON
}

fn datasets() -> Vec<(&'static str, Vec<f32>)> {
    vec![
        (
            "wave",
            (0..4000).map(|i| (i as f32 * 0.013).sin() * 25.0).collect(),
        ),
        (
            "ragged", // stresses the final partial block of every block size
            (0..1013)
                .map(|i| (i as f32 * 0.17).cos() * 3.0 + i as f32 * 0.01)
                .collect(),
        ),
        (
            "rough",
            (0..2048)
                .map(|i| (((i * 2654435761usize) % 2000) as f32) * 0.25 - 250.0)
                .collect(),
        ),
        ("constant", vec![4.5f32; 777]),
        ("single", vec![-3.25f32]),
        ("empty", vec![]),
    ]
}

fn roundtrip(
    codec: &dyn ErrorBoundedCodec,
    data: &[f32],
    eb: f64,
    scratch: &mut CodecScratch,
) -> Vec<f32> {
    let mut frame = Vec::new();
    codec.encode(data, eb, scratch, &mut frame);
    assert_eq!(
        codec.num_elements(&frame).expect("own frame parses"),
        data.len(),
        "{}: frame element count",
        codec.name()
    );
    let mut out = vec![0f32; data.len()];
    codec
        .decode_into(&frame, scratch, &mut out)
        .expect("own frame decodes");
    out
}

#[test]
fn abs_bound_contract() {
    let registry = CodecRegistry::with_defaults();
    let mut scratch = CodecScratch::new();
    for codec in registry.codecs() {
        for (name, data) in datasets() {
            for eb in [1e-1, 1e-3] {
                let out = roundtrip(codec, &data, eb, &mut scratch);
                for (i, (&d, &r)) in data.iter().zip(&out).enumerate() {
                    let err = (d as f64 - r as f64).abs();
                    assert!(
                        err <= eb * (1.0 + 1e-6) + slack(d) + slack(r),
                        "{} / {name} eb {eb} idx {i}: |{d} - {r}| = {err}",
                        codec.name()
                    );
                }
            }
        }
    }
}

#[test]
fn rel_bound_contract() {
    // REL resolves to ABS through the value range, exactly as the paper's
    // harness does; the resolved bound must then hold absolutely.
    let registry = CodecRegistry::with_defaults();
    let mut scratch = CodecScratch::new();
    for codec in registry.codecs() {
        for (name, data) in datasets() {
            let range = value_range(&data);
            if !(range.is_finite() && range > 0.0) {
                continue; // constant/empty: REL is undefined
            }
            let rel = 1e-3;
            let eb = rel * range;
            let out = roundtrip(codec, &data, eb, &mut scratch);
            for (i, (&d, &r)) in data.iter().zip(&out).enumerate() {
                let err = (d as f64 - r as f64).abs();
                assert!(
                    err <= eb * (1.0 + 1e-6) + slack(d) + slack(r),
                    "{} / {name} rel {rel} idx {i}: |{d} - {r}| = {err}",
                    codec.name()
                );
            }
        }
    }
}

#[test]
fn f64_bound_contract() {
    // f64 is opt-in: codecs that claim it must honor the same ABS
    // contract on wide-range doubles; codecs that don't must fail with
    // the typed error, not silently narrow.
    let registry = CodecRegistry::with_defaults();
    let mut scratch = CodecScratch::new();
    let data: Vec<f64> = (0..3000)
        .map(|i| (i as f64 * 0.013).sin() * 1.0e7 + (i as f64 * 0.11).cos())
        .collect();
    let eb = 1e-2;
    for codec in registry.codecs() {
        let mut frame = Vec::new();
        if !codec.supports_dtype(DType::F64) {
            assert!(
                matches!(
                    codec.encode_f64(&data, eb, &mut scratch, &mut frame),
                    Err(StoreError::UnsupportedDtype { .. })
                ),
                "{}: must reject f64 with the typed error",
                codec.name()
            );
            continue;
        }
        codec
            .encode_f64(&data, eb, &mut scratch, &mut frame)
            .expect("claimed dtype encodes");
        assert_eq!(
            codec.num_elements(&frame).expect("own frame parses"),
            data.len(),
            "{}: f64 frame element count",
            codec.name()
        );
        let num_blocks = data.len().div_ceil(codec.block_len());
        let mut out = vec![0f64; data.len()];
        codec
            .decode_blocks_f64(&frame, 0..num_blocks, &mut scratch, &mut out)
            .expect("own f64 frame decodes");
        for (i, (&d, &r)) in data.iter().zip(&out).enumerate() {
            let err = (d - r).abs();
            assert!(
                err <= eb * (1.0 + 1e-6) + d.abs() * f64::EPSILON + f64::EPSILON,
                "{} f64 idx {i}: |{d} - {r}| = {err}",
                codec.name()
            );
        }
    }
}

#[test]
fn empty_and_constant_inputs() {
    let registry = CodecRegistry::with_defaults();
    let mut scratch = CodecScratch::new();
    for codec in registry.codecs() {
        // Empty: a valid frame declaring zero elements.
        let out = roundtrip(codec, &[], 1e-2, &mut scratch);
        assert!(out.is_empty(), "{}", codec.name());
        // Constant: must reproduce within bound.
        let data = vec![0.125f32; 500];
        let out = roundtrip(codec, &data, 1e-2, &mut scratch);
        assert!(
            out.iter().all(|&v| (v - 0.125).abs() <= 1e-2 + 1e-6),
            "{}: constant input must stay within bound",
            codec.name()
        );
    }
}

#[test]
fn non_finite_inputs_never_panic() {
    // NaN/±Inf are outside every bound contract, but encoding them must
    // neither panic nor corrupt the frame structure: the frame still
    // parses, declares the right element count, and decodes to the right
    // length.
    let registry = CodecRegistry::with_defaults();
    let mut scratch = CodecScratch::new();
    let mut data: Vec<f32> = (0..200).map(|i| (i as f32 * 0.1).sin()).collect();
    data[3] = f32::NAN;
    data[77] = f32::INFINITY;
    data[150] = f32::NEG_INFINITY;
    for codec in registry.codecs() {
        let out = roundtrip(codec, &data, 1e-3, &mut scratch);
        assert_eq!(out.len(), data.len(), "{}", codec.name());
        // Finite elements far from the poisoned blocks stay bounded.
        let (d, r) = (data[120], out[120]);
        assert!(
            (d as f64 - r as f64).abs() <= 1e-3 * (1.0 + 1e-6) + slack(d) + slack(r),
            "{}: finite element in a clean block must stay bounded",
            codec.name()
        );
    }
}

#[test]
fn exact_length_validation() {
    // Every codec must reject both a truncated frame and a frame with
    // trailing bytes — length accounting is exact, never a lower bound.
    let registry = CodecRegistry::with_defaults();
    let mut scratch = CodecScratch::new();
    let data: Vec<f32> = (0..999).map(|i| (i as f32 * 0.07).sin() * 10.0).collect();
    for codec in registry.codecs() {
        let mut frame = Vec::new();
        codec.encode(&data, 1e-3, &mut scratch, &mut frame);
        assert!(codec.num_elements(&frame).is_ok(), "{}", codec.name());
        assert!(
            codec.num_elements(&frame[..frame.len() - 1]).is_err(),
            "{}: truncated frame must be rejected",
            codec.name()
        );
        let mut long = frame.clone();
        long.push(0);
        assert!(
            codec.num_elements(&long).is_err(),
            "{}: trailing bytes must be rejected",
            codec.name()
        );
        assert!(
            codec.num_elements(&frame[..4]).is_err(),
            "{}: sub-header frame must be rejected",
            codec.name()
        );
        assert!(
            codec.num_elements(b"NOTAFRAME___________________").is_err(),
            "{}: foreign magic must be rejected",
            codec.name()
        );
    }
}
