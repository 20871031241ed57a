//! Differential check: the fused device kernel (`compress_kernel` on the
//! gpu-sim substrate) and the sequential host reference (`host_ref`) must
//! produce **byte-identical serialized archives** — for both element
//! types, random data, and awkward lengths. Complements
//! `device_host_equivalence.rs`, which sweeps the dataset generators in
//! f32 only.

use cuszp_repro::baselines::cuszp::compress_kernel;
use cuszp_repro::cuszp_core::{host_ref, Cuszp, DType, ErrorBound, FloatData};
use cuszp_repro::gpu_sim::{DeviceCopy, DeviceSpec, Gpu};
use proptest::prelude::*;

/// Compress on both paths and compare the serialized bytes.
fn assert_identical_archives<T: FloatData + DeviceCopy>(
    data: &[T],
    eb: f64,
) -> Result<(), TestCaseError> {
    let codec = Cuszp::new();
    let host_bytes = host_ref::compress(data, eb, codec.config).to_bytes();

    let mut gpu = Gpu::new(DeviceSpec::a100());
    let input = gpu.h2d(data);
    let dev = compress_kernel(&mut gpu, &input, eb, codec.config).to_host(&mut gpu);
    let dev_bytes = dev.to_bytes();

    prop_assert_eq!(host_bytes, dev_bytes);

    // Narrowing the reconstruction to T can add half a ULP of the value.
    let type_eps = match T::DTYPE {
        DType::F32 => f32::EPSILON as f64,
        DType::F64 => f64::EPSILON,
    };
    // And the reconstruction from the shared stream honors the bound.
    let back: Vec<T> = host_ref::decompress(&dev);
    prop_assert_eq!(back.len(), data.len());
    for (&d, &r) in data.iter().zip(&back) {
        let slack = d.to_f64().abs() * type_eps + f64::EPSILON;
        prop_assert!((d.to_f64() - r.to_f64()).abs() <= eb * (1.0 + 1e-6) + slack);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn f32_archives_byte_identical(
        data in proptest::collection::vec(-1e4f32..1e4, 1..500),
        eb in 1e-5f64..1.0,
    ) {
        assert_identical_archives(&data, eb)?;
    }

    #[test]
    fn f64_archives_byte_identical(
        data in proptest::collection::vec(-1e8f64..1e8, 1..500),
        eb in 1e-3f64..100.0,
    ) {
        assert_identical_archives(&data, eb)?;
    }

    #[test]
    fn partial_block_lengths_byte_identical(
        n in prop_oneof![Just(1usize), Just(31), Just(32), Just(33), Just(95), Just(97)],
        scale in 0.5f32..50.0,
    ) {
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.29).sin() * scale).collect();
        assert_identical_archives(&data, 1e-3)?;
    }
}

#[test]
fn chunked_container_identical_across_paths() {
    // Per-chunk device compression assembled into a container equals the
    // host chunked path byte-for-byte.
    let data: Vec<f32> = (0..10_000)
        .map(|i| (i as f32 * 0.017).sin() * 7.0)
        .collect();
    let codec = Cuszp::new();
    let eb = 1e-3;
    let host = codec.compress_chunked(&data, ErrorBound::Abs(eb), 1024);

    let mut gpu = Gpu::new(DeviceSpec::a100());
    let mut dev = cuszp_repro::cuszp_core::ChunkedCompressed::new();
    for chunk in data.chunks(1024) {
        let input = gpu.h2d(chunk);
        dev.push(compress_kernel(&mut gpu, &input, eb, codec.config).to_host(&mut gpu));
    }
    assert_eq!(host.to_bytes(), dev.to_bytes());
}
