//! The fused device kernels and the sequential host codec must produce
//! byte-identical streams and reconstructions on every dataset — the
//! strongest cross-implementation check in the repository.

use baselines::cuszp::{compress_kernel, compressed_h2d, decompress_kernel};
use cuszp_core::{host_ref, Cuszp, CuszpConfig, ErrorBound};
use datasets::{generate_subset, DatasetId, Scale};
use gpu_sim::{DeviceSpec, Gpu};

#[test]
fn device_and_host_streams_are_identical_on_all_datasets() {
    let codec = Cuszp::new();
    for id in DatasetId::all() {
        for field in generate_subset(id, Scale::Tiny, 2) {
            let eb = codec.resolve_bound(&field.data, ErrorBound::Rel(1e-3));
            let host_stream = host_ref::compress(&field.data, eb, codec.config);

            let mut gpu = Gpu::new(DeviceSpec::a100()).with_workers(3);
            let input = gpu.h2d(&field.data);
            let dc = compress_kernel(&mut gpu, &input, eb, codec.config);
            let dev_stream = dc.to_host(&mut gpu);
            assert_eq!(
                dev_stream,
                host_stream,
                "stream mismatch on {}/{}",
                id.name(),
                field.name
            );

            let host_recon: Vec<f32> = host_ref::decompress(&host_stream);
            let out: gpu_sim::DeviceBuffer<f32> = decompress_kernel(&mut gpu, &dc);
            let dev_recon = gpu.d2h(&out);
            assert_eq!(
                host_recon,
                dev_recon,
                "reconstruction mismatch on {}/{}",
                id.name(),
                field.name
            );
        }
    }
}

#[test]
fn equivalence_holds_for_nondefault_configs() {
    let field = generate_subset(DatasetId::Rtm, Scale::Tiny, 1).remove(0);
    for (block_len, lorenzo) in [(8usize, true), (64, true), (32, false), (128, false)] {
        let codec = Cuszp::with_config(CuszpConfig {
            block_len,
            lorenzo,
            ..CuszpConfig::default()
        });
        let eb = codec.resolve_bound(&field.data, ErrorBound::Rel(1e-2));
        let host_stream = host_ref::compress(&field.data, eb, codec.config);
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let input = gpu.h2d(&field.data);
        let dc = compress_kernel(&mut gpu, &input, eb, codec.config);
        assert_eq!(
            dc.to_host(&mut gpu),
            host_stream,
            "L={block_len} lorenzo={lorenzo}"
        );
    }
}

#[test]
fn stream_roundtrips_through_serialized_file_form() {
    let field = generate_subset(DatasetId::CesmAtm, Scale::Tiny, 1).remove(0);
    let codec = Cuszp::new();
    let stream = codec.compress(&field.data, ErrorBound::Rel(1e-3));
    let bytes = stream.to_bytes();
    let parsed = cuszp_core::Compressed::from_bytes(&bytes).expect("parse");
    assert_eq!(parsed, stream);
    // A stream that came back from disk decodes on the device too.
    let mut gpu = Gpu::new(DeviceSpec::a100());
    let dc = compressed_h2d(&mut gpu, &parsed);
    let out: gpu_sim::DeviceBuffer<f32> = decompress_kernel(&mut gpu, &dc);
    assert_eq!(gpu.d2h(&out), codec.decompress::<f32>(&stream));
}

#[test]
fn device_matches_host_on_spiky_f32_and_f64_waves() {
    // f32 sine with a spike every 97 values, on one and on three
    // simulation workers.
    let spiky: Vec<f32> = (0..10_000)
        .map(|i| {
            let x = i as f32;
            (x * 0.013).sin() * 500.0 + if i % 97 == 0 { 4000.0 } else { 0.0 }
        })
        .collect();
    for workers in [1, 3] {
        let mut gpu = Gpu::new(DeviceSpec::a100()).with_workers(workers);
        let input = gpu.h2d(&spiky);
        let cfg = CuszpConfig::default();
        let dc = compress_kernel(&mut gpu, &input, 0.05, cfg);
        let dev = dc.to_host(&mut gpu);
        let host = host_ref::compress(&spiky, 0.05, cfg);
        assert_eq!(dev, host, "spiky f32, {workers} workers");
    }

    // f64 wave at a bound f32 cannot represent (the reference `-d` mode):
    // same stream, same reconstruction.
    let wave64: Vec<f64> = (0..4000)
        .map(|i| (i as f64 * 0.013).sin() * 1.0e9 + (i as f64 * 0.11).cos())
        .collect();
    let codec = Cuszp::new();
    let eb = codec.resolve_bound(&wave64, ErrorBound::Rel(1e-8));
    let host_stream = host_ref::compress(&wave64, eb, codec.config);
    let mut gpu = Gpu::new(DeviceSpec::a100()).with_workers(2);
    let input = gpu.h2d(&wave64);
    let dc = compress_kernel(&mut gpu, &input, eb, codec.config);
    assert_eq!(dc.to_host(&mut gpu), host_stream);
    let out: gpu_sim::DeviceBuffer<f64> = decompress_kernel(&mut gpu, &dc);
    assert_eq!(gpu.d2h(&out), host_ref::decompress::<f64>(&host_stream));
}
