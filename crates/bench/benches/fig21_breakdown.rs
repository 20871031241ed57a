//! Fig 21 workload: the fused cuSZp kernels in isolation (compression and
//! decompression), whose per-step shares the figure decomposes.

use baselines::cuszp::{compress_kernel, decompress_kernel};
use bench::{bench_field, eb_for};
use criterion::{criterion_group, criterion_main, Criterion};
use cuszp_core::CuszpConfig;
use datasets::DatasetId;
use gpu_sim::{DeviceSpec, Gpu};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let field = bench_field(DatasetId::Hurricane);
    let cfg = CuszpConfig::default();
    let eb = eb_for(&field, 1e-2);
    let mut group = c.benchmark_group("fig21_fused_kernels");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    group.bench_function("compress_kernel", |b| {
        b.iter(|| {
            let mut gpu = Gpu::new(DeviceSpec::a100());
            let input = gpu.h2d(&field.data);
            black_box(compress_kernel(&mut gpu, black_box(&input), eb, cfg).payload_len)
        })
    });
    group.bench_function("decompress_kernel", |b| {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let input = gpu.h2d(&field.data);
        let dc = compress_kernel(&mut gpu, &input, eb, cfg);
        b.iter(|| {
            let out: gpu_sim::DeviceBuffer<f32> = decompress_kernel(&mut gpu, black_box(&dc));
            black_box(out.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
