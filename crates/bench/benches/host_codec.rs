//! Host codec throughput: `host_ref` (the step-by-step oracle) against
//! the word-parallel two-phase `fast` codec, both directions, both
//! element types, at **every SIMD tier the host supports** (scalar /
//! avx2 / avx512, forced per row through `CuszpConfig::simd` and the
//! `_at` decompress entry points). The harness experiment
//! `repro host_codec` records the same comparison into
//! `BENCH_host_codec.json`; this criterion target gives the
//! statistically careful local view. Decompress rows use the warm-arena
//! `decompress_into_at` serving path so they measure the codec, not the
//! allocator; `decompress_fast_owned` keeps the allocating wrapper on
//! the record at the auto tier.

use criterion::{criterion_group, criterion_main, Criterion};
use cuszp_core::{fast, host_ref, simd, CuszpConfig, FloatData, Scratch, SimdLevel};
use std::hint::black_box;

fn corpus<T: FloatData>(n: usize) -> Vec<T> {
    (0..n)
        .map(|i| {
            let x = i as f64;
            T::from_f64((x * 0.02).sin() * 40.0 + (x * 0.11).cos() * 3.0)
        })
        .collect()
}

fn bench_dtype<T: FloatData + Default + Copy>(c: &mut Criterion, tag: &str) {
    let n = 1 << 20;
    let data = corpus::<T>(n);
    let eb = 0.01;
    let base = CuszpConfig::default();
    let stream = host_ref::compress(&data, eb, base);
    let detected = simd::detect_level();

    let mut group = c.benchmark_group(format!("host_codec_{tag}"));

    group.bench_function("compress_ref", |b| {
        b.iter(|| black_box(host_ref::compress(black_box(&data), eb, base).stream_bytes()))
    });
    group.bench_function("decompress_ref", |b| {
        b.iter(|| black_box(host_ref::decompress::<T>(black_box(&stream)).len()))
    });

    for level in SimdLevel::ALL.into_iter().filter(|&l| l <= detected) {
        let cfg = CuszpConfig {
            simd: Some(level),
            ..base
        };
        assert_eq!(
            stream,
            fast::compress(&data, eb, cfg),
            "fast codec must stay byte-identical to host_ref at {level}"
        );

        group.bench_function(format!("compress_fast_{level}"), |b| {
            b.iter(|| black_box(fast::compress(black_box(&data), eb, cfg).stream_bytes()))
        });

        let mut scratch = Scratch::new();
        let mut out = vec![T::default(); n];
        group.bench_function(format!("decompress_fast_{level}"), |b| {
            b.iter(|| {
                fast::decompress_into_at(
                    black_box(stream.as_ref()),
                    &mut scratch,
                    Some(level),
                    &mut out,
                );
                black_box(out.len())
            })
        });
    }

    // The allocating wrapper at the auto-detected tier: what callers pay
    // when they skip the arena API.
    group.bench_function("decompress_fast_owned", |b| {
        b.iter(|| black_box(fast::decompress::<T>(black_box(&stream)).len()))
    });
    group.finish();
}

fn bench(c: &mut Criterion) {
    bench_dtype::<f32>(c, "f32");
    bench_dtype::<f64>(c, "f64");
}

criterion_group!(benches, bench);
criterion_main!(benches);
