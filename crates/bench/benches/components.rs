//! Component microbenches: the four cuSZp pipeline steps (their
//! `host_ref` forms, and the fast codec's fused first stage over one
//! store chunk) plus the cuSZ Huffman coder, isolated.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let data: Vec<f32> = (0..32_768)
        .map(|i| (i as f32 * 0.01).sin() * 100.0)
        .collect();
    let eb = 0.01;

    let mut group = c.benchmark_group("components");

    group.bench_function("quantize_block", |b| {
        let mut out = vec![0i64; 32];
        b.iter(|| {
            for block in data.chunks(32) {
                cuszp_core::quantize::quantize_block(black_box(block), eb, true, &mut out);
            }
            black_box(out[0])
        })
    });

    // The host codec's first stage over one 64 KiB f32 store chunk: the
    // tile quantize and tile encode kernels, warm arena and output.
    group.bench_function("fast_compress_into_chunk64k", |b| {
        let chunk = &data[..16_384];
        let cfg = cuszp_core::CuszpConfig::default();
        let mut scratch = cuszp_core::Scratch::new();
        let mut out = Vec::new();
        b.iter(|| {
            let r =
                cuszp_core::fast::compress_into(&mut scratch, black_box(chunk), eb, cfg, &mut out);
            black_box(r.payload.len())
        })
    });

    // The decoder's first stage over the same chunk: the fused decode
    // kernels into a warm arena and a reused output.
    group.bench_function("fast_decompress_into_chunk64k", |b| {
        let chunk = &data[..16_384];
        let c = cuszp_core::fast::compress(chunk, eb, cuszp_core::CuszpConfig::default());
        let mut scratch = cuszp_core::Scratch::new();
        let mut out = vec![0f32; chunk.len()];
        b.iter(|| {
            cuszp_core::fast::decompress_into(black_box(c.as_ref()), &mut scratch, &mut out);
            black_box(out[0])
        })
    });

    // A restore's shape: `snapshot`'s [4, 32, 128] store chunk decoded
    // into its place among the rows of a [40, 224, 224] array, 128 rows
    // of four blocks each.
    group.bench_function("fast_decompress_rows_chunk64k", |b| {
        let chunk = &data[..16_384];
        let c = cuszp_core::fast::compress(chunk, eb, cuszp_core::CuszpConfig::default());
        let rows = cuszp_core::RowLayout::of_box(
            &[4, 32, 128],
            &[0, 0, 0],
            &[4, 32, 128],
            &[224 * 224, 224, 1],
        );
        let mut scratch = cuszp_core::Scratch::new();
        let mut array = vec![0f32; 40 * 224 * 224];
        // The chunk at grid position (2, 3, 1): origin (8, 96, 128).
        let at = 8 * 224 * 224 + 96 * 224 + 128;
        b.iter(|| {
            let out = &mut array[at..at + rows.dst_len()];
            black_box(cuszp_core::fast::decompress_rows_into(
                black_box(c.as_ref()),
                &rows,
                &mut scratch,
                out,
            ))
        })
    });

    // The same restore through the hybrid stage, as a `CZH1` store chunk
    // decodes: entropy decode of the chunk's frame, then the first stage
    // into the array's rows.
    group.bench_function("hybrid_decode_rows_chunk64k", |b| {
        let chunk = &data[..16_384];
        let c = cuszp_core::fast::compress(chunk, eb, cuszp_core::CuszpConfig::default());
        let mut hs = cuszp_core::HybridScratch::new();
        let mut frame = Vec::new();
        let r = c.as_ref();
        cuszp_core::hybrid::encode(
            &r,
            cuszp_core::hybrid::auto_chunk_blocks(&r),
            &mut hs,
            &mut frame,
        );
        let hr = cuszp_core::HybridRef::parse(&frame).expect("a frame it just wrote");
        let rows = cuszp_core::RowLayout::of_box(
            &[4, 32, 128],
            &[0, 0, 0],
            &[4, 32, 128],
            &[224 * 224, 224, 1],
        );
        let mut scratch = cuszp_core::Scratch::new();
        let mut array = vec![0f32; 40 * 224 * 224];
        let at = 8 * 224 * 224 + 96 * 224 + 128;
        b.iter(|| {
            let out = &mut array[at..at + rows.dst_len()];
            black_box(
                cuszp_core::hybrid::decode_rows_into(
                    black_box(&hr),
                    &rows,
                    &mut hs,
                    &mut scratch,
                    out,
                )
                .expect("a valid frame"),
            )
        })
    });

    group.bench_function("plan_block", |b| {
        let mut resid = vec![0i64; 32];
        cuszp_core::quantize::quantize_block(&data[..32], eb, true, &mut resid);
        b.iter(|| black_box(cuszp_core::encode::plan_block(black_box(&resid), 32)))
    });

    group.bench_function("bitshuffle_roundtrip", |b| {
        let values: Vec<u64> = (0..32).map(|i| (i * 37) % 1024).collect();
        let mut planes = vec![0u8; 10 * 4];
        let mut back = vec![0u64; 32];
        b.iter(|| {
            cuszp_core::bitshuffle::shuffle(black_box(&values), 10, &mut planes);
            cuszp_core::bitshuffle::unshuffle(&planes, 10, &mut back);
            black_box(back[0])
        })
    });

    group.bench_function("host_codec_roundtrip_32k", |b| {
        let cfg = cuszp_core::CuszpConfig::default();
        b.iter(|| {
            let s = cuszp_core::host_ref::compress(black_box(&data), eb, cfg);
            black_box(cuszp_core::host_ref::decompress::<f32>(&s).len())
        })
    });

    // The REL-bound resolution the service runs on every request.
    group.bench_function("value_range_1mib_f32", |b| {
        let field: Vec<f32> = (0..262_144)
            .map(|i| (i as f32 * 0.001).sin() * 100.0)
            .collect();
        b.iter(|| black_box(cuszp_core::value_range(black_box(&field))))
    });

    group.bench_function("huffman_roundtrip_32k", |b| {
        let symbols: Vec<u16> = data
            .iter()
            .map(|&v| ((v as i32).rem_euclid(1024)) as u16)
            .collect();
        let mut freq = vec![0u64; 1024];
        for &s in &symbols {
            freq[s as usize] += 1;
        }
        let lengths = baselines::cusz::huffman::build_lengths(&freq);
        let book = baselines::cusz::huffman::Codebook::from_lengths(&lengths);
        b.iter(|| {
            let mut bits = Vec::new();
            let bl = baselines::cusz::huffman::encode(black_box(&symbols), &book, &mut bits);
            black_box(baselines::cusz::huffman::decode(&bits, bl, symbols.len(), &book).len())
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
