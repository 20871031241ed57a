//! Entropy-stage kernel throughput: the four-stream interleaved
//! `Huffman4` coder in both directions, the one coded mode the hybrid
//! `CUSZPHY1` second stage writes. `e2ebench` measures the end-to-end
//! view (`hybrid.*` metrics on `snapshot`), while this target isolates
//! the kernels themselves on a fixed 4 MiB chunk-shaped corpus. The
//! stage has one kernel set, so no row is per SIMD tier.
//!
//! A 4 MiB buffer hides per-chunk fixed costs (code-length build, decode
//! table), which dominate at the size the store actually codes: a 64 KiB
//! chunk of f32 becomes one entropy chunk of ~6–12 KB. The `chunk16k_*`
//! rows therefore run on real cuSZp streams — Small Hurricane, NYX and
//! RTM fields cut into 16 384-element pieces at a 1e-3 relative bound —
//! and time one pass over all pieces: estimator + encode, decode, and
//! the decode-table build alone, with and without the two-symbol graft.
//! Decodes reuse one caller-owned `DecodeTable`, as the hybrid stage's
//! scratch does. The encoder's steps have a row each too: the estimator
//! over every piece, then the `Huffman4` histogram, code-length build
//! (lengths and canonical codes) and bit writing over the pieces the
//! estimator sends to `Huffman4`.

use criterion::{criterion_group, criterion_main, Criterion};
use cuszp_core::{fast, value_range, CuszpConfig};
use cuszp_entropy::{
    build_decode_table, decode_chunk, encode_chunk, huffman4_write, select_mode,
    stride4_histograms, Codebook, DecodeTable, Mode,
};
use datasets::{generate_subset, DatasetId, Scale};
use std::hint::black_box;

/// Skewed bytes shaped like a bit-shuffled residual plane: a few hot
/// symbols, a long zero tail, occasional runs.
fn skewed_bytes(n: usize) -> Vec<u8> {
    let mut s = 0x1234_5678_9abc_def0u64;
    (0..n)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if i % 97 < 40 {
                0
            } else {
                (s % 16) as u8
            }
        })
        .collect()
}

/// Raw entropy chunks (fixed lengths ++ payload, as the hybrid frame
/// stages them) of 16 384-element pieces of real fields.
fn store_sized_chunks() -> Vec<Vec<u8>> {
    let mut chunks = Vec::new();
    for id in [DatasetId::Hurricane, DatasetId::Nyx, DatasetId::Rtm] {
        for f in generate_subset(id, Scale::Small, 2) {
            let eb = 1e-3 * value_range(&f.data);
            for piece in f.data.chunks(16_384) {
                let c = fast::compress(piece, eb, CuszpConfig::default());
                let mut raw = c.fixed_lengths;
                raw.extend_from_slice(&c.payload);
                chunks.push(raw);
            }
        }
    }
    chunks
}

fn bench_store_sized_chunks(c: &mut Criterion) {
    let raws = store_sized_chunks();
    let coded: Vec<(Mode, Vec<u8>, usize)> = raws
        .iter()
        .map(|raw| {
            let mut comp = Vec::new();
            let mode = encode_chunk(select_mode(raw), raw, &mut comp);
            (mode, comp, raw.len())
        })
        .collect();
    // The coded chunks that carry a decode table.
    let tabled: Vec<(&[u8], usize)> = coded
        .iter()
        .filter(|(mode, ..)| *mode == Mode::Huffman4)
        .map(|(_, comp, n)| (comp.as_slice(), *n))
        .collect();
    let mut comp = Vec::new();
    let mut back = vec![0u8; raws.iter().map(Vec::len).max().unwrap_or(0)];
    let mut table = DecodeTable::new();

    // The pieces `encode_chunk` codes as `Huffman4`, with each step's
    // inputs precomputed so every row times its own step alone.
    let h4: Vec<&[u8]> = raws
        .iter()
        .map(Vec::as_slice)
        .filter(|raw| select_mode(raw) == Mode::Huffman4)
        .collect();
    let lanes: Vec<[[u32; 256]; 4]> = h4.iter().map(|raw| stride4_histograms(raw)).collect();
    let freqs: Vec<[u32; 256]> = lanes
        .iter()
        .map(|l| std::array::from_fn(|b| l[0][b] + l[1][b] + l[2][b] + l[3][b]))
        .collect();
    let books: Vec<Codebook> = freqs.iter().map(Codebook::build).collect();
    println!(
        "chunk16k corpus: {} pieces, {} sent to huffman4",
        raws.len(),
        h4.len()
    );

    let mut group = c.benchmark_group("entropy");
    group.bench_function("chunk16k_select", |b| {
        b.iter(|| {
            for raw in &raws {
                black_box(select_mode(black_box(raw)));
            }
        })
    });
    group.bench_function("chunk16k_histogram", |b| {
        b.iter(|| {
            for raw in &h4 {
                black_box(stride4_histograms(black_box(raw)));
            }
        })
    });
    group.bench_function("chunk16k_code_lengths", |b| {
        b.iter(|| {
            for freq in &freqs {
                black_box(Codebook::build(black_box(freq)));
            }
        })
    });
    group.bench_function("chunk16k_huffman4_write", |b| {
        b.iter(|| {
            for ((raw, lanes), book) in h4.iter().zip(&lanes).zip(&books) {
                comp.clear();
                assert!(huffman4_write(black_box(raw), lanes, book, &mut comp));
            }
            black_box(comp.len())
        })
    });
    group.bench_function("chunk16k_encode", |b| {
        b.iter(|| {
            for raw in &raws {
                comp.clear();
                encode_chunk(select_mode(raw), black_box(raw), &mut comp);
            }
            black_box(comp.len())
        })
    });
    group.bench_function("chunk16k_decode", |b| {
        b.iter(|| {
            for (mode, comp, n) in &coded {
                decode_chunk(*mode, black_box(comp), &mut back[..*n], &mut table)
                    .expect("own chunk");
            }
            black_box(back[0])
        })
    });
    group.bench_function("chunk16k_decode_table", |b| {
        b.iter(|| {
            for &(comp, n) in &tabled {
                build_decode_table(black_box(comp), n, &mut table).expect("own chunk");
            }
        })
    });
    // The same builds without the two-symbol graft: a one-byte decode
    // skips it, so the gap to the row above is the graft's build cost.
    group.bench_function("chunk16k_decode_table_nograft", |b| {
        b.iter(|| {
            for &(comp, _) in &tabled {
                build_decode_table(black_box(comp), 1, &mut table).expect("own chunk");
            }
        })
    });
    group.finish();
}

fn bench_entropy(c: &mut Criterion) {
    let n = 4 << 20;
    let skewed = skewed_bytes(n);
    let mut comp = Vec::new();
    let mut back = vec![0u8; n];
    let mut table = DecodeTable::new();

    let mut group = c.benchmark_group("entropy");
    group.bench_function("huffman4_encode", |b| {
        b.iter(|| {
            comp.clear();
            let got = encode_chunk(Mode::Huffman4, black_box(&skewed), &mut comp);
            assert_eq!(got, Mode::Huffman4);
            black_box(comp.len())
        })
    });
    comp.clear();
    encode_chunk(Mode::Huffman4, &skewed, &mut comp);
    group.bench_function("huffman4_decode", |b| {
        b.iter(|| {
            decode_chunk(Mode::Huffman4, black_box(&comp), &mut back, &mut table)
                .expect("own chunk");
            black_box(back[0])
        })
    });
    group.finish();
}

criterion_group!(benches, bench_entropy, bench_store_sized_chunks);
criterion_main!(benches);
