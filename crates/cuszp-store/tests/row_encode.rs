//! The store's row-encode write path. `write_shard` makes one
//! `encode_rows` call per chunk over the chunk's rows in the caller's
//! array, appending each frame to the shard buffer. These tests pin it
//! to the path it replaced: gather each chunk into its own array,
//! `encode` it, and concatenate the frames in front of the index.
//!
//! - Every default codec, f32 and (where supported) f64, over rows that
//!   are a multiple of the cuSZp block, rows that are not (so blocks
//!   straddle rows and go through the encoder's bounce) and ragged edge
//!   chunks.
//! - `Gathering` wraps each codec but leaves `encode_rows` to the trait's
//!   provided method, which must write the same shard.
//! - With the counting allocator installed, a warm `write_shard`'s heap
//!   operations do not grow with the chunk count.

use cuszp_core::DType;
use cuszp_store::{
    write_shard, ChunkEntry, CodecRegistry, CodecScratch, ErrorBoundedCodec, FormatId,
    ShardElement, ShardIndex, StoreError,
};
use std::ops::Range;

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// Forwards every required method to the wrapped codec and nothing else, so
/// `encode_rows`/`encode_rows_f64` are the trait's provided gather walk.
struct Gathering<'a>(&'a dyn ErrorBoundedCodec);

impl ErrorBoundedCodec for Gathering<'_> {
    fn format_id(&self) -> FormatId {
        self.0.format_id()
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn supports_dtype(&self, dtype: DType) -> bool {
        self.0.supports_dtype(dtype)
    }
    fn block_len(&self) -> usize {
        self.0.block_len()
    }
    fn encode(&self, data: &[f32], eb: f64, scratch: &mut CodecScratch, out: &mut Vec<u8>) {
        self.0.encode(data, eb, scratch, out)
    }
    fn num_elements(&self, stream: &[u8]) -> Result<usize, StoreError> {
        self.0.num_elements(stream)
    }
    fn decode_blocks(
        &self,
        stream: &[u8],
        blocks: Range<usize>,
        scratch: &mut CodecScratch,
        out: &mut [f32],
    ) -> Result<usize, StoreError> {
        self.0.decode_blocks(stream, blocks, scratch, out)
    }
    fn encode_f64(
        &self,
        data: &[f64],
        eb: f64,
        scratch: &mut CodecScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        self.0.encode_f64(data, eb, scratch, out)
    }
}

/// Element types the differential runs, with their whole-chunk encode.
trait Elem: ShardElement {
    fn from_f64(v: f64) -> Self;
    fn encode(codec: &dyn ErrorBoundedCodec, data: &[Self], eb: f64, out: &mut Vec<u8>);
}

impl Elem for f32 {
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    fn encode(codec: &dyn ErrorBoundedCodec, data: &[Self], eb: f64, out: &mut Vec<u8>) {
        codec.encode(data, eb, &mut CodecScratch::new(), out);
    }
}

impl Elem for f64 {
    fn from_f64(v: f64) -> Self {
        v
    }
    fn encode(codec: &dyn ErrorBoundedCodec, data: &[Self], eb: f64, out: &mut Vec<u8>) {
        codec
            .encode_f64(data, eb, &mut CodecScratch::new(), out)
            .expect("codec supports f64");
    }
}

/// A smooth field with a zeroed slab, so some blocks are zero blocks.
fn field<T: Elem>(shape: &[usize]) -> Vec<T> {
    let n: usize = shape.iter().product();
    (0..n)
        .map(|i| {
            let x = i as f64;
            let v = (x * 0.013).sin() * 40.0 + (x * 0.29).cos() * 2.0;
            T::from_f64(if (n / 3..n / 3 + 200).contains(&i) {
                0.0
            } else {
                v
            })
        })
        .collect()
}

/// The shard the gather-then-encode path writes: each chunk gathered in
/// C order into its own array and encoded on its own, frames back to
/// back, then the index.
fn gathered_shard<T: Elem>(
    data: &[T],
    shape: &[usize],
    chunk: &[usize],
    codec: &dyn ErrorBoundedCodec,
    eb: f64,
) -> Vec<u8> {
    let d = shape.len();
    let grid: Vec<usize> = (0..d).map(|i| shape[i].div_ceil(chunk[i])).collect();
    let mut out = Vec::new();
    let mut entries = Vec::new();
    for c in 0..grid.iter().product::<usize>() {
        // Chunk coordinate of linear chunk id `c` (C order).
        let mut cc = vec![0; d];
        let mut rem = c;
        for i in (0..d).rev() {
            cc[i] = rem % grid[i];
            rem /= grid[i];
        }
        let lo: Vec<usize> = (0..d).map(|i| cc[i] * chunk[i]).collect();
        let hi: Vec<usize> = (0..d).map(|i| (lo[i] + chunk[i]).min(shape[i])).collect();
        let mut gathered = Vec::new();
        let mut idx = lo.clone();
        'elems: loop {
            let at = (0..d).fold(0, |acc, i| acc * shape[i] + idx[i]);
            gathered.push(data[at]);
            for i in (0..d).rev() {
                idx[i] += 1;
                if idx[i] < hi[i] {
                    continue 'elems;
                }
                idx[i] = lo[i];
            }
            break;
        }
        let mut frame = Vec::new();
        T::encode(codec, &gathered, eb, &mut frame);
        entries.push(ChunkEntry {
            offset: out.len() as u64,
            len: frame.len() as u64,
            num_elements: gathered.len() as u64,
            format_id: codec.format_id(),
        });
        out.extend_from_slice(&frame);
    }
    ShardIndex {
        shape: shape.to_vec(),
        chunk_shape: chunk.to_vec(),
        dtype: T::DTYPE,
        entries,
    }
    .append_to(&mut out);
    out
}

/// `(shape, chunk)` cases: rows a multiple of `L = 32`; rows of 100
/// (blocks straddle rows, the bounce); ragged edge chunks in every axis,
/// including rows shorter than a block; and a 1-D array.
const CASES: [(&[usize], &[usize]); 4] = [
    (&[4, 6, 128], &[2, 3, 64]),
    (&[7, 11, 230], &[3, 5, 100]),
    (&[9, 13, 70], &[4, 5, 32]),
    (&[1000], &[96]),
];

fn assert_rows_match_gather<T: Elem>() {
    let registry = CodecRegistry::with_defaults();
    for (shape, chunk) in CASES {
        let data = field::<T>(shape);
        for codec in registry.codecs() {
            if !codec.supports_dtype(T::DTYPE) {
                continue;
            }
            let what = format!("{} {:?} {shape:?}/{chunk:?}", codec.name(), T::DTYPE);
            let eb = 1e-3;
            let want = gathered_shard(&data, shape, chunk, codec, eb);
            let got = write_shard(&data, shape, chunk, codec, eb).expect("shard writes");
            assert!(got == want, "{what}: row-encoded shard differs");
            let provided =
                write_shard(&data, shape, chunk, &Gathering(codec), eb).expect("shard writes");
            assert!(provided == want, "{what}: provided encode_rows differs");
        }
    }
}

#[test]
fn f32_row_encode_matches_gather_then_encode() {
    assert_rows_match_gather::<f32>();
}

#[test]
fn f64_row_encode_matches_gather_then_encode() {
    assert_rows_match_gather::<f64>();
}

/// Heap operations of one `write_shard` on this thread, and the shard's
/// length.
fn write_ops<T: Elem>(data: &[T], shape: &[usize], chunk: &[usize], id: FormatId) -> (u64, usize) {
    let registry = CodecRegistry::with_defaults();
    let codec = registry.get(id).expect("registered");
    let before = alloc_counter::thread_snapshot();
    let shard = write_shard(data, shape, chunk, codec, 1e-3).expect("shard writes");
    let ops = alloc_counter::thread_snapshot().since(&before).heap_ops();
    (ops, shard.len())
}

fn assert_ops_flat_in_chunks<T: Elem>() {
    let shape = [16usize, 32, 256];
    let data = field::<T>(&shape);
    for id in [*b"CZP1", *b"CZH1"] {
        // The first call pays one-time process setup (the SIMD tier and
        // env reads).
        write_ops(&data, &shape, &shape, id);
        // Every buffer is per call and reused chunk to chunk; what is
        // left to vary is how often the shard `Vec` doubles, at most once
        // per power of two its length passes.
        let (few, _) = write_ops(&data, &shape, &[8, 32, 256], id); // 2 chunks
        let (many, len) = write_ops(&data, &shape, &[2, 8, 128], id); // 64 chunks
        assert!(
            many <= few + u64::from(len.ilog2()),
            "{id:?} {:?}: {many} heap ops for 64 chunks vs {few} for 2",
            T::DTYPE
        );
    }
}

#[test]
fn write_heap_ops_do_not_grow_with_chunks() {
    assert!(
        alloc_counter::is_installed(),
        "counting allocator must be this binary's #[global_allocator]"
    );
    assert_ops_flat_in_chunks::<f32>();
    assert_ops_flat_in_chunks::<f64>();
}
