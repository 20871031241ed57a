//! Codec-call accounting of the store's read path. The store makes one
//! `decode_rows` call per touched chunk. Counting wrappers registered
//! over the default `CZH1` codec (the registry is last-wins per format
//! id) observe every call the reader makes:
//!
//! - `Forwarding` forwards `decode_rows` to the built-in codec, which
//!   decodes the chunk's rows in place: exactly one call per touched
//!   chunk, whatever the box's width.
//! - `Counting` leaves `decode_rows` to the provided tile walk, which
//!   pins its merge rule: consecutive rows whose block ranges touch merge
//!   into one `decode_blocks` call, so a full read is one call per chunk
//!   and a box whose rows leave gaps between their block ranges is one
//!   call per row.

use cuszp_core::hybrid::{HybridRef, HYBRID_MAGIC};
use cuszp_core::DType;
use cuszp_store::{
    write_shard, CodecRegistry, CodecScratch, CuszpCodec, ErrorBoundedCodec, FormatId, RowLayout,
    Shard, StoreError, StoreScratch,
};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// `CZH1` with a shared counter of decode calls.
struct Counting {
    inner: CuszpCodec,
    calls: Arc<AtomicUsize>,
}

impl ErrorBoundedCodec for Counting {
    fn format_id(&self) -> FormatId {
        self.inner.format_id()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn supports_dtype(&self, dtype: DType) -> bool {
        self.inner.supports_dtype(dtype)
    }
    fn block_len(&self) -> usize {
        self.inner.block_len()
    }
    fn access_granularity_blocks(&self) -> usize {
        self.inner.access_granularity_blocks()
    }
    fn encode(&self, data: &[f32], eb: f64, scratch: &mut CodecScratch, out: &mut Vec<u8>) {
        self.inner.encode(data, eb, scratch, out)
    }
    fn num_elements(&self, stream: &[u8]) -> Result<usize, StoreError> {
        self.inner.num_elements(stream)
    }
    fn decode_blocks(
        &self,
        stream: &[u8],
        blocks: Range<usize>,
        scratch: &mut CodecScratch,
        out: &mut [f32],
    ) -> Result<usize, StoreError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.decode_blocks(stream, blocks, scratch, out)
    }
    fn encode_f64(
        &self,
        data: &[f64],
        eb: f64,
        scratch: &mut CodecScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        self.inner.encode_f64(data, eb, scratch, out)
    }
    fn decode_blocks_f64(
        &self,
        stream: &[u8],
        blocks: Range<usize>,
        scratch: &mut CodecScratch,
        out: &mut [f64],
    ) -> Result<usize, StoreError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.decode_blocks_f64(stream, blocks, scratch, out)
    }
}

/// `CZH1` forwarding `decode_rows` to the built-in codec, with a shared
/// counter of the calls that reach the codec by either method.
struct Forwarding {
    inner: CuszpCodec,
    calls: Arc<AtomicUsize>,
}

impl ErrorBoundedCodec for Forwarding {
    fn format_id(&self) -> FormatId {
        self.inner.format_id()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn supports_dtype(&self, dtype: DType) -> bool {
        self.inner.supports_dtype(dtype)
    }
    fn block_len(&self) -> usize {
        self.inner.block_len()
    }
    fn access_granularity_blocks(&self) -> usize {
        self.inner.access_granularity_blocks()
    }
    fn encode(&self, data: &[f32], eb: f64, scratch: &mut CodecScratch, out: &mut Vec<u8>) {
        self.inner.encode(data, eb, scratch, out)
    }
    fn num_elements(&self, stream: &[u8]) -> Result<usize, StoreError> {
        self.inner.num_elements(stream)
    }
    fn decode_blocks(
        &self,
        stream: &[u8],
        blocks: Range<usize>,
        scratch: &mut CodecScratch,
        out: &mut [f32],
    ) -> Result<usize, StoreError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.decode_blocks(stream, blocks, scratch, out)
    }
    fn decode_rows(
        &self,
        stream: &[u8],
        rows: &RowLayout,
        scratch: &mut StoreScratch,
        out: &mut [f32],
    ) -> Result<usize, StoreError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.decode_rows(stream, rows, scratch, out)
    }
}

/// The ragged test field: a 3 × 2 × 3 grid of [4, 32, 128] chunks, edge
/// chunks clamped, and its `CZH1` shard written through `registry`.
const SHAPE: [usize; 3] = [10, 40, 300];
const CHUNK: [usize; 3] = [4, 32, 128];

fn field() -> Vec<f32> {
    (0..SHAPE.iter().product::<usize>())
        .map(|i| {
            let (z, y, x) = (i / 12_000, i / 300 % 40, i % 300);
            ((x as f32) * 0.05).sin() * ((y as f32) * 0.11).cos() * 9.0 + z as f32
        })
        .collect()
}

/// Stored bytes of the entropy chunks that hold any element of the box,
/// each chunk counted once.
fn hybrid_bytes_once(bytes: &[u8], shard: &Shard<'_>, origin: &[usize], extent: &[usize]) -> usize {
    let mut total = 0;
    for (id, e) in shard.index().entries.iter().enumerate() {
        let cc = [id / 6, id / 3 % 2, id % 3];
        let lo: Vec<usize> = (0..3).map(|i| cc[i] * CHUNK[i]).collect();
        let dims: Vec<usize> = (0..3).map(|i| CHUNK[i].min(SHAPE[i] - lo[i])).collect();
        let r = HybridRef::parse(&bytes[e.offset as usize..(e.offset + e.len) as usize]).unwrap();
        let chunk_elems = r.chunk_blocks as usize * r.block_len as usize;
        let mut touched = vec![false; r.num_chunks()];
        for z in origin[0]..origin[0] + extent[0] {
            for y in origin[1]..origin[1] + extent[1] {
                for x in origin[2]..origin[2] + extent[2] {
                    let p = [z, y, x];
                    if (0..3).all(|i| p[i] >= lo[i] && p[i] < lo[i] + dims[i]) {
                        let local = ((z - lo[0]) * dims[1] + (y - lo[1])) * dims[2] + (x - lo[2]);
                        touched[local / chunk_elems] = true;
                    }
                }
            }
        }
        for (c, t) in touched.into_iter().enumerate() {
            total += if t { r.entry(c).1 as usize } else { 0 };
        }
    }
    total
}

#[test]
fn row_aware_codec_gets_one_call_per_touched_chunk() {
    let data = field();
    let calls = Arc::new(AtomicUsize::new(0));
    let mut registry = CodecRegistry::with_defaults();
    registry.register(Box::new(Forwarding {
        inner: CuszpCodec::HYBRID,
        calls: Arc::clone(&calls),
    }));
    let codec = registry.get(*b"CZH1").unwrap();
    let bytes = write_shard(&data, &SHAPE, &CHUNK, codec, 1e-3).unwrap();
    let shard = Shard::open(&bytes).unwrap();
    let frame0 = &shard.index().entries[0];
    assert!(bytes[frame0.offset as usize..].starts_with(&HYBRID_MAGIC));

    let mut scratch = StoreScratch::new();
    let mut full = vec![0f32; data.len()];
    calls.store(0, Ordering::Relaxed);
    let all = shard.read_all(&registry, &mut scratch, &mut full).unwrap();
    assert_eq!(all.chunks_touched, 18);
    assert_eq!(
        calls.load(Ordering::Relaxed),
        18,
        "read_all: one call per chunk"
    );

    let mut read = |origin: &[usize], extent: &[usize], out: &mut [f32]| {
        calls.store(0, Ordering::Relaxed);
        let stats = shard
            .read_region(&registry, origin, extent, &mut scratch, out)
            .unwrap();
        (calls.load(Ordering::Relaxed), stats)
    };

    // Full-width box over a z-slab: one call per chunk it touches.
    let mut slab = vec![0f32; 4 * 40 * 300];
    let (n, stats) = read(&[3, 0, 0], &[4, 40, 300], &mut slab);
    assert_eq!((n, stats.chunks_touched), (12, 12), "full-width box");
    assert_eq!(slab[..], full[3 * 12_000..7 * 12_000]);

    // Partial-x box: still one call per touched chunk, where the tile
    // walk makes one per row (see below), and each chunk's stored
    // payload is read once.
    let (origin, extent) = ([1, 3, 10], [6, 30, 40]);
    let mut box_ = vec![0f32; 6 * 30 * 40];
    let (n, stats) = read(&origin, &extent, &mut box_);
    assert_eq!((n, stats.chunks_touched), (4, 4), "partial-x box");
    assert_eq!(
        stats.payload_bytes_read,
        hybrid_bytes_once(&bytes, &shard, &origin, &extent),
        "each touched entropy chunk is decoded once"
    );
    for (r, row) in box_.chunks(40).enumerate() {
        let (z, y) = (origin[0] + r / 30, origin[1] + r % 30);
        let at = z * 12_000 + y * 300 + origin[2];
        assert_eq!(row, &full[at..at + 40], "row {r}");
    }
}

#[test]
fn reads_make_one_codec_call_per_merged_run() {
    let data = field();
    let calls = Arc::new(AtomicUsize::new(0));
    let mut registry = CodecRegistry::with_defaults();
    registry.register(Box::new(Counting {
        inner: CuszpCodec::HYBRID,
        calls: Arc::clone(&calls),
    }));
    let codec = registry.get(*b"CZH1").unwrap();
    let bytes = write_shard(&data, &SHAPE, &CHUNK, codec, 1e-3).unwrap();
    let shard = Shard::open(&bytes).unwrap();
    // The counted calls must go through the entropy stage, not the plain
    // fallback frame.
    let frame0 = &shard.index().entries[0];
    assert!(bytes[frame0.offset as usize..].starts_with(&HYBRID_MAGIC));

    let mut scratch = StoreScratch::new();
    let mut full = vec![0f32; data.len()];
    calls.store(0, Ordering::Relaxed);
    // Full read: every chunk's rows touch, so one call per chunk.
    let stats = shard.read_all(&registry, &mut scratch, &mut full).unwrap();
    assert_eq!(stats.chunks_touched, 18);
    assert_eq!(
        calls.load(Ordering::Relaxed),
        18,
        "read_all: one decode call per chunk"
    );

    let mut read = |origin: &[usize], extent: &[usize], out: &mut [f32]| {
        calls.store(0, Ordering::Relaxed);
        let stats = shard
            .read_region(&registry, origin, extent, &mut scratch, out)
            .unwrap();
        (calls.load(Ordering::Relaxed), stats)
    };

    // Full-width, full-height box over a z-slab: still one call per
    // chunk it touches (z 3..7 spans both z chunk rows).
    let mut slab = vec![0f32; 4 * 40 * 300];
    let (n, stats) = read(&[3, 0, 0], &[4, 40, 300], &mut slab);
    assert_eq!(stats.chunks_touched, 12);
    assert_eq!(n, 12, "full-width box: one decode call per chunk");
    assert_eq!(slab[..], full[3 * 12_000..7 * 12_000]);

    // Partial-x box: x 10..50 covers blocks 0..2 of each 128-wide row, and
    // the next row starts at block 4, so no rows merge — one call per row.
    let (origin, extent) = ([1, 3, 10], [6, 30, 40]);
    let mut box_ = vec![0f32; 6 * 30 * 40];
    let (n, stats) = read(&origin, &extent, &mut box_);
    assert_eq!(stats.chunks_touched, 4);
    assert_eq!(n, 6 * 30, "partial-x box: one decode call per row");
    for (r, row) in box_.chunks(40).enumerate() {
        let (z, y) = (origin[0] + r / 30, origin[1] + r % 30);
        let at = z * 12_000 + y * 300 + origin[2];
        assert_eq!(row, &full[at..at + 40], "row {r}");
    }
}
