//! Codec-call accounting of the store's read path: consecutive rows of a
//! chunk whose block ranges touch merge into one `decode_blocks` call.
//! A counting wrapper registered over the default `CZH1` codec (the
//! registry is last-wins per format id) observes every call the reader
//! makes, which pins the merge rule: a full read is one call per chunk,
//! and a box whose rows leave gaps between their block ranges is one call
//! per row.

use cuszp_core::hybrid::HYBRID_MAGIC;
use cuszp_core::DType;
use cuszp_store::{
    write_shard, CodecRegistry, CodecScratch, CuszpHybridCodec, ErrorBoundedCodec, FormatId, Shard,
    StoreError, StoreScratch,
};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// `CZH1` with a shared counter of decode calls.
struct Counting {
    inner: CuszpHybridCodec,
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

#[test]
fn reads_make_one_codec_call_per_merged_run() {
    // Ragged on every axis: a 3 × 2 × 3 chunk grid of [4, 32, 128]
    // chunks, edge chunks clamped.
    let shape = [10, 40, 300];
    let chunk = [4, 32, 128];
    let data: Vec<f32> = (0..shape.iter().product::<usize>())
        .map(|i| {
            let (z, y, x) = (i / 12_000, i / 300 % 40, i % 300);
            ((x as f32) * 0.05).sin() * ((y as f32) * 0.11).cos() * 9.0 + z as f32
        })
        .collect();
    let calls = Arc::new(AtomicUsize::new(0));
    let mut registry = CodecRegistry::with_defaults();
    registry.register(Box::new(Counting {
        inner: CuszpHybridCodec,
        calls: Arc::clone(&calls),
    }));
    let codec = registry.get(*b"CZH1").unwrap();
    let bytes = write_shard(&data, &shape, &chunk, codec, 1e-3).unwrap();
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
