//! Timing wrappers for the two cuSZp store codecs.
//!
//! Registered over the defaults in a [`CodecRegistry`] (registration is
//! last-wins per format id), they let the traced run split the store's
//! codec time from its own time without touching `cuszp-store`. Each
//! wrapper makes the same library calls as the codec it replaces, so the
//! frames it writes are byte-identical to the untraced run's (the
//! workloads assert this). The `CZH1` encode composes
//! `fast::compress_into` and `hybrid::encode_at` exactly as
//! `CuszpHybridCodec` does, so the two stages get separate spans.

use crate::trace;
use cuszp_core::hybrid::{self, HybridRef, HYBRID_MAGIC};
use cuszp_core::{fast, CompressedRef, CuszpConfig, FloatData};
use cuszp_store::{CodecRegistry, CodecScratch, ErrorBoundedCodec, FormatId, StoreError};
use std::ops::Range;

/// The default registry with the `CZP1` and `CZH1` codecs replaced by
/// their timing wrappers.
pub fn traced_registry() -> CodecRegistry {
    let mut r = CodecRegistry::with_defaults();
    r.register(Box::new(TracedCuszp));
    r.register(Box::new(TracedHybrid));
    r
}

fn raw_bytes<T: FloatData>(n: usize) -> u64 {
    (n * T::DTYPE.size()) as u64
}

/// Record a hybrid frame's mode mix (or a whole-frame fallback).
pub fn note_hybrid_frame(frame: &[u8], fallback: bool) {
    trace::count(|c| {
        c.hybrid_encodes += 1;
        c.hybrid_fallbacks += fallback as u64;
    });
    if let Ok(r) = HybridRef::parse(frame) {
        let h = r.mode_histogram();
        trace::count(|c| {
            for (m, n) in c.modes.iter_mut().zip(h) {
                *m += n as u64;
            }
        });
    }
}

/// Chunks of a hybrid frame that a decode of `blocks` entropy-decodes.
fn chunks_touched(r: &HybridRef<'_>, blocks: &Range<usize>) -> u64 {
    if blocks.is_empty() {
        return 0;
    }
    let k = r.chunk_blocks as usize;
    ((blocks.end - 1) / k - blocks.start / k + 1) as u64
}

fn parse_as<T: FloatData>(stream: &[u8]) -> Result<CompressedRef<'_>, StoreError> {
    let r = CompressedRef::parse(stream)?;
    if r.dtype != T::DTYPE {
        return Err(StoreError::DtypeMismatch {
            stored: r.dtype,
            requested: T::DTYPE,
        });
    }
    Ok(r)
}

fn fast_encode<T: FloatData>(data: &[T], eb: f64, scratch: &mut CodecScratch, out: &mut Vec<u8>) {
    let span = trace::enter("fast.encode", raw_bytes::<T>(data.len()));
    fast::compress_into(&mut scratch.cuszp, data, eb, CuszpConfig::default(), out);
    trace::exit(span);
}

fn fast_decode<T: FloatData>(
    stream: &[u8],
    blocks: Range<usize>,
    scratch: &mut CodecScratch,
    out: &mut [T],
) -> Result<usize, StoreError> {
    let r = parse_as::<T>(stream)?;
    let span = trace::enter("fast.decode", raw_bytes::<T>(out.len()));
    let read = fast::decompress_blocks_into(r, blocks, &mut scratch.cuszp, out);
    trace::exit(span);
    Ok(read)
}

fn hybrid_encode<T: FloatData>(data: &[T], eb: f64, scratch: &mut CodecScratch, out: &mut Vec<u8>) {
    let CodecScratch {
        cuszp,
        stage,
        hybrid: hs,
    } = scratch;
    let cfg = CuszpConfig::default();
    let bytes = raw_bytes::<T>(data.len());
    let span = trace::enter("fast.encode", bytes);
    let r = fast::compress_into(cuszp, data, eb, cfg, stage);
    trace::exit(span);
    let level = cuszp_core::simd::resolve_level(cfg.simd);
    let span = trace::enter("hybrid.encode", bytes);
    hybrid::encode_at(&r, hybrid::auto_chunk_blocks(&r), level, hs, out);
    let fallback = out.len() >= stage.len();
    if fallback {
        out.clear();
        out.extend_from_slice(stage);
    }
    trace::exit(span);
    note_hybrid_frame(out, fallback);
}

fn hybrid_decode<T: FloatData>(
    stream: &[u8],
    blocks: Range<usize>,
    scratch: &mut CodecScratch,
    out: &mut [T],
) -> Result<usize, StoreError> {
    if !stream.starts_with(&HYBRID_MAGIC) {
        return fast_decode(stream, blocks, scratch, out);
    }
    let r = HybridRef::parse(stream)?;
    if r.dtype != T::DTYPE {
        return Err(StoreError::DtypeMismatch {
            stored: r.dtype,
            requested: T::DTYPE,
        });
    }
    let chunks = chunks_touched(&r, &blocks);
    trace::count(|c| c.chunks_decoded += chunks);
    let CodecScratch {
        cuszp, hybrid: hs, ..
    } = scratch;
    let span = trace::enter("hybrid.decode", raw_bytes::<T>(out.len()));
    let read = hybrid::decode_blocks_into(&r, blocks, hs, cuszp, out);
    trace::exit(span);
    Ok(read?)
}

/// Wraps a store-facing decode: counts the call and the elements decoded.
fn store_decode<T: FloatData>(
    out: &mut [T],
    f: impl FnOnce(&mut [T]) -> Result<usize, StoreError>,
) -> Result<usize, StoreError> {
    let n = out.len() as u64;
    trace::count(|c| {
        c.codec_calls += 1;
        c.elems_decoded += n;
    });
    let span = trace::enter("codec.decode", raw_bytes::<T>(out.len()));
    let r = f(out);
    trace::exit(span);
    r
}

fn store_encode<T: FloatData>(data: &[T], f: impl FnOnce()) {
    let span = trace::enter("codec.encode", raw_bytes::<T>(data.len()));
    f();
    trace::exit(span);
}

fn parse_span<R>(f: impl FnOnce() -> R) -> R {
    let span = trace::enter("codec.parse", 0);
    let r = f();
    trace::exit(span);
    r
}

/// `CZP1` with spans around the fast codec.
struct TracedCuszp;

impl ErrorBoundedCodec for TracedCuszp {
    fn format_id(&self) -> FormatId {
        *b"CZP1"
    }
    fn name(&self) -> &'static str {
        "cuszp"
    }
    fn supports_dtype(&self, _dtype: cuszp_core::DType) -> bool {
        true
    }
    fn block_len(&self) -> usize {
        CuszpConfig::default().block_len
    }
    fn encode(&self, data: &[f32], eb: f64, scratch: &mut CodecScratch, out: &mut Vec<u8>) {
        store_encode(data, || fast_encode(data, eb, scratch, out));
    }
    fn num_elements(&self, stream: &[u8]) -> Result<usize, StoreError> {
        parse_span(|| Ok(CompressedRef::parse(stream)?.num_elements as usize))
    }
    fn decode_blocks(
        &self,
        stream: &[u8],
        blocks: Range<usize>,
        scratch: &mut CodecScratch,
        out: &mut [f32],
    ) -> Result<usize, StoreError> {
        store_decode(out, |out| fast_decode(stream, blocks, scratch, out))
    }
    fn encode_f64(
        &self,
        data: &[f64],
        eb: f64,
        scratch: &mut CodecScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        store_encode(data, || fast_encode(data, eb, scratch, out));
        Ok(())
    }
    fn decode_blocks_f64(
        &self,
        stream: &[u8],
        blocks: Range<usize>,
        scratch: &mut CodecScratch,
        out: &mut [f64],
    ) -> Result<usize, StoreError> {
        store_decode(out, |out| fast_decode(stream, blocks, scratch, out))
    }
}

/// `CZH1` with separate spans for the first stage and the hybrid stage.
struct TracedHybrid;

impl ErrorBoundedCodec for TracedHybrid {
    fn format_id(&self) -> FormatId {
        *b"CZH1"
    }
    fn name(&self) -> &'static str {
        "cuszp-hybrid"
    }
    fn supports_dtype(&self, _dtype: cuszp_core::DType) -> bool {
        true
    }
    fn block_len(&self) -> usize {
        CuszpConfig::default().block_len
    }
    fn access_granularity_blocks(&self) -> usize {
        hybrid::AUTO_CHUNK_MAX_BLOCKS
    }
    fn encode(&self, data: &[f32], eb: f64, scratch: &mut CodecScratch, out: &mut Vec<u8>) {
        store_encode(data, || hybrid_encode(data, eb, scratch, out));
    }
    fn num_elements(&self, stream: &[u8]) -> Result<usize, StoreError> {
        parse_span(|| {
            if stream.starts_with(&HYBRID_MAGIC) {
                Ok(HybridRef::parse(stream)?.num_elements as usize)
            } else {
                Ok(CompressedRef::parse(stream)?.num_elements as usize)
            }
        })
    }
    fn decode_blocks(
        &self,
        stream: &[u8],
        blocks: Range<usize>,
        scratch: &mut CodecScratch,
        out: &mut [f32],
    ) -> Result<usize, StoreError> {
        store_decode(out, |out| hybrid_decode(stream, blocks, scratch, out))
    }
    fn encode_f64(
        &self,
        data: &[f64],
        eb: f64,
        scratch: &mut CodecScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        store_encode(data, || hybrid_encode(data, eb, scratch, out));
        Ok(())
    }
    fn decode_blocks_f64(
        &self,
        stream: &[u8],
        blocks: Range<usize>,
        scratch: &mut CodecScratch,
        out: &mut [f64],
    ) -> Result<usize, StoreError> {
        store_decode(out, |out| hybrid_decode(stream, blocks, scratch, out))
    }
}

/// Record one store read: its `ReadStats`, the elements it returned, its
/// wall time, and the hybrid chunks it needed (each chunk of every
/// hybrid frame it touched, once).
pub fn note_store_read(
    shard: &cuszp_store::Shard<'_>,
    bytes: &[u8],
    stats: cuszp_store::ReadStats,
    returned: usize,
    wall_ns: u64,
    whole: bool,
) {
    if !trace::enabled() {
        return;
    }
    let mut needed = 0u64;
    if whole {
        for e in &shard.index().entries {
            let frame = &bytes[e.offset as usize..(e.offset + e.len) as usize];
            if let Ok(r) = HybridRef::parse(frame) {
                needed += r.num_chunks() as u64;
            }
        }
    }
    trace::count(|c| {
        c.chunks_needed += needed;
        c.elems_returned += returned as u64;
        c.chunks_touched += stats.chunks_touched as u64;
        c.blocks_decoded += stats.blocks_decoded as u64;
        c.payload_bytes_read += stats.payload_bytes_read as u64;
        c.read_wall_ns += wall_ns;
    });
}
