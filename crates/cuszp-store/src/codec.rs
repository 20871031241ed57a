//! The [`ErrorBoundedCodec`] trait and its two implementations, cuSZp
//! (`CZP1`) and the hybrid two-stage cuSZp (`CZH1`).
//!
//! A codec is a self-describing byte-stream format with block-granular
//! partial decode: `decode_blocks(range)` reconstructs exactly the
//! elements covered by a block range, reading only those blocks' payload
//! bytes, and `decode_rows(layout)` writes the rows of a box straight
//! into the caller's output, decoding each block they touch once. On the
//! write side, `encode_rows(layout)` appends the frame of a box's rows
//! to the shard buffer. All
//! implementations are copy-free (they parse borrowed views over the
//! frame bytes — never materialize the payload) and allocation-free
//! after warm-up (scratch lives in [`CodecScratch`], the store's
//! [`StoreScratch`], or on the stack).
//!
//! The trait is f32-first (every codec must handle f32 frames); f64 is
//! opt-in per codec through [`ErrorBoundedCodec::supports_dtype`] and the
//! `*_f64` methods, whose defaults return
//! [`StoreError::UnsupportedDtype`]. Both built-in codecs support both
//! element types.

use crate::error::StoreError;
use crate::store::{gather_encode, tile_walk, StoreScratch};
use cuszp_core::hybrid::{self, HybridRef, HybridScratch, HYBRID_MAGIC};
use cuszp_core::{fast, CompressedRef, CuszpConfig, DType, FloatData, RowLayout, Scratch};
use std::ops::Range;

/// 4-byte codec identifier persisted in shard chunk entries.
pub type FormatId = [u8; 4];

/// Reusable per-codec scratch. One instance serves every registered
/// codec; with warm buffers a partial decode performs zero heap
/// allocations.
#[derive(Default)]
pub struct CodecScratch {
    /// Arena for the cuSZp fast codec (per-block lengths and sizes, Eq-2
    /// offsets, the residual tile).
    pub cuszp: Scratch,
    /// Staging buffer for the hybrid codec's lossy pre-stage frame
    /// (the `CUSZP1` bytes the second stage recodes).
    pub stage: Vec<u8>,
    /// Chunk staging for the hybrid entropy stage.
    pub hybrid: HybridScratch,
}

impl CodecScratch {
    /// Fresh, cold scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// An error-bounded codec with block-granular partial decode over its own
/// self-describing byte-stream format.
///
/// # Contract
///
/// * `encode` replaces `out` with a frame that `num_elements` and the
///   decode methods accept; the frame embeds everything needed to decode
///   (no out-of-band metadata). `encode_rows` appends the frame `encode`
///   would write for the rows' elements gathered into one array.
/// * `decode_blocks(stream, b0..b1, ..)` writes exactly
///   `min(b1·L, N) − min(b0·L, N)` elements (`L = block_len()`, `N` the
///   frame's element count; the final block may be ragged), value-
///   identical to decoding the whole frame and slicing. It returns the
///   payload bytes it read — the basis of the store's bytes-touched
///   accounting — and must read **only** the requested blocks' payload
///   plus per-block metadata.
/// * `decode_rows(stream, rows, ..)` writes every element `rows`
///   selects to its place in `out` (see [`ErrorBoundedCodec::decode_rows`])
///   and returns the payload bytes it read; it decodes each block the
///   rows touch once and reads no other block's payload.
/// * Corrupt frame bytes yield `Err`, never a panic or an over-read.
///   Out-of-range block ranges or rows, or wrong `out` lengths, are
///   caller bugs and may panic.
/// * Every decoded value is within `eb` of its original (the conformance
///   suite enforces this registry-wide).
pub trait ErrorBoundedCodec {
    /// Persisted identifier resolving this codec at read time.
    fn format_id(&self) -> FormatId;
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
    /// Whether this codec can encode and decode `dtype` elements. Every
    /// codec handles f32; f64 is opt-in (the default says no, matching
    /// the `*_f64` defaults below).
    fn supports_dtype(&self, dtype: DType) -> bool {
        dtype == DType::F32
    }
    /// Values per block — the granularity of partial decode.
    fn block_len(&self) -> usize;
    /// The format's smallest random-access unit, in blocks: 1 for plain
    /// codecs, coarser for formats that group blocks into variable-length
    /// super-blocks (the hybrid codec's entropy chunks), where serving
    /// one block means reading its whole group's payload.
    fn access_granularity_blocks(&self) -> usize {
        1
    }
    /// Compress `data` at absolute bound `eb` into `out` (contents
    /// replaced, capacity reused).
    fn encode(&self, data: &[f32], eb: f64, scratch: &mut CodecScratch, out: &mut Vec<u8>);
    /// Element count a frame declares (validating the frame on the way).
    fn num_elements(&self, stream: &[u8]) -> Result<usize, StoreError>;
    /// Decode blocks `blocks` into `out`; returns payload bytes read.
    fn decode_blocks(
        &self,
        stream: &[u8],
        blocks: Range<usize>,
        scratch: &mut CodecScratch,
        out: &mut [f32],
    ) -> Result<usize, StoreError>;
    /// Decode a whole frame (`out.len()` must equal its element count).
    fn decode_into(
        &self,
        stream: &[u8],
        scratch: &mut CodecScratch,
        out: &mut [f32],
    ) -> Result<usize, StoreError> {
        let n = self.num_elements(stream)?;
        assert_eq!(out.len(), n, "output slice length != frame element count");
        let num_blocks = n.div_ceil(self.block_len());
        self.decode_blocks(stream, 0..num_blocks, scratch, out)
    }
    /// Decode the elements `rows` selects (chunk-local indices into the
    /// frame) and write each row straight to its place in `out`: row
    /// `(src, dst)` of [`RowLayout::iter`] fills `out[dst..dst +
    /// row_len]`, and nothing else in `out` is written. Returns the
    /// payload bytes read. `out` must hold at least
    /// [`RowLayout::dst_len`] elements.
    ///
    /// This is the store's one read path: [`crate::Shard::read_region`]
    /// makes one call per touched chunk. An implementation must decode
    /// each block the rows touch **once** — the store counts
    /// [`RowLayout::blocks`] as the blocks decoded — and read only those
    /// blocks' payload plus per-block metadata.
    ///
    /// The provided method meets that contract through
    /// [`ErrorBoundedCodec::decode_blocks`]: it groups the rows into the
    /// runs of [`RowLayout::block_runs`], decodes each run with one call
    /// into a tile in `scratch`, and copies the run's rows out. Codecs
    /// that can place rows directly override it (`CZP1`, `CZH1`).
    fn decode_rows(
        &self,
        stream: &[u8],
        rows: &RowLayout,
        scratch: &mut StoreScratch,
        out: &mut [f32],
    ) -> Result<usize, StoreError> {
        let (l, n) = (self.block_len(), self.num_elements(stream)?);
        tile_walk(l, n, rows, scratch, out, |blocks, scratch, tile| {
            self.decode_blocks(stream, blocks, scratch, tile)
        })
    }
    /// Compress the elements `rows` selects from `data` — row after row,
    /// in [`RowLayout::iter`] order; the rows' output positions are not
    /// used — at absolute bound `eb`, and **append** the frame to `out`,
    /// after whatever it already holds. The frame's bytes are exactly
    /// what [`ErrorBoundedCodec::encode`] writes for those elements
    /// gathered into one array.
    ///
    /// This is the store's one write path: [`crate::write_shard`] makes
    /// one call per chunk, over the chunk's rows in the caller's array,
    /// appending to the shard buffer. The provided method gathers the
    /// rows into a tile in `scratch`, encodes the tile into a frame
    /// buffer there and appends the frame. Codecs that can encode rows in
    /// place override it (`CZP1`, `CZH1`).
    fn encode_rows(
        &self,
        data: &[f32],
        rows: &RowLayout,
        eb: f64,
        scratch: &mut StoreScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        gather_encode(data, rows, scratch, out, |tile, scratch, frame| {
            self.encode(tile, eb, scratch, frame);
            Ok(())
        })
    }
    /// Compress f64 `data` at absolute bound `eb` into `out`. Errors with
    /// [`StoreError::UnsupportedDtype`] unless the codec opted in via
    /// [`ErrorBoundedCodec::supports_dtype`].
    fn encode_f64(
        &self,
        data: &[f64],
        eb: f64,
        scratch: &mut CodecScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        let _ = (data, eb, scratch, out);
        Err(StoreError::UnsupportedDtype {
            codec: self.name(),
            dtype: DType::F64,
        })
    }
    /// Encode rows of an f64 array; same contract as
    /// [`ErrorBoundedCodec::encode_rows`], and the provided method goes
    /// through [`ErrorBoundedCodec::encode_f64`] the same way.
    fn encode_rows_f64(
        &self,
        data: &[f64],
        rows: &RowLayout,
        eb: f64,
        scratch: &mut StoreScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        gather_encode(data, rows, scratch, out, |tile, scratch, frame| {
            self.encode_f64(tile, eb, scratch, frame)
        })
    }
    /// Decode blocks of an f64 frame; same contract as
    /// [`ErrorBoundedCodec::decode_blocks`], same opt-in as
    /// [`ErrorBoundedCodec::encode_f64`].
    fn decode_blocks_f64(
        &self,
        stream: &[u8],
        blocks: Range<usize>,
        scratch: &mut CodecScratch,
        out: &mut [f64],
    ) -> Result<usize, StoreError> {
        let _ = (stream, blocks, scratch, out);
        Err(StoreError::UnsupportedDtype {
            codec: self.name(),
            dtype: DType::F64,
        })
    }
    /// Decode rows of an f64 frame; same contract as
    /// [`ErrorBoundedCodec::decode_rows`], and the provided method goes
    /// through [`ErrorBoundedCodec::decode_blocks_f64`] the same way.
    fn decode_rows_f64(
        &self,
        stream: &[u8],
        rows: &RowLayout,
        scratch: &mut StoreScratch,
        out: &mut [f64],
    ) -> Result<usize, StoreError> {
        let (l, n) = (self.block_len(), self.num_elements(stream)?);
        tile_walk(l, n, rows, scratch, out, |blocks, scratch, tile| {
            self.decode_blocks_f64(stream, blocks, scratch, tile)
        })
    }
}

/// cuSZp frames (`CUSZP1`): quantize + Lorenzo, fixed-length blocks of
/// 32, Eq-2 offsets recomputed from fraction ⓐ.
#[derive(Debug, Clone, Copy, Default)]
pub struct CuszpCodec;

impl CuszpCodec {
    fn config() -> CuszpConfig {
        CuszpConfig::default()
    }

    /// Parse a frame and require its element type to match the decode
    /// request — a frame of the other dtype is a typed error, never an
    /// assert (the decoder's dtype asserts are for caller bugs only).
    fn parse_as(stream: &[u8], requested: DType) -> Result<CompressedRef<'_>, StoreError> {
        let r = CompressedRef::parse(stream)?;
        if r.dtype != requested {
            return Err(StoreError::DtypeMismatch {
                stored: r.dtype,
                requested,
            });
        }
        Ok(r)
    }
}

impl ErrorBoundedCodec for CuszpCodec {
    fn format_id(&self) -> FormatId {
        *b"CZP1"
    }
    fn name(&self) -> &'static str {
        "cuszp"
    }
    fn supports_dtype(&self, _dtype: DType) -> bool {
        true
    }
    fn block_len(&self) -> usize {
        Self::config().block_len
    }
    fn encode(&self, data: &[f32], eb: f64, scratch: &mut CodecScratch, out: &mut Vec<u8>) {
        fast::compress_into(&mut scratch.cuszp, data, eb, Self::config(), out);
    }
    fn num_elements(&self, stream: &[u8]) -> Result<usize, StoreError> {
        Ok(CompressedRef::parse(stream)?.num_elements as usize)
    }
    fn decode_blocks(
        &self,
        stream: &[u8],
        blocks: Range<usize>,
        scratch: &mut CodecScratch,
        out: &mut [f32],
    ) -> Result<usize, StoreError> {
        let r = Self::parse_as(stream, DType::F32)?;
        Ok(fast::decompress_blocks_into(
            r,
            blocks,
            &mut scratch.cuszp,
            out,
        ))
    }
    fn encode_f64(
        &self,
        data: &[f64],
        eb: f64,
        scratch: &mut CodecScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        fast::compress_into(&mut scratch.cuszp, data, eb, Self::config(), out);
        Ok(())
    }
    fn decode_blocks_f64(
        &self,
        stream: &[u8],
        blocks: Range<usize>,
        scratch: &mut CodecScratch,
        out: &mut [f64],
    ) -> Result<usize, StoreError> {
        let r = Self::parse_as(stream, DType::F64)?;
        Ok(fast::decompress_blocks_into(
            r,
            blocks,
            &mut scratch.cuszp,
            out,
        ))
    }
    fn encode_rows(
        &self,
        data: &[f32],
        rows: &RowLayout,
        eb: f64,
        scratch: &mut StoreScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        fast::compress_rows_into(
            &mut scratch.codec.cuszp,
            data,
            rows,
            eb,
            Self::config(),
            out,
        );
        Ok(())
    }
    fn encode_rows_f64(
        &self,
        data: &[f64],
        rows: &RowLayout,
        eb: f64,
        scratch: &mut StoreScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        fast::compress_rows_into(
            &mut scratch.codec.cuszp,
            data,
            rows,
            eb,
            Self::config(),
            out,
        );
        Ok(())
    }
    fn decode_rows(
        &self,
        stream: &[u8],
        rows: &RowLayout,
        scratch: &mut StoreScratch,
        out: &mut [f32],
    ) -> Result<usize, StoreError> {
        let r = Self::parse_as(stream, DType::F32)?;
        Ok(fast::decompress_rows_into(
            r,
            rows,
            &mut scratch.codec.cuszp,
            out,
        ))
    }
    fn decode_rows_f64(
        &self,
        stream: &[u8],
        rows: &RowLayout,
        scratch: &mut StoreScratch,
        out: &mut [f64],
    ) -> Result<usize, StoreError> {
        let r = Self::parse_as(stream, DType::F64)?;
        Ok(fast::decompress_rows_into(
            r,
            rows,
            &mut scratch.codec.cuszp,
            out,
        ))
    }
}

/// Hybrid cuSZp frames (`CZH1`): the `CUSZP1` lossy stage recoded by the
/// per-chunk adaptive entropy second stage into a `CUSZPHY1` frame —
/// unless the hybrid frame would not be smaller, in which case the plain
/// `CUSZP1` frame is stored as-is (the decode side sniffs the magic).
/// Lossless over the lossy stage, so the error bound is untouched; block
/// random access goes through the stored per-chunk offset table.
#[derive(Debug, Clone, Copy, Default)]
pub struct CuszpHybridCodec;

impl CuszpHybridCodec {
    fn config() -> CuszpConfig {
        CuszpConfig::default()
    }

    fn encode_any<T: FloatData>(
        data: &[T],
        eb: f64,
        scratch: &mut CodecScratch,
        out: &mut Vec<u8>,
    ) {
        out.clear();
        let rows = RowLayout::contiguous(0, data.len());
        Self::encode_rows_any(data, &rows, eb, scratch, out);
    }

    /// The lossy stage over `rows` into the staging buffer, then the
    /// hybrid frame appended to `out`.
    fn encode_rows_any<T: FloatData>(
        data: &[T],
        rows: &RowLayout,
        eb: f64,
        scratch: &mut CodecScratch,
        out: &mut Vec<u8>,
    ) {
        let CodecScratch {
            cuszp,
            stage,
            hybrid: hs,
        } = scratch;
        stage.clear();
        let r = fast::compress_rows_into(cuszp, data, rows, eb, Self::config(), stage);
        let mark = out.len();
        hybrid::encode_append(&r, hybrid::auto_chunk_blocks(&r), hs, out);
        if out.len() - mark >= stage.len() {
            // Whole-frame fallback: the second stage did not pay for its
            // table, so store the plain frame (never larger than CUSZP1).
            out.truncate(mark);
            out.extend_from_slice(stage);
        }
    }

    /// Parse a frame as `T`: a `CUSZPHY1` frame, or the plain `CUSZP1`
    /// frame stored when the second stage did not pay.
    fn parse_any<T: FloatData>(stream: &[u8]) -> Result<Frame<'_>, StoreError> {
        if stream.starts_with(&HYBRID_MAGIC) {
            let r = HybridRef::parse(stream)?;
            if r.dtype != T::DTYPE {
                return Err(StoreError::DtypeMismatch {
                    stored: r.dtype,
                    requested: T::DTYPE,
                });
            }
            Ok(Frame::Hybrid(r))
        } else {
            Ok(Frame::Plain(CuszpCodec::parse_as(stream, T::DTYPE)?))
        }
    }

    fn decode_any<T: FloatData>(
        stream: &[u8],
        blocks: Range<usize>,
        scratch: &mut CodecScratch,
        out: &mut [T],
    ) -> Result<usize, StoreError> {
        let CodecScratch {
            cuszp, hybrid: hs, ..
        } = scratch;
        match Self::parse_any::<T>(stream)? {
            Frame::Hybrid(r) => Ok(hybrid::decode_blocks_into(&r, blocks, hs, cuszp, out)?),
            Frame::Plain(r) => Ok(fast::decompress_blocks_into(r, blocks, cuszp, out)),
        }
    }

    fn decode_rows_any<T: FloatData>(
        stream: &[u8],
        rows: &RowLayout,
        scratch: &mut CodecScratch,
        out: &mut [T],
    ) -> Result<usize, StoreError> {
        let CodecScratch {
            cuszp, hybrid: hs, ..
        } = scratch;
        match Self::parse_any::<T>(stream)? {
            Frame::Hybrid(r) => Ok(hybrid::decode_rows_into(&r, rows, hs, cuszp, out)?),
            Frame::Plain(r) => Ok(fast::decompress_rows_into(r, rows, cuszp, out)),
        }
    }
}

/// A parsed `CZH1` frame.
enum Frame<'a> {
    Hybrid(HybridRef<'a>),
    Plain(CompressedRef<'a>),
}

impl ErrorBoundedCodec for CuszpHybridCodec {
    fn format_id(&self) -> FormatId {
        *b"CZH1"
    }
    fn name(&self) -> &'static str {
        "cuszp-hybrid"
    }
    fn supports_dtype(&self, _dtype: DType) -> bool {
        true
    }
    fn block_len(&self) -> usize {
        Self::config().block_len
    }
    fn access_granularity_blocks(&self) -> usize {
        // Chunk size is auto-tuned per stream ([`hybrid::auto_chunk_blocks`]);
        // report the ceiling so callers budgeting a 1-block read cover the
        // coarsest framing the encoder may pick.
        hybrid::AUTO_CHUNK_MAX_BLOCKS
    }
    fn encode(&self, data: &[f32], eb: f64, scratch: &mut CodecScratch, out: &mut Vec<u8>) {
        Self::encode_any(data, eb, scratch, out);
    }
    fn num_elements(&self, stream: &[u8]) -> Result<usize, StoreError> {
        if stream.starts_with(&HYBRID_MAGIC) {
            Ok(HybridRef::parse(stream)?.num_elements as usize)
        } else {
            Ok(CompressedRef::parse(stream)?.num_elements as usize)
        }
    }
    fn decode_blocks(
        &self,
        stream: &[u8],
        blocks: Range<usize>,
        scratch: &mut CodecScratch,
        out: &mut [f32],
    ) -> Result<usize, StoreError> {
        Self::decode_any(stream, blocks, scratch, out)
    }
    fn encode_f64(
        &self,
        data: &[f64],
        eb: f64,
        scratch: &mut CodecScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        Self::encode_any(data, eb, scratch, out);
        Ok(())
    }
    fn decode_blocks_f64(
        &self,
        stream: &[u8],
        blocks: Range<usize>,
        scratch: &mut CodecScratch,
        out: &mut [f64],
    ) -> Result<usize, StoreError> {
        Self::decode_any(stream, blocks, scratch, out)
    }
    fn encode_rows(
        &self,
        data: &[f32],
        rows: &RowLayout,
        eb: f64,
        scratch: &mut StoreScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        Self::encode_rows_any(data, rows, eb, &mut scratch.codec, out);
        Ok(())
    }
    fn encode_rows_f64(
        &self,
        data: &[f64],
        rows: &RowLayout,
        eb: f64,
        scratch: &mut StoreScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        Self::encode_rows_any(data, rows, eb, &mut scratch.codec, out);
        Ok(())
    }
    fn decode_rows(
        &self,
        stream: &[u8],
        rows: &RowLayout,
        scratch: &mut StoreScratch,
        out: &mut [f32],
    ) -> Result<usize, StoreError> {
        Self::decode_rows_any(stream, rows, &mut scratch.codec, out)
    }
    fn decode_rows_f64(
        &self,
        stream: &[u8],
        rows: &RowLayout,
        scratch: &mut StoreScratch,
        out: &mut [f64],
    ) -> Result<usize, StoreError> {
        Self::decode_rows_any(stream, rows, &mut scratch.codec, out)
    }
}
