//! The [`ErrorBoundedCodec`] trait and its one implementation,
//! [`CuszpCodec`], registered under two ids: cuSZp (`CZP1`) and the
//! hybrid two-stage cuSZp (`CZH1`).
//!
//! A codec is a self-describing byte-stream format with block-granular
//! partial decode: `decode_blocks(range)` reconstructs exactly the
//! elements covered by a block range, reading only those blocks' payload
//! bytes, and `decode_rows(layout)` writes the rows of a box straight
//! into the caller's output, decoding each block they touch once. On the
//! write side, `encode_rows(layout)` appends the frame of a box's rows
//! to the shard buffer. [`CuszpCodec`] is copy-free (it parses borrowed
//! views over the frame bytes — never materializes the payload) and
//! allocation-free after warm-up (scratch lives in [`CodecScratch`] and
//! the store's [`StoreScratch`]).
//!
//! The trait is f32-first (every codec must handle f32 frames); f64 is
//! opt-in per codec through [`ErrorBoundedCodec::supports_dtype`] and the
//! `*_f64` methods, whose defaults return
//! [`StoreError::UnsupportedDtype`]. Both built-in ids support both
//! element types.

use crate::error::StoreError;
use crate::store::{gather_encode, tile_walk, StoreScratch};
use cuszp_core::hybrid::{self, HybridScratch};
use cuszp_core::{
    fast, CompressedRef, CuszpConfig, DType, FloatData, FormatError, FrameRef, RowLayout, Scratch,
};
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
    /// Element count a frame's header declares, for a reader that checks
    /// it against an index and then decodes: an implementation may check
    /// only what reading the count needs, since every decode call
    /// validates the whole frame. The provided method is
    /// [`ErrorBoundedCodec::num_elements`].
    fn declared_elements(&self, stream: &[u8]) -> Result<usize, StoreError> {
        self.num_elements(stream)
    }
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
    /// that can place rows directly override it ([`CuszpCodec`]).
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
    /// place override it ([`CuszpCodec`]).
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

/// The cuSZp codec, registered twice: [`CuszpCodec::PLAIN`] (`CZP1`)
/// stores `CUSZP1` frames — quantize + Lorenzo, fixed-length blocks of
/// 32, Eq-2 offsets recomputed from fraction ⓐ — and
/// [`CuszpCodec::HYBRID`] (`CZH1`) recodes that stream with the per-chunk
/// adaptive entropy second stage into a `CUSZPHY1` frame, unless the
/// hybrid frame would not be smaller, in which case it stores the plain
/// `CUSZP1` frame as-is. The second stage is lossless over the lossy
/// stage, so the error bound is untouched; its block random access goes
/// through the stored per-chunk offset table.
///
/// Every decode is one call into [`FrameRef`]. `CZP1` reads only plain
/// frames (a `CUSZPHY1` frame is a bad-magic `CUSZP1` frame), while
/// `CZH1` reads whichever frame [`FrameRef::parse`] finds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CuszpCodec {
    id: FormatId,
    name: &'static str,
    hybrid: bool,
}

impl CuszpCodec {
    /// `CZP1`: plain `CUSZP1` frames.
    pub const PLAIN: CuszpCodec = CuszpCodec {
        id: *b"CZP1",
        name: "cuszp",
        hybrid: false,
    };
    /// `CZH1`: `CUSZPHY1` frames, or the plain frame when it is smaller.
    pub const HYBRID: CuszpCodec = CuszpCodec {
        id: *b"CZH1",
        name: "cuszp-hybrid",
        hybrid: true,
    };

    /// Compress the elements `rows` selects and append this codec's frame
    /// to `out` — straight for `CZP1`, and through the staging buffer and
    /// the second stage for `CZH1`.
    fn write_rows<T: FloatData>(
        &self,
        data: &[T],
        rows: &RowLayout,
        eb: f64,
        scratch: &mut CodecScratch,
        out: &mut Vec<u8>,
    ) {
        let cfg = CuszpConfig::default();
        if !self.hybrid {
            fast::compress_rows_into(&mut scratch.cuszp, data, rows, eb, cfg, out);
            return;
        }
        let CodecScratch {
            cuszp,
            stage,
            hybrid: hs,
        } = scratch;
        stage.clear();
        let r = fast::compress_rows_into(cuszp, data, rows, eb, cfg, stage);
        let mark = out.len();
        hybrid::encode_append(&r, hybrid::auto_chunk_blocks(&r), hs, out);
        if out.len() - mark >= stage.len() {
            // Whole-frame fallback: the second stage did not pay for its
            // table, so store the plain frame (never larger than CUSZP1).
            out.truncate(mark);
            out.extend_from_slice(stage);
        }
    }

    /// Parse a frame this codec reads: either format for `CZH1`, a plain
    /// `CUSZP1` stream for `CZP1`.
    fn parse<'a>(&self, stream: &'a [u8]) -> Result<FrameRef<'a>, FormatError> {
        if self.hybrid {
            FrameRef::parse(stream)
        } else {
            CompressedRef::parse(stream).map(FrameRef::Plain)
        }
    }

    /// [`CuszpCodec::parse`], requiring the frame's element type to match
    /// the decode request — a frame of the other dtype is a typed error,
    /// never an assert (the decoders' dtype asserts are for caller bugs
    /// only).
    fn frame<'a, T: FloatData>(&self, stream: &'a [u8]) -> Result<FrameRef<'a>, StoreError> {
        let frame = self.parse(stream)?;
        if frame.dtype() != T::DTYPE {
            return Err(StoreError::DtypeMismatch {
                stored: frame.dtype(),
                requested: T::DTYPE,
            });
        }
        Ok(frame)
    }
}

impl ErrorBoundedCodec for CuszpCodec {
    fn format_id(&self) -> FormatId {
        self.id
    }
    fn name(&self) -> &'static str {
        self.name
    }
    fn supports_dtype(&self, _dtype: DType) -> bool {
        true
    }
    fn block_len(&self) -> usize {
        CuszpConfig::default().block_len
    }
    fn access_granularity_blocks(&self) -> usize {
        // A hybrid chunk size is auto-tuned per stream
        // ([`hybrid::auto_chunk_blocks`]); report the ceiling so callers
        // budgeting a 1-block read cover the coarsest framing the encoder
        // may pick.
        if self.hybrid {
            hybrid::AUTO_CHUNK_MAX_BLOCKS
        } else {
            1
        }
    }
    fn encode(&self, data: &[f32], eb: f64, scratch: &mut CodecScratch, out: &mut Vec<u8>) {
        out.clear();
        let all = RowLayout::contiguous(0, data.len());
        self.write_rows(data, &all, eb, scratch, out);
    }
    fn num_elements(&self, stream: &[u8]) -> Result<usize, StoreError> {
        Ok(self.parse(stream)?.num_elements() as usize)
    }
    fn declared_elements(&self, stream: &[u8]) -> Result<usize, StoreError> {
        // The header's count only, so a store read parses its frame once,
        // in the decode.
        let n = if self.hybrid {
            FrameRef::header_num_elements(stream)
        } else {
            CompressedRef::header_num_elements(stream)
        }?;
        Ok(n as usize)
    }
    fn decode_blocks(
        &self,
        stream: &[u8],
        blocks: Range<usize>,
        scratch: &mut CodecScratch,
        out: &mut [f32],
    ) -> Result<usize, StoreError> {
        let CodecScratch { cuszp, hybrid, .. } = scratch;
        Ok(self
            .frame::<f32>(stream)?
            .decode_blocks(blocks, cuszp, hybrid, out)?)
    }
    fn encode_f64(
        &self,
        data: &[f64],
        eb: f64,
        scratch: &mut CodecScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        out.clear();
        let all = RowLayout::contiguous(0, data.len());
        self.write_rows(data, &all, eb, scratch, out);
        Ok(())
    }
    fn decode_blocks_f64(
        &self,
        stream: &[u8],
        blocks: Range<usize>,
        scratch: &mut CodecScratch,
        out: &mut [f64],
    ) -> Result<usize, StoreError> {
        let CodecScratch { cuszp, hybrid, .. } = scratch;
        Ok(self
            .frame::<f64>(stream)?
            .decode_blocks(blocks, cuszp, hybrid, out)?)
    }
    fn encode_rows(
        &self,
        data: &[f32],
        rows: &RowLayout,
        eb: f64,
        scratch: &mut StoreScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        self.write_rows(data, rows, eb, &mut scratch.codec, out);
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
        self.write_rows(data, rows, eb, &mut scratch.codec, out);
        Ok(())
    }
    fn decode_rows(
        &self,
        stream: &[u8],
        rows: &RowLayout,
        scratch: &mut StoreScratch,
        out: &mut [f32],
    ) -> Result<usize, StoreError> {
        let CodecScratch { cuszp, hybrid, .. } = &mut scratch.codec;
        Ok(self
            .frame::<f32>(stream)?
            .decode_rows(rows, cuszp, hybrid, out)?)
    }
    fn decode_rows_f64(
        &self,
        stream: &[u8],
        rows: &RowLayout,
        scratch: &mut StoreScratch,
        out: &mut [f64],
    ) -> Result<usize, StoreError> {
        let CodecScratch { cuszp, hybrid, .. } = &mut scratch.codec;
        Ok(self
            .frame::<f64>(stream)?
            .decode_rows(rows, cuszp, hybrid, out)?)
    }
}
