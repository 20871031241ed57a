//! # cuszp-core — the cuSZp error-bounded lossy compressor in Rust
//!
//! A faithful reimplementation of the SC '23 cuSZp pipeline:
//!
//! 1. **Quantization + Prediction** ([`quantize`]) — pre-quantization
//!    `r = round(d / 2eb)` (the only lossy step) followed by a 1-D 1-layer
//!    Lorenzo prediction inside each length-`L` block.
//! 2. **Fixed-length Encoding** ([`encode`]) — sign bitmap + per-block bit
//!    width `F` from the largest residual; all-zero blocks cost one byte.
//! 3. **Global Synchronization** — an exclusive prefix sum over per-block
//!    compressed sizes (paper Eq 2) that places every block's payload.
//! 4. **Block Bit-shuffle** ([`bitshuffle`]) — bit-plane transposition so
//!    every output byte is built from uniform single-bit extracts.
//!
//! This crate is the host codec only. The [`Cuszp`] host API routes
//! through [`fast`], an optimized word-parallel codec laid out as the GPU
//! kernel's two-phase size-scan-then-write pass, byte-identical to the
//! sequential reference codec ([`host_ref`]) that anchors the property
//! tests. The paper's single fused device kernel per direction, with the
//! prefix sum as an in-kernel decoupled lookback, lives in
//! `baselines::cuszp` on the `gpu-sim` simulator and writes the same
//! bytes. The codec itself is sequential; parallelism comes from
//! independent work — chunks in `cuszp-pipeline`, requests in
//! `cuszp-service`.
//!
//! ## Quick start
//!
//! ```
//! use cuszp_core::{Cuszp, ErrorBound};
//!
//! let data: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.01).sin()).collect();
//! let codec = Cuszp::new();
//! let compressed = codec.compress(&data, ErrorBound::Rel(1e-3));
//! let restored = codec.decompress(&compressed);
//!
//! let eb = compressed.eb; // resolved absolute bound
//! for (d, r) in data.iter().zip(&restored) {
//!     assert!((d - r).abs() as f64 <= eb * 1.000001);
//! }
//! assert!(compressed.stream_bytes() < 10_000 * 4 / 3); // ~3.5x on this signal
//! ```
//!
//! The serialized forms of both the single-shot stream and the
//! `CUSZPCH1` chunked container are specified byte-for-byte in
//! `docs/FORMAT.md` at the repository root.

#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod bitshuffle;
pub mod chunked;
pub mod config;
pub mod dtype;
pub mod encode;
pub mod fast;
pub mod format;
pub mod frame;
pub mod host_ref;
pub mod hybrid;
pub mod quantize;
pub mod rows;
pub mod simd;
pub mod tune;
pub mod verify;

pub use chunked::{chunk_ref_iter, ChunkRefIter, ChunkedCompressed};
pub use config::{CuszpConfig, ErrorBound, SimdLevel, DEFAULT_BLOCK_LEN};
pub use dtype::{DType, FloatData};
pub use fast::Scratch;
pub use format::{Compressed, CompressedRef, FormatError};
pub use frame::FrameRef;
pub use hybrid::{HybridRef, HybridScratch};
pub use rows::RowLayout;

/// Value range (max − min) of a dataset — the REL bound denominator.
///
/// Non-finite values (NaN, ±∞) are **skipped**: a single stray infinity
/// would otherwise make the range infinite and a REL bound unresolvable,
/// surfacing as a confusing "bound must be positive" panic far from the
/// cause. A dataset with no finite values has range `0.0` (like an empty
/// one), which [`ErrorBound::absolute`] rejects with a clear message.
///
/// The scan runs in fixed-width lanes of the element's own type; the
/// result is the value a plain `f64` min/max loop gives.
pub fn value_range<T: FloatData>(data: &[T]) -> f64 {
    let (lo, hi) = T::finite_min_max(data);
    if hi >= lo {
        hi - lo
    } else {
        0.0 // empty, or no finite values
    }
}

/// The cuSZp codec with a fixed configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cuszp {
    /// Block length and ablation switches.
    pub config: CuszpConfig,
}

impl Cuszp {
    /// Codec with the paper's default configuration (`L = 32`, Lorenzo on).
    pub fn new() -> Self {
        Self::default()
    }

    /// Codec with a custom configuration.
    pub fn with_config(config: CuszpConfig) -> Self {
        config.validate();
        Cuszp { config }
    }

    /// Resolve an [`ErrorBound`] to its absolute value for `data`.
    pub fn resolve_bound<T: FloatData>(&self, data: &[T], bound: ErrorBound) -> f64 {
        bound.absolute(value_range(data))
    }

    /// Compress on the host via the optimized word-parallel codec
    /// ([`fast`]), byte-identical to the sequential reference
    /// ([`host_ref`]). Accepts `f32` or `f64` data; the stream records
    /// which.
    pub fn compress<T: FloatData>(&self, data: &[T], bound: ErrorBound) -> Compressed {
        let eb = self.resolve_bound(data, bound);
        fast::compress(data, eb, self.config)
    }

    /// Compress into a caller-owned output buffer with a caller-owned
    /// [`Scratch`] arena — the zero-allocation steady-state entry point.
    ///
    /// `out` receives the complete serialized stream (the bytes are
    /// byte-identical to [`Cuszp::compress`] + [`Compressed::to_bytes`])
    /// and the returned [`CompressedRef`] borrows it. After the first
    /// call at a given shape, repeat calls perform **zero heap
    /// allocations** — see the [`fast`] module docs.
    pub fn compress_into<'a, T: FloatData>(
        &self,
        scratch: &mut Scratch,
        data: &[T],
        bound: ErrorBound,
        out: &'a mut Vec<u8>,
    ) -> CompressedRef<'a> {
        let eb = self.resolve_bound(data, bound);
        fast::compress_into(scratch, data, eb, self.config, out)
    }

    /// Decompress into a caller-owned slice with a caller-owned
    /// [`Scratch`] arena: zero heap allocations once the arena is warm.
    /// `out.len()` must equal the stream's element count. Honors this
    /// codec's [`CuszpConfig::simd`] tier override, like every `Cuszp`
    /// method.
    pub fn decompress_into<T: FloatData>(
        &self,
        c: &Compressed,
        scratch: &mut Scratch,
        out: &mut [T],
    ) {
        fast::decompress_into_at(c.as_ref(), scratch, self.config.simd, out)
    }

    /// Decompress on the host to the stream's element type.
    pub fn decompress<T: FloatData>(&self, c: &Compressed) -> Vec<T> {
        let mut out = vec![T::default(); c.num_elements as usize];
        fast::decompress_into_at(c.as_ref(), &mut Scratch::new(), self.config.simd, &mut out);
        out
    }

    /// Compress straight to serialized bytes, honoring
    /// [`CuszpConfig::hybrid`]: with the flag off this is
    /// [`Cuszp::compress`] + [`Compressed::to_bytes`] (a `CUSZP1`
    /// stream); with it on, the lossless second stage ([`hybrid`]) is
    /// applied and the `CUSZPHY1` frame is returned **when it is
    /// smaller** — otherwise the plain stream is kept, so the hybrid
    /// path never loses ratio to its own framing overhead. Decoders
    /// distinguish the two by magic ([`Cuszp::decompress_serialized`]).
    pub fn compress_serialized<T: FloatData>(&self, data: &[T], bound: ErrorBound) -> Vec<u8> {
        let eb = self.resolve_bound(data, bound);
        let c = fast::compress(data, eb, self.config);
        if self.config.hybrid {
            // Compare against the plain frame's *length* — materializing
            // the plain serialization just to lose the comparison would
            // double peak allocation for nothing.
            let plain_len = c.as_ref().total_bytes();
            let mut hs = HybridScratch::new();
            let mut hy = Vec::new();
            let r = c.as_ref();
            hybrid::encode(&r, hybrid::auto_chunk_blocks(&r), &mut hs, &mut hy);
            if (hy.len() as u64) < plain_len {
                return hy;
            }
        }
        c.to_bytes()
    }

    /// Decompress serialized bytes produced by
    /// [`Cuszp::compress_serialized`]: [`FrameRef::parse`] tells a
    /// `CUSZPHY1` frame from a plain `CUSZP1` stream, and plain streams
    /// decode at this codec's [`CuszpConfig::simd`] tier. Works
    /// identically whichever [`CuszpConfig::hybrid`] setting produced the
    /// bytes.
    ///
    /// The output allocation is sized from the stream's claimed element
    /// count, and a hybrid frame's claim can legitimately dwarf its
    /// physical size (Constant chunks store one byte per chunk). For
    /// **untrusted** bytes use
    /// [`Cuszp::decompress_serialized_bounded`], which rejects
    /// oversize claims with a typed error *before* allocating.
    pub fn decompress_serialized<T: FloatData>(&self, bytes: &[u8]) -> Result<Vec<T>, FormatError> {
        self.decompress_serialized_bounded(bytes, usize::MAX)
    }

    /// [`Cuszp::decompress_serialized`] with a caller-supplied ceiling on
    /// the decoded element count: streams claiming more than
    /// `max_elements` are rejected with [`FormatError::LimitExceeded`]
    /// **before any output allocation**, so a tiny malicious frame
    /// cannot force an out-of-memory abort. This is the entry point for
    /// untrusted input; pick `max_elements` from the memory budget of
    /// the call site (e.g. a service's payload cap).
    pub fn decompress_serialized_bounded<T: FloatData>(
        &self,
        bytes: &[u8],
        max_elements: usize,
    ) -> Result<Vec<T>, FormatError> {
        let frame = FrameRef::parse(bytes)?;
        if frame.dtype() != T::DTYPE {
            return Err(FormatError::Corrupt("stream element type mismatch"));
        }
        let n = frame.num_elements();
        if n > max_elements as u64 {
            return Err(FormatError::LimitExceeded {
                claimed: n,
                limit: max_elements as u64,
            });
        }
        let mut out = vec![T::default(); n as usize];
        let (mut scratch, mut hs) = (Scratch::new(), HybridScratch::new());
        frame.decode_into(self.config.simd, &mut scratch, &mut hs, &mut out)?;
        Ok(out)
    }

    /// Compress `data` as a [`ChunkedCompressed`] container of
    /// `chunk_elems`-element chunks (the last chunk may be shorter).
    ///
    /// The bound is resolved **once against the whole array**, so a REL
    /// bound means the same absolute tolerance as the single-shot path —
    /// and each chunk's stream is byte-identical to compressing that
    /// slice alone at the resolved bound. Chunk boundaries that are a
    /// multiple of the block length keep block alignment identical too.
    pub fn compress_chunked<T: FloatData>(
        &self,
        data: &[T],
        bound: ErrorBound,
        chunk_elems: usize,
    ) -> ChunkedCompressed {
        assert!(chunk_elems > 0, "chunk_elems must be positive");
        if data.is_empty() {
            return ChunkedCompressed::new();
        }
        let eb = self.resolve_bound(data, bound);
        ChunkedCompressed {
            chunks: data
                .chunks(chunk_elems)
                .map(|c| fast::compress(c, eb, self.config))
                .collect(),
        }
    }

    /// Decompress a chunked container, concatenating the chunks in order.
    pub fn decompress_chunked<T: FloatData>(&self, c: &ChunkedCompressed) -> Vec<T> {
        let mut scratch = Scratch::new();
        let mut out = vec![T::default(); c.total_elements() as usize];
        let mut at = 0usize;
        for chunk in &c.chunks {
            let n = chunk.num_elements as usize;
            fast::decompress_into(chunk.as_ref(), &mut scratch, &mut out[at..at + n]);
            at += n;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_range_basics() {
        assert_eq!(value_range(&[1.0, -2.0, 5.0]), 7.0);
        assert_eq!(value_range::<f32>(&[]), 0.0);
        assert_eq!(value_range(&[3.0]), 0.0);
    }

    #[test]
    fn value_range_skips_non_finite() {
        assert_eq!(value_range(&[1.0, f64::NAN, 5.0]), 4.0);
        assert_eq!(value_range(&[1.0, f64::INFINITY, 5.0]), 4.0);
        assert_eq!(value_range(&[f64::NEG_INFINITY, 1.0, 5.0]), 4.0);
        assert_eq!(value_range(&[f32::NAN, f32::NAN]), 0.0);
        assert_eq!(value_range(&[f64::INFINITY, f64::NEG_INFINITY]), 0.0);
    }

    #[test]
    fn rel_bound_with_stray_nan_resolves_from_finite_values() {
        let codec = Cuszp::new();
        let data = vec![0.0f32, f32::NAN, 10.0];
        assert!((codec.resolve_bound(&data, ErrorBound::Rel(1e-2)) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "value range")]
    fn rel_bound_on_all_nan_data_panics_clearly() {
        Cuszp::new().resolve_bound(&[f32::NAN, f32::NAN], ErrorBound::Rel(1e-2));
    }

    #[test]
    fn rel_bound_resolution() {
        let codec = Cuszp::new();
        let data = vec![0.0f32, 10.0];
        assert!((codec.resolve_bound(&data, ErrorBound::Rel(1e-2)) - 0.1).abs() < 1e-12);
        assert_eq!(codec.resolve_bound(&data, ErrorBound::Abs(0.5)), 0.5);
    }

    #[test]
    fn host_api_roundtrip() {
        let data: Vec<f32> = (0..2000).map(|i| (i as f32 * 0.003).cos() * 9.0).collect();
        let codec = Cuszp::new();
        let c = codec.compress(&data, ErrorBound::Rel(1e-3));
        let back: Vec<f32> = codec.decompress(&c);
        for (&d, &r) in data.iter().zip(&back) {
            assert!((d as f64 - r as f64).abs() <= c.eb * (1.0 + 1e-6));
        }
    }

    #[test]
    fn with_config_validates() {
        let cfg = CuszpConfig {
            block_len: 64,
            lorenzo: false,
            ..Default::default()
        };
        let codec = Cuszp::with_config(cfg);
        assert_eq!(codec.config.block_len, 64);
    }
}
