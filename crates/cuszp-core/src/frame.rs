//! One reader for both serialized cuSZp frames.
//!
//! A frame is either a plain `CUSZP1` stream ([`CompressedRef`]) or a
//! `CUSZPHY1` hybrid frame ([`HybridRef`]), and a producer that applies
//! the second stage stores whichever is smaller
//! ([`crate::Cuszp::compress_serialized`], the store's `CZH1` codec).
//! [`FrameRef::parse`] is the one place that tells the two apart; every
//! decode then goes through the format's own row decoder
//! ([`fast::decompress_rows_into`] or [`hybrid::decode_rows_into`]),
//! borrowing the frame bytes and allocating nothing once the scratch
//! arenas are warm.

use crate::config::SimdLevel;
use crate::dtype::{DType, FloatData};
use crate::fast::{self, Scratch};
use crate::format::{CompressedRef, FormatError};
use crate::hybrid::{self, HybridRef, HybridScratch, HYBRID_MAGIC};
use crate::rows::RowLayout;
use std::ops::Range;

/// A parsed cuSZp frame of either format, borrowing the serialized bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrameRef<'a> {
    /// A plain `CUSZP1` stream.
    Plain(CompressedRef<'a>),
    /// A `CUSZPHY1` frame: the `CUSZP1` stream recoded per chunk.
    Hybrid(HybridRef<'a>),
}

impl<'a> FrameRef<'a> {
    /// Parse `bytes` as a `CUSZPHY1` frame if they carry its magic, else
    /// as a plain `CUSZP1` stream, with that format's full validation.
    pub fn parse(bytes: &'a [u8]) -> Result<FrameRef<'a>, FormatError> {
        if bytes.starts_with(&HYBRID_MAGIC) {
            HybridRef::parse(bytes).map(FrameRef::Hybrid)
        } else {
            CompressedRef::parse(bytes).map(FrameRef::Plain)
        }
    }

    /// The element count the header of a frame of either format
    /// declares, after only the header checks [`FrameRef::parse`] makes
    /// first (length, magic), with no table walk: see
    /// [`CompressedRef::header_num_elements`].
    pub fn header_num_elements(bytes: &[u8]) -> Result<u64, FormatError> {
        if !bytes.starts_with(&HYBRID_MAGIC) {
            return CompressedRef::header_num_elements(bytes);
        }
        if bytes.len() < hybrid::HYBRID_HEADER_BYTES {
            return Err(FormatError::Truncated);
        }
        Ok(u64::from_le_bytes(
            bytes[10..18].try_into().expect("len checked"),
        ))
    }

    /// Element count of the original array.
    pub fn num_elements(&self) -> u64 {
        match self {
            FrameRef::Plain(c) => c.num_elements,
            FrameRef::Hybrid(r) => r.num_elements,
        }
    }

    /// Element type of the original array.
    pub fn dtype(&self) -> DType {
        match self {
            FrameRef::Plain(c) => c.dtype,
            FrameRef::Hybrid(r) => r.dtype,
        }
    }

    /// Decode the whole frame into `out` (`out.len()` must equal
    /// [`FrameRef::num_elements`]). Either format's first stage decodes
    /// at tier `simd` ([`fast::decompress_into_at`]).
    ///
    /// # Panics
    /// Panics on API misuse only: a dtype mismatch between `T` and the
    /// frame, or a wrong `out` length.
    pub fn decode_into<T: FloatData>(
        &self,
        simd: Option<SimdLevel>,
        scratch: &mut Scratch,
        hs: &mut HybridScratch,
        out: &mut [T],
    ) -> Result<(), FormatError> {
        match self {
            FrameRef::Plain(c) => {
                fast::decompress_into_at(*c, scratch, simd, out);
                Ok(())
            }
            FrameRef::Hybrid(r) => hybrid::decode_into_at(r, simd, hs, scratch, out),
        }
    }

    /// Decode blocks `blocks` into `out`; returns the payload bytes read.
    /// See [`fast::decompress_blocks_into`] and
    /// [`hybrid::decode_blocks_into`] for the contract.
    pub fn decode_blocks<T: FloatData>(
        &self,
        blocks: Range<usize>,
        scratch: &mut Scratch,
        hs: &mut HybridScratch,
        out: &mut [T],
    ) -> Result<usize, FormatError> {
        match self {
            FrameRef::Plain(c) => Ok(fast::decompress_blocks_into(*c, blocks, scratch, out)),
            FrameRef::Hybrid(r) => hybrid::decode_blocks_into(r, blocks, hs, scratch, out),
        }
    }

    /// Decode the elements `rows` selects, each row straight to its place
    /// in `out`; returns the payload bytes read. See
    /// [`fast::decompress_rows_into`] and [`hybrid::decode_rows_into`]
    /// for the contract.
    pub fn decode_rows<T: FloatData>(
        &self,
        rows: &RowLayout,
        scratch: &mut Scratch,
        hs: &mut HybridScratch,
        out: &mut [T],
    ) -> Result<usize, FormatError> {
        match self {
            FrameRef::Plain(c) => Ok(fast::decompress_rows_into(*c, rows, scratch, out)),
            FrameRef::Hybrid(r) => hybrid::decode_rows_into(r, rows, hs, scratch, out),
        }
    }
}
