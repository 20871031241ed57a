//! The compressed-stream layout (paper Fig 12) and its file serialization.
//!
//! The stream has two fractions: ⓐ one fixed-length byte per block and
//! ⓑ the shuffled payload (sign map + bit planes per non-zero block,
//! concatenated at the synchronized offsets). The block-offset array of
//! Fig 2 is *not* stored — it is recomputed from ⓐ via Eq 2 during
//! decompression, exactly as the paper describes.
//!
//! Streams come in two ownership flavors: [`Compressed`] owns its
//! fractions (the long-lived archival form), while [`CompressedRef`]
//! borrows them — from a serialized buffer ([`CompressedRef::parse`]
//! slices instead of copying), from an owned stream
//! ([`Compressed::as_ref`]), or from an arena-written output buffer
//! ([`crate::fast::compress_into`]). Decoding accepts either via the
//! borrowed form, so nothing in the decompression path forces a copy.

use crate::config::CuszpConfig;
use crate::dtype::DType;
use crate::encode::cmp_bytes_for;
use serde::{Deserialize, Serialize};
use std::io::{self, Write};

/// Magic bytes of the file serialization.
pub const MAGIC: [u8; 6] = *b"CUSZP1";
/// Serialized header size in bytes.
pub const HEADER_BYTES: usize = 6 + 1 + 1 + 8 + 4 + 8;

/// A complete compressed stream plus the metadata needed to decode it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Compressed {
    /// Element count of the original array.
    pub num_elements: u64,
    /// Block length `L` used.
    pub block_len: u32,
    /// The *absolute* error bound the stream was quantized with.
    pub eb: f64,
    /// Whether Lorenzo prediction was applied.
    pub lorenzo: bool,
    /// Element type of the original data.
    pub dtype: DType,
    /// Fraction ⓐ: fixed length `F` per block (`num_blocks` bytes).
    pub fixed_lengths: Vec<u8>,
    /// Fraction ⓑ: concatenated per-block sign maps + bit planes.
    pub payload: Vec<u8>,
}

/// Errors decoding a serialized stream.
///
/// Marked `#[non_exhaustive]`: future format revisions may add failure
/// modes, and downstream matches must keep a wildcard arm. Every variant
/// is *reachable from bytes* — `tests/container_errors.rs` constructs
/// each one from a concrete malformed input, so no dead variants
/// accumulate behind the attribute.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// Wrong magic bytes or version.
    BadMagic,
    /// Stream shorter than its own accounting claims.
    Truncated,
    /// Header fields are internally inconsistent.
    Corrupt(&'static str),
    /// A `CUSZPHY1` chunk-table entry names a coding mode this reader
    /// does not know (the offending byte is carried for diagnostics).
    UnknownHybridMode(u8),
    /// A `CUSZPHY1` chunk failed entropy decoding: the compressed bytes
    /// are inconsistent with the recorded mode or raw length.
    Entropy(&'static str),
    /// The stream's claimed decoded size exceeds a caller-supplied
    /// limit ([`crate::Cuszp::decompress_serialized_bounded`]). Raised
    /// *before* any output allocation, so an untrusted stream cannot
    /// command memory just by naming a huge element count.
    LimitExceeded {
        /// Elements the stream claims to decode to.
        claimed: u64,
        /// The caller's element limit.
        limit: u64,
    },
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::BadMagic => write!(f, "not a cuSZp stream (bad magic)"),
            FormatError::Truncated => write!(f, "stream truncated"),
            FormatError::Corrupt(why) => write!(f, "corrupt stream: {why}"),
            FormatError::UnknownHybridMode(m) => {
                write!(f, "unknown hybrid chunk mode byte {m}")
            }
            FormatError::Entropy(why) => write!(f, "hybrid chunk corrupt: {why}"),
            FormatError::LimitExceeded { claimed, limit } => {
                write!(
                    f,
                    "claimed element count {claimed} exceeds caller limit {limit}"
                )
            }
        }
    }
}

impl std::error::Error for FormatError {}

impl Compressed {
    /// Number of blocks (`⌈N / L⌉`).
    pub fn num_blocks(&self) -> usize {
        self.as_ref().num_blocks()
    }

    /// The paper's compressed size: fixed-length bytes + payload (what
    /// compression ratios are computed from).
    pub fn stream_bytes(&self) -> u64 {
        self.as_ref().stream_bytes()
    }

    /// Stream size plus the file header.
    pub fn total_bytes(&self) -> u64 {
        self.as_ref().total_bytes()
    }

    /// Expected payload size from the fixed lengths (Eq 2 applied per
    /// block) — must equal `payload.len()` for a well-formed stream.
    pub fn expected_payload_bytes(&self) -> u64 {
        self.as_ref().expected_payload_bytes()
    }

    /// Borrow this stream's fractions as a [`CompressedRef`].
    pub fn as_ref(&self) -> CompressedRef<'_> {
        CompressedRef {
            num_elements: self.num_elements,
            block_len: self.block_len,
            eb: self.eb,
            lorenzo: self.lorenzo,
            dtype: self.dtype,
            fixed_lengths: &self.fixed_lengths,
            payload: &self.payload,
        }
    }

    /// Serialize to a standalone byte stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.as_ref().to_bytes()
    }

    /// Stream the serialized form to a writer without building an
    /// intermediate buffer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        self.as_ref().write_to(w)
    }

    /// Deserialize a stream produced by [`Compressed::to_bytes`] into an
    /// owned value (one copy of each fraction). For copy-free decoding
    /// straight out of a buffer, use [`CompressedRef::parse`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Compressed, FormatError> {
        CompressedRef::parse(bytes).map(|r| r.to_owned())
    }

    /// Byte span of blocks `blocks` within the payload; see
    /// [`CompressedRef::payload_span`].
    pub fn payload_span(
        &self,
        blocks: std::ops::Range<usize>,
    ) -> Result<std::ops::Range<usize>, FormatError> {
        self.as_ref().payload_span(blocks)
    }

    /// Cheap structural sanity check; see [`CompressedRef::validate`].
    pub fn validate(&self) -> Result<(), FormatError> {
        self.as_ref().validate()
    }
}

/// A compressed stream whose fractions are *borrowed* — from a serialized
/// buffer, an owned [`Compressed`], or an arena output buffer.
///
/// Everything the decoder needs is here; [`crate::fast::decompress_into`]
/// consumes this form, so streams parsed out of a container or a file
/// never copy their payload just to be decoded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressedRef<'a> {
    /// Element count of the original array.
    pub num_elements: u64,
    /// Block length `L` used.
    pub block_len: u32,
    /// The *absolute* error bound the stream was quantized with.
    pub eb: f64,
    /// Whether Lorenzo prediction was applied.
    pub lorenzo: bool,
    /// Element type of the original data.
    pub dtype: DType,
    /// Fraction ⓐ: fixed length `F` per block (`num_blocks` bytes).
    pub fixed_lengths: &'a [u8],
    /// Fraction ⓑ: concatenated per-block sign maps + bit planes.
    pub payload: &'a [u8],
}

impl<'a> CompressedRef<'a> {
    /// Zero-copy deserialization: the same checks as
    /// [`Compressed::from_bytes`], but the fractions are slices into
    /// `bytes` instead of fresh allocations.
    pub fn parse(bytes: &'a [u8]) -> Result<CompressedRef<'a>, FormatError> {
        if bytes.len() < HEADER_BYTES {
            return Err(FormatError::Truncated);
        }
        if bytes[..6] != MAGIC {
            return Err(FormatError::BadMagic);
        }
        let lorenzo = match bytes[6] {
            0 => false,
            1 => true,
            _ => return Err(FormatError::Corrupt("bad lorenzo flag")),
        };
        let dtype = DType::from_byte(bytes[7]).ok_or(FormatError::Corrupt("bad dtype"))?;
        let num_elements = u64::from_le_bytes(bytes[8..16].try_into().expect("len checked"));
        let block_len = u32::from_le_bytes(bytes[16..20].try_into().expect("len checked"));
        let eb = f64::from_le_bytes(bytes[20..28].try_into().expect("len checked"));
        if block_len == 0 || block_len % 8 != 0 || block_len > 4096 {
            return Err(FormatError::Corrupt("bad block length"));
        }
        if !(eb.is_finite() && eb > 0.0) {
            return Err(FormatError::Corrupt("bad error bound"));
        }
        let num_blocks = (num_elements as usize).div_ceil(block_len as usize);
        let fl_end = HEADER_BYTES + num_blocks;
        if bytes.len() < fl_end {
            return Err(FormatError::Truncated);
        }
        let fixed_lengths = &bytes[HEADER_BYTES..fl_end];
        if fixed_lengths.iter().any(|&f| f > 64) {
            return Err(FormatError::Corrupt("fixed length exceeds 64 bits"));
        }
        let expected: u64 = fixed_lengths
            .iter()
            .map(|&f| cmp_bytes_for(f, block_len as usize) as u64)
            .sum();
        let payload = &bytes[fl_end..];
        if (payload.len() as u64) < expected {
            return Err(FormatError::Truncated);
        }
        if (payload.len() as u64) > expected {
            return Err(FormatError::Corrupt("trailing bytes"));
        }
        Ok(CompressedRef {
            num_elements,
            block_len,
            eb,
            lorenzo,
            dtype,
            fixed_lengths,
            payload,
        })
    }

    /// Copy the fractions into an owned [`Compressed`].
    pub fn to_owned(&self) -> Compressed {
        Compressed {
            num_elements: self.num_elements,
            block_len: self.block_len,
            eb: self.eb,
            lorenzo: self.lorenzo,
            dtype: self.dtype,
            fixed_lengths: self.fixed_lengths.to_vec(),
            payload: self.payload.to_vec(),
        }
    }

    /// Number of blocks (`⌈N / L⌉`).
    pub fn num_blocks(&self) -> usize {
        (self.num_elements as usize).div_ceil(self.block_len as usize)
    }

    /// The paper's compressed size: fixed-length bytes + payload.
    pub fn stream_bytes(&self) -> u64 {
        (self.fixed_lengths.len() + self.payload.len()) as u64
    }

    /// Stream size plus the file header.
    pub fn total_bytes(&self) -> u64 {
        self.stream_bytes() + HEADER_BYTES as u64
    }

    /// Expected payload size from the fixed lengths (Eq 2 per block).
    pub fn expected_payload_bytes(&self) -> u64 {
        self.fixed_lengths
            .iter()
            .map(|&f| cmp_bytes_for(f, self.block_len as usize) as u64)
            .sum()
    }

    /// Byte span the payload bytes of blocks `blocks` occupy — the Eq-2
    /// prefix sum over fraction ⓐ, exported for partial decoders.
    ///
    /// This is the block-offset table of the paper's Fig 2, computed on
    /// demand instead of stored: a random-access reader asks for the span
    /// of the blocks overlapping its request and reads (or decodes) only
    /// those payload bytes. Runs in `O(blocks.end)` over the fixed-length
    /// bytes and allocates nothing.
    ///
    /// Errors if the range is out of bounds, a scanned fixed length
    /// exceeds 64 bits, or the payload ends before the span does — the
    /// same conditions [`CompressedRef::parse`] rejects, so a parsed
    /// stream never fails here.
    pub fn payload_span(
        &self,
        blocks: std::ops::Range<usize>,
    ) -> Result<std::ops::Range<usize>, FormatError> {
        if blocks.start > blocks.end || blocks.end > self.num_blocks() {
            return Err(FormatError::Corrupt("block range out of bounds"));
        }
        if self.fixed_lengths.len() != self.num_blocks() {
            return Err(FormatError::Corrupt("fixed-length array size"));
        }
        let mut start = 0u64;
        let mut end = 0u64;
        for (b, &f) in self.fixed_lengths[..blocks.end].iter().enumerate() {
            if f > 64 {
                return Err(FormatError::Corrupt("fixed length exceeds 64 bits"));
            }
            let cmp = cmp_bytes_for(f, self.block_len as usize) as u64;
            if b < blocks.start {
                start += cmp;
            }
            end += cmp;
        }
        if end > self.payload.len() as u64 {
            return Err(FormatError::Truncated);
        }
        Ok(start as usize..end as usize)
    }

    /// Cheap structural sanity check: payload length matches Eq 2
    /// **exactly** — neither truncated nor overlong. The fast decoder
    /// ([`crate::fast`]) preallocates its output and slices the payload
    /// at Eq-2 offsets without further bounds checks, so an overlong
    /// payload must be rejected here, not tolerated.
    pub fn validate(&self) -> Result<(), FormatError> {
        CuszpConfig {
            block_len: self.block_len as usize,
            lorenzo: self.lorenzo,
            simd: None,
            hybrid: false,
        }
        .validate();
        if self.fixed_lengths.len() != self.num_blocks() {
            return Err(FormatError::Corrupt("fixed-length array size"));
        }
        if self.expected_payload_bytes() != self.payload.len() as u64 {
            return Err(FormatError::Corrupt("payload size vs Eq 2"));
        }
        Ok(())
    }

    /// Append the serialized header to `out` (the fractions follow it in
    /// the wire format).
    pub(crate) fn header_bytes(&self) -> [u8; HEADER_BYTES] {
        let mut h = [0u8; HEADER_BYTES];
        h[..6].copy_from_slice(&MAGIC);
        h[6] = self.lorenzo as u8;
        h[7] = self.dtype.to_byte();
        h[8..16].copy_from_slice(&self.num_elements.to_le_bytes());
        h[16..20].copy_from_slice(&self.block_len.to_le_bytes());
        h[20..28].copy_from_slice(&self.eb.to_le_bytes());
        h
    }

    /// Serialize to a standalone byte stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.total_bytes() as usize);
        out.extend_from_slice(&self.header_bytes());
        out.extend_from_slice(self.fixed_lengths);
        out.extend_from_slice(self.payload);
        out
    }

    /// Stream the serialized form to a writer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.header_bytes())?;
        w.write_all(self.fixed_lengths)?;
        w.write_all(self.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Compressed {
        Compressed {
            num_elements: 40,
            block_len: 32,
            eb: 0.01,
            lorenzo: true,
            dtype: DType::F32,
            fixed_lengths: vec![3, 0],
            payload: vec![0xAB; 16], // (3+1)*32/8 = 16
        }
    }

    #[test]
    fn accounting() {
        let c = sample();
        assert_eq!(c.num_blocks(), 2);
        assert_eq!(c.stream_bytes(), 18);
        assert_eq!(c.expected_payload_bytes(), 16);
        c.validate().unwrap();
    }

    #[test]
    fn serialization_roundtrip() {
        let c = sample();
        let bytes = c.to_bytes();
        assert_eq!(bytes.len() as u64, c.total_bytes());
        let back = Compressed::from_bytes(&bytes).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert_eq!(Compressed::from_bytes(&bytes), Err(FormatError::BadMagic));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample().to_bytes();
        assert_eq!(
            Compressed::from_bytes(&bytes[..bytes.len() - 1]),
            Err(FormatError::Truncated)
        );
        assert_eq!(
            Compressed::from_bytes(&bytes[..4]),
            Err(FormatError::Truncated)
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(matches!(
            Compressed::from_bytes(&bytes),
            Err(FormatError::Corrupt(_))
        ));
    }

    #[test]
    fn absurd_fixed_length_rejected() {
        let mut c = sample();
        c.fixed_lengths[1] = 65;
        let bytes = c.to_bytes();
        assert!(Compressed::from_bytes(&bytes).is_err());
    }

    #[test]
    fn oversize_block_length_rejected() {
        // All-zero blocks need no payload, so only the header bound
        // keeps a tiny frame from naming a huge block.
        let c = Compressed {
            num_elements: 3 << 20,
            block_len: 1 << 20,
            fixed_lengths: vec![0; 3],
            payload: Vec::new(),
            ..sample()
        };
        assert_eq!(
            CompressedRef::parse(&c.to_bytes()),
            Err(FormatError::Corrupt("bad block length"))
        );
    }

    #[test]
    fn validate_catches_payload_mismatch() {
        let mut c = sample();
        c.payload.pop();
        assert!(c.validate().is_err());
    }

    #[test]
    fn ref_parse_is_zero_copy_and_equivalent() {
        let c = sample();
        let bytes = c.to_bytes();
        let r = CompressedRef::parse(&bytes).unwrap();
        r.validate().unwrap();
        assert_eq!(r.to_owned(), c);
        assert_eq!(c.as_ref(), r);
        // The fractions are slices into `bytes`, not copies.
        let payload_start = bytes.len() - c.payload.len();
        assert!(std::ptr::eq(
            r.payload.as_ptr(),
            bytes[payload_start..].as_ptr()
        ));
        assert_eq!(r.stream_bytes(), c.stream_bytes());
        assert_eq!(r.total_bytes(), c.total_bytes());
    }

    #[test]
    fn ref_parse_rejects_what_from_bytes_rejects() {
        let mut bytes = sample().to_bytes();
        assert!(CompressedRef::parse(&bytes[..bytes.len() - 1]).is_err());
        bytes[0] = b'X';
        assert_eq!(CompressedRef::parse(&bytes), Err(FormatError::BadMagic));
    }

    #[test]
    fn write_to_matches_to_bytes() {
        let c = sample();
        let mut streamed = Vec::new();
        c.write_to(&mut streamed).unwrap();
        assert_eq!(streamed, c.to_bytes());
    }

    #[test]
    fn payload_span_matches_eq2_prefix_sums() {
        // Three blocks: F = 3 (16 bytes), F = 0 (0 bytes), F = 1 (8 bytes).
        let c = Compressed {
            num_elements: 96,
            block_len: 32,
            eb: 0.01,
            lorenzo: true,
            dtype: DType::F32,
            fixed_lengths: vec![3, 0, 1],
            payload: vec![0xCD; 24],
        };
        c.validate().unwrap();
        assert_eq!(c.payload_span(0..3).unwrap(), 0..24);
        assert_eq!(c.payload_span(0..1).unwrap(), 0..16);
        assert_eq!(c.payload_span(1..2).unwrap(), 16..16); // zero block
        assert_eq!(c.payload_span(2..3).unwrap(), 16..24);
        assert_eq!(c.payload_span(1..1).unwrap(), 16..16); // empty range
        assert!(c.payload_span(2..4).is_err());
        #[allow(clippy::reversed_empty_ranges)]
        {
            assert!(c.payload_span(2..1).is_err());
        }
        // A truncated payload fails once the span passes its end.
        let mut short = c;
        short.payload.truncate(10);
        assert_eq!(short.payload_span(0..1), Err(FormatError::Truncated));
        // Even a zero-byte span is rejected once it sits past the payload
        // end — conservative, since the stream is corrupt either way.
        assert_eq!(short.payload_span(1..2), Err(FormatError::Truncated));
    }

    #[test]
    fn validate_rejects_overlong_payload() {
        // Regression: the length check must be exact, not a lower bound —
        // the fast decoder's preallocated writes rely on it.
        let mut c = sample();
        c.payload.push(0xFF);
        assert_eq!(
            c.validate(),
            Err(FormatError::Corrupt("payload size vs Eq 2"))
        );
    }
}
