//! Chunked container format: many independent cuSZp streams in one frame.
//!
//! The single-stream layout ([`crate::format`]) compresses one array with
//! one header. Batch workloads — many fields, or one huge field split for
//! pipelined compression — need a container that holds *several* streams
//! while keeping each chunk independently decodable. The layout is a
//! framed header plus a per-chunk length table:
//!
//! ```text
//! magic "CUSZPCH1"            8 bytes
//! num_chunks                  u32 LE
//! frame_len[num_chunks]       u64 LE each
//! frame[0] .. frame[n-1]      each exactly Compressed::to_bytes()
//! ```
//!
//! Chunk byte offsets are not stored — they are the prefix sum of the
//! length table, mirroring how the per-block offsets of the inner format
//! are recomputed from fixed lengths (Eq 2) rather than serialized.
//!
//! Every chunk is byte-identical to what the single-shot path would
//! produce for that slice at the same absolute bound, so a one-chunk
//! container is the existing format plus a 20-byte frame. Chunks may
//! differ in dtype, block length, and bound — a container can hold a
//! whole batch of unrelated fields.

use crate::format::{Compressed, CompressedRef, FormatError, HEADER_BYTES};

/// Magic bytes of the chunked container serialization.
pub const CHUNK_MAGIC: [u8; 8] = *b"CUSZPCH1";
/// Fixed container header size (magic + chunk count), before the length
/// table.
pub const CONTAINER_HEADER_BYTES: usize = 8 + 4;
/// Hard cap on the serialized chunk count — rejects absurd headers before
/// allocating a length table for them.
pub const MAX_CHUNKS: u32 = 1 << 24;

/// A sequence of independent compressed streams with a shared frame.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChunkedCompressed {
    /// The chunks, in order. Decompression concatenates them.
    pub chunks: Vec<Compressed>,
}

impl ChunkedCompressed {
    /// Empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Container holding exactly one stream.
    pub fn single(c: Compressed) -> Self {
        ChunkedCompressed { chunks: vec![c] }
    }

    /// Append a chunk.
    pub fn push(&mut self, c: Compressed) {
        self.chunks.push(c);
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Total element count across all chunks.
    pub fn total_elements(&self) -> u64 {
        self.chunks.iter().map(|c| c.num_elements).sum()
    }

    /// The paper's compressed size summed over chunks (fixed-length bytes
    /// + payload; what compression ratios are computed from).
    pub fn stream_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.stream_bytes()).sum()
    }

    /// Full serialized size: container header + length table + frames.
    pub fn container_bytes(&self) -> u64 {
        CONTAINER_HEADER_BYTES as u64
            + self.chunks.len() as u64 * 8
            + self.chunks.iter().map(|c| c.total_bytes()).sum::<u64>()
    }

    /// Serialize to a standalone byte stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.container_bytes() as usize);
        out.extend_from_slice(&CHUNK_MAGIC);
        out.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        for c in &self.chunks {
            out.extend_from_slice(&c.total_bytes().to_le_bytes());
        }
        for c in &self.chunks {
            out.extend_from_slice(&c.to_bytes());
        }
        out
    }

    /// Deserialize a container produced by [`ChunkedCompressed::to_bytes`]:
    /// [`chunk_ref_iter`] plus one copy per chunk.
    ///
    /// Malformed input — wrong magic, truncation anywhere, a length table
    /// whose sum disagrees with the buffer, or a corrupt inner frame —
    /// returns an error; it never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<ChunkedCompressed, FormatError> {
        let chunks = chunk_ref_iter(bytes)?
            .map(|r| r.map(|r| r.to_owned()))
            .collect::<Result<_, _>>()?;
        Ok(ChunkedCompressed { chunks })
    }

    /// Structural sanity check of every chunk (payload accounting, Eq 2).
    pub fn validate(&self) -> Result<(), FormatError> {
        for c in &self.chunks {
            c.validate()?;
        }
        Ok(())
    }
}

/// Walk a serialized container's chunks **without allocating** — the
/// one `CUSZPCH1` reader. The framing (magic, count, length table, total
/// size) is validated up front, then each call to [`Iterator::next`]
/// parses one frame into a [`CompressedRef`] that slices straight into
/// `bytes` (which may itself be a memory-mapped file), so decoding a
/// chunk copies nothing. This is the wire-decode path of the
/// zero-allocation service — a request holding a container is decoded
/// chunk by chunk with no heap traffic.
///
/// A corrupt *frame* (as opposed to corrupt framing) surfaces as an
/// `Err` item at its position; iteration is fused after the last chunk.
///
/// ```
/// use cuszp_core::{chunked, Cuszp, ErrorBound};
/// let codec = Cuszp::new();
/// let data: Vec<f32> = (0..500).map(|i| (i as f32 * 0.1).sin()).collect();
/// let bytes = codec.compress_chunked(&data, ErrorBound::Abs(1e-3), 200).to_bytes();
/// let mut elems = 0;
/// for chunk in chunked::chunk_ref_iter(&bytes)? {
///     elems += chunk?.num_elements;
/// }
/// assert_eq!(elems, 500);
/// # Ok::<(), cuszp_core::FormatError>(())
/// ```
pub fn chunk_ref_iter(bytes: &[u8]) -> Result<ChunkRefIter<'_>, FormatError> {
    if bytes.len() < CONTAINER_HEADER_BYTES {
        return Err(FormatError::Truncated);
    }
    if bytes[..8] != CHUNK_MAGIC {
        return Err(FormatError::BadMagic);
    }
    let n = u32::from_le_bytes(bytes[8..12].try_into().expect("len checked"));
    if n > MAX_CHUNKS {
        return Err(FormatError::Corrupt("chunk count exceeds MAX_CHUNKS"));
    }
    let n = n as usize;
    let table_end = CONTAINER_HEADER_BYTES + n * 8;
    if bytes.len() < table_end {
        return Err(FormatError::Truncated);
    }
    // Validate the whole frame accounting up front (one arithmetic pass,
    // no allocation), so framing errors surface before any chunk parses.
    let mut at = table_end as u64;
    for i in 0..n {
        let entry = CONTAINER_HEADER_BYTES + i * 8;
        let len = u64::from_le_bytes(bytes[entry..entry + 8].try_into().expect("len checked"));
        if len < HEADER_BYTES as u64 {
            return Err(FormatError::Corrupt("chunk frame shorter than a header"));
        }
        let end = at
            .checked_add(len)
            .ok_or(FormatError::Corrupt("chunk offset overflow"))?;
        if end > bytes.len() as u64 {
            return Err(FormatError::Truncated);
        }
        at = end;
    }
    if at != bytes.len() as u64 {
        return Err(FormatError::Corrupt("trailing bytes after last chunk"));
    }
    Ok(ChunkRefIter {
        bytes,
        num_chunks: n,
        next: 0,
        at: table_end,
    })
}

/// Allocation-free iterator over a serialized container's chunks; see
/// [`chunk_ref_iter`].
#[derive(Debug, Clone)]
pub struct ChunkRefIter<'a> {
    bytes: &'a [u8],
    num_chunks: usize,
    next: usize,
    /// Byte offset of the next frame (framing pre-validated, so this
    /// always stays in bounds).
    at: usize,
}

impl<'a> ChunkRefIter<'a> {
    /// Total chunks in the container.
    pub fn num_chunks(&self) -> usize {
        self.num_chunks
    }
}

impl<'a> Iterator for ChunkRefIter<'a> {
    type Item = Result<CompressedRef<'a>, FormatError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.num_chunks {
            return None;
        }
        let entry = CONTAINER_HEADER_BYTES + self.next * 8;
        let len = u64::from_le_bytes(
            self.bytes[entry..entry + 8]
                .try_into()
                .expect("table bounds pre-validated"),
        ) as usize;
        let frame = &self.bytes[self.at..self.at + len];
        self.next += 1;
        self.at += len;
        Some(CompressedRef::parse(frame))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.num_chunks - self.next;
        (rem, Some(rem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CuszpConfig;
    use crate::host_ref;

    fn chunk(n: usize, seed: f32) -> Compressed {
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.01 + seed).sin()).collect();
        host_ref::compress(&data, 1e-3, CuszpConfig::default())
    }

    #[test]
    fn roundtrip_multi() {
        let c = ChunkedCompressed {
            chunks: vec![chunk(100, 0.0), chunk(33, 1.0), chunk(1, 2.0)],
        };
        let bytes = c.to_bytes();
        assert_eq!(bytes.len() as u64, c.container_bytes());
        assert_eq!(ChunkedCompressed::from_bytes(&bytes).unwrap(), c);
    }

    #[test]
    fn roundtrip_empty() {
        let c = ChunkedCompressed::new();
        let back = ChunkedCompressed::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(back.num_chunks(), 0);
        assert_eq!(back, c);
    }

    #[test]
    fn single_chunk_is_inner_format_plus_frame() {
        let inner = chunk(64, 0.5);
        let container = ChunkedCompressed::single(inner.clone());
        let bytes = container.to_bytes();
        // Frame = magic + count + one length entry, then the inner stream
        // verbatim.
        assert_eq!(&bytes[CONTAINER_HEADER_BYTES + 8..], &inner.to_bytes()[..]);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = ChunkedCompressed::single(chunk(8, 0.0)).to_bytes();
        bytes[0] = b'Z';
        assert_eq!(
            ChunkedCompressed::from_bytes(&bytes),
            Err(FormatError::BadMagic)
        );
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = ChunkedCompressed {
            chunks: vec![chunk(40, 0.0), chunk(40, 1.0)],
        }
        .to_bytes();
        for cut in [3, CONTAINER_HEADER_BYTES + 3, bytes.len() - 1] {
            assert!(
                ChunkedCompressed::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = ChunkedCompressed::single(chunk(8, 0.0)).to_bytes();
        bytes.push(0);
        assert!(matches!(
            ChunkedCompressed::from_bytes(&bytes),
            Err(FormatError::Corrupt(_))
        ));
    }

    #[test]
    fn absurd_chunk_count_rejected() {
        let mut bytes = CHUNK_MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            ChunkedCompressed::from_bytes(&bytes),
            Err(FormatError::Corrupt(_))
        ));
    }

    #[test]
    fn chunk_ref_iter_yields_borrowed_views() {
        let c = ChunkedCompressed {
            chunks: vec![chunk(100, 0.0), chunk(33, 1.0), chunk(1, 2.0)],
        };
        let bytes = c.to_bytes();
        let it = chunk_ref_iter(&bytes).unwrap();
        assert_eq!(it.num_chunks(), 3);
        let refs: Vec<_> = it.map(|r| r.unwrap()).collect();
        let owned: Vec<_> = refs.iter().map(|r| r.to_owned()).collect();
        assert_eq!(owned, c.chunks);
        // Copy-free: each view's payload points inside `bytes`.
        let range = bytes.as_ptr_range();
        for r in &refs {
            assert!(r.payload.is_empty() || range.contains(&r.payload.as_ptr()));
        }
        // Framing errors surface at construction.
        assert_eq!(
            chunk_ref_iter(&bytes[..5]).unwrap_err(),
            FormatError::Truncated
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            chunk_ref_iter(&trailing),
            Err(FormatError::Corrupt(_))
        ));
        // A corrupt frame surfaces as an Err item at its position.
        let mut bad_frame = bytes.clone();
        let first_frame_at = CONTAINER_HEADER_BYTES + 3 * 8;
        bad_frame[first_frame_at] = b'X'; // break the first chunk's magic
        let items: Vec<_> = chunk_ref_iter(&bad_frame).unwrap().collect();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0], Err(FormatError::BadMagic));
        assert!(items[1].is_ok() && items[2].is_ok());
    }
}
