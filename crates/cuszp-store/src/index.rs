//! The persisted shard index (`CUSZPIX1`) and end-of-shard footer
//! (`CUSZPFT1`).
//!
//! Shard layout (all integers little-endian; normative spec in
//! `docs/FORMAT.md`, validation order mirrored by the corruption tests):
//!
//! ```text
//! frames        chunk 0 .. chunk num_chunks−1, back to back from byte 0
//! index         magic          8 B   "CUSZPIX1"
//!               ndim           1 B   1..=MAX_DIMS
//!               dtype          1 B   element type (0 = f32, 1 = f64)
//!               shape          ndim × 8 B   u64, each ≥ 1
//!               chunk_shape    ndim × 8 B   u64, each ≥ 1
//!               num_chunks     4 B   u32 == Π ⌈shape/chunk_shape⌉
//!               entries        num_chunks × 28 B (see below)
//! footer        index_offset   8 B   u64, absolute byte offset of index
//!               magic          8 B   "CUSZPFT1"
//! ```
//!
//! One entry per chunk, in C-order over the chunk grid:
//!
//! ```text
//! offset        8 B   u64, frame start (absolute)
//! len           8 B   u64, frame bytes
//! num_elements  8 B   u64 == Π min(chunk_shape, shape − origin)
//! format_id     4 B   codec id ([`FormatId`])
//! ```
//!
//! The footer sits at the *end* so a writer streams frames first and
//! appends the index once sizes are known — a reader seeks to
//! `len − 16`, validates the footer, then jumps to the index. Frames must
//! be non-overlapping and in offset order, wholly inside
//! `[0, index_offset)`; gaps are permitted (a writer may align frames).

use crate::codec::FormatId;
use crate::error::StoreError;
use cuszp_core::DType;

/// Index magic.
pub const INDEX_MAGIC: [u8; 8] = *b"CUSZPIX1";
/// Footer magic.
pub const FOOTER_MAGIC: [u8; 8] = *b"CUSZPFT1";
/// Footer size: index_offset (u64 LE) + magic.
pub const FOOTER_BYTES: usize = 16;
/// Bytes per chunk entry.
pub const ENTRY_BYTES: usize = 28;
/// Maximum dimensionality of a shard.
pub const MAX_DIMS: usize = cuszp_core::rows::MAX_RANK;
/// Cap on the chunk count (2^24), bounding index allocation before the
/// entry table is trusted.
pub const MAX_CHUNKS: usize = 1 << 24;

/// One chunk's entry in the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Absolute byte offset of the chunk's frame.
    pub offset: u64,
    /// Frame length in bytes.
    pub len: u64,
    /// Elements the chunk covers (edge chunks are smaller).
    pub num_elements: u64,
    /// Codec that encoded the frame.
    pub format_id: FormatId,
}

/// Parsed, validated shard index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardIndex {
    /// Logical array shape.
    pub shape: Vec<usize>,
    /// Chunk shape (edge chunks clamp to the array bounds).
    pub chunk_shape: Vec<usize>,
    /// Element type of every chunk in the shard.
    pub dtype: DType,
    /// Per-chunk entries, C-order over the chunk grid.
    pub entries: Vec<ChunkEntry>,
}

impl ShardIndex {
    /// Chunks along each axis (`⌈shape/chunk_shape⌉`).
    pub fn grid(&self) -> Vec<usize> {
        self.shape
            .iter()
            .zip(&self.chunk_shape)
            .map(|(&s, &c)| s.div_ceil(c))
            .collect()
    }

    /// Element count of chunk `coords` (clamped at the array edge).
    pub fn chunk_elements(&self, coords: &[usize]) -> usize {
        coords
            .iter()
            .zip(self.shape.iter().zip(&self.chunk_shape))
            .map(|(&c, (&s, &cs))| cs.min(s - c * cs))
            .product()
    }

    /// Serialized index size for `ndim` axes and `num_chunks` chunks
    /// (magic + ndim + dtype + shapes + count + entries).
    pub fn index_bytes(ndim: usize, num_chunks: usize) -> usize {
        8 + 1 + 1 + 2 * ndim * 8 + 4 + num_chunks * ENTRY_BYTES
    }

    /// Append the serialized index followed by the footer to `out`
    /// (which already holds the frames; the index starts at the current
    /// length).
    pub fn append_to(&self, out: &mut Vec<u8>) {
        let index_offset = out.len() as u64;
        out.extend_from_slice(&INDEX_MAGIC);
        out.push(self.shape.len() as u8);
        out.push(self.dtype.to_byte());
        for &s in &self.shape {
            out.extend_from_slice(&(s as u64).to_le_bytes());
        }
        for &c in &self.chunk_shape {
            out.extend_from_slice(&(c as u64).to_le_bytes());
        }
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.offset.to_le_bytes());
            out.extend_from_slice(&e.len.to_le_bytes());
            out.extend_from_slice(&e.num_elements.to_le_bytes());
            out.extend_from_slice(&e.format_id);
        }
        out.extend_from_slice(&index_offset.to_le_bytes());
        out.extend_from_slice(&FOOTER_MAGIC);
    }

    /// Parse and fully validate the index of `shard` (the complete shard
    /// byte slice). Validation order is normative — the corruption tests
    /// pin it:
    ///
    /// 1. `shard.len() ≥ 16` — else [`StoreError::Truncated`].
    /// 2. Footer magic — else [`StoreError::BadMagic`].
    /// 3. `index_offset` leaves room for a minimal index before the
    ///    footer — else [`StoreError::Corrupt`].
    /// 4. Index magic — else [`StoreError::BadMagic`].
    /// 5. `ndim ∈ [1, 8]`; the dtype byte is a known element type
    ///    (0 = f32, 1 = f64); shape and chunk dims ≥ 1; the total element
    ///    count `Π shape` fits in `usize` — else [`StoreError::Corrupt`].
    /// 6. `num_chunks` ≤ 2^24 and equals the grid product — else
    ///    [`StoreError::Corrupt`].
    /// 7. The index ends exactly at the footer — else
    ///    [`StoreError::Corrupt`] (overlong) / [`StoreError::Truncated`]
    ///    (short).
    /// 8. Per entry, in order: `offset + len ≤ index_offset` — else
    ///    [`StoreError::IndexOutOfBounds`]; `offset ≥` previous entry's
    ///    end — else [`StoreError::IndexOverlap`]; `num_elements` matches
    ///    the chunk geometry — else [`StoreError::Corrupt`].
    pub fn parse(shard: &[u8]) -> Result<ShardIndex, StoreError> {
        // 1–2: footer.
        if shard.len() < FOOTER_BYTES {
            return Err(StoreError::Truncated);
        }
        let footer = &shard[shard.len() - FOOTER_BYTES..];
        if footer[8..] != FOOTER_MAGIC {
            return Err(StoreError::BadMagic);
        }
        let index_offset = u64::from_le_bytes(footer[..8].try_into().expect("len checked"));
        // 3: the smallest legal index (1-D, 0 chunks) must fit. Widen to
        // u128 so the check cannot be masked by saturation or wraparound
        // (a shard shorter than `min_index + FOOTER_BYTES` must reject
        // every index_offset, including 0).
        let body_end = shard.len() - FOOTER_BYTES;
        let min_index = Self::index_bytes(1, 0);
        if index_offset as u128 + min_index as u128 > body_end as u128 {
            return Err(StoreError::Corrupt("index offset out of bounds"));
        }
        let index = &shard[index_offset as usize..body_end];
        // 4: index magic.
        if index[..8] != INDEX_MAGIC {
            return Err(StoreError::BadMagic);
        }
        // 5: geometry.
        let ndim = index[8] as usize;
        if !(1..=MAX_DIMS).contains(&ndim) {
            return Err(StoreError::Corrupt("dimensionality out of range"));
        }
        let dtype =
            DType::from_byte(index[9]).ok_or(StoreError::Corrupt("unknown element dtype"))?;
        let shapes_end = 10 + 2 * ndim * 8;
        if index.len() < shapes_end + 4 {
            return Err(StoreError::Truncated);
        }
        let read_dims = |base: usize| -> Result<Vec<usize>, StoreError> {
            (0..ndim)
                .map(|i| {
                    let off = base + i * 8;
                    let v =
                        u64::from_le_bytes(index[off..off + 8].try_into().expect("len checked"));
                    match usize::try_from(v) {
                        Ok(v) if v >= 1 => Ok(v),
                        _ => Err(StoreError::Corrupt("zero or oversize dimension")),
                    }
                })
                .collect()
        };
        let shape = read_dims(10)?;
        let chunk_shape = read_dims(10 + ndim * 8)?;
        // Untrusted 64-bit dims: the total element count must fit in
        // usize, or downstream products (grid strides, chunk_elements,
        // Shard::num_elements) could wrap — a debug panic and, in
        // release, a geometry-validation bypass. Every later product is
        // bounded by Π shape (each grid axis ≤ shape axis since chunk
        // dims are ≥ 1, and clamped chunk extents are ≤ shape axes), so
        // this single checked product covers them all.
        shape
            .iter()
            .try_fold(1usize, |acc, &s| acc.checked_mul(s))
            .ok_or(StoreError::Corrupt("element count overflow"))?;
        // 6: chunk count.
        let num_chunks = u32::from_le_bytes(
            index[shapes_end..shapes_end + 4]
                .try_into()
                .expect("len checked"),
        ) as usize;
        if num_chunks > MAX_CHUNKS {
            return Err(StoreError::Corrupt("chunk count exceeds cap"));
        }
        let expected_chunks: usize = shape
            .iter()
            .zip(&chunk_shape)
            .map(|(&s, &c)| s.div_ceil(c))
            .product();
        if num_chunks != expected_chunks {
            return Err(StoreError::Corrupt("chunk count vs grid"));
        }
        // 7: exact index size.
        let want = Self::index_bytes(ndim, num_chunks);
        if index.len() < want {
            return Err(StoreError::Truncated);
        }
        if index.len() > want {
            return Err(StoreError::Corrupt("trailing bytes in index"));
        }
        // 8: entries.
        let mut idx = ShardIndex {
            shape,
            chunk_shape,
            dtype,
            entries: Vec::with_capacity(num_chunks),
        };
        let grid = idx.grid();
        let mut coords = vec![0usize; ndim];
        let mut prev_end = 0u64;
        for chunk in 0..num_chunks {
            let base = shapes_end + 4 + chunk * ENTRY_BYTES;
            let e = &index[base..base + ENTRY_BYTES];
            let offset = u64::from_le_bytes(e[..8].try_into().expect("len checked"));
            let len = u64::from_le_bytes(e[8..16].try_into().expect("len checked"));
            let num_elements = u64::from_le_bytes(e[16..24].try_into().expect("len checked"));
            let format_id: FormatId = e[24..28].try_into().expect("len checked");
            let end = offset
                .checked_add(len)
                .ok_or(StoreError::IndexOutOfBounds { chunk })?;
            if end > index_offset {
                return Err(StoreError::IndexOutOfBounds { chunk });
            }
            if offset < prev_end {
                return Err(StoreError::IndexOverlap { chunk });
            }
            prev_end = end;
            if num_elements != idx.chunk_elements(&coords) as u64 {
                return Err(StoreError::Corrupt("chunk element count vs geometry"));
            }
            idx.entries.push(ChunkEntry {
                offset,
                len,
                num_elements,
                format_id,
            });
            // Advance C-order chunk coordinates.
            for axis in (0..ndim).rev() {
                coords[axis] += 1;
                if coords[axis] < grid[axis] {
                    break;
                }
                coords[axis] = 0;
            }
        }
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Vec<u8>, ShardIndex) {
        // 2-D 5×6 array, 4×4 chunks → 2×2 grid, edge chunks clamp.
        let idx = ShardIndex {
            shape: vec![5, 6],
            chunk_shape: vec![4, 4],
            dtype: DType::F32,
            entries: vec![
                ChunkEntry {
                    offset: 0,
                    len: 10,
                    num_elements: 16,
                    format_id: *b"CZP1",
                },
                ChunkEntry {
                    offset: 10,
                    len: 7,
                    num_elements: 8,
                    format_id: *b"CZP1",
                },
                ChunkEntry {
                    offset: 17,
                    len: 5,
                    num_elements: 4,
                    format_id: *b"CZX1",
                },
                ChunkEntry {
                    offset: 22,
                    len: 3,
                    num_elements: 2,
                    format_id: *b"CZF1",
                },
            ],
        };
        let mut shard = vec![0xAAu8; 25]; // frame region
        idx.append_to(&mut shard);
        (shard, idx)
    }

    #[test]
    fn roundtrip() {
        let (shard, idx) = sample();
        let back = ShardIndex::parse(&shard).unwrap();
        assert_eq!(back, idx);
        assert_eq!(back.grid(), vec![2, 2]);
        assert_eq!(back.chunk_elements(&[0, 0]), 16);
        assert_eq!(back.chunk_elements(&[1, 1]), 2);
    }

    #[test]
    fn truncated_footer() {
        let (shard, _) = sample();
        assert_eq!(ShardIndex::parse(&shard[..10]), Err(StoreError::Truncated));
        assert_eq!(ShardIndex::parse(&[]), Err(StoreError::Truncated));
        // Shaving any tail byte breaks the footer magic.
        assert_eq!(
            ShardIndex::parse(&shard[..shard.len() - 1]),
            Err(StoreError::BadMagic)
        );
    }

    #[test]
    fn bad_magics() {
        let (mut shard, _) = sample();
        let last = shard.len() - 1;
        shard[last] = b'X';
        assert_eq!(ShardIndex::parse(&shard), Err(StoreError::BadMagic));
        let (mut shard, _) = sample();
        shard[25] = b'X'; // index magic
        assert_eq!(ShardIndex::parse(&shard), Err(StoreError::BadMagic));
    }

    #[test]
    fn index_offset_out_of_bounds() {
        let (mut shard, _) = sample();
        let pos = shard.len() - FOOTER_BYTES;
        shard[pos..pos + 8].copy_from_slice(&(u64::MAX).to_le_bytes());
        assert_eq!(
            ShardIndex::parse(&shard),
            Err(StoreError::Corrupt("index offset out of bounds"))
        );
    }

    #[test]
    fn tiny_shards_reject_index_offset() {
        // 16 bytes: a bare footer with index_offset = 0 and no room for
        // any index. A saturating bound check would let offset 0 through
        // and panic slicing the (empty) index region.
        let mut tiny = vec![0u8; 8];
        tiny.extend_from_slice(&FOOTER_MAGIC);
        assert_eq!(
            ShardIndex::parse(&tiny),
            Err(StoreError::Corrupt("index offset out of bounds"))
        );
        // 24 bytes: a valid index magic at offset 0 followed directly by
        // the footer — too short for even a minimal index, so it must be
        // rejected at step 3, before the magic is ever read.
        let mut tiny = INDEX_MAGIC.to_vec();
        tiny.extend_from_slice(&0u64.to_le_bytes());
        tiny.extend_from_slice(&FOOTER_MAGIC);
        assert_eq!(
            ShardIndex::parse(&tiny),
            Err(StoreError::Corrupt("index offset out of bounds"))
        );
    }

    #[test]
    fn oversize_shape_rejected() {
        // Claimed dims whose element-count product overflows usize must
        // be rejected, not wrapped (wraparound would let a tiny entry
        // table validate against an astronomically large claimed shape).
        let mut bytes = Vec::new();
        let io = bytes.len() as u64;
        bytes.extend_from_slice(&INDEX_MAGIC);
        bytes.push(2);
        bytes.push(0); // dtype f32
        let huge = usize::MAX as u64;
        bytes.extend_from_slice(&huge.to_le_bytes()); // shape[0]
        bytes.extend_from_slice(&huge.to_le_bytes()); // shape[1]
        bytes.extend_from_slice(&1u64.to_le_bytes()); // chunk_shape[0]
        bytes.extend_from_slice(&1u64.to_le_bytes()); // chunk_shape[1]
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&io.to_le_bytes());
        bytes.extend_from_slice(&FOOTER_MAGIC);
        assert_eq!(
            ShardIndex::parse(&bytes),
            Err(StoreError::Corrupt("element count overflow"))
        );
    }

    #[test]
    fn entry_past_payload_end() {
        let (shard, mut idx) = sample();
        idx.entries[3].len = 1000; // past index_offset
        let mut bad = shard[..25].to_vec();
        idx.append_to(&mut bad);
        assert_eq!(
            ShardIndex::parse(&bad),
            Err(StoreError::IndexOutOfBounds { chunk: 3 })
        );
    }

    #[test]
    fn overlapping_entries() {
        let (shard, mut idx) = sample();
        idx.entries[2].offset = 9; // overlaps entry 1's [10, 17)
        let mut bad = shard[..25].to_vec();
        idx.append_to(&mut bad);
        assert_eq!(
            ShardIndex::parse(&bad),
            Err(StoreError::IndexOverlap { chunk: 2 })
        );
    }

    #[test]
    fn geometry_mismatches() {
        let (shard, mut idx) = sample();
        idx.entries[1].num_elements = 99;
        let mut bad = shard[..25].to_vec();
        idx.append_to(&mut bad);
        assert_eq!(
            ShardIndex::parse(&bad),
            Err(StoreError::Corrupt("chunk element count vs geometry"))
        );

        // A zero chunk dim must be rejected; build the bytes by hand since
        // `append_to` never produces one.
        let mut bytes = vec![0u8; 4];
        let io = bytes.len() as u64;
        bytes.extend_from_slice(&INDEX_MAGIC);
        bytes.push(1);
        bytes.push(0); // dtype f32
        bytes.extend_from_slice(&3u64.to_le_bytes()); // shape
        bytes.extend_from_slice(&0u64.to_le_bytes()); // chunk_shape = 0
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&io.to_le_bytes());
        bytes.extend_from_slice(&FOOTER_MAGIC);
        assert_eq!(
            ShardIndex::parse(&bytes),
            Err(StoreError::Corrupt("zero or oversize dimension"))
        );
    }

    #[test]
    fn chunk_count_vs_grid() {
        // num_chunks field lies about the grid.
        let mut bytes = Vec::new();
        let io = bytes.len() as u64;
        bytes.extend_from_slice(&INDEX_MAGIC);
        bytes.push(1);
        bytes.push(0); // dtype f32
        bytes.extend_from_slice(&10u64.to_le_bytes()); // shape 10
        bytes.extend_from_slice(&4u64.to_le_bytes()); // chunks of 4 → 3
        bytes.extend_from_slice(&2u32.to_le_bytes()); // claims 2
        bytes.extend_from_slice(&io.to_le_bytes());
        bytes.extend_from_slice(&FOOTER_MAGIC);
        assert_eq!(
            ShardIndex::parse(&bytes),
            Err(StoreError::Corrupt("chunk count vs grid"))
        );
    }

    #[test]
    fn trailing_and_missing_index_bytes() {
        let (shard, idx) = sample();
        // Extra byte between index and footer.
        let mut long = shard[..shard.len() - FOOTER_BYTES].to_vec();
        long.push(0);
        long.extend_from_slice(&25u64.to_le_bytes());
        long.extend_from_slice(&FOOTER_MAGIC);
        assert_eq!(
            ShardIndex::parse(&long),
            Err(StoreError::Corrupt("trailing bytes in index"))
        );
        // Missing entry bytes.
        let mut short = shard[..shard.len() - FOOTER_BYTES - ENTRY_BYTES].to_vec();
        short.extend_from_slice(&25u64.to_le_bytes());
        short.extend_from_slice(&FOOTER_MAGIC);
        assert_eq!(ShardIndex::parse(&short), Err(StoreError::Truncated));
        let _ = idx;
    }

    #[test]
    fn dtype_byte_roundtrips_and_rejects_unknown() {
        // An f64 shard index survives a roundtrip intact.
        let (_, mut idx) = sample();
        idx.dtype = DType::F64;
        let mut shard = vec![0xAAu8; 25];
        idx.append_to(&mut shard);
        let back = ShardIndex::parse(&shard).unwrap();
        assert_eq!(back, idx);
        assert_eq!(back.dtype, DType::F64);
        // An unknown dtype byte must be rejected before any shape is read.
        shard[25 + 9] = 7; // the dtype byte inside the index
        assert_eq!(
            ShardIndex::parse(&shard),
            Err(StoreError::Corrupt("unknown element dtype"))
        );
    }

    #[test]
    fn bad_ndim_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&INDEX_MAGIC);
        bytes.push(9); // > MAX_DIMS
        bytes.resize(bytes.len() + 1 + 2 * 9 * 8 + 4, 0);
        let io = 0u64;
        bytes.extend_from_slice(&io.to_le_bytes());
        bytes.extend_from_slice(&FOOTER_MAGIC);
        assert_eq!(
            ShardIndex::parse(&bytes),
            Err(StoreError::Corrupt("dimensionality out of range"))
        );
    }
}
