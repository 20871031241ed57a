//! The sharded store: n-D array → chunk grid → compressed frames, read
//! back region-at-a-time through the block-granular codec layer.
//!
//! A shard is a single byte buffer (file, mmap, network blob): frames
//! back to back, then the [`ShardIndex`] and footer (see
//! [`crate::index`]). [`write_shard`] produces one; [`Shard::open`]
//! validates the index once, and [`Shard::read_region`] then serves
//! arbitrary axis-aligned sub-regions touching only the chunks — and
//! within each chunk only the codec blocks — that overlap the request.
//! Each touched chunk is one codec call
//! ([`ErrorBoundedCodec::decode_rows`]) given the chunk's intersection
//! rows as a [`RowLayout`]; the `CZP1` and `CZH1` codecs decode each
//! block those rows touch once and write it straight into the caller's
//! output.
//!
//! The read path is **copy-free** over the shard (frames decode straight
//! out of the borrowed bytes via each codec's `parse`, never
//! materialized) and **zero-alloc after warm-up**: all loop state lives
//! in fixed `[usize; MAX_DIMS]` arrays and the only buffers — the codec
//! arenas, and the tile of codecs that use the provided row walk — grow
//! monotonically inside [`StoreScratch`].
//!
//! The write path mirrors it. Each chunk is one codec call
//! ([`ErrorBoundedCodec::encode_rows`]) given the chunk's rows in the
//! caller's array as a [`RowLayout`], and the frame is appended to the
//! shard buffer. The `CZP1` and `CZH1` codecs quantize each block that
//! lies inside one row straight from the caller's array and bounce only
//! a block that straddles rows, so no chunk is gathered and no frame is
//! copied; other codecs go through the provided gather-and-encode walk.
//! A write reuses one [`StoreScratch`] chunk to chunk, so its heap
//! operations do not grow with the chunk count beyond the shard buffer's
//! own doublings.

use crate::codec::{CodecScratch, ErrorBoundedCodec};
use crate::error::StoreError;
use crate::index::{ChunkEntry, ShardIndex, MAX_DIMS};
use crate::registry::CodecRegistry;
use cuszp_core::{DType, RowLayout};
use std::ops::Range;
use std::path::Path;

/// Reusable buffers for shard reads (and, inside [`write_shard`], for
/// its chunk encodes). Warm it with one read of the largest region
/// you'll request; subsequent reads of any shape allocate nothing.
#[derive(Default)]
pub struct StoreScratch {
    /// Per-codec scratch (the cuSZp arena and the hybrid stage's chunk
    /// staging and decode table; the other codecs use the stack).
    pub codec: CodecScratch,
    /// f32 decode tile of the provided [`ErrorBoundedCodec::decode_rows`]
    /// walk, covering one run's block span — at most one chunk
    /// (monotonic growth), and the gather tile of the provided
    /// [`ErrorBoundedCodec::encode_rows`]. The `CZP1` and `CZH1` codecs
    /// work straight on the caller's arrays and never touch it.
    tile: Vec<f32>,
    /// f64 tile (same roles, other element type).
    tile64: Vec<f64>,
    /// Frame buffer of the provided [`ErrorBoundedCodec::encode_rows`],
    /// which gathers a chunk into the tile and encodes it here before
    /// appending the frame to the shard.
    frame: Vec<u8>,
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// An element type shards can hold — sealed to `f32` and `f64`, matching
/// the two dtypes the index records. The trait carries the per-dtype
/// codec entry points so the chunk walker is written once, generically;
/// the methods are implementation detail, not a user-facing API.
pub trait ShardElement: sealed::Sealed + Copy + Default + 'static {
    /// The dtype tag recorded in the shard index.
    const DTYPE: DType;
    /// Append the frame of one chunk's `rows` of `data` through `codec`.
    #[doc(hidden)]
    fn encode_chunk_rows(
        codec: &dyn ErrorBoundedCodec,
        data: &[Self],
        rows: &RowLayout,
        eb: f64,
        scratch: &mut StoreScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), StoreError>;
    /// Decode `rows` of one frame through `codec`.
    #[doc(hidden)]
    fn decode_chunk_rows(
        codec: &dyn ErrorBoundedCodec,
        stream: &[u8],
        rows: &RowLayout,
        scratch: &mut StoreScratch,
        out: &mut [Self],
    ) -> Result<usize, StoreError>;
    /// Split `scratch` into this dtype's decode tile (grown to at least
    /// `need` elements) and the codec scratch, borrowed disjointly.
    #[doc(hidden)]
    fn tile_and_codec(scratch: &mut StoreScratch, need: usize) -> (&mut [Self], &mut CodecScratch);
}

impl ShardElement for f32 {
    const DTYPE: DType = DType::F32;
    fn encode_chunk_rows(
        codec: &dyn ErrorBoundedCodec,
        data: &[Self],
        rows: &RowLayout,
        eb: f64,
        scratch: &mut StoreScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        codec.encode_rows(data, rows, eb, scratch, out)
    }
    fn decode_chunk_rows(
        codec: &dyn ErrorBoundedCodec,
        stream: &[u8],
        rows: &RowLayout,
        scratch: &mut StoreScratch,
        out: &mut [Self],
    ) -> Result<usize, StoreError> {
        codec.decode_rows(stream, rows, scratch, out)
    }
    fn tile_and_codec(scratch: &mut StoreScratch, need: usize) -> (&mut [Self], &mut CodecScratch) {
        if scratch.tile.len() < need {
            scratch.tile.resize(need, 0.0);
        }
        (&mut scratch.tile, &mut scratch.codec)
    }
}

impl ShardElement for f64 {
    const DTYPE: DType = DType::F64;
    fn encode_chunk_rows(
        codec: &dyn ErrorBoundedCodec,
        data: &[Self],
        rows: &RowLayout,
        eb: f64,
        scratch: &mut StoreScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        codec.encode_rows_f64(data, rows, eb, scratch, out)
    }
    fn decode_chunk_rows(
        codec: &dyn ErrorBoundedCodec,
        stream: &[u8],
        rows: &RowLayout,
        scratch: &mut StoreScratch,
        out: &mut [Self],
    ) -> Result<usize, StoreError> {
        codec.decode_rows_f64(stream, rows, scratch, out)
    }
    fn tile_and_codec(scratch: &mut StoreScratch, need: usize) -> (&mut [Self], &mut CodecScratch) {
        if scratch.tile64.len() < need {
            scratch.tile64.resize(need, 0.0);
        }
        (&mut scratch.tile64, &mut scratch.codec)
    }
}

/// The provided [`ErrorBoundedCodec::decode_rows`] walk, for a frame of
/// `n` elements in blocks of `l`: each run of [`RowLayout::block_runs`]
/// is one `decode_blocks` call into the scratch tile (at most one
/// chunk), and the run's rows are then copied out of the tile.
pub(crate) fn tile_walk<T: ShardElement>(
    l: usize,
    n: usize,
    rows: &RowLayout,
    scratch: &mut StoreScratch,
    out: &mut [T],
    mut decode_blocks: impl FnMut(
        Range<usize>,
        &mut CodecScratch,
        &mut [T],
    ) -> Result<usize, StoreError>,
) -> Result<usize, StoreError> {
    let row_len = rows.row_len();
    let mut read = 0;
    for (blocks, run) in rows.block_runs(l) {
        let base = blocks.start * l;
        let covered = (blocks.end * l).min(n) - base;
        let (tile, codec_scratch) = T::tile_and_codec(scratch, covered);
        read += decode_blocks(blocks, codec_scratch, &mut tile[..covered])?;
        for (src, dst) in run {
            out[dst..dst + row_len].copy_from_slice(&tile[src - base..src - base + row_len]);
        }
    }
    Ok(read)
}

/// The provided [`ErrorBoundedCodec::encode_rows`]: gather the rows of
/// `data` into the scratch tile, `encode` the tile into the scratch
/// frame buffer, and append the frame to `out`.
pub(crate) fn gather_encode<T: ShardElement>(
    data: &[T],
    rows: &RowLayout,
    scratch: &mut StoreScratch,
    out: &mut Vec<u8>,
    encode: impl FnOnce(&[T], &mut CodecScratch, &mut Vec<u8>) -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    let (n, row_len) = (rows.elements(), rows.row_len());
    let mut frame = std::mem::take(&mut scratch.frame);
    let (tile, codec_scratch) = T::tile_and_codec(scratch, n);
    for (dst, (src, _)) in tile[..n].chunks_exact_mut(row_len.max(1)).zip(rows.iter()) {
        dst.copy_from_slice(&data[src..src + row_len]);
    }
    let encoded = encode(&tile[..n], codec_scratch, &mut frame);
    if encoded.is_ok() {
        out.extend_from_slice(&frame);
    }
    scratch.frame = frame;
    encoded
}

impl StoreScratch {
    /// Fresh, cold scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Accounting of one region read — the basis of the bytes-touched
/// assertions in `tests/partial_decode.rs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Chunks whose frames were opened.
    pub chunks_touched: usize,
    /// Codec blocks decoded. Within a chunk each block the region's rows
    /// touch is decoded, and counted, once — including a boundary block
    /// two rows share.
    pub blocks_decoded: usize,
    /// Compressed payload bytes read across all codec calls.
    pub payload_bytes_read: usize,
}

fn c_strides(dims: &[usize], out: &mut [usize; MAX_DIMS]) {
    let d = dims.len();
    out[d - 1] = 1;
    for i in (0..d - 1).rev() {
        out[i] = out[i + 1] * dims[i + 1];
    }
}

/// Compress `data` (C-order, `shape`) into a self-contained shard:
/// chunks of `chunk_shape` (edge chunks clamp), each encoded by `codec`
/// at absolute bound `eb`, followed by the index and footer. The
/// element type (`f32` or `f64`) is recorded in the index; the codec
/// must support it ([`StoreError::UnsupportedDtype`] otherwise), and `eb`
/// must be finite and positive ([`StoreError::BadBound`] otherwise).
///
/// Each chunk is one [`ErrorBoundedCodec::encode_rows`] call over the
/// chunk's rows in `data`, appending its frame to the shard buffer; the
/// `CZP1` and `CZH1` codecs encode the rows in place, with no gathered
/// copy of the chunk and no per-chunk frame buffer.
pub fn write_shard<T: ShardElement>(
    data: &[T],
    shape: &[usize],
    chunk_shape: &[usize],
    codec: &dyn ErrorBoundedCodec,
    eb: f64,
) -> Result<Vec<u8>, StoreError> {
    if !codec.supports_dtype(T::DTYPE) {
        return Err(StoreError::UnsupportedDtype {
            codec: codec.name(),
            dtype: T::DTYPE,
        });
    }
    if !(eb.is_finite() && eb > 0.0) {
        return Err(StoreError::BadBound);
    }
    let ndim = shape.len();
    if ndim == 0 || ndim > MAX_DIMS || chunk_shape.len() != ndim {
        return Err(StoreError::Shape("rank must be 1..=8, shapes same rank"));
    }
    if shape.iter().chain(chunk_shape).any(|&d| d == 0) {
        return Err(StoreError::Shape("zero dimension"));
    }
    let total: usize = shape.iter().product();
    if data.len() != total {
        return Err(StoreError::Shape("data length != shape product"));
    }

    let mut grid = [1usize; MAX_DIMS];
    for i in 0..ndim {
        grid[i] = shape[i].div_ceil(chunk_shape[i]);
    }
    let num_chunks: usize = grid[..ndim].iter().product();

    let mut out = Vec::new();
    let mut entries = Vec::with_capacity(num_chunks);
    let mut scratch = StoreScratch::new();
    let mut cc = [0usize; MAX_DIMS];
    for _ in 0..num_chunks {
        // Chunk box and clamped dims; its rows are contiguous along the
        // last axis of `data`, in C order.
        let mut origin = [0usize; MAX_DIMS];
        let mut end = [0usize; MAX_DIMS];
        let mut cdim = [1usize; MAX_DIMS];
        for i in 0..ndim {
            origin[i] = cc[i] * chunk_shape[i];
            cdim[i] = chunk_shape[i].min(shape[i] - origin[i]);
            end[i] = origin[i] + cdim[i];
        }
        let mut cstrides = [1usize; MAX_DIMS];
        c_strides(&cdim[..ndim], &mut cstrides);
        let rows = RowLayout::of_box(shape, &origin[..ndim], &end[..ndim], &cstrides[..ndim]);
        let offset = out.len();
        T::encode_chunk_rows(codec, data, &rows, eb, &mut scratch, &mut out)?;
        entries.push(ChunkEntry {
            offset: offset as u64,
            len: (out.len() - offset) as u64,
            num_elements: rows.elements() as u64,
            format_id: codec.format_id(),
        });
        for axis in (0..ndim).rev() {
            cc[axis] += 1;
            if cc[axis] < grid[axis] {
                break;
            }
            cc[axis] = 0;
        }
    }

    ShardIndex {
        shape: shape.to_vec(),
        chunk_shape: chunk_shape.to_vec(),
        dtype: T::DTYPE,
        entries,
    }
    .append_to(&mut out);
    Ok(out)
}

/// Where an opened shard's bytes live: borrowed from the caller, or a
/// file mapping the shard owns ([`Shard::open_path`]).
enum ShardBytes<'a> {
    Borrowed(&'a [u8]),
    Mapped(crate::mmap::MappedSlice<u8>),
}

impl ShardBytes<'_> {
    fn as_slice(&self) -> &[u8] {
        match self {
            ShardBytes::Borrowed(b) => b,
            ShardBytes::Mapped(m) => m,
        }
    }
}

impl std::fmt::Debug for ShardBytes<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardBytes::Borrowed(b) => write!(f, "Borrowed({} bytes)", b.len()),
            ShardBytes::Mapped(m) => write!(f, "Mapped({} bytes)", m.len()),
        }
    }
}

/// An opened shard: the backing bytes (borrowed or mapped) plus the
/// validated index.
#[derive(Debug)]
pub struct Shard<'a> {
    bytes: ShardBytes<'a>,
    index: ShardIndex,
}

impl<'a> Shard<'a> {
    /// Parse and validate the shard's index (see
    /// [`ShardIndex::parse`] for the normative validation order). The
    /// frame bytes stay borrowed — nothing is copied or decoded here.
    pub fn open(bytes: &'a [u8]) -> Result<Shard<'a>, StoreError> {
        let index = ShardIndex::parse(bytes)?;
        Ok(Shard {
            bytes: ShardBytes::Borrowed(bytes),
            index,
        })
    }

    /// Open a shard file by memory-mapping it (owned-buffer fallback on
    /// platforms without `mmap`; contents identical either way). Frames
    /// decode straight out of the page cache, so the zero-alloc and
    /// copy-free read properties of [`Shard::open`] carry over
    /// unchanged. I/O failures surface as [`StoreError::Io`].
    pub fn open_path(path: &Path) -> Result<Shard<'static>, StoreError> {
        let bytes = crate::mmap::map_bytes(path)?;
        let index = ShardIndex::parse(&bytes)?;
        Ok(Shard {
            bytes: ShardBytes::Mapped(bytes),
            index,
        })
    }

    /// The validated index.
    pub fn index(&self) -> &ShardIndex {
        &self.index
    }

    /// Logical array shape.
    pub fn shape(&self) -> &[usize] {
        &self.index.shape
    }

    /// Total element count.
    pub fn num_elements(&self) -> usize {
        self.index.shape.iter().product()
    }

    /// Read the axis-aligned region at `origin` with `extent` into `out`
    /// (C-order over `extent`; `out.len()` must equal the region size).
    /// Codecs are resolved per chunk through `registry`.
    ///
    /// Only chunks overlapping the region are opened, and within each
    /// chunk only the codec blocks overlapping the region's rows are
    /// decoded — the returned [`ReadStats`] account for exactly that.
    /// Each touched chunk is one [`ErrorBoundedCodec::decode_rows`] call
    /// over the chunk's intersection rows. The `CZP1` and `CZH1` codecs
    /// decode each block once and write it straight to its place in
    /// `out`, whatever the box's width, and a `CZH1` chunk is
    /// entropy-decoded once; other codecs go through the provided
    /// tile-and-copy walk.
    /// With a warm `scratch` the call performs zero heap allocations.
    /// `T` must match the shard's recorded dtype
    /// ([`StoreError::DtypeMismatch`] otherwise).
    pub fn read_region<T: ShardElement>(
        &self,
        registry: &CodecRegistry,
        origin: &[usize],
        extent: &[usize],
        scratch: &mut StoreScratch,
        out: &mut [T],
    ) -> Result<ReadStats, StoreError> {
        if self.index.dtype != T::DTYPE {
            return Err(StoreError::DtypeMismatch {
                stored: self.index.dtype,
                requested: T::DTYPE,
            });
        }
        let ndim = self.index.shape.len();
        let shape = &self.index.shape;
        let chunk_shape = &self.index.chunk_shape;
        if origin.len() != ndim || extent.len() != ndim {
            return Err(StoreError::Shape("origin/extent rank"));
        }
        let mut total = 1usize;
        for i in 0..ndim {
            match origin[i].checked_add(extent[i]) {
                Some(end) if end <= shape[i] => {}
                _ => return Err(StoreError::Shape("region out of bounds")),
            }
            total *= extent[i];
        }
        if out.len() != total {
            return Err(StoreError::Shape("output length != region size"));
        }
        let mut stats = ReadStats::default();
        if total == 0 {
            return Ok(stats);
        }

        let mut grid = [1usize; MAX_DIMS];
        for i in 0..ndim {
            grid[i] = shape[i].div_ceil(chunk_shape[i]);
        }
        let mut grid_strides = [1usize; MAX_DIMS];
        c_strides(&grid[..ndim], &mut grid_strides);
        let mut out_strides = [1usize; MAX_DIMS];
        c_strides(extent, &mut out_strides);
        // Chunk coordinate box overlapping the region (inclusive hi).
        let mut clo = [0usize; MAX_DIMS];
        let mut chi = [0usize; MAX_DIMS];
        for i in 0..ndim {
            clo[i] = origin[i] / chunk_shape[i];
            chi[i] = (origin[i] + extent[i] - 1) / chunk_shape[i];
        }

        let mut cc = clo;
        loop {
            self.read_chunk_overlap(
                registry,
                origin,
                extent,
                &cc,
                &grid_strides,
                &out_strides,
                scratch,
                out,
                &mut stats,
            )?;
            let mut axis = ndim - 1;
            loop {
                cc[axis] += 1;
                if cc[axis] <= chi[axis] {
                    break;
                }
                cc[axis] = clo[axis];
                if axis == 0 {
                    return Ok(stats);
                }
                axis -= 1;
            }
        }
    }

    /// Decode the parts of chunk `cc` that overlap `[origin, origin+extent)`.
    #[allow(clippy::too_many_arguments)]
    fn read_chunk_overlap<T: ShardElement>(
        &self,
        registry: &CodecRegistry,
        origin: &[usize],
        extent: &[usize],
        cc: &[usize; MAX_DIMS],
        grid_strides: &[usize; MAX_DIMS],
        out_strides: &[usize; MAX_DIMS],
        scratch: &mut StoreScratch,
        out: &mut [T],
        stats: &mut ReadStats,
    ) -> Result<(), StoreError> {
        let ndim = self.index.shape.len();
        let shape = &self.index.shape;
        let chunk_shape = &self.index.chunk_shape;
        let mut chunk_id = 0usize;
        for i in 0..ndim {
            chunk_id += cc[i] * grid_strides[i];
        }
        let entry = self.index.entries[chunk_id];
        let codec = registry
            .get(entry.format_id)
            .ok_or(StoreError::UnknownCodec(entry.format_id))?;
        let frame = self
            .bytes
            .as_slice()
            .get(entry.offset as usize..(entry.offset + entry.len) as usize)
            .ok_or(StoreError::Truncated)?;
        let chunk_n = entry.num_elements as usize;
        // The frame's own element count must agree with the index before
        // any block range is derived from it — a self-consistent but
        // mismatched frame would otherwise trip decoder asserts.
        if codec.declared_elements(frame)? != chunk_n {
            return Err(StoreError::Corrupt("frame element count vs index"));
        }
        stats.chunks_touched += 1;

        // Chunk geometry and the region intersection, chunk-local.
        let mut corigin = [0usize; MAX_DIMS];
        let mut cdim = [1usize; MAX_DIMS];
        let mut lo = [0usize; MAX_DIMS];
        let mut hi = [0usize; MAX_DIMS];
        let mut out_at = 0;
        for i in 0..ndim {
            corigin[i] = cc[i] * chunk_shape[i];
            cdim[i] = chunk_shape[i].min(shape[i] - corigin[i]);
            lo[i] = origin[i].max(corigin[i]) - corigin[i];
            hi[i] = (origin[i] + extent[i]).min(corigin[i] + cdim[i]) - corigin[i];
            out_at += (corigin[i] + lo[i] - origin[i]) * out_strides[i];
        }
        // The intersection is a set of rows contiguous along the last axis
        // in both the chunk and the output; one call decodes them all.
        let rows = RowLayout::of_box(
            &cdim[..ndim],
            &lo[..ndim],
            &hi[..ndim],
            &out_strides[..ndim],
        );
        let out = &mut out[out_at..out_at + rows.dst_len()];
        let read = T::decode_chunk_rows(codec, frame, &rows, scratch, out)?;
        stats.blocks_decoded += rows.blocks(codec.block_len());
        stats.payload_bytes_read += read;
        Ok(())
    }

    /// Read the whole array (`out.len()` must equal
    /// [`Shard::num_elements`]).
    pub fn read_all<T: ShardElement>(
        &self,
        registry: &CodecRegistry,
        scratch: &mut StoreScratch,
        out: &mut [T],
    ) -> Result<ReadStats, StoreError> {
        let origin = [0usize; MAX_DIMS];
        self.read_region(
            registry,
            &origin[..self.index.shape.len()],
            &self.index.shape,
            scratch,
            out,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{CodecScratch, CuszpCodec, FormatId};
    use cuszp_core::{DType, FormatError};
    use std::ops::Range;

    /// A cuSZp codec under another id that keeps the trait's f32-only
    /// default, as an application codec without an f64 path would.
    struct F32Only;

    impl ErrorBoundedCodec for F32Only {
        fn format_id(&self) -> FormatId {
            *b"F32T"
        }
        fn name(&self) -> &'static str {
            "f32-only"
        }
        fn block_len(&self) -> usize {
            CuszpCodec::PLAIN.block_len()
        }
        fn encode(&self, data: &[f32], eb: f64, scratch: &mut CodecScratch, out: &mut Vec<u8>) {
            CuszpCodec::PLAIN.encode(data, eb, scratch, out)
        }
        fn num_elements(&self, stream: &[u8]) -> Result<usize, StoreError> {
            CuszpCodec::PLAIN.num_elements(stream)
        }
        fn decode_blocks(
            &self,
            stream: &[u8],
            blocks: Range<usize>,
            scratch: &mut CodecScratch,
            out: &mut [f32],
        ) -> Result<usize, StoreError> {
            CuszpCodec::PLAIN.decode_blocks(stream, blocks, scratch, out)
        }
    }

    fn field2d(h: usize, w: usize) -> Vec<f32> {
        (0..h * w)
            .map(|i| {
                let (y, x) = (i / w, i % w);
                ((x as f32) * 0.11).sin() * ((y as f32) * 0.07).cos() * 8.0
            })
            .collect()
    }

    #[test]
    fn roundtrip_all_codecs_1d() {
        let data: Vec<f32> = (0..5000).map(|i| (i as f32 * 0.01).sin() * 3.0).collect();
        let registry = CodecRegistry::with_defaults();
        let eb = 1e-3;
        for codec in registry.codecs() {
            let shard = write_shard(&data, &[5000], &[1024], codec, eb).unwrap();
            let shard = Shard::open(&shard).unwrap();
            let mut scratch = StoreScratch::new();
            let mut out = vec![0f32; 5000];
            let stats = shard.read_all(&registry, &mut scratch, &mut out).unwrap();
            assert_eq!(stats.chunks_touched, 5, "{}", codec.name());
            for (i, (&d, &r)) in data.iter().zip(&out).enumerate() {
                assert!(
                    (d as f64 - r as f64).abs() <= eb * (1.0 + 1e-6) + 1e-5,
                    "{} idx {i}: {d} vs {r}",
                    codec.name()
                );
            }
        }
    }

    #[test]
    fn region_read_matches_full_2d() {
        let (h, w) = (37, 53);
        let data = field2d(h, w);
        let registry = CodecRegistry::with_defaults();
        let codec = registry.get(*b"CZP1").unwrap();
        let shard_bytes = write_shard(&data, &[h, w], &[16, 16], codec, 1e-4).unwrap();
        let shard = Shard::open(&shard_bytes).unwrap();
        let mut scratch = StoreScratch::new();
        let mut full = vec![0f32; h * w];
        shard.read_all(&registry, &mut scratch, &mut full).unwrap();
        for (origin, extent) in [
            ([0, 0], [1, 1]),
            ([5, 7], [3, 11]),
            ([15, 15], [4, 4]), // straddles 4 chunks
            ([0, 0], [h, w]),
            ([36, 52], [1, 1]),
            ([10, 0], [1, w]),
        ] {
            let mut region = vec![0f32; extent[0] * extent[1]];
            shard
                .read_region(&registry, &origin, &extent, &mut scratch, &mut region)
                .unwrap();
            for y in 0..extent[0] {
                for x in 0..extent[1] {
                    assert_eq!(
                        region[y * extent[1] + x],
                        full[(origin[0] + y) * w + origin[1] + x],
                        "origin {origin:?} extent {extent:?} at ({y},{x})"
                    );
                }
            }
        }
    }

    #[test]
    fn single_block_read_touches_one_chunk_and_few_bytes() {
        let data: Vec<f32> = (0..65536).map(|i| (i as f32 * 0.001).sin()).collect();
        let registry = CodecRegistry::with_defaults();
        let codec = registry.get(*b"CZP1").unwrap();
        let shard_bytes = write_shard(&data, &[65536], &[4096], codec, 1e-4).unwrap();
        let shard = Shard::open(&shard_bytes).unwrap();
        let mut scratch = StoreScratch::new();
        let mut full = vec![0f32; 65536];
        let full_stats = shard.read_all(&registry, &mut scratch, &mut full).unwrap();
        let mut one = vec![0f32; 32];
        let stats = shard
            .read_region(&registry, &[8192], &[32], &mut scratch, &mut one)
            .unwrap();
        assert_eq!(stats.chunks_touched, 1);
        assert_eq!(stats.blocks_decoded, 1);
        assert!(
            stats.payload_bytes_read * 100 < full_stats.payload_bytes_read,
            "one block must read ≪ the full payload: {} vs {}",
            stats.payload_bytes_read,
            full_stats.payload_bytes_read
        );
        assert_eq!(one, full[8192..8224]);
    }

    #[test]
    fn unknown_codec_and_bad_regions() {
        let data = vec![1.0f32; 256];
        let shard_bytes = write_shard(&data, &[256], &[128], &F32Only, 0.1).unwrap();
        let shard = Shard::open(&shard_bytes).unwrap();
        let mut scratch = StoreScratch::new();
        let mut out = vec![0f32; 256];
        // The defaults know nothing of the shard's codec.
        let registry = CodecRegistry::with_defaults();
        assert_eq!(
            shard.read_all(&registry, &mut scratch, &mut out),
            Err(StoreError::UnknownCodec(*b"F32T"))
        );
        let mut registry = CodecRegistry::with_defaults();
        registry.register(Box::new(F32Only));
        assert!(matches!(
            shard.read_region(&registry, &[200], &[100], &mut scratch, &mut out),
            Err(StoreError::Shape(_))
        ));
        assert!(matches!(
            shard.read_region(&registry, &[0, 0], &[16, 16], &mut scratch, &mut out),
            Err(StoreError::Shape(_))
        ));
        let mut tiny = [0f32; 3];
        assert!(matches!(
            shard.read_region(&registry, &[0], &[4], &mut scratch, &mut tiny),
            Err(StoreError::Shape(_))
        ));
        // Empty extent: fine, zero stats.
        let stats = shard
            .read_region::<f32>(&registry, &[0], &[0], &mut scratch, &mut [])
            .unwrap();
        assert_eq!(stats, ReadStats::default());
    }

    /// `shard` with its chunk entries relabelled `ids`, in order.
    fn relabel(shard: &[u8], ids: &[FormatId]) -> Vec<u8> {
        let mut index = Shard::open(shard).unwrap().index().clone();
        let frames_end = index.entries.last().map(|e| e.offset + e.len).unwrap() as usize;
        for (e, &id) in index.entries.iter_mut().zip(ids) {
            e.format_id = id;
        }
        let mut out = shard[..frames_end].to_vec();
        index.append_to(&mut out);
        out
    }

    #[test]
    fn retired_codec_ids_read_as_unknown() {
        let registry = CodecRegistry::with_defaults();
        let ids: Vec<(FormatId, &str)> = registry
            .codecs()
            .map(|c| (c.format_id(), c.name()))
            .collect();
        assert_eq!(ids, [(*b"CZP1", "cuszp"), (*b"CZH1", "cuszp-hybrid")]);
        // A shard from before the cuSZx (`CZX1`) and cuZFP (`CZF1`) codecs
        // were retired: relabel the chunk entries of a valid shard.
        let data: Vec<f32> = (0..256).map(|i| (i as f32 * 0.1).sin()).collect();
        let good = write_shard(&data, &[256], &[128], &CuszpCodec::PLAIN, 1e-3).unwrap();
        let old = relabel(&good, &[*b"CZX1", *b"CZF1"]);
        let shard = Shard::open(&old).unwrap();
        let mut scratch = StoreScratch::new();
        let mut out = vec![0f32; 256];
        assert_eq!(
            shard.read_all(&registry, &mut scratch, &mut out),
            Err(StoreError::UnknownCodec(*b"CZX1"))
        );
        assert_eq!(
            shard.read_region(&registry, &[128], &[128], &mut scratch, &mut out[..128]),
            Err(StoreError::UnknownCodec(*b"CZF1"))
        );
        // Each id reads what it read before: `CZP1` reads plain frames
        // only, so a `CZH1` chunk holding a `CUSZPHY1` frame, relabelled
        // `CZP1`, is a bad-magic frame.
        let smooth: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.001).sin()).collect();
        let hybrid = write_shard(&smooth, &[4096], &[4096], &CuszpCodec::HYBRID, 1e-3).unwrap();
        let frame_at = Shard::open(&hybrid).unwrap().index().entries[0].offset as usize;
        assert!(hybrid[frame_at..].starts_with(&cuszp_core::hybrid::HYBRID_MAGIC));
        let relabelled = relabel(&hybrid, &[*b"CZP1"]);
        let mut out = vec![0f32; 4096];
        assert_eq!(
            Shard::open(&relabelled)
                .unwrap()
                .read_all(&registry, &mut scratch, &mut out),
            Err(StoreError::Frame(FormatError::BadMagic))
        );
    }

    #[test]
    fn write_shard_validates_shapes() {
        let data = vec![0f32; 10];
        assert!(matches!(
            write_shard(&data, &[10, 2], &[4], &CuszpCodec::PLAIN, 0.1),
            Err(StoreError::Shape(_))
        ));
        assert!(matches!(
            write_shard(&data, &[11], &[4], &CuszpCodec::PLAIN, 0.1),
            Err(StoreError::Shape(_))
        ));
        assert!(matches!(
            write_shard(&data, &[10], &[0], &CuszpCodec::PLAIN, 0.1),
            Err(StoreError::Shape(_))
        ));
        assert!(matches!(
            write_shard(&data, &[], &[], &CuszpCodec::PLAIN, 0.1),
            Err(StoreError::Shape(_))
        ));
    }

    #[test]
    fn bad_bounds_are_typed_errors() {
        let data32 = vec![1.5f32; 300];
        let data64 = vec![1.5f64; 300];
        let registry = CodecRegistry::with_defaults();
        for eb in [0.0, -0.0, -1e-3, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for codec in registry.codecs().chain([&F32Only as _]) {
                let got = write_shard(&data32, &[300], &[128], codec, eb);
                assert_eq!(got, Err(StoreError::BadBound), "{} eb {eb}", codec.name());
                if codec.supports_dtype(DType::F64) {
                    let got = write_shard(&data64, &[300], &[128], codec, eb);
                    assert_eq!(
                        got,
                        Err(StoreError::BadBound),
                        "{} f64 eb {eb}",
                        codec.name()
                    );
                }
            }
        }
    }

    #[test]
    fn f64_shard_roundtrips_through_cuszp_and_hybrid() {
        let data: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.013).sin() * 5.0).collect();
        let registry = CodecRegistry::with_defaults();
        let eb = 1e-6;
        for id in [*b"CZP1", *b"CZH1"] {
            let codec = registry.get(id).unwrap();
            let shard_bytes = write_shard(&data, &[4096], &[1000], codec, eb).unwrap();
            let shard = Shard::open(&shard_bytes).unwrap();
            assert_eq!(shard.index().dtype, DType::F64);
            let mut scratch = StoreScratch::new();
            let mut out = vec![0f64; 4096];
            shard.read_all(&registry, &mut scratch, &mut out).unwrap();
            for (i, (&d, &r)) in data.iter().zip(&out).enumerate() {
                assert!(
                    (d - r).abs() <= eb * (1.0 + 1e-12) + 1e-12,
                    "{} idx {i}: {d} vs {r}",
                    codec.name()
                );
            }
            // Reading it back as f32 is a typed dtype mismatch, caught
            // before any chunk is touched.
            let mut wrong = vec![0f32; 4096];
            assert_eq!(
                shard.read_all(&registry, &mut scratch, &mut wrong),
                Err(StoreError::DtypeMismatch {
                    stored: DType::F64,
                    requested: DType::F32,
                })
            );
        }
    }

    #[test]
    fn f64_write_through_unsupporting_codec_is_typed() {
        let data = vec![1.0f64; 256];
        assert_eq!(
            write_shard(&data, &[256], &[128], &F32Only, 0.1),
            Err(StoreError::UnsupportedDtype {
                codec: "f32-only",
                dtype: DType::F64,
            })
        );
    }

    #[test]
    fn open_path_reads_match_in_memory_open() {
        let data: Vec<f32> = (0..2048).map(|i| (i as f32 * 0.01).cos() * 4.0).collect();
        let registry = CodecRegistry::with_defaults();
        let codec = registry.get(*b"CZH1").unwrap();
        let shard_bytes = write_shard(&data, &[2048], &[512], codec, 1e-4).unwrap();
        let mut path = std::env::temp_dir();
        path.push(format!("cuszp_store_mmap_{}.shard", std::process::id()));
        std::fs::write(&path, &shard_bytes).unwrap();
        let mapped = Shard::open_path(&path).unwrap();
        let mut scratch = StoreScratch::new();
        let mut via_file = vec![0f32; 2048];
        mapped
            .read_all(&registry, &mut scratch, &mut via_file)
            .unwrap();
        let borrowed = Shard::open(&shard_bytes).unwrap();
        let mut via_mem = vec![0f32; 2048];
        borrowed
            .read_all(&registry, &mut scratch, &mut via_mem)
            .unwrap();
        assert_eq!(via_file, via_mem);
        drop(mapped);
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(Shard::open_path(&path), Err(StoreError::Io(_))));
    }

    #[test]
    fn frame_element_count_cross_checked() {
        // Swap two equal-size frames' entries' num_elements: geometry
        // check at parse catches inconsistent counts, so instead corrupt
        // the frame itself to disagree with the (valid) index.
        let data: Vec<f32> = (0..256).map(|i| i as f32).collect();
        let mut shard_bytes = write_shard(&data, &[256], &[128], &CuszpCodec::PLAIN, 0.5).unwrap();
        // Frame 0 starts at byte 0: CUSZP1 header's num_elements at 8.
        shard_bytes[8..16].copy_from_slice(&64u64.to_le_bytes());
        // Shrink claim: parse of the frame now sees fewer elements than
        // the index entry — but also a length mismatch; either way the
        // read must fail with a typed error, not panic.
        let shard = Shard::open(&shard_bytes).unwrap();
        let registry = CodecRegistry::with_defaults();
        let mut scratch = StoreScratch::new();
        let mut out = vec![0f32; 256];
        assert!(shard.read_all(&registry, &mut scratch, &mut out).is_err());
    }

    #[test]
    fn declared_elements_reads_the_header_alone() {
        // A read matches the header's count against the index and leaves
        // the full parse to the decode: the count reads past a body fault
        // that `num_elements` rejects, and a bad header is still typed.
        let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
        let mut scratch = CodecScratch::new();
        for (codec, magic) in [
            (CuszpCodec::PLAIN, &b"CUSZP1"[..]),
            (CuszpCodec::HYBRID, &b"CUSZPHY1"[..]),
        ] {
            let mut frame = Vec::new();
            codec.encode(&data, 1e-3, &mut scratch, &mut frame);
            assert!(frame.starts_with(magic), "{}", codec.name());
            assert_eq!(codec.declared_elements(&frame), Ok(4096));
            let mut long = frame.clone();
            long.push(0);
            assert!(codec.num_elements(&long).is_err());
            assert_eq!(codec.declared_elements(&long), Ok(4096));
            assert_eq!(
                codec.declared_elements(&frame[..magic.len() + 4]),
                Err(StoreError::Frame(FormatError::Truncated))
            );
            let mut bad = frame.clone();
            bad[0] = b'X';
            assert_eq!(
                codec.declared_elements(&bad),
                Err(StoreError::Frame(FormatError::BadMagic))
            );
        }
        // A plain-only codec refuses a hybrid frame, as its parse does.
        let mut frame = Vec::new();
        CuszpCodec::HYBRID.encode(&data, 1e-3, &mut scratch, &mut frame);
        assert_eq!(
            CuszpCodec::PLAIN.declared_elements(&frame),
            Err(StoreError::Frame(FormatError::BadMagic))
        );
    }
}
