//! The `CUSZPHY1` hybrid frame: a lossless second stage over the
//! fixed-length stream, chosen per chunk.
//!
//! cuSZp's fixed-length encoding (paper §4.2) deliberately stops short of
//! entropy coding to stay at memory-bandwidth speed, and the paper's
//! block-level adaptivity discussion notes the ratio left on the table at
//! tight bounds, where bit-shuffled planes are mostly zero bytes. The
//! hybrid frame recovers that ratio *without* touching the lossy layer:
//! the serialized `CUSZP1` stream is split into chunks of
//! [`DEFAULT_CHUNK_BLOCKS`] blocks (each chunk = its fixed-length bytes
//! followed by its Eq-2 payload span), and every chunk is independently
//! re-coded by [`cuszp_entropy`]'s adaptive coder — passthrough,
//! constant flush, or four-stream canonical Huffman (`Huffman4`),
//! whichever the sampled estimator picks and the size check confirms.
//! Those three are the only modes a frame may hold: the retired mode
//! bytes 2 and 3 (run-length and one-stream Huffman chunks, written only
//! by early encoders) are rejected at parse like any unassigned byte.
//!
//! ## Frame layout (normative spec in `docs/FORMAT.md` §CUSZPHY1)
//!
//! ```text
//! magic "CUSZPHY1"  8 B
//! lorenzo           1 B       (0 | 1)
//! dtype             1 B       (0 = f32, 1 = f64)
//! num_elements      8 B  LE
//! block_len         4 B  LE
//! eb                8 B  LE   (absolute bound, f64 bits)
//! chunk_blocks      4 B  LE   (blocks per chunk, ≥ 1)
//! num_chunks        4 B  LE   (= ⌈num_blocks / chunk_blocks⌉)
//! chunk table       9 B × num_chunks: mode u8, comp_len u32, raw_len u32
//! chunk payloads    back-to-back, comp_len bytes each
//! ```
//!
//! Chunk payload offsets are prefix sums of the stored `comp_len`s, so
//! variable-length chunks stay randomly accessible: a partial read scans
//! the (tiny) table, not the payloads. Because every chunk falls back to
//! passthrough when coding would not shrink it, a hybrid frame's payload
//! never exceeds the plain stream's — and whole-frame fallback at the
//! call sites ([`crate::Cuszp::compress_serialized`], the store's `CZH1`
//! codec) guarantees the *serialized* hybrid path is never larger than
//! plain `CUSZP1` either, per-frame header overhead included. So a
//! reader of such bytes may get either frame: [`crate::FrameRef::parse`]
//! tells them apart, and is the library's one place that does.
//!
//! Decoding is single-pass per chunk: entropy-decode into a scratch
//! buffer (`Huffman4` chunks build their decode table in a table the
//! scratch keeps), re-validate the chunk as a standalone stream
//! (fixed-length bytes in range and the exact Eq-2 payload size), then
//! run the fast row decoder over exactly the requested elements. A read
//! of many rows ([`decode_rows_into`]) entropy-decodes each chunk its
//! rows touch once. The stage is lossless, so the error-bound contract
//! is untouched.

use crate::config::{CuszpConfig, SimdLevel};
use crate::dtype::{DType, FloatData};
use crate::encode::cmp_bytes_for;
use crate::fast::{self, Scratch};
use crate::format::{check_header, eq2_payload_bytes, CompressedRef, FormatError, HEADER_BYTES};
use crate::rows::{RowLayout, RowWalk};
use crate::simd::resolve_level;
pub use cuszp_entropy::Mode;
use cuszp_entropy::{
    decode_chunk, encode_chunk, select_mode, DecodeTable, ENCODE_SLACK_BYTES, HUFFMAN4_HEADER_BYTES,
};

/// Magic bytes of the hybrid frame.
pub const HYBRID_MAGIC: [u8; 8] = *b"CUSZPHY1";
/// Serialized hybrid header size in bytes.
pub const HYBRID_HEADER_BYTES: usize = 8 + 1 + 1 + 8 + 4 + 8 + 4 + 4;
/// Bytes per chunk-table entry: mode byte + `comp_len` + `raw_len`.
pub const TABLE_ENTRY_BYTES: usize = 9;
/// Default blocks per chunk: 256 blocks (8192 elements at `L = 32`)
/// keeps the raw chunk around the coders' sweet spot (tens of KiB) while
/// the 9-byte table entry stays ≪ 0.1% overhead.
pub const DEFAULT_CHUNK_BLOCKS: usize = 256;
/// Stream bytes per chunk that [`auto_chunk_blocks`] aims for. The
/// entropy coders pay fixed per-chunk costs — a Huffman code-length
/// build on encode, a 12-bit decode table on decode, the 128-byte lens
/// table, `Huffman4`'s 12-byte stream-end header. On the `Huffman4`
/// chunks of 16 384-element pieces of Small Hurricane/NYX/RTM fields
/// (the bench crate's `chunk16k_*` rows; Intel Xeon, 2 vCPUs, shared
/// host), the code build — lengths and canonical codes in one pass —
/// takes ~3 µs (~7 µs as separate length and code passes, ~10–12 µs
/// with a full rescan per Kraft repair step), and the decode table,
/// built from the canonical tiling in whole 8-entry stores, ~2 µs with
/// the two-symbol graft and ~1 µs without. So on highly
/// compressible planes (where the cuSZp stream is 16–60× smaller than
/// the floats) the default 256-block chunk leaves only a couple of KiB
/// of coded work to amortize them over and table builds dominate the
/// stage. ~32 KiB of stream per chunk pushes those costs under a few
/// percent while keeping random access granularity reasonable.
pub const AUTO_CHUNK_STREAM_BYTES: usize = 32 << 10;
/// Ceiling for [`auto_chunk_blocks`]: even on extreme ratios a chunk
/// never exceeds 4096 blocks (16× the default), keeping decode
/// granularity bounded and the worst-case chunk scratch small.
pub const AUTO_CHUNK_MAX_BLOCKS: usize = 4096;

/// Pick `chunk_blocks` for `r` so each chunk spans roughly
/// [`AUTO_CHUNK_STREAM_BYTES`] of the cuSZp stream, rounded down to a
/// power of two and clamped to `[DEFAULT_CHUNK_BLOCKS,
/// AUTO_CHUNK_MAX_BLOCKS]`. Deterministic in the stream geometry alone,
/// so re-encoding the same stream always reproduces the same framing.
pub fn auto_chunk_blocks(r: &CompressedRef<'_>) -> usize {
    let num_blocks = r.fixed_lengths.len().max(1);
    let stream = r.fixed_lengths.len() + r.payload.len();
    let per_block = stream.div_ceil(num_blocks).max(1);
    let want = (AUTO_CHUNK_STREAM_BYTES / per_block).max(1);
    let mut p = want.next_power_of_two();
    if p > want {
        p >>= 1;
    }
    p.clamp(DEFAULT_CHUNK_BLOCKS, AUTO_CHUNK_MAX_BLOCKS)
}

/// Largest `chunk_blocks` the wire format admits. Together with the
/// `u32` raw-size invariant this caps how much geometry a header can
/// claim per stored table entry, so a tiny untrusted frame cannot
/// command multi-gigabyte scratch or output allocations just by naming
/// an absurd chunk shape. 2²⁰ blocks is ~4096× the default and far
/// beyond any useful access granularity.
pub const MAX_CHUNK_BLOCKS: usize = 1 << 20;

/// Reusable buffers for chunk staging and decoding. Capacity only grows,
/// so encode and decode loops reach a zero-allocation steady state like
/// [`crate::fast::Scratch`].
#[derive(Debug, Default)]
pub struct HybridScratch {
    /// One chunk's raw bytes (fixed lengths ++ payload span).
    raw: Vec<u8>,
    /// The Huffman decode table, rebuilt in place for every `Huffman`
    /// and `Huffman4` chunk.
    table: DecodeTable,
}

impl HybridScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-grow for frames of up to `elems` elements, and allocate the
    /// decode table, so later encodes and decodes allocate nothing.
    pub fn warm_for<T: FloatData>(&mut self, elems: usize, cfg: CuszpConfig, chunk_blocks: usize) {
        let cap = max_chunk_raw_bytes(T::DTYPE, cfg.block_len, chunk_blocks)
            .min(fast::max_stream_bytes::<T>(elems, cfg));
        if self.raw.capacity() < cap {
            self.raw.reserve(cap - self.raw.len());
        }
        self.table.warm();
    }

    /// Bytes currently held (diagnostic).
    pub fn capacity_bytes(&self) -> usize {
        self.raw.capacity() + self.table.capacity_bytes()
    }

    /// Entropy-decode a chunk's stored bytes `comp` into the first
    /// `raw_len` bytes of the staging buffer and return them. The buffer
    /// only grows, and stale bytes from earlier chunks are left in place:
    /// every entropy decoder writes all `raw_len` bytes when it succeeds,
    /// and a failed chunk is discarded.
    fn decode_chunk(
        &mut self,
        mode: Mode,
        comp: &[u8],
        raw_len: usize,
    ) -> Result<&[u8], FormatError> {
        if self.raw.len() < raw_len {
            self.raw.resize(raw_len, 0);
        }
        let raw = &mut self.raw[..raw_len];
        decode_chunk(mode, comp, raw, &mut self.table).map_err(|e| FormatError::Entropy(e.0))?;
        Ok(raw)
    }
}

/// Worst-case raw bytes of one chunk: every block stores a fixed-length
/// byte plus a maximal Eq-2 payload.
fn max_chunk_raw_bytes(dtype: DType, block_len: usize, chunk_blocks: usize) -> usize {
    let _ = dtype; // the wire format admits F ≤ 64 for either dtype
    chunk_blocks * (1 + cmp_bytes_for(64, block_len) as usize)
}

/// Upper bound on the serialized hybrid frame for `elems` elements —
/// what a caller should reserve to keep re-encoding allocation-free. It
/// includes the [`ENCODE_SLACK_BYTES`] the entropy writers briefly use
/// past a chunk's final size while coding it.
pub fn max_frame_bytes<T: FloatData>(elems: usize, cfg: CuszpConfig, chunk_blocks: usize) -> usize {
    let num_blocks = elems.div_ceil(cfg.block_len);
    let chunks = num_blocks.div_ceil(chunk_blocks.max(1));
    HYBRID_HEADER_BYTES + chunks * TABLE_ENTRY_BYTES + fast::max_stream_bytes::<T>(elems, cfg)
        - HEADER_BYTES
        + ENCODE_SLACK_BYTES
}

/// Encode `r` as a `CUSZPHY1` frame into `out` (cleared first), letting
/// the sampled estimator pick each chunk's mode. See [`encode_with`].
pub fn encode(
    r: &CompressedRef<'_>,
    chunk_blocks: usize,
    hs: &mut HybridScratch,
    out: &mut Vec<u8>,
) {
    encode_with(r, chunk_blocks, None, hs, out)
}

/// [`encode`]; `level` is ignored, since the entropy stage has one
/// kernel set. Kept only for the end-to-end benchmark's callers in
/// `e2ebench/`; ROADMAP item 1 deletes it with the next benchmark change.
pub fn encode_at(
    r: &CompressedRef<'_>,
    chunk_blocks: usize,
    _level: SimdLevel,
    hs: &mut HybridScratch,
    out: &mut Vec<u8>,
) {
    encode(r, chunk_blocks, hs, out)
}

/// Encode `r` as a `CUSZPHY1` frame and **append** it to `out`, after
/// whatever it already holds — how the store writes a chunk's frame
/// straight into its shard buffer. Otherwise [`encode`].
pub fn encode_append(
    r: &CompressedRef<'_>,
    chunk_blocks: usize,
    hs: &mut HybridScratch,
    out: &mut Vec<u8>,
) {
    append_frame(r, chunk_blocks, None, hs, out)
}

/// Encode `r` as a `CUSZPHY1` frame into `out` (cleared first).
///
/// `force` pins every chunk to one requested mode — the per-mode
/// benchmark rows — while `None` runs the estimator per chunk. Either
/// way [`cuszp_entropy::encode_chunk`]'s size check applies, so the
/// recorded mode may still fall back to [`Mode::Pass`] and no chunk is
/// ever stored larger than its raw bytes.
///
/// # Panics
/// Panics if `r` is not structurally valid ([`CompressedRef::validate`]),
/// or if `chunk_blocks` is zero, exceeds [`MAX_CHUNK_BLOCKS`], or its
/// raw chunk size cannot be indexed by the table's `u32` fields — the
/// same limits [`HybridRef::parse`] enforces, so every encoded frame
/// parses.
pub fn encode_with(
    r: &CompressedRef<'_>,
    chunk_blocks: usize,
    force: Option<Mode>,
    hs: &mut HybridScratch,
    out: &mut Vec<u8>,
) {
    out.clear();
    append_frame(r, chunk_blocks, force, hs, out)
}

/// [`encode_with`], appending the frame to `out`.
fn append_frame(
    r: &CompressedRef<'_>,
    chunk_blocks: usize,
    force: Option<Mode>,
    hs: &mut HybridScratch,
    out: &mut Vec<u8>,
) {
    r.validate().expect("hybrid encode requires a valid stream");
    assert!(chunk_blocks >= 1, "chunk_blocks must be positive");
    assert!(
        chunk_blocks <= MAX_CHUNK_BLOCKS,
        "chunk_blocks exceeds MAX_CHUNK_BLOCKS"
    );
    assert!(
        max_chunk_raw_bytes(r.dtype, r.block_len as usize, chunk_blocks) <= u32::MAX as usize,
        "chunk raw size must fit the table's u32"
    );
    let num_blocks = r.num_blocks();
    let chunks = num_blocks.div_ceil(chunk_blocks);
    assert!(chunks <= u32::MAX as usize, "chunk count must fit u32");

    out.extend_from_slice(&HYBRID_MAGIC);
    out.push(r.lorenzo as u8);
    out.push(r.dtype.to_byte());
    out.extend_from_slice(&r.num_elements.to_le_bytes());
    out.extend_from_slice(&r.block_len.to_le_bytes());
    out.extend_from_slice(&r.eb.to_le_bytes());
    out.extend_from_slice(&(chunk_blocks as u32).to_le_bytes());
    out.extend_from_slice(&(chunks as u32).to_le_bytes());
    let table_at = out.len();
    out.resize(table_at + chunks * TABLE_ENTRY_BYTES, 0);

    for c in 0..chunks {
        let b0 = c * chunk_blocks;
        let b1 = ((c + 1) * chunk_blocks).min(num_blocks);
        let span = r
            .payload_span(b0..b1)
            .expect("validated stream has in-range spans");
        hs.raw.clear();
        hs.raw.extend_from_slice(&r.fixed_lengths[b0..b1]);
        hs.raw.extend_from_slice(&r.payload[span]);

        let mode = force.unwrap_or_else(|| select_mode(&hs.raw));
        let mark = out.len();
        let used = encode_chunk(mode, &hs.raw, out);
        let comp_len = (out.len() - mark) as u32;
        let e = table_at + c * TABLE_ENTRY_BYTES;
        out[e] = used.to_byte();
        out[e + 1..e + 5].copy_from_slice(&comp_len.to_le_bytes());
        out[e + 5..e + 9].copy_from_slice(&(hs.raw.len() as u32).to_le_bytes());
    }
}

/// A parsed `CUSZPHY1` frame borrowing its table and payload from the
/// serialized bytes. [`HybridRef::parse`] performs the full structural
/// validation documented in `docs/FORMAT.md`; per-chunk payload contents
/// are validated when decoded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridRef<'a> {
    /// Element count of the original array.
    pub num_elements: u64,
    /// Block length `L` of the inner fixed-length stream.
    pub block_len: u32,
    /// The absolute error bound of the inner stream.
    pub eb: f64,
    /// Whether Lorenzo prediction was applied.
    pub lorenzo: bool,
    /// Element type of the original data.
    pub dtype: DType,
    /// Blocks per chunk.
    pub chunk_blocks: u32,
    table: &'a [u8],
    payload: &'a [u8],
}

impl<'a> HybridRef<'a> {
    /// Parse and validate a serialized hybrid frame.
    ///
    /// Validation order (each check only runs once the previous passed):
    /// header length → magic → header field sanity (lorenzo, dtype,
    /// block length, bound, chunk size incl. [`MAX_CHUNK_BLOCKS`] and
    /// the `u32` raw-size invariant, element count addressability) →
    /// chunk count vs geometry → table bounds → per-entry mode byte and
    /// length invariants (`raw_len` bounded by the chunk's **actual**
    /// block count, never the header's nominal `chunk_blocks`) → exact
    /// payload size. Every rejection is a typed [`FormatError`]; nothing
    /// panics on malformed bytes.
    ///
    /// A frame that parses is internally consistent, but its claimed
    /// decoded size can still legitimately dwarf the physical input
    /// (Constant chunks store one byte). Consumers of untrusted bytes
    /// must bound output allocation themselves — e.g. via
    /// [`crate::Cuszp::decompress_serialized_bounded`] or a payload cap
    /// checked against [`HybridRef::num_elements`] before allocating.
    pub fn parse(bytes: &'a [u8]) -> Result<HybridRef<'a>, FormatError> {
        if bytes.len() < HYBRID_HEADER_BYTES {
            return Err(FormatError::Truncated);
        }
        if bytes[..8] != HYBRID_MAGIC {
            return Err(FormatError::BadMagic);
        }
        let lorenzo = match bytes[8] {
            0 => false,
            1 => true,
            _ => return Err(FormatError::Corrupt("bad lorenzo flag")),
        };
        let dtype = DType::from_byte(bytes[9]).ok_or(FormatError::Corrupt("bad dtype"))?;
        let num_elements = u64::from_le_bytes(bytes[10..18].try_into().expect("len checked"));
        let block_len = u32::from_le_bytes(bytes[18..22].try_into().expect("len checked"));
        let eb = f64::from_le_bytes(bytes[22..30].try_into().expect("len checked"));
        let chunk_blocks = u32::from_le_bytes(bytes[30..34].try_into().expect("len checked"));
        let num_chunks = u32::from_le_bytes(bytes[34..38].try_into().expect("len checked"));
        check_header(block_len, eb)?;
        if chunk_blocks == 0 {
            return Err(FormatError::Corrupt("bad chunk size"));
        }
        // Worst-case raw bytes per block (fixed-length byte + maximal
        // Eq-2 payload), in u64 so the bound cannot itself overflow.
        let per_block_worst = 1 + u64::from(cmp_bytes_for(64, block_len as usize));
        if chunk_blocks as usize > MAX_CHUNK_BLOCKS
            || u64::from(chunk_blocks) * per_block_worst > u64::from(u32::MAX)
        {
            return Err(FormatError::Corrupt("chunk size exceeds limit"));
        }
        if usize::try_from(num_elements).is_err() {
            return Err(FormatError::Corrupt("element count exceeds address space"));
        }
        let num_blocks = num_elements.div_ceil(u64::from(block_len));
        if u64::from(num_chunks) != num_blocks.div_ceil(u64::from(chunk_blocks)) {
            return Err(FormatError::Corrupt("chunk count vs geometry"));
        }
        let table_bytes = u64::from(num_chunks) * TABLE_ENTRY_BYTES as u64;
        if (bytes.len() as u64) < HYBRID_HEADER_BYTES as u64 + table_bytes {
            return Err(FormatError::Truncated);
        }
        let table = &bytes[HYBRID_HEADER_BYTES..HYBRID_HEADER_BYTES + table_bytes as usize];
        let payload = &bytes[HYBRID_HEADER_BYTES + table_bytes as usize..];

        let mut total_comp = 0u64;
        for c in 0..num_chunks as usize {
            let e = &table[c * TABLE_ENTRY_BYTES..(c + 1) * TABLE_ENTRY_BYTES];
            let mode = Mode::from_byte(e[0]).ok_or(FormatError::UnknownHybridMode(e[0]))?;
            let comp_len = u64::from(u32::from_le_bytes(e[1..5].try_into().expect("len")));
            let raw_len = u64::from(u32::from_le_bytes(e[5..9].try_into().expect("len")));
            // Bound raw_len by the chunk's *actual* block count — the
            // nominal `chunk_blocks` would let a short (or lying) frame
            // claim scratch far beyond what its geometry can decode to.
            let blocks_in_chunk = blocks_in_chunk(num_blocks, chunk_blocks, c as u64);
            if raw_len < blocks_in_chunk || raw_len > blocks_in_chunk * per_block_worst {
                return Err(FormatError::Corrupt("chunk raw length out of range"));
            }
            match mode {
                Mode::Pass => {
                    if comp_len != raw_len {
                        return Err(FormatError::Corrupt("pass chunk size vs raw"));
                    }
                }
                Mode::Constant => {
                    if comp_len != 1 {
                        return Err(FormatError::Corrupt("constant chunk size"));
                    }
                }
                Mode::Huffman4 => {
                    if comp_len >= raw_len {
                        return Err(FormatError::Corrupt("coded chunk not smaller than raw"));
                    }
                    // The fixed header no valid chunk can undercut;
                    // rejecting here keeps the decode path's slicing
                    // trivially in range.
                    if comp_len <= HUFFMAN4_HEADER_BYTES as u64 {
                        return Err(FormatError::Corrupt("huffman4 chunk below header size"));
                    }
                }
            }
            total_comp += comp_len;
        }
        if (payload.len() as u64) < total_comp {
            return Err(FormatError::Truncated);
        }
        if (payload.len() as u64) > total_comp {
            return Err(FormatError::Corrupt("trailing bytes"));
        }
        Ok(HybridRef {
            num_elements,
            block_len,
            eb,
            lorenzo,
            dtype,
            chunk_blocks,
            table,
            payload,
        })
    }

    /// Number of blocks of the inner fixed-length stream.
    pub fn num_blocks(&self) -> usize {
        (self.num_elements as usize).div_ceil(self.block_len as usize)
    }

    /// Number of chunks in the table.
    pub fn num_chunks(&self) -> usize {
        self.table.len() / TABLE_ENTRY_BYTES
    }

    /// The stored stream size (table + payloads) — the hybrid analogue
    /// of [`CompressedRef::stream_bytes`].
    pub fn stream_bytes(&self) -> u64 {
        (self.table.len() + self.payload.len()) as u64
    }

    /// Stream size plus the frame header.
    pub fn total_bytes(&self) -> u64 {
        self.stream_bytes() + HYBRID_HEADER_BYTES as u64
    }

    /// Chunk `c`'s table entry: `(mode, comp_len, raw_len)`.
    pub fn entry(&self, c: usize) -> (Mode, u32, u32) {
        let e = &self.table[c * TABLE_ENTRY_BYTES..(c + 1) * TABLE_ENTRY_BYTES];
        (
            Mode::from_byte(e[0]).expect("validated at parse"),
            u32::from_le_bytes(e[1..5].try_into().expect("len")),
            u32::from_le_bytes(e[5..9].try_into().expect("len")),
        )
    }

    /// Per-mode chunk counts, indexed by mode byte (benchmark reporting).
    /// Slots 2 and 3, the retired mode bytes, are always 0; they stay so
    /// that the five per-mode benchmark counters keep their wire-byte
    /// positions.
    pub fn mode_histogram(&self) -> [usize; 5] {
        let mut h = [0usize; 5];
        for c in 0..self.num_chunks() {
            h[self.entry(c).0.to_byte() as usize] += 1;
        }
        h
    }
}

/// Blocks covered by chunk `c`.
fn blocks_in_chunk(num_blocks: u64, chunk_blocks: u32, c: u64) -> u64 {
    let start = c * u64::from(chunk_blocks);
    num_blocks.min(start + u64::from(chunk_blocks)) - start
}

/// Decode blocks `blocks` of the frame into `out`, touching only the
/// chunks that overlap the range — the one-row case of
/// [`decode_rows_into`]. Returns the number of stored chunk-payload
/// bytes read, the bytes-touched accounting partial reads report.
///
/// `out.len()` must equal the element count the block range covers
/// (`min(blocks.end·L, N) − blocks.start·L`).
///
/// # Panics
/// Panics on API misuse only: a dtype mismatch between `T` and the
/// frame, or an out-of-range `blocks`/`out` geometry.
pub fn decode_blocks_into<T: FloatData>(
    r: &HybridRef<'_>,
    blocks: std::ops::Range<usize>,
    hs: &mut HybridScratch,
    scratch: &mut Scratch,
    out: &mut [T],
) -> Result<usize, FormatError> {
    assert_eq!(r.dtype, T::DTYPE, "frame element type mismatch");
    let l = r.block_len as usize;
    assert!(
        blocks.start <= blocks.end && blocks.end <= r.num_blocks(),
        "block range out of bounds"
    );
    let n = r.num_elements as usize;
    let covered = n.min(blocks.end * l).saturating_sub(blocks.start * l);
    assert_eq!(out.len(), covered, "output length vs block range");
    if covered == 0 {
        return Ok(0);
    }
    let rows = RowLayout::contiguous(blocks.start * l, covered);
    decode_rows_into(r, &rows, hs, scratch, out)
}

/// Decode the elements `rows` selects and write each row straight to its
/// place in `out` (row `(src, dst)` fills `out[dst..dst + row_len]`).
/// Returns the number of stored chunk-payload bytes read.
///
/// Each chunk the rows touch is entropy-decoded **once** into the
/// scratch buffer, however many rows it holds, and chunks no row touches
/// are skipped. Each decoded chunk is re-validated as a standalone
/// fixed-length stream (fixed-length bytes in range, payload exactly
/// Eq 2) before the fast row decoder ([`fast::decompress_rows_into`]'s
/// walk) writes its blocks into place, each block once — so a frame that
/// parses but carries inconsistent chunk *contents* still yields a typed
/// error, never a panic or out-of-bounds decode.
///
/// # Panics
/// Panics on API misuse only: a dtype mismatch between `T` and the
/// frame, rows reaching past the frame's elements, or an `out` shorter
/// than [`RowLayout::dst_len`].
pub fn decode_rows_into<T: FloatData>(
    r: &HybridRef<'_>,
    rows: &RowLayout,
    hs: &mut HybridScratch,
    scratch: &mut Scratch,
    out: &mut [T],
) -> Result<usize, FormatError> {
    decode_rows_at(r, rows, None, hs, scratch, out)
}

/// [`decode_rows_into`] with the first stage at tier `simd`, resolved as
/// [`fast::decompress_into_at`] resolves it (`None` = env override or
/// detected tier, never above the host's).
pub(crate) fn decode_rows_at<T: FloatData>(
    r: &HybridRef<'_>,
    rows: &RowLayout,
    simd: Option<SimdLevel>,
    hs: &mut HybridScratch,
    scratch: &mut Scratch,
    out: &mut [T],
) -> Result<usize, FormatError> {
    assert_eq!(r.dtype, T::DTYPE, "frame element type mismatch");
    let n = r.num_elements as usize;
    assert!(rows.src_end() <= n, "rows reach past the frame's elements");
    assert!(rows.dst_len() <= out.len(), "output shorter than the rows");
    let l = r.block_len as usize;
    let k = r.chunk_blocks as usize;
    let nb = r.num_blocks();
    let level = resolve_level(simd);
    let mut walk = RowWalk::new(rows);
    let (mut c, mut offset, mut touched) = (0usize, 0usize, 0usize);
    while let Some((src, _, _)) = walk.seg() {
        // The chunk holding the walk's next element; skipped chunks only
        // advance the payload offset.
        let target = src / l / k;
        while c < target {
            offset += r.entry(c).1 as usize;
            c += 1;
        }
        let (mode, comp_len, raw_len) = r.entry(c);
        let comp = &r.payload[offset..offset + comp_len as usize];
        offset += comp.len();
        touched += comp.len();
        let raw = hs.decode_chunk(mode, comp, raw_len as usize)?;

        // Re-validate the chunk as a standalone stream before the fast
        // decoder slices payload at Eq-2 offsets.
        let first = c * k;
        let bc = blocks_in_chunk(nb as u64, r.chunk_blocks, c as u64) as usize;
        let (fixed_lengths, payload) = raw.split_at(bc);
        if eq2_payload_bytes(fixed_lengths, l)? != payload.len() as u64 {
            return Err(FormatError::Corrupt("payload size vs Eq 2"));
        }
        let chunk_ref = CompressedRef {
            num_elements: (n.min((first + bc) * l) - first * l) as u64,
            block_len: r.block_len,
            eb: r.eb,
            lorenzo: r.lorenzo,
            dtype: r.dtype,
            fixed_lengths,
            payload,
        };
        fast::decode_window(chunk_ref, first * l, &mut walk, level, scratch, out);
        c += 1;
    }
    Ok(touched)
}

/// Decode the whole frame into `out` (`out.len()` must equal the frame's
/// element count).
pub fn decode_into<T: FloatData>(
    r: &HybridRef<'_>,
    hs: &mut HybridScratch,
    scratch: &mut Scratch,
    out: &mut [T],
) -> Result<(), FormatError> {
    decode_into_at(r, None, hs, scratch, out)
}

/// [`decode_into`] with the first stage at tier `simd` (see
/// [`decode_rows_at`]).
pub(crate) fn decode_into_at<T: FloatData>(
    r: &HybridRef<'_>,
    simd: Option<SimdLevel>,
    hs: &mut HybridScratch,
    scratch: &mut Scratch,
    out: &mut [T],
) -> Result<(), FormatError> {
    assert_eq!(out.len() as u64, r.num_elements, "output length vs frame");
    let rows = RowLayout::contiguous(0, out.len());
    decode_rows_at(r, &rows, simd, hs, scratch, out).map(|_| ())
}

/// Reconstruct the exact plain `CUSZP1` serialization the frame was
/// encoded from, into `out` (cleared first) — the second stage undone,
/// byte for byte. This is what the differential proptests pin: hybrid
/// framing is invertible down to the serialized pre-stage payload.
pub fn decode_stream_bytes(
    r: &HybridRef<'_>,
    hs: &mut HybridScratch,
    out: &mut Vec<u8>,
) -> Result<(), FormatError> {
    let nb = r.num_blocks();
    let mut total_payload = 0usize;
    for c in 0..r.num_chunks() {
        let (_, _, raw_len) = r.entry(c);
        let bc = blocks_in_chunk(nb as u64, r.chunk_blocks, c as u64) as usize;
        total_payload += (raw_len as usize)
            .checked_sub(bc)
            .expect("parse enforces raw_len ≥ blocks");
    }

    out.clear();
    out.resize(HEADER_BYTES + nb + total_payload, 0);
    let inner = CompressedRef {
        num_elements: r.num_elements,
        block_len: r.block_len,
        eb: r.eb,
        lorenzo: r.lorenzo,
        dtype: r.dtype,
        fixed_lengths: &[],
        payload: &[],
    };
    out[..HEADER_BYTES].copy_from_slice(&inner.header_bytes());

    let mut offset = 0usize;
    let mut fl_at = HEADER_BYTES;
    let mut pay_at = HEADER_BYTES + nb;
    for c in 0..r.num_chunks() {
        let (mode, comp_len, raw_len) = r.entry(c);
        let comp = &r.payload[offset..offset + comp_len as usize];
        offset += comp_len as usize;
        let raw = hs.decode_chunk(mode, comp, raw_len as usize)?;
        let bc = blocks_in_chunk(nb as u64, r.chunk_blocks, c as u64) as usize;
        out[fl_at..fl_at + bc].copy_from_slice(&raw[..bc]);
        fl_at += bc;
        let pay = raw_len as usize - bc;
        out[pay_at..pay_at + pay].copy_from_slice(&raw[bc..]);
        pay_at += pay;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ErrorBound;
    use crate::Cuszp;

    fn wave(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.004).sin() * 8.0).collect()
    }

    fn frame(data: &[f32], eb: f64, chunk_blocks: usize, force: Option<Mode>) -> Vec<u8> {
        let c = fast::compress(data, eb, CuszpConfig::default());
        let mut hs = HybridScratch::new();
        let mut out = Vec::new();
        encode_with(&c.as_ref(), chunk_blocks, force, &mut hs, &mut out);
        out
    }

    #[test]
    fn roundtrip_matches_plain_decode() {
        for n in [0usize, 1, 31, 32, 8192, 100_000] {
            let data = wave(n);
            let c = fast::compress(&data, 1e-3, CuszpConfig::default());
            let plain: Vec<f32> = fast::decompress(&c);
            let bytes = frame(&data, 1e-3, DEFAULT_CHUNK_BLOCKS, None);
            let r = HybridRef::parse(&bytes).unwrap();
            let mut out = vec![0f32; n];
            decode_into(&r, &mut HybridScratch::new(), &mut Scratch::new(), &mut out).unwrap();
            assert_eq!(out, plain, "n = {n}");
        }
    }

    #[test]
    fn every_forced_mode_roundtrips() {
        let data = wave(50_000);
        let c = fast::compress(&data, 1e-3, CuszpConfig::default());
        let plain: Vec<f32> = fast::decompress(&c);
        for mode in Mode::ALL {
            let bytes = frame(&data, 1e-3, DEFAULT_CHUNK_BLOCKS, Some(mode));
            let r = HybridRef::parse(&bytes).unwrap();
            let mut out = vec![0f32; data.len()];
            decode_into(&r, &mut HybridScratch::new(), &mut Scratch::new(), &mut out).unwrap();
            assert_eq!(out, plain, "forced {mode}");
        }
    }

    #[test]
    fn dirty_staging_buffer_decodes_like_a_fresh_one() {
        let big = frame(&wave(200_000), 1e-3, DEFAULT_CHUNK_BLOCKS, None);
        let data = wave(30_000);
        for force in [None].into_iter().chain(Mode::ALL.map(Some)) {
            let bytes = frame(&data, 1e-3, DEFAULT_CHUNK_BLOCKS, force);
            let r = HybridRef::parse(&bytes).unwrap();
            let nb = r.num_blocks();

            // Dirty: an earlier, larger frame grew the staging buffer,
            // and its stale bytes are all 0xA5.
            let mut dirty = HybridScratch::new();
            let big_r = HybridRef::parse(&big).unwrap();
            let mut sink = vec![0f32; big_r.num_elements as usize];
            decode_into(&big_r, &mut dirty, &mut Scratch::new(), &mut sink).unwrap();
            dirty.raw.fill(0xA5);
            assert!(
                dirty.raw.len() > r.entry(0).2 as usize,
                "buffer left longer"
            );

            for blocks in [0..nb, 3..nb / 2, nb - 1..nb] {
                let len = data.len().min(blocks.end * 32) - blocks.start * 32;
                let mut want = vec![0f32; len];
                let mut got = vec![0f32; len];
                let mut fresh = HybridScratch::new();
                decode_blocks_into(
                    &r,
                    blocks.clone(),
                    &mut fresh,
                    &mut Scratch::new(),
                    &mut want,
                )
                .unwrap();
                decode_blocks_into(
                    &r,
                    blocks.clone(),
                    &mut dirty,
                    &mut Scratch::new(),
                    &mut got,
                )
                .unwrap();
                assert_eq!(got, want, "force {force:?} blocks {blocks:?}");
            }
            let (mut want, mut got) = (Vec::new(), Vec::new());
            decode_stream_bytes(&r, &mut HybridScratch::new(), &mut want).unwrap();
            dirty.raw.fill(0xA5);
            decode_stream_bytes(&r, &mut dirty, &mut got).unwrap();
            assert_eq!(got, want, "force {force:?} stream bytes");
        }
    }

    #[test]
    fn adaptive_is_never_larger_than_pass() {
        for eb in [1e-1, 1e-3, 1e-5] {
            let data = wave(65_000);
            let adaptive = frame(&data, eb, DEFAULT_CHUNK_BLOCKS, None);
            let pass = frame(&data, eb, DEFAULT_CHUNK_BLOCKS, Some(Mode::Pass));
            assert!(adaptive.len() <= pass.len(), "eb = {eb}");
        }
    }

    #[test]
    fn auto_chunk_blocks_tracks_stream_density() {
        // Dense stream (pass-like): ≥ 4 bytes/block at L = 32 means the
        // 32 KiB target is hit well under the 4096-block ceiling.
        let dense = fast::compress(&wave(1 << 20), 1e-6, CuszpConfig::default());
        let dense_r = dense.as_ref();
        let cb_dense = auto_chunk_blocks(&dense_r);
        assert!((DEFAULT_CHUNK_BLOCKS..=AUTO_CHUNK_MAX_BLOCKS).contains(&cb_dense));
        assert!(cb_dense.is_power_of_two(), "power-of-two framing");
        // Sparse stream (near-constant data → tiny payload) amortizes
        // per-chunk table costs with strictly coarser chunks.
        let sparse = fast::compress(&vec![0.0f32; 1 << 20], 1e-2, CuszpConfig::default());
        let sparse_r = sparse.as_ref();
        let cb_sparse = auto_chunk_blocks(&sparse_r);
        assert!(cb_sparse >= cb_dense, "sparser stream → coarser chunks");
        assert_eq!(
            cb_sparse, AUTO_CHUNK_MAX_BLOCKS,
            "1 byte/block hits the cap"
        );
        // Deterministic in the stream geometry.
        assert_eq!(cb_dense, auto_chunk_blocks(&dense.as_ref()));
        // Tiny inputs stay in range (oversized chunk_blocks is legal:
        // the frame simply holds one chunk).
        let tiny = fast::compress(&wave(100), 1e-3, CuszpConfig::default());
        let cb_tiny = auto_chunk_blocks(&tiny.as_ref());
        assert!((DEFAULT_CHUNK_BLOCKS..=AUTO_CHUNK_MAX_BLOCKS).contains(&cb_tiny));
    }

    #[test]
    fn partial_decode_matches_full() {
        let data = wave(40_000);
        let bytes = frame(&data, 1e-3, 64, None);
        let r = HybridRef::parse(&bytes).unwrap();
        let mut full = vec![0f32; data.len()];
        let mut hs = HybridScratch::new();
        let mut scratch = Scratch::new();
        decode_into(&r, &mut hs, &mut scratch, &mut full).unwrap();
        let l = r.block_len as usize;
        for (b0, b1) in [
            (0usize, 1usize),
            (5, 64),
            (63, 65),
            (100, 1250),
            (1240, 1250),
        ] {
            let covered = data.len().min(b1 * l) - b0 * l;
            let mut part = vec![0f32; covered];
            let touched = decode_blocks_into(&r, b0..b1, &mut hs, &mut scratch, &mut part).unwrap();
            assert_eq!(part, full[b0 * l..b0 * l + covered], "blocks {b0}..{b1}");
            assert!(touched <= r.stream_bytes() as usize);
        }
    }

    #[test]
    fn row_decode_entropy_decodes_each_chunk_once() {
        // 8-block chunks hold 256 elements, so rows of 100 cross chunk
        // boundaries, and a narrow box puts many rows in one chunk.
        let dims = [4usize, 10, 100];
        let n: usize = dims.iter().product();
        let data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.013).sin() * 5.0).collect();
        let c = fast::compress(&data, 1e-6, CuszpConfig::default());
        let full: Vec<f64> = fast::decompress(&c);
        let mut bytes = Vec::new();
        encode(&c.as_ref(), 8, &mut HybridScratch::new(), &mut bytes);
        let r = HybridRef::parse(&bytes).unwrap();
        assert!(r.num_chunks() > 10);
        let l = r.block_len as usize;
        let chunk_elems = 8 * l;
        let mut hs = HybridScratch::new();
        let mut scratch = Scratch::new();
        for (lo, hi) in [
            ([0usize, 0, 0], [4usize, 10, 100]),
            ([1, 2, 10], [3, 9, 14]),
            ([0, 0, 50], [4, 10, 51]),
            ([3, 9, 0], [4, 10, 100]),
        ] {
            let mut out_strides = [1usize; 3];
            for i in (0..2).rev() {
                out_strides[i] = out_strides[i + 1] * (hi[i + 1] - lo[i + 1]);
            }
            let rows = RowLayout::of_box(&dims, &lo, &hi, &out_strides);
            let mut out = vec![0f64; rows.dst_len()];
            let touched = decode_rows_into(&r, &rows, &mut hs, &mut scratch, &mut out).unwrap();
            let mut chunks = Vec::new();
            for (src, dst) in rows.iter() {
                assert_eq!(
                    out[dst..dst + rows.row_len()],
                    full[src..src + rows.row_len()],
                    "{lo:?}..{hi:?}"
                );
                chunks.extend((src..src + rows.row_len()).map(|e| e / chunk_elems));
            }
            chunks.dedup();
            // Stored bytes read = each touched chunk's payload once.
            let want: usize = chunks.iter().map(|&ch| r.entry(ch).1 as usize).sum();
            assert_eq!(touched, want, "{lo:?}..{hi:?}");
        }
    }

    #[test]
    fn stream_bytes_invert_to_plain_serialization() {
        for (n, eb) in [(777usize, 1e-2), (32_768, 1e-4), (100_001, 1e-3)] {
            let data = wave(n);
            let c = fast::compress(&data, eb, CuszpConfig::default());
            let plain = c.to_bytes();
            let bytes = frame(&data, eb, DEFAULT_CHUNK_BLOCKS, None);
            let r = HybridRef::parse(&bytes).unwrap();
            let mut back = Vec::new();
            decode_stream_bytes(&r, &mut HybridScratch::new(), &mut back).unwrap();
            assert_eq!(back, plain, "n = {n}, eb = {eb}");
        }
    }

    #[test]
    fn compress_serialized_honors_hybrid_flag() {
        let data = wave(30_000);
        let plain_codec = Cuszp::new();
        let hybrid_codec = Cuszp::with_config(CuszpConfig {
            hybrid: true,
            ..Default::default()
        });
        let plain = plain_codec.compress_serialized(&data, ErrorBound::Rel(1e-4));
        let hy = hybrid_codec.compress_serialized(&data, ErrorBound::Rel(1e-4));
        assert!(plain.starts_with(b"CUSZP1"));
        assert!(hy.len() <= plain.len(), "hybrid must never lose");
        let a: Vec<f32> = plain_codec.decompress_serialized(&plain).unwrap();
        let b: Vec<f32> = hybrid_codec.decompress_serialized(&hy).unwrap();
        assert_eq!(a, b, "hybrid stage must be lossless");
        // A hybrid codec decodes plain frames too (whole-frame fallback).
        let c: Vec<f32> = hybrid_codec.decompress_serialized(&plain).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn parse_rejects_malformed_frames() {
        let data = wave(10_000);
        let good = frame(&data, 1e-3, DEFAULT_CHUNK_BLOCKS, None);
        assert!(HybridRef::parse(&good).is_ok());

        // Truncated header.
        assert_eq!(HybridRef::parse(&good[..10]), Err(FormatError::Truncated));
        // Bad magic.
        let mut b = good.clone();
        b[0] = b'X';
        assert_eq!(HybridRef::parse(&b), Err(FormatError::BadMagic));
        // Bad lorenzo flag.
        let mut b = good.clone();
        b[8] = 7;
        assert_eq!(
            HybridRef::parse(&b),
            Err(FormatError::Corrupt("bad lorenzo flag"))
        );
        // Bad dtype.
        let mut b = good.clone();
        b[9] = 9;
        assert_eq!(HybridRef::parse(&b), Err(FormatError::Corrupt("bad dtype")));
        // Bad block length.
        let mut b = good.clone();
        b[18] = 7;
        assert!(HybridRef::parse(&b).is_err());
        // Bad bound.
        let mut b = good.clone();
        b[22..30].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(
            HybridRef::parse(&b),
            Err(FormatError::Corrupt("bad error bound"))
        );
        // Zero chunk size.
        let mut b = good.clone();
        b[30..34].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            HybridRef::parse(&b),
            Err(FormatError::Corrupt("bad chunk size"))
        );
        // Chunk count inconsistent with geometry.
        let mut b = good.clone();
        b[34..38].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            HybridRef::parse(&b),
            Err(FormatError::Corrupt("chunk count vs geometry"))
        );
        // Unknown mode bytes: the retired 2 and 3, and 5, the first
        // never assigned.
        for mode in [2, 3, 5] {
            let mut b = good.clone();
            b[HYBRID_HEADER_BYTES] = mode;
            assert_eq!(
                HybridRef::parse(&b),
                Err(FormatError::UnknownHybridMode(mode))
            );
        }
        // Truncated payload.
        assert_eq!(
            HybridRef::parse(&good[..good.len() - 1]),
            Err(FormatError::Truncated)
        );
        // Trailing payload bytes.
        let mut b = good;
        b.push(0);
        assert_eq!(
            HybridRef::parse(&b),
            Err(FormatError::Corrupt("trailing bytes"))
        );
    }

    /// Hand-build a frame with arbitrary header geometry and table
    /// entries — the attacker's view of the wire format.
    fn raw_frame(
        num_elements: u64,
        block_len: u32,
        chunk_blocks: u32,
        entries: &[(u8, u32, u32)],
        payload: &[u8],
    ) -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(&HYBRID_MAGIC);
        b.push(0); // lorenzo
        b.push(0); // f32
        b.extend_from_slice(&num_elements.to_le_bytes());
        b.extend_from_slice(&block_len.to_le_bytes());
        b.extend_from_slice(&1e-3f64.to_le_bytes());
        b.extend_from_slice(&chunk_blocks.to_le_bytes());
        b.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for &(mode, comp_len, raw_len) in entries {
            b.push(mode);
            b.extend_from_slice(&comp_len.to_le_bytes());
            b.extend_from_slice(&raw_len.to_le_bytes());
        }
        b.extend_from_slice(payload);
        b
    }

    #[test]
    fn tiny_frame_cannot_claim_huge_chunk_geometry() {
        // 48 bytes claiming u32::MAX blocks per chunk and a 4 GiB raw
        // chunk behind a single stored byte: the chunk_blocks cap must
        // reject it at parse, before any decode path can allocate.
        let n = u64::from(u32::MAX) * 32; // num_blocks = u32::MAX, 1 chunk
        let b = raw_frame(n, 32, u32::MAX, &[(1, 1, u32::MAX)], &[0]);
        assert_eq!(b.len(), 48);
        assert_eq!(
            HybridRef::parse(&b),
            Err(FormatError::Corrupt("chunk size exceeds limit"))
        );
    }

    #[test]
    fn raw_len_is_bounded_by_actual_chunk_blocks() {
        // One real block (n = 32, L = 32) in a nominal 256-block chunk:
        // raw_len must honor the actual block count (≤ 1 · (1 + 256)),
        // not the nominal worst case (256 · 257) the old bound allowed.
        let b = raw_frame(32, 32, 256, &[(1, 1, 10_000)], &[0]);
        assert_eq!(
            HybridRef::parse(&b),
            Err(FormatError::Corrupt("chunk raw length out of range"))
        );
    }

    #[test]
    fn huffman4_chunks_below_their_header_rejected() {
        // L = 8 makes per-block worst-case raw large enough that a
        // sub-header comp_len still passes the smaller-than-raw check —
        // the dedicated header floor must catch it, down to an empty
        // chunk.
        for comp_len in [0u32, 140] {
            let b = raw_frame(
                1600,
                8,
                256,
                &[(4, comp_len, 250)],
                &vec![0u8; comp_len as usize],
            );
            assert_eq!(
                HybridRef::parse(&b),
                Err(FormatError::Corrupt("huffman4 chunk below header size")),
                "comp_len {comp_len}"
            );
        }
    }

    #[test]
    fn bounded_decompress_rejects_oversize_claims_before_allocating() {
        // A parse-clean constant frame legitimately claiming 2^25
        // elements from ~48 physical bytes (all-zero blocks): the
        // caller's element cap must stop it with a typed error.
        let cb = MAX_CHUNK_BLOCKS as u32;
        let n = u64::from(cb) * 32;
        let b = raw_frame(n, 32, cb, &[(1, 1, cb)], &[0]);
        let r = HybridRef::parse(&b).expect("internally consistent");
        assert_eq!(r.num_elements, n);
        let err = Cuszp::new()
            .decompress_serialized_bounded::<f32>(&b, 1000)
            .expect_err("claim exceeds cap");
        assert_eq!(
            err,
            FormatError::LimitExceeded {
                claimed: n,
                limit: 1000
            }
        );
        // The plain CUSZP1 branch honors the same cap.
        let plain = Cuszp::new().compress_serialized(&wave(100), ErrorBound::Abs(1e-3));
        let err = Cuszp::new()
            .decompress_serialized_bounded::<f32>(&plain, 99)
            .expect_err("plain claim exceeds cap");
        assert_eq!(
            err,
            FormatError::LimitExceeded {
                claimed: 100,
                limit: 99
            }
        );
        // At or under the cap both paths decode normally.
        let ok: Vec<f32> = Cuszp::new()
            .decompress_serialized_bounded(&plain, 100)
            .unwrap();
        assert_eq!(ok.len(), 100);
    }

    #[test]
    fn corrupt_chunk_contents_yield_typed_errors() {
        // Constant-mode chunk whose implied stream violates Eq 2: flip a
        // passthrough chunk to "constant" so it decodes to repeated
        // bytes that cannot satisfy the chunk's own accounting.
        let data = wave(10_000);
        let mut b = frame(&data, 1e-1, DEFAULT_CHUNK_BLOCKS, Some(Mode::Pass));
        let e = HYBRID_HEADER_BYTES;
        b[e] = Mode::Constant.to_byte();
        let comp_len = u32::from_le_bytes(b[e + 1..e + 5].try_into().unwrap());
        b[e + 1..e + 5].copy_from_slice(&1u32.to_le_bytes());
        // Drop the now-surplus payload bytes of chunk 0.
        let payload_at = {
            let bytes = frame(&data, 1e-1, DEFAULT_CHUNK_BLOCKS, Some(Mode::Pass));
            let r0 = HybridRef::parse(&bytes).unwrap();
            HYBRID_HEADER_BYTES + r0.num_chunks() * TABLE_ENTRY_BYTES
        };
        b.drain(payload_at + 1..payload_at + comp_len as usize);
        let r = HybridRef::parse(&b).expect("structurally fine");
        let mut out = vec![0f32; data.len()];
        let err = decode_into(&r, &mut HybridScratch::new(), &mut Scratch::new(), &mut out)
            .expect_err("inconsistent chunk must not decode");
        assert!(
            matches!(err, FormatError::Corrupt(_) | FormatError::Entropy(_)),
            "got {err:?}"
        );
    }

    #[test]
    fn mode_histogram_reports_choices() {
        // All-zero data quantizes to all-zero blocks: F = 0 everywhere,
        // so every chunk's raw bytes are constant and flush to one byte.
        let data = vec![0.0f32; 100_000];
        let bytes = frame(&data, 1e-3, DEFAULT_CHUNK_BLOCKS, None);
        let r = HybridRef::parse(&bytes).unwrap();
        let h = r.mode_histogram();
        assert_eq!(h.iter().sum::<usize>(), r.num_chunks());
        assert!(
            h[Mode::Constant.to_byte() as usize] > 0,
            "all-zero blocks flush, got {h:?}"
        );
    }
}
