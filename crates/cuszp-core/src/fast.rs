//! The optimized host codec — byte-identical to [`crate::host_ref`],
//! restructured for speed.
//!
//! `host_ref` walks the pipeline step by step per block (quantize →
//! plan → sign map → abs pass → bit-by-bit shuffle) and grows the payload
//! `Vec` as it goes. This module instead mirrors the GPU kernel's own
//! **two-phase** structure on the host (paper §4.3):
//!
//! - **Phase 1** fuses quantize + Lorenzo + `(F, CmpL)` planning per
//!   *tile* of blocks ([`tune::TILE_ELEMS`] elements): residuals live in
//!   a small reused scratch that stays cache-resident (never a data-sized
//!   buffer), and the whole tile is planned before any of its bytes are
//!   written — the host analogue of the GPU kernel sizing its blocks
//!   before the global offsets exist. The quantization arithmetic runs
//!   through [`crate::simd`]: at the AVX-512 tier a tile's whole blocks
//!   are **one** kernel call at every block length
//!   ([`simd::quantize_blocks`]), bit-exact scalar otherwise.
//! - **Phase 2** emits each block's sign map + bit planes straight into
//!   the output in block order — at the AVX-512 tier with `L = 32` one
//!   [`simd::encode_blocks32`] call per tile, so residuals go from the
//!   tile to the output without a dispatch per block. The payload is a
//!   plain concatenation of the blocks' `CmpL` bytes (fraction ⓑ), so the
//!   sum of the `CmpL` column is its size, and the decoder rebuilds every
//!   block's offset from fraction ⓐ by an exclusive **prefix sum** — the
//!   host edition of the paper's Global Synchronization step.
//!
//! ## Straight from the caller's rows
//!
//! [`compress_rows_into`] encodes the rows of a box in the caller's
//! array — a store chunk — without first gathering them: blocks are
//! independent (Lorenzo restarts at each block), so a block inside one
//! row is quantized straight from the caller's memory, and only a block
//! that straddles rows is copied, into a one-block bounce. The stream is
//! appended to the caller's buffer, so a store writes each frame into
//! its shard in place. It is byte-identical to [`compress_into`] over
//! the gathered rows; [`compress_into`] is its one-row case. The
//! decoders mirror it ([`decompress_rows_into`]): at the AVX-512 tier
//! with `L = 32`, rows of whole blocks that follow each other in the
//! stream — every row of a store chunk read whole — are decoded a batch
//! per [`simd::decode_rows32`] call, up to 128 rows, each row's blocks
//! stored straight to its place in the output, dequantization fused.
//! The batch's destinations come from the row layout's strides. A
//! partial head or tail block, a block that straddles rows, the ragged
//! final block, the other tiers and other block lengths take the
//! per-row path.
//!
//! The portable strip codec's bit-plane work is word-parallel twice
//! over: per 8-value
//! group, the magnitudes' byte matrix is transposed
//! ([`crate::bitshuffle::byte_transpose8x8`]) to expose each 8-plane
//! chunk as one `u64`, each chunk is bit-transposed
//! ([`crate::bitshuffle::transpose8x8`]), and a second byte transpose
//! across groups turns the results into whole plane *rows*, stored with
//! word writes instead of strided byte writes. Decoding runs the same
//! three transposes backwards (each is an involution).
//!
//! ## The zero-allocation steady state
//!
//! Every working buffer the codec needs — the per-block `(F, CmpL)`
//! table and the residual tile (two integer blocks on decode) — lives
//! in a caller-owned [`Scratch`] arena that is grown monotonically and
//! reused across calls. The `_into` entry points ([`compress_into`],
//! [`decompress_into`]) write their results into caller-owned memory as
//! well, so after the first call with a given shape (*warm-up*), a call
//! performs **zero heap allocations** — the host analogue of the paper's
//! no-intermediate-buffer, single-kernel design, and the property the
//! ultra-fast CPU compressors (SZx) identify as decisive for small
//! payloads. The `crates/alloc-counter` allocator proves it executable
//! (`cuszp-core/tests/alloc_count.rs`).
//!
//! The `_into` output buffer is reserved **up front from the Eq-2 size
//! table bound** — `CmpL(max_F(dtype))` per block, the same dtype-bounded
//! budget the device kernel allocates its payload from — so its capacity
//! depends only on the call's *shape* (element count, block length,
//! dtype), never on how well the content compresses: a warm buffer never
//! reallocates no matter how compressibility varies between calls. The
//! owned [`compress_with`] payload instead grows by each tile's exact
//! `CmpL` sum, so cold owned-API calls fault in only the pages they fill.
//!
//! No per-block heap allocation happens in either direction. The codec
//! is sequential: blocks are independent once the offsets are known —
//! the same argument the paper's GS step makes for the GPU — and that
//! independence is spent on independent *work*: `cuszp-pipeline` runs
//! one chunk per worker, and `cuszp-service` runs each request's codec on
//! its connection's thread under an admission permit, each with its own
//! [`Scratch`].

use crate::bitshuffle::{byte_transpose8x8, transpose8x8};
use crate::config::{CuszpConfig, SimdLevel};
use crate::dtype::FloatData;
use crate::encode::cmp_bytes_for;
use crate::format::{check_header, Compressed, CompressedRef};
use crate::rows::{RowLayout, RowWalk};

use crate::{simd, tune};

/// Ensure `v` holds at least `n` elements (monotonic growth — capacity is
/// never released) and hand back the first `n`.
fn grow<T: Copy + Default>(v: &mut Vec<T>, n: usize) -> &mut [T] {
    if v.len() < n {
        v.resize(n, T::default());
    }
    &mut v[..n]
}

/// Reusable workspace for the zero-allocation codec entry points.
///
/// Holds the per-block `(F, CmpL)` scratch table and the cache-resident
/// residual tile (on decode: the integer block buffers). Buffers grow
/// monotonically and are reused verbatim across calls — a *dirty* arena
/// (left over from any prior call, any dtype, any size) never changes
/// results, only allocation behavior. After the first call at a given
/// shape, [`compress_into`] / [`decompress_into`] calls touch the heap
/// zero times.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Per-block fixed lengths `F` (fraction ⓐ before it is emitted).
    fls: Vec<u8>,
    /// Per-block compressed sizes `CmpL` (Eq 2).
    cmps: Vec<u32>,
    /// Residuals on compression; on decompression, one block of
    /// quantization integers plus the one-block bounce.
    resid: Vec<i64>,
    /// Per-block max residual magnitude within the current tile.
    maxes: Vec<u64>,
    /// On compression, the one-block bounce for a block that straddles
    /// rows of the caller's array.
    bounce: Vec<f64>,
}

impl Scratch {
    /// Fresh, empty arena. All buffers are grown on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently held across all internal buffers (diagnostic —
    /// what a long-lived arena pins in memory).
    pub fn capacity_bytes(&self) -> usize {
        self.fls.capacity()
            + 4 * self.cmps.capacity()
            + 8 * self.resid.capacity()
            + 8 * self.maxes.capacity()
            + 8 * self.bounce.capacity()
    }

    /// Pre-grow every buffer a [`compress_into`] / [`decompress_into`]
    /// call for an `elems`-element array will touch, so even the *first*
    /// request served with this arena performs zero heap operations. A
    /// long-running service calls this once per connection — at handshake
    /// time, when the tenant's declared maximum payload is known — moving
    /// the warm-up cost off the request path entirely (the arena lifecycle
    /// then matches the connection's).
    ///
    /// Warming is monotonic like every other arena operation: warming for
    /// a smaller shape after a larger one is a no-op, and an arena warmed
    /// for `elems` serves any request up to `elems` allocation-free.
    ///
    /// ```
    /// use cuszp_core::{fast, CuszpConfig, Scratch};
    /// let cfg = CuszpConfig::default();
    /// let mut scratch = Scratch::new();
    /// scratch.warm_for::<f32>(4096, cfg);
    /// let mut out = Vec::with_capacity(fast::max_stream_bytes::<f32>(4096, cfg));
    /// // This first call now performs zero heap allocations:
    /// let data = vec![1.5f32; 4096];
    /// fast::compress_into(&mut scratch, &data, 1e-3, cfg, &mut out);
    /// ```
    pub fn warm_for<T: crate::FloatData>(&mut self, elems: usize, cfg: CuszpConfig) {
        cfg.validate();
        let l = cfg.block_len;
        let num_blocks = elems.div_ceil(l);
        grow(&mut self.fls, num_blocks);
        grow(&mut self.cmps, num_blocks);
        // The codec grows the tile buffers to a full tile regardless of
        // the array size, so warming must too.
        let blocks_per_tile = (tune::TILE_ELEMS / l).max(1);
        grow(&mut self.resid, blocks_per_tile.max(2) * l);
        grow(&mut self.maxes, blocks_per_tile);
        grow(&mut self.bounce, l);
    }
}

/// Encode one block's sign map + bit planes into `out[..CmpL]`. Layout is
/// exactly `host_ref`'s (sign bytes, then the `F` bit planes of Fig 11);
/// only the traversal is word-parallel (see module docs).
fn encode_block(resid: &[i64], f: u8, out: &mut [u8]) {
    let bpp = resid.len() / 8; // bytes per plane = L/8
    let chunks = (f as usize).div_ceil(8);
    let (sign_bytes, planes) = out.split_at_mut(bpp);
    let mut j0 = 0usize;
    while j0 < bpp {
        let strip = (bpp - j0).min(8);
        // ys[t][g]: byte c = plane (8t+c) byte of strip group g.
        let mut ys = [[0u64; 8]; 8];
        for (g, group) in resid[8 * j0..8 * (j0 + strip)].chunks_exact(8).enumerate() {
            let mut s = 0u8;
            let mut m = [0u64; 8];
            for (i, &r) in group.iter().enumerate() {
                s |= u8::from(r < 0) << i;
                m[i] = r.unsigned_abs();
            }
            sign_bytes[j0 + g] = s;
            // limbs[t] = byte t of each of the 8 magnitudes — all eight
            // 8-plane chunks of the group from one byte transpose.
            let limbs = byte_transpose8x8(m);
            for (t, y) in ys.iter_mut().enumerate().take(chunks) {
                y[g] = transpose8x8(limbs[t]);
            }
        }
        // Across the strip: one more byte transpose turns per-group chunk
        // words into whole plane rows, stored with word-sized writes.
        for (t, y) in ys.iter().enumerate().take(chunks) {
            let rows = byte_transpose8x8(*y);
            let k0 = 8 * t;
            let n_planes = (f as usize - k0).min(8);
            for (c, row) in rows.iter().enumerate().take(n_planes) {
                planes[(k0 + c) * bpp + j0..][..strip].copy_from_slice(&row.to_le_bytes()[..strip]);
            }
        }
        j0 += strip;
    }
}

/// Panic unless `cfg` and the absolute bound `eb` are usable.
fn check_compress_args(eb: f64, cfg: CuszpConfig) {
    cfg.validate();
    assert!(
        eb.is_finite() && eb > 0.0,
        "absolute bound must be positive"
    );
}

/// Both compression phases over one tile of blocks at a time. The
/// blocks come from the caller's rows ([`plan_and_encode`]); this holds
/// the tile being filled and where its blocks go in the `(F, CmpL)`
/// table.
struct TileEncoder<'s> {
    l: usize,
    level: SimdLevel,
    eb: f64,
    lorenzo: bool,
    /// Widest `F` the tier's `L = 32` vector block codec handles.
    vec_f: u8,
    fls: &'s mut [u8],
    cmps: &'s mut [u32],
    /// The tile's residuals, block after block.
    resid: &'s mut [i64],
    /// Per block of the tile: a magnitude with its largest residual's
    /// top bit ([`simd::quantize_blocks`]).
    maxes: &'s mut [u64],
    /// Stream index of the tile's first block.
    first: usize,
    /// Blocks quantized into the tile so far.
    filled: usize,
}

impl TileEncoder<'_> {
    /// Phase 1 over `src`: its elements are the stream's next whole
    /// blocks (the last may be partial only at the stream's end), each
    /// quantized straight from `src` into the tile. A full tile is
    /// flushed.
    fn blocks<T: FloatData>(&mut self, mut src: &[T], out: &mut Vec<u8>) {
        let l = self.l;
        while !src.is_empty() {
            let (a, room) = (self.filled, self.maxes.len() - self.filled);
            let b = a + src.len().div_ceil(l).min(room);
            let take = ((b - a) * l).min(src.len());
            simd::quantize_blocks(
                self.level,
                &src[..take],
                l,
                self.eb,
                self.lorenzo,
                &mut self.resid[a * l..b * l],
                &mut self.maxes[a..b],
            );
            self.filled = b;
            src = &src[take..];
            if b == self.maxes.len() {
                self.flush(out);
            }
        }
    }

    /// Plan the tile — its encoded size is exact before a byte is
    /// written — then phase 2: append every non-zero block's sign map and
    /// bit planes to `out`, in block order.
    fn flush(&mut self, out: &mut Vec<u8>) {
        let (l, tile) = (self.l, self.filled);
        let fls = &mut self.fls[self.first..self.first + tile];
        let cmps = &mut self.cmps[self.first..self.first + tile];
        let mut tile_cmp = 0usize;
        for ((fl, cmp), &max_abs) in fls.iter_mut().zip(cmps.iter_mut()).zip(&*self.maxes) {
            let f = (64 - max_abs.leading_zeros()) as u8;
            *fl = f;
            *cmp = cmp_bytes_for(f, l);
            tile_cmp += *cmp as usize;
        }
        let at = out.len();
        out.resize(at + tile_cmp, 0);
        let dst = &mut out[at..];
        let resid = &self.resid[..tile * l];
        if self.level == SimdLevel::Avx512 && l == 32 {
            simd::encode_blocks32(resid, fls, dst);
        } else {
            let mut at = 0;
            for ((block, &f), &cmp) in resid.chunks_exact(l).zip(&*fls).zip(&*cmps) {
                let cmp = cmp as usize;
                if f == 0 {
                    continue;
                } else if f <= self.vec_f {
                    simd::encode_block32(self.level, block, f, &mut dst[at..at + cmp]);
                } else {
                    encode_block(block, f, &mut dst[at..at + cmp]);
                }
                at += cmp;
            }
        }
        self.first += tile;
        self.filled = 0;
    }
}

/// Both compression phases over the elements `rows` selects from `data`,
/// row after row: fills the arena's `(F, CmpL)` table for every block of
/// that stream and appends every non-zero block's payload bytes to `out`
/// in block order.
///
/// A block inside one row is quantized straight from `data`; a block
/// that straddles rows is first gathered into the arena's one-block
/// bounce (as `f64`, which quantizes identically: [`quantize`] widens
/// first). Blocks are independent, since Lorenzo restarts at each block,
/// so where a block's elements come from never changes its bytes.
///
/// `out` grows only by each tile's exact `CmpL` sum (known before the
/// tile's first byte is written), so it never reallocates once the
/// caller has reserved the Eq-2 dtype bound, and a cold owned payload
/// faults in only the pages it fills. `out` may be the serialized stream
/// itself ([`compress_rows_into`]): the payload is then encoded in place.
///
/// [`quantize`]: crate::quantize::quantize
fn plan_and_encode<T: FloatData>(
    data: &[T],
    rows: &RowLayout,
    eb: f64,
    cfg: CuszpConfig,
    scratch: &mut Scratch,
    out: &mut Vec<u8>,
) {
    let l = cfg.block_len;
    let level = simd::resolve_level(cfg.simd);
    let row_len = rows.row_len();
    let n = rows.elements();
    let num_blocks = n.div_ceil(l);
    if num_blocks == 0 {
        return;
    }
    let blocks_per_tile = (tune::TILE_ELEMS / l).max(1);
    let bounce = grow(&mut scratch.bounce, l);
    let mut enc = TileEncoder {
        l,
        level,
        eb,
        lorenzo: cfg.lorenzo,
        vec_f: if l == 32 {
            simd::block32_max_f(level)
        } else {
            0
        },
        fls: grow(&mut scratch.fls, num_blocks),
        cmps: grow(&mut scratch.cmps, num_blocks),
        resid: grow(&mut scratch.resid, blocks_per_tile * l),
        maxes: grow(&mut scratch.maxes, blocks_per_tile),
        first: 0,
        filled: 0,
    };
    // `at` elements of the stream are placed; the last `at % l` of them
    // wait in the bounce.
    let mut at = 0;
    for (src, _) in rows.iter() {
        let mut row = &data[src..src + row_len];
        let held = at % l;
        if held > 0 {
            let k = (l - held).min(row.len());
            for (b, &v) in bounce[held..held + k].iter_mut().zip(&row[..k]) {
                *b = v.to_f64();
            }
            row = &row[k..];
            at += k;
            if at % l == 0 || at == n {
                enc.blocks(&bounce[..held + k], out);
            }
        }
        // Whole blocks, and at the stream's end its ragged last block,
        // straight from the row; what is left opens the next bounce.
        let whole = if at + row.len() == n {
            row.len()
        } else {
            row.len() / l * l
        };
        enc.blocks(&row[..whole], out);
        for (b, &v) in bounce.iter_mut().zip(&row[whole..]) {
            *b = v.to_f64();
        }
        at += row.len();
    }
    debug_assert_eq!(at, n);
    if enc.filled > 0 {
        enc.flush(out);
    }
}

/// Upper bound on the serialized stream size ([`compress_into`]'s output)
/// for an `elems`-element array of `T`: header + one fixed-length byte
/// per block + the Eq-2 worst-case payload at [`crate::DType::max_fixed_len`].
/// This is exactly the reservation [`compress_into`] makes on its output
/// buffer, so a `Vec` pre-reserved to this size never reallocates —
/// which is how a service pre-warms a connection's response buffer at
/// handshake time.
pub fn max_stream_bytes<T: FloatData>(elems: usize, cfg: CuszpConfig) -> usize {
    let num_blocks = elems.div_ceil(cfg.block_len);
    let worst_block = cmp_bytes_for(T::DTYPE.max_fixed_len(), cfg.block_len) as usize;
    crate::format::HEADER_BYTES + num_blocks + num_blocks * worst_block
}

/// Compress `data` under an **absolute** error bound `eb`.
/// Byte-identical to [`crate::host_ref::compress`].
pub fn compress<T: FloatData>(data: &[T], eb: f64, cfg: CuszpConfig) -> Compressed {
    compress_with(&mut Scratch::new(), data, eb, cfg)
}

/// Compress into an **owned** [`Compressed`] while reusing a caller
/// arena for every intermediate buffer — what a long-lived worker (e.g.
/// a `cuszp-pipeline` stream) runs per chunk: the only allocations left
/// are the two output `Vec`s the result itself owns.
pub fn compress_with<T: FloatData>(
    scratch: &mut Scratch,
    data: &[T],
    eb: f64,
    cfg: CuszpConfig,
) -> Compressed {
    check_compress_args(eb, cfg);
    let num_blocks = data.len().div_ceil(cfg.block_len);
    let mut payload = Vec::new();
    plan_and_encode(
        data,
        &RowLayout::contiguous(0, data.len()),
        eb,
        cfg,
        scratch,
        &mut payload,
    );
    Compressed {
        num_elements: data.len() as u64,
        block_len: cfg.block_len as u32,
        eb,
        lorenzo: cfg.lorenzo,
        dtype: T::DTYPE,
        fixed_lengths: scratch.fls[..num_blocks].to_vec(),
        payload,
    }
}

/// Compress into a caller-owned output buffer: `out` receives the full
/// serialized stream (header + fraction ⓐ + payload, exactly
/// [`Compressed::to_bytes`]' layout) and the returned [`CompressedRef`]
/// borrows it. With a warm [`Scratch`] and a reused `out`, the call
/// performs **zero heap allocations** — see the module docs.
pub fn compress_into<'a, T: FloatData>(
    scratch: &mut Scratch,
    data: &[T],
    eb: f64,
    cfg: CuszpConfig,
    out: &'a mut Vec<u8>,
) -> CompressedRef<'a> {
    out.clear();
    compress_rows_into(
        scratch,
        data,
        &RowLayout::contiguous(0, data.len()),
        eb,
        cfg,
        out,
    )
}

/// Compress the elements `rows` selects from `data` — row after row, in
/// [`RowLayout::iter`] order (the rows' output positions are not used) —
/// and **append** the serialized stream to `out`, after whatever it
/// already holds. The returned [`CompressedRef`] borrows the appended
/// bytes. The stream is byte-identical to [`compress_into`] over the
/// rows gathered into one array; the rows are encoded straight from
/// `data` instead (see the module docs).
///
/// `out` is reserved by the Eq-2 dtype bound of the rows' element count
/// ([`max_stream_bytes`]), so a store appending chunk after chunk to one
/// buffer only ever grows it by doubling; with a warm [`Scratch`] and
/// enough capacity the call performs **zero heap allocations**.
///
/// # Panics
/// Panics if `cfg` or `eb` is unusable, or the rows reach past `data`.
pub fn compress_rows_into<'a, T: FloatData>(
    scratch: &mut Scratch,
    data: &[T],
    rows: &RowLayout,
    eb: f64,
    cfg: CuszpConfig,
    out: &'a mut Vec<u8>,
) -> CompressedRef<'a> {
    check_compress_args(eb, cfg);
    assert!(rows.src_end() <= data.len(), "rows reach past the data");
    let l = cfg.block_len;
    let n = rows.elements();
    let num_blocks = n.div_ceil(l);

    // The header depends only on metadata known up front.
    let header = CompressedRef {
        num_elements: n as u64,
        block_len: l as u32,
        eb,
        lorenzo: cfg.lorenzo,
        dtype: T::DTYPE,
        fixed_lengths: &[],
        payload: &[],
    }
    .header_bytes();

    // Reserve from the Eq-2 dtype bound rather than this payload's exact
    // size: capacity then depends only on the input *shape*, so a reused
    // `out` never reallocates once warm even when a later payload of the
    // same shape compresses worse than the warm-up one did.
    let mark = out.len();
    out.reserve(max_stream_bytes::<T>(n, cfg));
    out.extend_from_slice(&header);
    let table = out.len();
    out.resize(table + num_blocks, 0); // fraction-ⓐ placeholder

    // Encode payload bytes *directly* into the serialized stream — no
    // staging buffer, no placement copy.
    plan_and_encode(data, rows, eb, cfg, scratch, out);
    out[table..table + num_blocks].copy_from_slice(&scratch.fls[..num_blocks]);

    let (fixed_lengths, payload) = out[mark..][header.len()..].split_at(num_blocks);
    CompressedRef {
        num_elements: n as u64,
        block_len: l as u32,
        eb,
        lorenzo: cfg.lorenzo,
        dtype: T::DTYPE,
        fixed_lengths,
        payload,
    }
}

/// Decode one block's quantization integers from its payload bytes into
/// `q[..L]` — the exact inverse of [`encode_block`] plus the Lorenzo
/// prefix sum.
fn decode_block(payload: &[u8], f: u8, lorenzo: bool, l: usize, q: &mut [i64]) {
    let bpp = l / 8;
    let chunks = (f as usize).div_ceil(8);
    let (sign_bytes, planes) = payload.split_at(bpp);
    let mut acc = 0i64;
    let mut j0 = 0usize;
    while j0 < bpp {
        let strip = (bpp - j0).min(8);
        // Inverse of the encoder's strip step: plane rows → per-group
        // chunk words → per-group magnitude limbs.
        let mut ys = [[0u64; 8]; 8];
        for (t, y) in ys.iter_mut().enumerate().take(chunks) {
            let k0 = 8 * t;
            let n_planes = (f as usize - k0).min(8);
            let mut rows = [0u64; 8];
            for (c, row) in rows.iter_mut().enumerate().take(n_planes) {
                let mut bytes = [0u8; 8];
                bytes[..strip].copy_from_slice(&planes[(k0 + c) * bpp + j0..][..strip]);
                *row = u64::from_le_bytes(bytes);
            }
            *y = byte_transpose8x8(rows);
        }
        for g in 0..strip {
            let mut limbs = [0u64; 8];
            for (t, y) in ys.iter().enumerate().take(chunks) {
                limbs[t] = transpose8x8(y[g]);
            }
            let m = byte_transpose8x8(limbs); // m[i] = |residual i|
            let s = sign_bytes[j0 + g];
            let dst = &mut q[8 * (j0 + g)..8 * (j0 + g) + 8];
            for (i, out) in dst.iter_mut().enumerate() {
                let v = m[i] as i64;
                let r = if s & (1 << i) != 0 {
                    v.wrapping_neg()
                } else {
                    v
                };
                *out = if lorenzo {
                    acc = acc.wrapping_add(r);
                    acc
                } else {
                    r
                };
            }
        }
        j0 += strip;
    }
}

/// Longest block the bounce keeps as finished elements (the default
/// `L = 32`, which the fused vector decode covers).
const TYPED_BOUNCE: usize = 32;

/// Block decoder over one stream, shared by every row of a walk: the
/// running Eq-2 position, the one-block bounce for blocks that straddle
/// a row end or a box edge, and the payload bytes read so far.
struct BlockDecoder<'c, 'q, T> {
    c: CompressedRef<'c>,
    l: usize,
    n: usize,
    level: SimdLevel,
    /// Widest `F` the AVX2 tier's fused `L = 32` block decode handles
    /// (0 at every other tier).
    vec_f: u8,
    /// Integer block buffers: `[..L]` holds a block on the portable path,
    /// `[L..2L]` the bounced block when `L` > [`TYPED_BOUNCE`].
    resid: &'q mut Vec<i64>,
    /// The bounced block's elements when `L` ≤ [`TYPED_BOUNCE`], decoded
    /// like any whole block (fused where it can be).
    typed: [T; TYPED_BOUNCE],
    /// The block in the bounce (`usize::MAX` when empty), decoded once
    /// and dealt out to every row part it holds.
    bounced: usize,
    /// Block offsets are never stored (paper Eq 2): `off` is the payload
    /// offset of block `next`, kept by one forward scan of fraction ⓐ
    /// that folds in the sizes of the blocks it skips.
    next: usize,
    off: usize,
    read: usize,
}

impl<'c, 'q, T: FloatData> BlockDecoder<'c, 'q, T> {
    /// A decoder over `c`, whose block length is at most 4096 (checked by
    /// the caller), with both integer blocks grown up front so a warm
    /// arena serves any later row shape without allocating.
    fn new(c: CompressedRef<'c>, level: SimdLevel, resid: &'q mut Vec<i64>) -> Self {
        let l = c.block_len as usize;
        grow(resid, 2 * l);
        BlockDecoder {
            c,
            l,
            n: c.num_elements as usize,
            level,
            vec_f: if l == 32 && level == SimdLevel::Avx2 {
                simd::block32_max_f(level)
            } else {
                0
            },
            resid,
            typed: [T::default(); TYPED_BOUNCE],
            bounced: usize::MAX,
            next: 0,
            off: 0,
            read: 0,
        }
    }

    /// Advance the Eq-2 scan to block `b`, at or after its position
    /// (blocks are visited front to back), folding in the sizes of the
    /// blocks it skips.
    #[inline]
    fn skip_to(&mut self, b: usize) {
        debug_assert!(b >= self.next, "blocks are visited front to back");
        for &f in &self.c.fixed_lengths[self.next..b] {
            assert!(f <= 64, "invalid stream: fixed length exceeds 64");
            self.off += cmp_bytes_for(f, self.l) as usize;
        }
        self.next = b;
    }

    /// Payload bytes of block `b`, at or after the scan's position.
    #[inline]
    fn payload(&mut self, b: usize) -> &'c [u8] {
        self.skip_to(b);
        let at = self.off;
        self.skip_to(b + 1);
        self.read += self.off - at;
        self.c
            .payload
            .get(at..self.off)
            .expect("invalid stream: payload shorter than the Eq-2 span of the requested blocks")
    }

    /// Decode `dsts.len()` rows of `k` whole `L = 32` blocks each, the
    /// first starting at block `b0` and each following the previous one
    /// on in the stream, into `out[dsts[r]..]`: **one**
    /// [`simd::decode_rows32`] call, so [`SimdLevel::Avx512`] only.
    fn rows(&mut self, b0: usize, k: usize, dsts: &[usize], out: &mut [T]) {
        self.skip_to(b0);
        let b1 = b0 + dsts.len() * k;
        let span = simd::decode_rows32(
            &self.c.fixed_lengths[b0..b1],
            self.c.payload.get(self.off..).unwrap_or_default(),
            self.c.lorenzo,
            self.c.eb,
            k,
            dsts,
            out,
        );
        self.next = b1;
        self.off += span;
        self.read += span;
    }

    /// Decode whole blocks `b0..b1` into `out` (the elements
    /// `b0·L .. min(b1·L, N)`).
    ///
    /// At [`SimdLevel::Avx512`] with `L = 32`, the full blocks of the run
    /// are **one** kernel call, the one-row case of [`Self::rows`]: it
    /// undoes the bit-plane layout *and* dequantizes in registers,
    /// storing finished elements straight to `out`, and fills zero blocks
    /// with `+0.0`. The quantization integers never exist in memory.
    /// ([`decode_window`] hands rows of whole blocks to [`Self::rows`]
    /// a batch at a time; this path serves a lone run, such as the whole
    /// blocks of a row part.) Elsewhere, three exits per block:
    ///
    /// - **Zero block** (`F = 0`): `dequantize(0)` is exactly `+0.0` for
    ///   both element types, so the block is a plain fill — sparse decode
    ///   degenerates to memset speed.
    /// - **Fused vector path** (full `L = 32` block with `F` within the
    ///   AVX2 tier's [`simd::block32_max_f`]): [`simd::decode_block32_to`],
    ///   fused as above, one block per call.
    /// - **Portable strip codec** (everything else, including the ragged
    ///   final block at every tier): decode into the integer scratch, then
    ///   dequantize that block.
    fn whole(&mut self, b0: usize, b1: usize, out: &mut [T]) {
        let (l, n) = (self.l, self.n);
        let mut first = b0;
        if self.level == SimdLevel::Avx512 && l == 32 {
            // A ragged final block is left to the loop below.
            let run_end = b1.min(n / l);
            if run_end > b0 {
                self.rows(b0, run_end - b0, &[0], out);
                first = run_end;
            }
        }
        for b in first..b1 {
            let start = b * l;
            let dst = &mut out[start - b0 * l..(start + l).min(n) - b0 * l];
            let f = self.c.fixed_lengths[b];
            if f == 0 {
                dst.fill(T::from_f64(0.0));
                continue;
            }
            let bytes = self.payload(b);
            if f <= self.vec_f && dst.len() == l {
                simd::decode_block32_to(self.level, bytes, f, self.c.lorenzo, self.c.eb, dst);
            } else {
                let q = &mut self.resid[..l];
                decode_block(bytes, f, self.c.lorenzo, l, q);
                simd::dequantize_slice(self.level, q, self.c.eb, dst);
            }
        }
    }

    /// Elements `lo..hi` (block-local) of block `b`, through the bounce:
    /// the block is decoded the first time a row part asks for it.
    fn part(&mut self, b: usize, lo: usize, hi: usize, out: &mut [T]) {
        let l = self.l;
        if l <= TYPED_BOUNCE {
            if self.bounced != b {
                let mut typed = self.typed;
                self.whole(b, b + 1, &mut typed[..(b * l + l).min(self.n) - b * l]);
                self.typed = typed;
                self.bounced = b;
            }
            out.copy_from_slice(&self.typed[lo..hi]);
            return;
        }
        if self.bounced != b {
            let f = self.c.fixed_lengths[b];
            if f == 0 {
                self.resid[l..2 * l].fill(0);
            } else {
                let bytes = self.payload(b);
                decode_block(bytes, f, self.c.lorenzo, l, &mut self.resid[l..2 * l]);
            }
            self.bounced = b;
        }
        let bounce = &self.resid[l..2 * l];
        simd::dequantize_slice(self.level, &bounce[lo..hi], self.c.eb, out);
    }

    /// Decode elements `lo..hi` of the stream into `out`: whole blocks
    /// straight into place, a partial head or tail block through the
    /// bounce.
    fn span(&mut self, lo: usize, hi: usize, out: &mut [T]) {
        let (l, n) = (self.l, self.n);
        let mut at = lo;
        let b = at / l;
        let block_end = (b * l + l).min(n);
        if at > b * l || block_end > hi {
            let stop = block_end.min(hi);
            self.part(b, at - b * l, stop - b * l, &mut out[..stop - lo]);
            at = stop;
        }
        if at < hi {
            // `at` is block-aligned here. Blocks that end by `hi` are
            // whole; at the stream's end that includes the ragged block.
            let b0 = at / l;
            let b1 = if hi == n { n.div_ceil(l) } else { hi / l };
            if b1 > b0 {
                let stop = (b1 * l).min(n);
                self.whole(b0, b1, &mut out[at - lo..stop - lo]);
                at = stop;
            }
            if at < hi {
                self.part(b1, 0, hi - at, &mut out[at - lo..]);
            }
        }
    }
}

/// Panic unless `c`'s metadata is structurally usable by the decoder and
/// its element type is `T`.
fn check_decode_args<T: FloatData>(c: &CompressedRef<'_>) {
    assert_eq!(c.dtype, T::DTYPE, "stream element type mismatch");
    if let Err(e) = check_header(c.block_len, c.eb) {
        panic!("invalid stream: {e}");
    }
    assert_eq!(
        c.fixed_lengths.len(),
        c.num_blocks(),
        "invalid stream: fixed-length table size"
    );
}

/// Decompress a stream into a fresh `Vec`. Identical output to
/// [`crate::host_ref::decompress`].
///
/// # Panics
/// Panics if the stream is structurally invalid or was compressed from a
/// different element type than `T`.
pub fn decompress<T: FloatData>(c: &Compressed) -> Vec<T> {
    let mut out = vec![T::default(); c.num_elements as usize];
    decompress_into(c.as_ref(), &mut Scratch::new(), &mut out);
    out
}

/// Decompress into a caller-owned slice, reusing `scratch` for the
/// block buffers. With a warm arena the call performs **zero heap
/// allocations**. Accepts the borrowed stream form, so a stream parsed
/// out of a container ([`CompressedRef::parse`]) decodes without its
/// payload ever being copied.
///
/// # Panics
/// Panics if the stream is structurally invalid, was compressed from a
/// different element type than `T`, or `out.len() != num_elements`.
pub fn decompress_into<T: FloatData>(c: CompressedRef<'_>, scratch: &mut Scratch, out: &mut [T]) {
    decompress_into_at(c, scratch, None, out)
}

/// [`decompress_into`] at an explicit dispatch tier (`None` ⇒
/// `CUSZP_SIMD`, then runtime detection — see [`simd::resolve_level`]).
/// Output bytes are identical at every tier; this exists so callers that
/// carry a [`CuszpConfig`] (and the per-tier test and benchmark rows) can
/// pin decompression to the same tier as compression.
pub fn decompress_into_at<T: FloatData>(
    c: CompressedRef<'_>,
    scratch: &mut Scratch,
    simd_level: Option<SimdLevel>,
    out: &mut [T],
) {
    assert_eq!(c.dtype, T::DTYPE, "stream element type mismatch");
    // The exact-length check matters for a whole-stream decode: a
    // payload longer than Eq 2 accounts for is malformed even though no
    // block would read past it. The fixed-length cap is the bit-plane
    // layout's 64, not `DType::max_fixed_len()`: extreme f32
    // amplitude/bound combinations legitimately push F past 33.
    if let Err(e) = c.validate() {
        panic!("invalid stream: {e}");
    }
    let n = c.num_elements as usize;
    assert_eq!(out.len(), n, "output slice length != num_elements");
    if n > 0 {
        let mut dec = BlockDecoder::new(c, simd::resolve_level(simd_level), &mut scratch.resid);
        dec.span(0, n, out);
    }
}

/// Decode **only** blocks `[blocks.start, blocks.end)` of a stream into
/// `out` — the block-granular random-access entry point, and the
/// one-row case of [`decompress_rows_into`].
///
/// `out` must cover exactly the elements those blocks hold:
/// `min(blocks.end·L, N) − blocks.start·L` (the final block may be
/// ragged). Returns the number of **payload bytes read** — the Eq-2 span
/// of the requested blocks — which is what a random-access store asserts
/// its bytes-touched accounting against: nothing outside that span plus
/// fraction ⓐ is ever dereferenced.
///
/// Like [`decompress_into`], the stream is accepted in borrowed form, so
/// a block read out of a container or a memory-mapped shard decodes
/// without the payload ever being copied; with a warm [`Scratch`] the
/// call performs **zero heap allocations**. Fraction ⓐ is scanned up to
/// `blocks.end` to rebuild the offsets (the per-block offset table is
/// never stored — paper Eq 2), so cost scales with the *position* of the
/// range in the F table but the payload traffic scales only with the
/// range *size*.
///
/// # Panics
/// Panics if the stream metadata is structurally invalid, the dtype
/// mismatches `T`, the block range is out of bounds, `out` has the wrong
/// length, or the payload ends before the requested span does.
pub fn decompress_blocks_into<T: FloatData>(
    c: CompressedRef<'_>,
    blocks: std::ops::Range<usize>,
    scratch: &mut Scratch,
    out: &mut [T],
) -> usize {
    check_decode_args::<T>(&c);
    let l = c.block_len as usize;
    let (b0, b1) = (blocks.start, blocks.end);
    assert!(
        b0 <= b1 && b1 <= c.num_blocks(),
        "block range out of bounds"
    );
    let covered = (b1 * l).min(c.num_elements as usize).saturating_sub(b0 * l);
    assert_eq!(
        out.len(),
        covered,
        "output slice length != elements covered by the block range"
    );
    if covered == 0 {
        return 0;
    }
    decompress_rows_into(c, &RowLayout::contiguous(b0 * l, covered), scratch, out)
}

/// Decode the elements `rows` selects and write each row straight to its
/// place in `out` (row `(src, dst)` fills `out[dst..dst + row_len]`).
/// Returns the payload bytes read.
///
/// The decoder makes one Eq-2 scan of fraction ⓐ, up to the last block
/// the rows touch, and decodes each touched block **once**, in order: a
/// block inside one row is decoded straight into `out`; a block that
/// straddles a row end or a box edge is decoded once into a one-block
/// bounce and dealt out to every row part it holds. Blocks no row
/// touches are skipped, and their payload is never read. With a warm
/// [`Scratch`] the call performs **zero heap allocations**.
///
/// # Panics
/// Panics if the stream metadata is structurally invalid, the dtype
/// mismatches `T`, the rows reach past the stream's elements, `out` is
/// shorter than [`RowLayout::dst_len`], or the payload ends before a
/// touched block's span does.
pub fn decompress_rows_into<T: FloatData>(
    c: CompressedRef<'_>,
    rows: &RowLayout,
    scratch: &mut Scratch,
    out: &mut [T],
) -> usize {
    check_decode_args::<T>(&c);
    assert!(
        rows.src_end() <= c.num_elements as usize,
        "rows reach past the stream's elements"
    );
    assert!(rows.dst_len() <= out.len(), "output shorter than the rows");
    let mut walk = RowWalk::new(rows);
    decode_window(c, 0, &mut walk, simd::resolve_level(None), scratch, out)
}

/// Most rows one [`simd::decode_rows32`] call takes, their destinations
/// on the stack: the 128 rows of a `[4, 32, 128]` store chunk are one
/// batch.
const ROW_BATCH: usize = 128;

/// Decode every part of `walk`'s rows that lies in stream `c`, whose
/// element 0 is element `base` of the rows' source coordinates, and
/// advance the walk past them. A row running past the stream's end stays
/// current from the stream's end on. Returns the payload bytes read.
///
/// `c` must be structurally valid (the caller checks); the walk must not
/// start before `base`.
pub(crate) fn decode_window<T: FloatData>(
    c: CompressedRef<'_>,
    base: usize,
    walk: &mut RowWalk<'_>,
    level: SimdLevel,
    scratch: &mut Scratch,
    out: &mut [T],
) -> usize {
    let end = base + c.num_elements as usize;
    let mut dec = BlockDecoder::new(c, level, &mut scratch.resid);
    // At the AVX-512 tier with `L = 32`, whole-block rows that follow each
    // other on in the stream go to the row kernel a batch per call.
    let batch = level == SimdLevel::Avx512 && dec.l == 32;
    let mut dsts = [0usize; ROW_BATCH];
    while let Some((src, dst, len)) = walk.seg() {
        if src >= end {
            break;
        }
        debug_assert!(src >= base, "the walk starts inside the stream");
        if batch && (src - base).is_multiple_of(32) && len.is_multiple_of(32) {
            let rows = walk.take_rows(end, &mut dsts);
            if rows > 0 {
                dec.rows((src - base) / 32, len / 32, &dsts[..rows], out);
                continue;
            }
        }
        let stop = (src + len).min(end);
        dec.span(src - base, stop - base, &mut out[dst..dst + (stop - src)]);
        walk.done_to(stop);
    }
    dec.read
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host_ref;
    use crate::FormatError;

    fn wave(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.02).sin() * 40.0 + (i as f32 * 0.11).cos() * 3.0)
            .collect()
    }

    fn assert_identical(data: &[f32], eb: f64, cfg: CuszpConfig) {
        let reference = host_ref::compress(data, eb, cfg);
        let fast = compress(data, eb, cfg);
        assert_eq!(fast, reference, "compress");
        let back: Vec<f32> = decompress(&fast);
        assert_eq!(back, host_ref::decompress::<f32>(&reference), "decompress");
        // The arena entry points, with a deliberately dirty scratch and
        // reused output, must serialize and decode identically.
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        compress_into(&mut scratch, &wave(3 * data.len() + 77), eb, cfg, &mut out);
        let r = compress_into(&mut scratch, data, eb, cfg, &mut out);
        assert_eq!(r.to_owned(), reference, "compress_into");
        assert_eq!(out, reference.to_bytes(), "serialized");
        let mut into_back = vec![0f32; data.len()];
        decompress_into(reference.as_ref(), &mut scratch, &mut into_back);
        assert_eq!(into_back, back, "decompress_into");
    }

    #[test]
    fn byte_identical_to_host_ref() {
        assert_identical(&wave(5000), 0.01, CuszpConfig::default());
    }

    #[test]
    fn tail_blocks_identical() {
        for n in [1usize, 7, 31, 32, 33, 40, 100, 1023] {
            assert_identical(&wave(n), 0.005, CuszpConfig::default());
        }
    }

    #[test]
    fn no_lorenzo_identical() {
        let cfg = CuszpConfig {
            lorenzo: false,
            ..Default::default()
        };
        assert_identical(&wave(777), 0.02, cfg);
    }

    #[test]
    fn block_len_variants_identical() {
        for l in [8usize, 16, 64, 128] {
            let cfg = CuszpConfig {
                block_len: l,
                ..Default::default()
            };
            assert_identical(&wave(530), 0.01, cfg);
        }
    }

    #[test]
    fn spans_many_tiles_identical() {
        // More than one tile, so tile boundaries are exercised.
        assert_identical(
            &wave(3 * tune::TILE_ELEMS + 17),
            0.01,
            CuszpConfig::default(),
        );
    }

    #[test]
    fn forced_tiers_identical() {
        // Every tier at or below the detected one must produce the same
        // bytes and reconstructions as the scalar reference.
        let data = wave(4321);
        let reference = host_ref::compress(&data, 0.01, CuszpConfig::default());
        let full = host_ref::decompress::<f32>(&reference);
        for level in SimdLevel::ALL {
            if level > simd::detect_level() {
                continue;
            }
            let cfg = CuszpConfig {
                simd: Some(level),
                ..Default::default()
            };
            let c = compress(&data, 0.01, cfg);
            assert_eq!(c, reference, "compress at {level}");
            let mut back = vec![0f32; data.len()];
            decompress_into_at(c.as_ref(), &mut Scratch::new(), Some(level), &mut back);
            assert_eq!(back, full, "decompress at {level}");
        }
    }

    #[test]
    fn wide_residuals_identical() {
        // Large magnitudes + tiny bound pushes F past one 8-plane chunk.
        let data: Vec<f32> = (0..640).map(|i| (i as f32 * 0.37).sin() * 3.0e7).collect();
        assert_identical(&data, 1e-4, CuszpConfig::default());
    }

    #[test]
    fn empty_input() {
        let c = compress::<f32>(&[], 0.1, CuszpConfig::default());
        assert_eq!(c.num_blocks(), 0);
        assert!(decompress::<f32>(&c).is_empty());
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        let r = compress_into::<f32>(&mut scratch, &[], 0.1, CuszpConfig::default(), &mut out);
        assert_eq!(r.to_owned(), c);
        decompress_into::<f32>(c.as_ref(), &mut scratch, &mut []);
    }

    #[test]
    fn all_zero_blocks() {
        let data = vec![0.0f32; 256];
        let c = compress(&data, 0.001, CuszpConfig::default());
        assert!(c.payload.is_empty());
        assert_eq!(decompress::<f32>(&c), data);
    }

    #[test]
    fn f64_identical() {
        let data: Vec<f64> = (0..900).map(|i| (i as f64 * 0.013).sin() * 1e5).collect();
        let reference = host_ref::compress(&data, 0.5, CuszpConfig::default());
        let fast = compress(&data, 0.5, CuszpConfig::default());
        assert_eq!(fast, reference);
        let back: Vec<f64> = decompress(&fast);
        assert_eq!(back, host_ref::decompress::<f64>(&reference));
    }

    #[test]
    fn dirty_arena_reused_across_shapes() {
        // One arena and one output buffer across wildly different shapes,
        // dtypes, and configs: results must match fresh-arena calls.
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        for n in [4096usize, 17, 1024, 40_000, 1] {
            let data = wave(n);
            let reference = compress(&data, 0.01, CuszpConfig::default());
            let r = compress_into(&mut scratch, &data, 0.01, CuszpConfig::default(), &mut out);
            assert_eq!(r.to_owned(), reference, "n={n}");
            let mut back = vec![0f32; n];
            decompress_into(reference.as_ref(), &mut scratch, &mut back);
            assert_eq!(back, decompress::<f32>(&reference), "n={n}");
        }
        let doubles: Vec<f64> = (0..999).map(|i| (i as f64 * 0.4).cos() * 77.0).collect();
        let reference = compress(&doubles, 0.05, CuszpConfig::default());
        let r = compress_into(
            &mut scratch,
            &doubles,
            0.05,
            CuszpConfig::default(),
            &mut out,
        );
        assert_eq!(r.to_owned(), reference);
        assert!(scratch.capacity_bytes() > 0);
    }

    #[test]
    fn compress_with_matches_plain() {
        // The second call reuses the arena dirty from a larger shape.
        let mut scratch = Scratch::new();
        for n in [9000usize, 100] {
            let data = wave(n);
            let c = compress_with(&mut scratch, &data, 0.02, CuszpConfig::default());
            assert_eq!(c, compress(&data, 0.02, CuszpConfig::default()), "n={n}");
        }
    }

    #[test]
    fn compress_into_roundtrips_through_parse() {
        // The bytes in `out` are a complete wire-format stream.
        let data = wave(3210);
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        compress_into(&mut scratch, &data, 0.01, CuszpConfig::default(), &mut out);
        let parsed = CompressedRef::parse(&out).expect("well-formed stream");
        let mut back = vec![0f32; data.len()];
        decompress_into(parsed, &mut scratch, &mut back);
        assert_eq!(back, decompress::<f32>(&parsed.to_owned()));
    }

    #[test]
    #[should_panic(expected = "output slice length")]
    fn decompress_into_checks_output_length() {
        let c = compress(&wave(100), 0.01, CuszpConfig::default());
        let mut out = vec![0f32; 99];
        decompress_into(c.as_ref(), &mut Scratch::new(), &mut out);
    }

    #[test]
    fn block32_codec_matches_generic() {
        // Deterministic pseudo-random residuals exercising every f each
        // tier covers, signs, zeros, and the exact 2^f−1 magnitude
        // boundaries — the vector encoders must emit the generic strip
        // codec's bytes, and the fused decoders must reproduce generic
        // decode + dequantize for both element types. AVX-512 decodes
        // each block as a run of one, and each f's trials again as one
        // run with a zero block after every coded one.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let eb = 0.01;
        for level in [SimdLevel::Avx2, SimdLevel::Avx512] {
            if level > simd::detect_level() {
                continue;
            }
            for f in 1u8..=simd::block32_max_f(level) {
                // The run of every trial: fixed lengths, payload, and the
                // expected elements per `lorenzo`.
                let mut run_fls = Vec::new();
                let mut run_payload = Vec::new();
                let mut run_f32_want = [Vec::new(), Vec::new()];
                let mut run_f64_want = [Vec::new(), Vec::new()];
                for trial in 0..20 {
                    let top = if f == 64 { u64::MAX } else { (1u64 << f) - 1 };
                    let resid: Vec<i64> = (0..32)
                        .map(|i| {
                            let mag = if trial == 0 && i < 4 {
                                top
                            } else {
                                rng() & top
                            };
                            let v = mag as i64;
                            if rng() & 1 == 0 {
                                v.wrapping_neg()
                            } else {
                                v
                            }
                        })
                        .collect();
                    let cmp = cmp_bytes_for(f, 32) as usize;
                    let mut want = vec![0u8; cmp];
                    encode_block(&resid, f, &mut want);
                    let mut got = vec![0u8; cmp];
                    if level == SimdLevel::Avx512 {
                        simd::encode_blocks32(&resid, &[f], &mut got);
                    } else {
                        simd::encode_block32(level, &resid, f, &mut got);
                    }
                    assert_eq!(got, want, "encode {level} f={f} trial={trial}");
                    run_fls.extend([f, 0]);
                    run_payload.extend_from_slice(&want);

                    for lorenzo in [false, true] {
                        let mut q_want = vec![0i64; 32];
                        decode_block(&want, f, lorenzo, 32, &mut q_want);
                        let mut f32_want = vec![0f32; 32];
                        simd::dequantize_slice(SimdLevel::Scalar, &q_want, eb, &mut f32_want);
                        let mut f64_want = vec![0f64; 32];
                        simd::dequantize_slice(SimdLevel::Scalar, &q_want, eb, &mut f64_want);

                        let mut f32_got = vec![0f32; 32];
                        let mut f64_got = vec![0f64; 32];
                        if level == SimdLevel::Avx512 {
                            simd::decode_run32(&[f], &want, lorenzo, eb, &mut f32_got);
                            simd::decode_run32(&[f], &want, lorenzo, eb, &mut f64_got);
                        } else {
                            simd::decode_block32_to(level, &want, f, lorenzo, eb, &mut f32_got);
                            simd::decode_block32_to(level, &want, f, lorenzo, eb, &mut f64_got);
                        }
                        let tag = format!("{level} f={f} lorenzo={lorenzo} trial={trial}");
                        assert_eq!(f32_got, f32_want, "fused f32 decode {tag}");
                        assert_eq!(f64_got, f64_want, "fused f64 decode {tag}");
                        let li = usize::from(lorenzo);
                        run_f32_want[li].extend(f32_want.iter().chain(&[0.0; 32]));
                        run_f64_want[li].extend(f64_want.iter().chain(&[0.0; 32]));
                    }
                }
                if level != SimdLevel::Avx512 {
                    continue;
                }
                for lorenzo in [false, true] {
                    let li = usize::from(lorenzo);
                    let mut f32_got = vec![f32::NAN; 32 * run_fls.len()];
                    let read =
                        simd::decode_run32(&run_fls, &run_payload, lorenzo, eb, &mut f32_got);
                    assert_eq!(read, run_payload.len(), "run span f={f}");
                    let mut f64_got = vec![f64::NAN; 32 * run_fls.len()];
                    simd::decode_run32(&run_fls, &run_payload, lorenzo, eb, &mut f64_got);
                    let tag = format!("{level} run f={f} lorenzo={lorenzo}");
                    assert_eq!(f32_got, run_f32_want[li], "fused f32 decode {tag}");
                    assert_eq!(f64_got, run_f64_want[li], "fused f64 decode {tag}");
                }
            }
        }
    }

    /// A deterministic xorshift64 stream.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// An `L = 32` stream of `n` elements whose block `k` has fixed
    /// length `fls[k]`, written by the strip encoder from random
    /// residuals below `2^F` in magnitude (the first at `2^F − 1`).
    fn stream_of(
        fls: &[u8],
        n: usize,
        lorenzo: bool,
        dtype: crate::DType,
        seed: u64,
    ) -> Compressed {
        assert_eq!(fls.len(), n.div_ceil(32));
        let mut rng = xorshift(seed);
        let mut payload = Vec::new();
        for &f in fls.iter().filter(|&&f| f > 0) {
            let top = if f == 64 { u64::MAX } else { (1u64 << f) - 1 };
            let resid: Vec<i64> = (0..32)
                .map(|i| {
                    let v = (if i == 0 { top } else { rng() & top }) as i64;
                    if rng() & 1 == 0 {
                        v.wrapping_neg()
                    } else {
                        v
                    }
                })
                .collect();
            let at = payload.len();
            payload.resize(at + cmp_bytes_for(f, 32) as usize, 0);
            encode_block(&resid, f, &mut payload[at..]);
        }
        Compressed {
            num_elements: n as u64,
            block_len: 32,
            eb: 0.01,
            lorenzo,
            dtype,
            fixed_lengths: fls.to_vec(),
            payload,
        }
    }

    /// The portable strip codec's decode of `c`, block by block:
    /// [`decode_block`] then scalar [`simd::dequantize_slice`], and `+0.0`
    /// for a zero block.
    fn strip_decode<T: FloatData>(c: &Compressed) -> Vec<T> {
        let mut out = vec![T::default(); 32 * c.num_blocks()];
        let mut q = [0i64; 32];
        let mut off = 0;
        for (dst, &f) in out.chunks_exact_mut(32).zip(&c.fixed_lengths) {
            if f == 0 {
                dst.fill(T::from_f64(0.0));
                continue;
            }
            let cmp = cmp_bytes_for(f, 32) as usize;
            decode_block(&c.payload[off..off + cmp], f, c.lorenzo, 32, &mut q);
            simd::dequantize_slice(SimdLevel::Scalar, &q, c.eb, dst);
            off += cmp;
        }
        out.truncate(c.num_elements as usize);
        out
    }

    /// The tiers this host runs.
    fn tiers() -> impl Iterator<Item = SimdLevel> {
        SimdLevel::ALL
            .into_iter()
            .filter(|&l| l <= simd::detect_level())
    }

    /// Every `F` in 0..=64 as a run of one, then runs of 2, 7 and 256
    /// blocks that mix zero and coded blocks (the 256-block run visits
    /// every `F` several times).
    fn run_patterns() -> Vec<Vec<u8>> {
        let mut runs: Vec<Vec<u8>> = (0..=64).map(|f| vec![f]).collect();
        runs.push(vec![0, 17]);
        runs.push(vec![3, 0, 64, 16, 0, 0, 33]);
        runs.push(
            (0..256)
                .map(|k| if k % 4 == 3 { 0 } else { (k * 7 % 65) as u8 })
                .collect(),
        );
        runs
    }

    fn assert_runs_decode_identically<T: FloatData + std::fmt::Debug>() {
        let avx512 = simd::detect_level() == SimdLevel::Avx512;
        let mut scratch = Scratch::new();
        for lorenzo in [false, true] {
            for (i, run) in run_patterns().into_iter().enumerate() {
                // The run alone, then followed by a ragged final block.
                for ragged in [false, true] {
                    let mut fls = run.clone();
                    let mut n = 32 * fls.len();
                    if ragged {
                        fls.push(11);
                        n += 9;
                    }
                    let c = stream_of(&fls, n, lorenzo, T::DTYPE, 0x9E37_79B9 + i as u64);
                    let want = strip_decode::<T>(&c);
                    let tag = format!("{:?} run {i} {fls:?} lorenzo={lorenzo}", T::DTYPE);
                    assert_eq!(want, host_ref::decompress::<T>(&c), "host_ref, {tag}");
                    if avx512 && !ragged {
                        let mut got = vec![T::default(); n];
                        let read = simd::decode_run32(&fls, &c.payload, lorenzo, c.eb, &mut got);
                        assert_eq!(got, want, "decode_run32, {tag}");
                        assert_eq!(read, c.payload.len(), "decode_run32 span, {tag}");
                    }
                    for level in tiers() {
                        let mut got = vec![T::default(); n];
                        decompress_into_at(c.as_ref(), &mut scratch, Some(level), &mut got);
                        assert_eq!(got, want, "decompress at {level}, {tag}");
                    }
                }
            }
        }
    }

    #[test]
    fn runs_decode_identically_f32() {
        assert_runs_decode_identically::<f32>();
    }

    #[test]
    fn runs_decode_identically_f64() {
        assert_runs_decode_identically::<f64>();
    }

    #[test]
    fn runs_decode_identically_into_rows() {
        // Rows of one to five whole blocks (left unmerged by the padded
        // output), then rows half a block longer, whose blocks straddle
        // rows and go through the bounce; each box also in part.
        let mut scratch = Scratch::new();
        for k in 1..=5usize {
            for extra in [0usize, 16] {
                let row_len = 32 * k + extra;
                let dims = [6usize, row_len];
                let n = 6 * row_len;
                let fls: Vec<u8> = (0..n.div_ceil(32))
                    .map(|b| if b % 3 == 1 { 0 } else { (b * 11 % 65) as u8 })
                    .collect();
                let c = stream_of(&fls, n, true, crate::DType::F32, k as u64);
                let full = strip_decode::<f32>(&c);
                for (lo, hi) in [([0usize, 0], [6usize, row_len]), ([1, 5], [5, row_len - 3])] {
                    let strides = padded_strides(&lo, &hi, 3);
                    let rows = RowLayout::of_box(&dims, &lo, &hi, &strides);
                    for level in tiers() {
                        let what = format!("rows of {row_len}, {lo:?}..{hi:?} at {level}");
                        let mut out = vec![f32::NAN; rows.dst_len() + 5];
                        let mut walk = RowWalk::new(&rows);
                        let read =
                            decode_window(c.as_ref(), 0, &mut walk, level, &mut scratch, &mut out);
                        let mut written = vec![false; out.len()];
                        for (src, dst) in rows.iter() {
                            let got = &out[dst..dst + row_len.min(hi[1] - lo[1])];
                            assert_eq!(got, &full[src..src + got.len()], "{what}");
                            written[dst..dst + got.len()].fill(true);
                        }
                        for (v, w) in out.iter().zip(&written) {
                            assert!(*w || v.is_nan(), "{what}: wrote outside the rows");
                        }
                        let want: usize = rows
                            .block_runs(32)
                            .map(|(b, _)| c.payload_span(b).unwrap().len())
                            .sum();
                        assert_eq!(read, want, "{what}: bytes read");
                    }
                }
            }
        }
    }

    /// The row boxes the batch tests decode, over an array whose rows
    /// are `k` whole blocks: the whole array, a box of whole rows, a box
    /// whose rows skip the first block (a gap in the stream between
    /// rows), and, in 3-D, a box that skips rows within each plane.
    fn batch_boxes(k: usize, three_d: bool) -> Vec<(Vec<usize>, Vec<usize>, Vec<usize>)> {
        let w = 32 * k;
        let (dims, inner, skip) = if three_d {
            let skip = (vec![0, 0, 32], vec![3, 5, w]);
            (vec![3usize, 5, w], (vec![1, 1, 0], vec![3, 4, w]), skip)
        } else {
            (
                vec![13usize, w],
                (vec![2, 0], vec![11, w]),
                (vec![0, 32], vec![13, w]),
            )
        };
        let zero = vec![0; dims.len()];
        let mut boxes = vec![(dims.clone(), zero, dims.clone())];
        boxes.push((dims.clone(), inner.0, inner.1));
        if k > 1 {
            boxes.push((dims, skip.0, skip.1));
        }
        boxes
    }

    /// Fixed lengths that mix zero and coded blocks and, over
    /// `k = 1..=5`, visit every `F` in 0..=64.
    fn batch_fls(blocks: usize, k: usize) -> Vec<u8> {
        (0..blocks)
            .map(|b| {
                if b % 4 == 3 {
                    0
                } else {
                    ((b * 7 + k) % 65) as u8
                }
            })
            .collect()
    }

    /// Decode `rows` of stream `c` with [`decode_window`] at `level` into
    /// a NaN-filled output and check every element: inside a row (up to
    /// the stream's end) it equals `full`, anywhere else it is still NaN.
    /// Also checks the bytes read against the touched blocks' Eq-2 span.
    fn assert_rows_decode<T: FloatData>(
        c: &Compressed,
        rows: &RowLayout,
        full: &[T],
        level: SimdLevel,
        scratch: &mut Scratch,
        what: &str,
    ) {
        let n = c.num_elements as usize;
        let mut out = vec![T::from_f64(f64::NAN); rows.dst_len() + 7];
        let mut walk = RowWalk::new(rows);
        let read = decode_window(c.as_ref(), 0, &mut walk, level, scratch, &mut out);
        let mut written = vec![false; out.len()];
        let mut want_read = 0;
        for (src, dst) in rows.iter() {
            let len = rows.row_len().min(n.saturating_sub(src));
            assert_eq!(
                &out[dst..dst + len],
                &full[src..src + len],
                "{what} at {src}"
            );
            written[dst..dst + len].fill(true);
            if len > 0 {
                want_read += c
                    .payload_span(src / 32..(src + len).div_ceil(32))
                    .unwrap()
                    .len();
            }
        }
        for (i, (v, w)) in out.iter().zip(&written).enumerate() {
            assert!(
                *w || v.to_f64().is_nan(),
                "{what}: wrote outside the rows at {i}"
            );
        }
        assert_eq!(read, want_read, "{what}: bytes read");
    }

    fn assert_row_batches_decode_identically<T: FloatData>() {
        let mut scratch = Scratch::new();
        let mut seen = [false; 65];
        for lorenzo in [false, true] {
            for k in 1..=5usize {
                for three_d in [false, true] {
                    for (dims, lo, hi) in batch_boxes(k, three_d) {
                        let n: usize = dims.iter().product();
                        let fls = batch_fls(n / 32, k);
                        fls.iter().for_each(|&f| seen[f as usize] = true);
                        let c = stream_of(&fls, n, lorenzo, T::DTYPE, 0xB47C + k as u64);
                        let full = strip_decode::<T>(&c);
                        assert_eq!(full, host_ref::decompress::<T>(&c), "host_ref, k = {k}");
                        let strides = padded_strides(&lo, &hi, 5);
                        let rows = RowLayout::of_box(&dims, &lo, &hi, &strides);
                        for level in tiers() {
                            let what = format!(
                                "{:?} k = {k} {lo:?}..{hi:?} lorenzo={lorenzo} at {level}",
                                T::DTYPE
                            );
                            assert_rows_decode(&c, &rows, &full, level, &mut scratch, &what);
                            // The per-row path: one call per row.
                            let mut per_row = vec![T::from_f64(f64::NAN); rows.dst_len()];
                            for (src, dst) in rows.iter() {
                                let one = RowLayout::contiguous(src, rows.row_len());
                                let mut walk = RowWalk::new(&one);
                                let out = &mut per_row[dst..];
                                decode_window(c.as_ref(), 0, &mut walk, level, &mut scratch, out);
                            }
                            let mut batched = vec![T::from_f64(f64::NAN); rows.dst_len()];
                            let mut walk = RowWalk::new(&rows);
                            decode_window(
                                c.as_ref(),
                                0,
                                &mut walk,
                                level,
                                &mut scratch,
                                &mut batched,
                            );
                            let same = per_row.iter().zip(&batched).all(|(a, b)| {
                                a == b || (a.to_f64().is_nan() && b.to_f64().is_nan())
                            });
                            assert!(same, "{what}: batched != per-row");
                        }
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every F in 0..=64 is covered");
    }

    #[test]
    fn row_batches_decode_identically_f32() {
        assert_row_batches_decode_identically::<f32>();
    }

    #[test]
    fn row_batches_decode_identically_f64() {
        assert_row_batches_decode_identically::<f64>();
    }

    #[test]
    fn row_batches_stop_at_the_stream_end_and_at_straddles() {
        let mut scratch = Scratch::new();
        for k in 1..=3usize {
            let w = 32 * k;
            // The stream ends 23 elements short of the last row's end:
            // the last row runs into a ragged final block, past the
            // stream, and is decoded up to the stream's end only.
            let dims = [9usize, w];
            let n = 9 * w - 23;
            let fls = batch_fls(n.div_ceil(32), k);
            let c = stream_of(&fls, n, true, crate::DType::F32, 0x5EED + k as u64);
            let full = strip_decode::<f32>(&c);
            let strides = padded_strides(&[0, 0], &dims, 3);
            let rows = RowLayout::of_box(&dims, &[0, 0], &dims, &strides);
            for level in tiers() {
                let what = format!("ragged end, k = {k} at {level}");
                assert_rows_decode(&c, &rows, &full, level, &mut scratch, &what);
            }
            // Array rows half a block longer than the box rows: every
            // other box row starts mid-block, so whole-block rows
            // alternate with rows whose blocks straddle, and gaps
            // separate them in the stream.
            let dims = [8usize, w + 16];
            let n = 8 * (w + 16);
            let fls = batch_fls(n.div_ceil(32), k);
            let c = stream_of(&fls, n, false, crate::DType::F64, 0xFACE + k as u64);
            let full = strip_decode::<f64>(&c);
            let hi = [8usize, w];
            let strides = padded_strides(&[0, 0], &hi, 3);
            let rows = RowLayout::of_box(&dims, &[0, 0], &hi, &strides);
            for level in tiers() {
                let what = format!("straddles, k = {k} at {level}");
                assert_rows_decode(&c, &rows, &full, level, &mut scratch, &what);
            }
        }
    }

    /// Decode the rows of a six-row, three-block-wide box of `c` at
    /// `level` into a NaN-filled output and return the panic message,
    /// after checking that nothing outside the rows was written.
    fn corrupt_rows_panic(c: &Compressed, level: SimdLevel) -> String {
        let dims = [6usize, 96];
        let strides = padded_strides(&[0, 0], &dims, 4);
        let rows = RowLayout::of_box(&dims, &[0, 0], &dims, &strides);
        let mut out = vec![f32::NAN; rows.dst_len()];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut walk = RowWalk::new(&rows);
            decode_window(
                c.as_ref(),
                0,
                &mut walk,
                level,
                &mut Scratch::new(),
                &mut out,
            );
        }))
        .expect_err("a corrupt stream must not decode");
        let mut inside = vec![false; out.len()];
        for (_, dst) in rows.iter() {
            inside[dst..dst + 96].fill(true);
        }
        for (i, v) in out.iter().enumerate() {
            assert!(inside[i] || v.is_nan(), "wrote outside the rows at {i}");
        }
        err.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    /// The same box through a one-chunk `Pass` hybrid frame of `c`, with
    /// `patch` applied to the frame's bytes: the chunk's re-validation
    /// must turn the corruption into a typed error, writing nothing.
    fn corrupt_rows_hybrid(c: &Compressed, patch: impl Fn(&mut Vec<u8>)) -> FormatError {
        let r = c.as_ref();
        let mut hs = crate::HybridScratch::new();
        let mut frame = Vec::new();
        let pass = Some(crate::hybrid::Mode::Pass);
        crate::hybrid::encode_with(&r, c.num_blocks(), pass, &mut hs, &mut frame);
        patch(&mut frame);
        let hr = crate::HybridRef::parse(&frame).expect("the patched frame parses");
        let dims = [6usize, 96];
        let strides = padded_strides(&[0, 0], &dims, 4);
        let rows = RowLayout::of_box(&dims, &[0, 0], &dims, &strides);
        let mut out = vec![f32::NAN; rows.dst_len()];
        let err =
            crate::hybrid::decode_rows_into(&hr, &rows, &mut hs, &mut Scratch::new(), &mut out)
                .expect_err("a corrupt chunk must not decode");
        assert!(out.iter().all(|v| v.is_nan()), "nothing is written");
        err
    }

    #[test]
    fn corrupt_row_batches_panic_or_fail_typed() {
        let fls = batch_fls(18, 3);
        // The one chunk's raw bytes follow the header and its table entry.
        let raw = crate::hybrid::HYBRID_HEADER_BYTES + crate::hybrid::TABLE_ENTRY_BYTES;
        // F = 65 in row 4's middle block.
        let c = stream_of(&fls, 18 * 32, true, crate::DType::F32, 0xBAD);
        let bad = 4 * 3 + 1;
        for level in tiers() {
            let mut wide = c.clone();
            wide.fixed_lengths[bad] = 65;
            let msg = corrupt_rows_panic(&wide, level);
            assert!(msg.contains("fixed length exceeds 64"), "{level}: {msg}");
        }
        let err = corrupt_rows_hybrid(&c, |frame| frame[raw + bad] = 65);
        assert!(matches!(err, FormatError::Corrupt(_)), "{err:?}");
        // A payload one byte short of the rows' span.
        for level in tiers() {
            let mut short = c.clone();
            short.payload.pop();
            let msg = corrupt_rows_panic(&short, level);
            assert!(msg.contains("payload shorter"), "{level}: {msg}");
        }
        let err = corrupt_rows_hybrid(&c, |frame| {
            frame.pop();
            for at in [raw - 8, raw - 4] {
                let len = u32::from_le_bytes(frame[at..at + 4].try_into().unwrap()) - 1;
                frame[at..at + 4].copy_from_slice(&len.to_le_bytes());
            }
        });
        assert_eq!(err, FormatError::Corrupt("payload size vs Eq 2"));
    }

    #[test]
    fn row_kernel_checks_its_arguments() {
        if simd::detect_level() != SimdLevel::Avx512 {
            return;
        }
        let c = stream_of(&[3, 0, 17, 64], 128, true, crate::DType::F32, 0x51);
        let panics = |dsts: &[usize], fls: &[u8], payload: &[u8], out: &mut [f32]| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                simd::decode_rows32(fls, payload, true, c.eb, 2, dsts, out)
            }))
            .is_err()
        };
        let mut out = vec![f32::NAN; 200];
        // Rows of two blocks at 0 and 136: the second ends at 200.
        let read = simd::decode_rows32(
            &c.fixed_lengths,
            &c.payload,
            true,
            c.eb,
            2,
            &[0, 136],
            &mut out,
        );
        assert_eq!(read, c.payload.len());
        let full = strip_decode::<f32>(&c);
        assert_eq!(out[..64], full[..64]);
        assert_eq!(out[136..], full[64..]);
        assert!(out[64..136].iter().all(|v| v.is_nan()));
        assert!(
            panics(&[0, 137], &c.fixed_lengths, &c.payload, &mut out),
            "past the output"
        );
        assert!(
            panics(&[0], &c.fixed_lengths, &c.payload, &mut out),
            "rows · k"
        );
        let short = &c.payload[..c.payload.len() - 1];
        assert!(
            panics(&[0, 136], &c.fixed_lengths, short, &mut out),
            "short payload"
        );
        assert!(
            panics(&[0, 136], &[3, 0, 65, 64], &c.payload, &mut out),
            "F = 65"
        );
    }

    #[test]
    #[should_panic(expected = "fixed length exceeds 64")]
    fn run_decode_rejects_a_fixed_length_over_64() {
        let mut c = stream_of(&[5, 0, 9, 12, 64, 1, 0, 3], 256, true, crate::DType::F32, 7);
        c.fixed_lengths[5] = 65;
        decompress_blocks_into(c.as_ref(), 0..8, &mut Scratch::new(), &mut [0f32; 256]);
    }

    #[test]
    #[should_panic(expected = "payload shorter")]
    fn run_decode_rejects_a_payload_short_of_the_span() {
        let mut c = stream_of(&[5, 0, 9, 12, 64, 1, 0, 3], 256, true, crate::DType::F32, 7);
        c.payload.pop();
        decompress_blocks_into(c.as_ref(), 0..8, &mut Scratch::new(), &mut [0f32; 256]);
    }

    #[test]
    fn decompress_blocks_matches_full_decode_slices() {
        let data = wave(3 * 32 * 41 + 19); // ragged final block
        let cfg = CuszpConfig::default();
        let c = compress(&data, 0.01, cfg);
        let full: Vec<f32> = decompress(&c);
        let n = data.len();
        let l = cfg.block_len;
        let num_blocks = c.num_blocks();
        let mut scratch = Scratch::new();
        let mut tile = vec![0f32; n];
        for (b0, b1) in [
            (0usize, 1usize),
            (0, num_blocks),
            (5, 6),
            (7, 40),
            (num_blocks - 1, num_blocks), // the ragged tail alone
            (3, 3),                       // empty range
        ] {
            let covered = (b1 * l).min(n) - (b0 * l).min(n);
            let out = &mut tile[..covered];
            let read = decompress_blocks_into(c.as_ref(), b0..b1, &mut scratch, out);
            assert_eq!(out, &full[b0 * l..(b1 * l).min(n)], "blocks {b0}..{b1}");
            // Bytes read match the exported Eq-2 span exactly.
            assert_eq!(read, c.payload_span(b0..b1).unwrap().len());
        }
    }

    #[test]
    fn decompress_blocks_zero_and_wide_blocks() {
        // Mix zero blocks (F = 0) with wide residuals in one stream.
        let mut data = vec![0.0f32; 8 * 32];
        for (i, v) in data.iter_mut().enumerate().skip(3 * 32).take(32) {
            *v = (i as f32 * 0.37).sin() * 3.0e7;
        }
        let c = compress(&data, 1e-4, CuszpConfig::default());
        let full: Vec<f32> = decompress(&c);
        let mut scratch = Scratch::new();
        for b in 0..8 {
            let mut out = vec![0f32; 32];
            let read = decompress_blocks_into(c.as_ref(), b..b + 1, &mut scratch, &mut out);
            assert_eq!(out, full[b * 32..(b + 1) * 32], "block {b}");
            if b == 3 {
                assert!(read > 0);
            } else {
                assert_eq!(read, 0, "zero block {b} reads no payload");
            }
        }
    }

    /// Output strides that leave `pad` unused elements after every row
    /// and every plane, so writes outside the rows would show.
    fn padded_strides(lo: &[usize], hi: &[usize], pad: usize) -> Vec<usize> {
        let d = lo.len();
        let mut strides = vec![1usize; d];
        for i in (0..d - 1).rev() {
            strides[i] = strides[i + 1] * (hi[i + 1] - lo[i + 1]) + pad;
        }
        strides
    }

    #[test]
    fn row_decode_matches_full_decode_scatter() {
        // Rows of 100 elements are not a multiple of any block length
        // here, so boxes start and end mid-block, and boundary blocks
        // hold parts of several rows. L = 64 keeps its bounced block as
        // integers, L ≤ 32 as finished elements.
        let dims = [3usize, 5, 100];
        let n: usize = dims.iter().product();
        let mut data = wave(n);
        data[300..420].iter_mut().for_each(|v| *v = 0.0); // zero blocks
        let mut scratch = Scratch::new();
        for block_len in [32usize, 64, 16] {
            let cfg = CuszpConfig {
                block_len,
                ..CuszpConfig::default()
            };
            let c = compress(&data, 1e-3, cfg);
            let full: Vec<f32> = decompress(&c);
            for (lo, hi) in [
                ([0usize, 0, 0], [3usize, 5, 100]),
                ([1, 1, 7], [3, 4, 93]),
                ([0, 2, 30], [3, 3, 35]),
                ([2, 4, 99], [3, 5, 100]),
                ([0, 0, 64], [3, 5, 96]),
                ([1, 0, 0], [2, 5, 100]),
            ] {
                for pad in [0usize, 3] {
                    let what = format!("L = {block_len}, {lo:?}..{hi:?}, pad {pad}");
                    let strides = padded_strides(&lo, &hi, pad);
                    let rows = RowLayout::of_box(&dims, &lo, &hi, &strides);
                    let mut out = vec![f32::NAN; rows.dst_len() + 5];
                    let read = decompress_rows_into(c.as_ref(), &rows, &mut scratch, &mut out);
                    let mut written = vec![false; out.len()];
                    for (src, dst) in rows.iter() {
                        for j in 0..rows.row_len() {
                            assert_eq!(out[dst + j], full[src + j], "{what} at {}", src + j);
                            written[dst + j] = true;
                        }
                    }
                    for (v, w) in out.iter().zip(&written) {
                        assert!(*w || v.is_nan(), "{what}: wrote outside the rows");
                    }
                    // Each touched block's payload is read exactly once.
                    let want: usize = rows
                        .block_runs(block_len)
                        .map(|(b, _)| c.payload_span(b).unwrap().len())
                        .sum();
                    assert_eq!(read, want, "{what}: bytes read");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "block range out of bounds")]
    fn decompress_blocks_rejects_out_of_range() {
        let c = compress(&wave(100), 0.01, CuszpConfig::default());
        let mut out = vec![0f32; 32];
        decompress_blocks_into(c.as_ref(), 4..5, &mut Scratch::new(), &mut out);
    }

    #[test]
    #[should_panic(expected = "payload shorter")]
    fn decompress_blocks_rejects_truncated_payload() {
        let mut c = compress(&wave(100), 0.01, CuszpConfig::default());
        c.payload.truncate(c.payload.len() - 1);
        // The last block is ragged: 100 − 3·32 = 4 elements.
        let mut out = vec![0f32; 4];
        decompress_blocks_into(c.as_ref(), 3..4, &mut Scratch::new(), &mut out);
    }
}
