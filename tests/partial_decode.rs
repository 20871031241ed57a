//! Differential property tests for partial decode: for random shapes,
//! bounds, and block ranges, `decode_blocks(range)` must be
//! **value-identical** to full-decode-then-slice — for every registered
//! codec, including ranges straddling chunk boundaries and the ragged
//! final block. The store-level region reader is held to an independent
//! reference — each chunk's frame decoded whole by its codec and
//! scattered element by element into the array — over random 1-, 2- and
//! 3-D shards with ragged chunk grids, rows that are not a multiple of
//! the block length and unaligned boxes, for every registered codec in
//! f32 and, where the codec supports it, f64. Its block accounting is
//! held to the row-merge rule: a region never decodes more blocks than
//! one codec call per row would, and a full read decodes each chunk's
//! blocks exactly once.
//! A single-block read from the middle of a 1-D shard is held to a
//! bytes-touched budget: one block, one chunk, and a payload share set by
//! the codec's random-access granule.
//!
//! "Every codec" is the default registry plus the raw test codec at block
//! lengths 4 and 128, which implements only the trait's required methods,
//! so its shard reads and writes run the trait's provided row walks.

#[path = "../crates/cuszp-store/tests/support/raw_codec.rs"]
mod raw_codec;

use cuszp_repro::cuszp_core::DType;
use cuszp_repro::cuszp_store::{
    write_shard, CodecScratch, ErrorBoundedCodec, FormatId, Shard, ShardElement, StoreScratch,
};
use proptest::prelude::*;

/// Lengths that stress ragged tails of every codec's block size
/// (cuSZp 32, raw 4 and 128).
fn awkward_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(4usize),
        Just(31usize),
        Just(33usize),
        Just(127usize),
        Just(129usize),
        Just(255usize),
        2usize..900,
    ]
}

fn signal(n: usize, scale: f32, phase: f32) -> Vec<f32> {
    (0..n)
        .map(|i| ((i as f32 + phase) * 0.11).sin() * scale + (i as f32 * 0.013).cos())
        .collect()
}

/// Check one codec: every sub-range of blocks decodes to the same values
/// as slicing the full decode, and reports a byte count consistent with
/// decoding the full frame.
fn check_codec(
    codec: &dyn ErrorBoundedCodec,
    data: &[f32],
    eb: f64,
    lo: usize,
    hi: usize,
    scratch: &mut CodecScratch,
) -> Result<(), TestCaseError> {
    let mut frame = Vec::new();
    codec.encode(data, eb, scratch, &mut frame);
    let n = data.len();
    let l = codec.block_len();
    let num_blocks = n.div_ceil(l);
    let mut full = vec![0f32; n];
    let full_bytes = codec
        .decode_into(&frame, scratch, &mut full)
        .expect("own frame decodes");

    // Map the random pair onto a valid block range (may be empty).
    let b0 = lo % (num_blocks + 1);
    let b1 = b0 + hi % (num_blocks - b0 + 1);
    let e0 = (b0 * l).min(n);
    let e1 = (b1 * l).min(n);
    let mut part = vec![0f32; e1 - e0];
    let part_bytes = codec
        .decode_blocks(&frame, b0..b1, scratch, &mut part)
        .expect("partial decode");
    // Bit-identical, not approximately equal: both paths run the same
    // reconstruction arithmetic.
    prop_assert_eq!(&part[..], &full[e0..e1], "codec {}", codec.name());
    prop_assert!(
        part_bytes <= full_bytes,
        "partial read {} bytes > full {}",
        part_bytes,
        full_bytes
    );
    if b0 == 0 && b1 == num_blocks {
        prop_assert_eq!(part_bytes, full_bytes);
    }
    Ok(())
}

/// Blocks a per-row walk decodes for the region `[origin, origin+extent)`
/// of a shard: one block range per (row, chunk) piece, boundary blocks
/// shared by consecutive rows counted once per row. The store's merged
/// runs must never exceed this.
fn per_row_blocks(
    shape: &[usize],
    chunk: &[usize],
    origin: &[usize],
    extent: &[usize],
    l: usize,
) -> usize {
    let d = shape.len();
    let rows: usize = extent[..d - 1].iter().product();
    let mut total = 0;
    for r in 0..rows {
        // Leading coordinates of region row `r` (C order).
        let mut coord = [0usize; 8];
        let mut rem = r;
        for i in (0..d - 1).rev() {
            coord[i] = origin[i] + rem % extent[i];
            rem /= extent[i];
        }
        let (xe, cx) = (origin[d - 1] + extent[d - 1], chunk[d - 1]);
        let mut x = origin[d - 1];
        while x < xe {
            let cx0 = x / cx * cx;
            let piece_end = xe.min(cx0 + cx);
            // Chunk-local row base: strides of the (edge-clamped) chunk.
            let mut base = 0;
            let mut stride = cx.min(shape[d - 1] - cx0);
            for i in (0..d - 1).rev() {
                let c0 = coord[i] / chunk[i] * chunk[i];
                base += (coord[i] - c0) * stride;
                stride *= chunk[i].min(shape[i] - c0);
            }
            let (start, end) = (base + x - cx0, base + piece_end - cx0);
            total += end.div_ceil(l) - start / l;
            x = piece_end;
        }
    }
    total
}

/// Element types the reference decoder handles: a codec's whole-frame
/// decode for that type.
trait Elem: ShardElement + PartialEq + std::fmt::Debug {
    /// Relative rounding slack of the type, on top of the bound.
    const EPS: f64;
    fn decode_frame(codec: &dyn ErrorBoundedCodec, frame: &[u8], out: &mut [Self]);
    fn from_f32(v: f32) -> Self;
    fn to_f64(self) -> f64;
}

impl Elem for f32 {
    const EPS: f64 = f32::EPSILON as f64;
    fn decode_frame(codec: &dyn ErrorBoundedCodec, frame: &[u8], out: &mut [f32]) {
        codec
            .decode_into(frame, &mut CodecScratch::new(), out)
            .expect("own frame decodes");
    }
    fn from_f32(v: f32) -> f32 {
        v
    }
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
}

impl Elem for f64 {
    const EPS: f64 = f64::EPSILON;
    fn decode_frame(codec: &dyn ErrorBoundedCodec, frame: &[u8], out: &mut [f64]) {
        let blocks = 0..out.len().div_ceil(codec.block_len());
        codec
            .decode_blocks_f64(frame, blocks, &mut CodecScratch::new(), out)
            .expect("own frame decodes");
    }
    fn from_f32(v: f32) -> f64 {
        f64::from(v) * 1.001
    }
    fn to_f64(self) -> f64 {
        self
    }
}

/// The array a shard holds, rebuilt without the store's read path: each
/// chunk's frame (located through the index) decoded whole, then
/// scattered element by element to its C-order position.
fn reference<T: Elem>(
    codec: &dyn ErrorBoundedCodec,
    bytes: &[u8],
    shard: &Shard<'_>,
    shape: &[usize],
    chunk: &[usize],
) -> Vec<T> {
    let d = shape.len();
    let grid: Vec<usize> = (0..d).map(|i| shape[i].div_ceil(chunk[i])).collect();
    let mut full = vec![T::default(); shape.iter().product()];
    for (id, e) in shard.index().entries.iter().enumerate() {
        let mut cc = vec![0usize; d];
        let mut rem = id;
        for i in (0..d).rev() {
            cc[i] = rem % grid[i];
            rem /= grid[i];
        }
        let origin: Vec<usize> = (0..d).map(|i| cc[i] * chunk[i]).collect();
        let cdim: Vec<usize> = (0..d).map(|i| chunk[i].min(shape[i] - origin[i])).collect();
        let frame = &bytes[e.offset as usize..(e.offset + e.len) as usize];
        let mut vals = vec![T::default(); cdim.iter().product()];
        T::decode_frame(codec, frame, &mut vals);
        for (k, &v) in vals.iter().enumerate() {
            let mut rem = k;
            let mut coord = vec![0usize; d];
            for i in (0..d).rev() {
                coord[i] = rem % cdim[i];
                rem /= cdim[i];
            }
            let flat = (0..d).fold(0, |acc, i| acc * shape[i] + origin[i] + coord[i]);
            full[flat] = v;
        }
    }
    full
}

/// Write `data` as a shard through codec `id`, then check the store's
/// readers against the independent [`reference`], which must itself
/// hold `data` within `eb`: `read_all` equals it
/// and decodes each chunk's blocks exactly once (Σ ⌈chunk_n / L⌉, no
/// duplicates), and the region equals its slice while decoding no more
/// blocks than the per-row walk would.
fn check_region<T: Elem>(
    id: FormatId,
    data: &[T],
    shape: &[usize],
    chunk: &[usize],
    origin: &[usize],
    extent: &[usize],
    eb: f64,
) -> Result<(), TestCaseError> {
    let d = shape.len();
    let registry = raw_codec::registry();
    let codec = registry.get(id).expect("registered codec");
    let bytes = write_shard(data, shape, chunk, codec, eb).expect("write");
    let shard = Shard::open(&bytes).expect("open");
    let want = reference::<T>(codec, &bytes, &shard, shape, chunk);
    // The frames hold the data within the bound (the raw codec exactly),
    // which pins the write path's gathering of each chunk's rows.
    for (k, (&d, &w)) in data.iter().zip(&want).enumerate() {
        let (d, w) = (d.to_f64(), w.to_f64());
        prop_assert!(
            (d - w).abs() <= eb * (1.0 + 1e-6) + (d.abs() + w.abs()) * T::EPS,
            "codec {} element {}: {} written as {}",
            codec.name(),
            k,
            d,
            w
        );
    }
    let l = codec.block_len();
    let mut scratch = StoreScratch::new();
    let mut full = vec![T::default(); data.len()];
    let all = shard
        .read_all(&registry, &mut scratch, &mut full)
        .expect("full read");
    prop_assert!(
        full == want,
        "read_all vs reference, codec {}",
        codec.name()
    );
    let exact: usize = shard
        .index()
        .entries
        .iter()
        .map(|e| (e.num_elements as usize).div_ceil(l))
        .sum();
    prop_assert_eq!(
        all.blocks_decoded,
        exact,
        "read_all blocks, codec {}",
        codec.name()
    );

    let mut region = vec![T::default(); extent.iter().product()];
    let stats = shard
        .read_region(&registry, origin, extent, &mut scratch, &mut region)
        .expect("region read");
    let bound = per_row_blocks(shape, chunk, origin, extent, l);
    prop_assert!(
        stats.blocks_decoded <= bound,
        "codec {}: {} blocks decoded > per-row {}",
        codec.name(),
        stats.blocks_decoded,
        bound
    );

    // Compare element by element against the reference.
    for (k, got) in region.iter().enumerate() {
        let mut rem = k;
        let mut flat = 0;
        let mut stride = 1;
        for i in (0..d).rev() {
            flat += (origin[i] + rem % extent[i]) * stride;
            rem /= extent[i];
            stride *= shape[i];
        }
        prop_assert_eq!(
            got,
            &want[flat],
            "codec {} element {} of region {:?}+{:?}",
            codec.name(),
            k,
            origin,
            extent
        );
    }
    Ok(())
}

/// Clamp a random origin/extent pair into `shape` (always non-empty,
/// biased to straddle chunk boundaries by spanning up to the full shape).
fn clamp_box(shape: &[usize], o: &[usize], e: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let origin: Vec<usize> = (0..shape.len()).map(|i| o[i] % shape[i]).collect();
    let extent = (0..shape.len())
        .map(|i| 1 + e[i] % (shape[i] - origin[i]))
        .collect();
    (origin, extent)
}

/// Every registered codec, in f32 and (where supported) f64, on one
/// shard geometry and box.
fn check_every_codec(
    shape: &[usize],
    chunk: &[usize],
    origin: &[usize],
    extent: &[usize],
) -> Result<(), TestCaseError> {
    let n: usize = shape.iter().product();
    let data = signal(n, 10.0, 0.5);
    let wide: Vec<f64> = data.iter().map(|&v| f64::from_f32(v)).collect();
    for codec in raw_codec::registry().codecs() {
        let id = codec.format_id();
        check_region(id, &data, shape, chunk, origin, extent, 1e-3)?;
        if codec.supports_dtype(DType::F64) {
            check_region(id, &wide, shape, chunk, origin, extent, 1e-6)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn decode_blocks_matches_full_decode_slice(
        n in awkward_len(),
        scale in 0.1f32..50.0,
        phase in 0.0f32..100.0,
        eb in prop_oneof![1e-5f64..1e-3, 1e-3f64..1e-1],
        lo in 0usize..10_000,
        hi in 0usize..10_000,
    ) {
        let data = signal(n, scale, phase);
        let registry = raw_codec::registry();
        let mut scratch = CodecScratch::new();
        for codec in registry.codecs() {
            check_codec(codec, &data, eb, lo, hi, &mut scratch)?;
        }
    }

    #[test]
    fn region_reads_match_full_reads_2d(
        h in 1usize..48,
        w in 1usize..48,
        ch in 1usize..20,
        cw in 1usize..20,
        oy in 0usize..10_000,
        ox in 0usize..10_000,
        ey in 1usize..10_000,
        ex in 1usize..10_000,
    ) {
        let data = signal(h * w, 10.0, 0.0);
        // Clamp the random region into the shard (always non-empty, and
        // biased to straddle chunk boundaries by spanning up to the full
        // shape).
        let oy = oy % h;
        let ox = ox % w;
        let ey = 1 + ey % (h - oy);
        let ex = 1 + ex % (w - ox);
        for codec in raw_codec::registry().codecs() {
            let id = codec.format_id();
            check_region(id, &data, &[h, w], &[ch, cw], &[oy, ox], &[ey, ex], 1e-3)?;
        }
    }

    #[test]
    fn region_reads_match_reference_every_codec_and_dtype(
        rank in 1usize..4,
        shape in (1usize..12, 1usize..24, 1usize..120),
        chunk in (1usize..6, 1usize..12, 1usize..100),
        o in (0usize..10_000, 0usize..10_000, 0usize..10_000),
        e in (1usize..10_000, 1usize..10_000, 1usize..10_000),
    ) {
        // The last `rank` axes; the last one is up to 119 wide, so rows
        // span several blocks.
        let skip = 3 - rank;
        let shape = &[shape.0, shape.1, shape.2][skip..];
        let chunk = &[chunk.0, chunk.1, chunk.2][skip..];
        let (origin, extent) = clamp_box(shape, &[o.0, o.1, o.2][skip..], &[e.0, e.1, e.2][skip..]);
        check_every_codec(shape, chunk, &origin, &extent)?;
    }

    #[test]
    fn region_reads_match_full_reads_3d_f64(
        shape in (1usize..10, 1usize..24, 1usize..80),
        chunk in (1usize..6, 1usize..12, 1usize..48),
        o in (0usize..10_000, 0usize..10_000, 0usize..10_000),
        e in (1usize..10_000, 1usize..10_000, 1usize..10_000),
        // 0..=2: full-width rows (x spans the shape); 3: any x range.
        full_x in 0usize..4,
        full_y in any::<bool>(),
    ) {
        let shape = [shape.0, shape.1, shape.2];
        let chunk = [chunk.0, chunk.1, chunk.2];
        let n: usize = shape.iter().product();
        let data: Vec<f64> = signal(n, 7.0, 3.0).iter().map(|&v| f64::from(v) * 1.001).collect();
        let mut origin = [o.0 % shape[0], o.1 % shape[1], o.2 % shape[2]];
        let mut extent = [
            1 + e.0 % (shape[0] - origin[0]),
            1 + e.1 % (shape[1] - origin[1]),
            1 + e.2 % (shape[2] - origin[2]),
        ];
        if full_x < 3 {
            (origin[2], extent[2]) = (0, shape[2]);
            if full_y {
                (origin[1], extent[1]) = (0, shape[1]);
            }
        }
        for id in [*b"CZP1", *b"CZH1"] {
            check_region(id, &data, &shape, &chunk, &origin, &extent, 1e-6)?;
        }
    }
}

/// Chunk rows of 100 elements (not a multiple of cuSZp's 32 or the raw
/// codec's 128) on a ragged grid, read whole, in unaligned boxes, and in boxes
/// narrower than a block.
#[test]
fn unaligned_chunk_rows_match_reference() {
    let shape = [7usize, 11, 230];
    let chunk = [3usize, 5, 100];
    for (origin, extent) in [
        ([0usize, 0, 0], [7usize, 11, 230]),
        ([1, 2, 17], [5, 8, 190]),
        ([2, 4, 95], [3, 3, 10]),
        ([0, 0, 33], [7, 11, 3]),
        ([6, 10, 229], [1, 1, 1]),
    ] {
        check_every_codec(&shape, &chunk, &origin, &extent).unwrap();
    }
}

/// One codec block read from the middle of a 256 Ki-element 1-D shard
/// (64 Ki-element chunks) decodes exactly one block in one chunk, and
/// touches at most the codec's random-access granule of the payload
/// (`2 × access_granularity_blocks` blocks' worth of the full read's
/// bytes), floored at 1 % for granule-1 codecs. The 1 %, 10 % and full
/// reads around it equal the full-decode slice.
#[test]
fn one_block_read_touches_one_granule_of_payload() {
    let n = 1usize << 18;
    let data: Vec<f32> = (0..n)
        .map(|i| (i as f32 * 0.0021).sin() * 30.0 + (i as f32 * 0.00013).cos() * 4.0)
        .collect();
    let registry = raw_codec::registry();
    let mut scratch = StoreScratch::new();
    for codec in registry.codecs() {
        let name = codec.name();
        let bytes = write_shard(&data, &[n], &[65_536], codec, 1e-3).expect("write");
        let shard = Shard::open(&bytes).expect("open");
        let mut full = vec![0f32; n];
        let full_bytes = shard
            .read_all(&registry, &mut scratch, &mut full)
            .expect("full read")
            .payload_bytes_read;

        let l = codec.block_len();
        for (origin, extent) in [(n / 2, l), (n / 4, n / 100), (n / 8, n / 10), (0, n)] {
            let mut out = vec![0f32; extent];
            let stats = shard
                .read_region(&registry, &[origin], &[extent], &mut scratch, &mut out)
                .expect("region read");
            assert_eq!(
                out,
                full[origin..origin + extent],
                "{name} read {origin}+{extent}"
            );
            if extent == l {
                assert_eq!(stats.blocks_decoded, 1, "{name}: one block");
                assert_eq!(stats.chunks_touched, 1, "{name}: one chunk");
                let granule = full_bytes * 2 * codec.access_granularity_blocks() / n.div_ceil(l);
                let allowed = granule.max(full_bytes / 100);
                assert!(
                    stats.payload_bytes_read <= allowed,
                    "{name}: 1-block read touched {} of {full_bytes} payload bytes (allowed {allowed})",
                    stats.payload_bytes_read
                );
            }
        }
    }
}
