//! Lossless second-stage coders for the hybrid cuSZp pipeline.
//!
//! cuSZp's fixed-length encoding trades ratio for speed: every value in a
//! block spends exactly `F` bits even when the bit-shuffled planes are
//! almost entirely runs of one byte. Following the synergistic
//! lossy–lossless orchestration line of work (and FZ-GPU's
//! bitshuffle-then-dictionary pipeline), this crate supplies the lossless
//! stage that runs *after* the error-bounded quantization — so it can
//! never affect the error bound — together with the estimator that
//! decides, per chunk, whether the stage pays for itself. The encoder
//! writes three modes:
//!
//! - [`Mode::Pass`] — store the fixed-length bytes unchanged (cuSZp's
//!   native representation; always available, never loses).
//! - [`Mode::Constant`] — SZx-style constant-block flush: a chunk whose
//!   bytes are all equal stores one byte.
//! - [`Mode::Huffman4`] — canonical, length-limited Huffman split across
//!   four interleaved bitstreams (round-robin symbol assignment), so
//!   decode runs four dependency chains in parallel; for chunks with
//!   skewed byte histograms.
//!
//! The decoders also read two modes that earlier encoders wrote, so old
//! frames and shards still open: [`Mode::Rle`] (PackBits run-length
//! coding) and [`Mode::Huffman`] (the same canonical code in one
//! bitstream). On the benchmark's store chunks, writing `Huffman4` where
//! the estimator once picked either of them cost 0.17 % of the ratio
//! (16.258 → 16.231), and the switched chunks decoded and encoded within
//! noise of the one-stream form: too little to keep two more encoders
//! and estimator branches for.
//!
//! [`select_mode`] samples a few windows of the chunk instead of scanning
//! it; [`encode_chunk`] *verifies* the choice by size and falls back to
//! [`Mode::Pass`] whenever the coded form would not be strictly smaller,
//! so a stored chunk is never larger than its raw bytes regardless of
//! estimator quality.
//!
//! ## One kernel set
//!
//! The hot loops (histogram build, bit packing) are portable scalar
//! code, still word-parallel where it is free: 4-lane histograms and
//! 8-byte bit stores. There is no runtime dispatch: AVX2/AVX-512
//! variants of these loops measured within noise of them at store-chunk
//! size and were removed, and the crate is safe Rust throughout. The
//! Huffman decoders are table-driven word-at-a-time loops and the RLE
//! decoder is `memcpy`/`fill` dominated.
//!
//! Everything here works on plain byte slices and fixed-size stack
//! tables, plus one caller-owned [`DecodeTable`] that the Huffman modes
//! rebuild in place per chunk, from the canonical tiling of the prefix
//! space in whole 8-entry stores (~2 µs per chunk on the `chunk16k_*`
//! bench corpus). Nothing allocates beyond the caller's output `Vec`
//! and that table's one-time 16 KiB plus a 32-byte pad — the
//! properties the store's zero-steady-state-allocation reads and the
//! service's warm buffers rely on.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod histogram;
mod huffman;
mod interleave;
mod rle;

pub use huffman::{DecodeTable, HUFFMAN_MAX_CODE_LEN, HUFFMAN_TABLE_BYTES};
pub use interleave::{HUFFMAN4_HEADER_BYTES, HUFFMAN4_STREAMS};

// The `Huffman4` encoder's steps, one call each, for the per-step bench
// rows and the encoder-setup tests.
#[doc(hidden)]
pub use histogram::stride4_histograms;
#[doc(hidden)]
pub use huffman::Codebook;
#[doc(hidden)]
pub use interleave::write as huffman4_write;

/// How far past its final length [`encode_chunk`] may briefly grow
/// `out`: the Huffman writers store whole words, so each of `Huffman4`'s
/// four streams is written into its own region with a word of padding,
/// and the padding is cut before the call returns. While a chunk of
/// `raw.len()` bytes is coded, `out` holds at most `raw.len() +
/// ENCODE_SLACK_BYTES` bytes more than on entry; reserving that keeps
/// the encode allocation-free.
pub const ENCODE_SLACK_BYTES: usize = HUFFMAN4_STREAMS * huffman::WRITE_SLACK;

/// Per-chunk coding mode, stored as one byte in the `CUSZPHY1` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Raw bytes stored unchanged (`comp_len == raw_len`).
    Pass,
    /// All bytes equal; one stored byte repeated `raw_len` times.
    Constant,
    /// PackBits run-length coding. Read only: decoded, never written.
    Rle,
    /// Canonical length-limited Huffman coding, one bitstream. Read
    /// only: decoded, never written.
    Huffman,
    /// Canonical length-limited Huffman coding, four interleaved
    /// bitstreams (round-robin symbols, per-stream end offsets in the
    /// chunk header). Same codes as [`Mode::Huffman`], decoded ~3–4×
    /// faster on wide cores.
    Huffman4,
}

impl Mode {
    /// Every mode, in mode-byte order.
    pub const ALL: [Mode; 5] = [
        Mode::Pass,
        Mode::Constant,
        Mode::Rle,
        Mode::Huffman,
        Mode::Huffman4,
    ];

    /// The wire byte identifying this mode.
    pub fn to_byte(self) -> u8 {
        match self {
            Mode::Pass => 0,
            Mode::Constant => 1,
            Mode::Rle => 2,
            Mode::Huffman => 3,
            Mode::Huffman4 => 4,
        }
    }

    /// Parse a wire mode byte.
    pub fn from_byte(b: u8) -> Option<Mode> {
        match b {
            0 => Some(Mode::Pass),
            1 => Some(Mode::Constant),
            2 => Some(Mode::Rle),
            3 => Some(Mode::Huffman),
            4 => Some(Mode::Huffman4),
            _ => None,
        }
    }

    /// Short lowercase name (used in benchmark tables).
    pub fn name(self) -> &'static str {
        match self {
            Mode::Pass => "pass",
            Mode::Constant => "constant",
            Mode::Rle => "rle",
            Mode::Huffman => "huffman",
            Mode::Huffman4 => "huffman4",
        }
    }
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A chunk failed to decode: the compressed bytes are inconsistent with
/// the recorded mode or raw length. Carries a static description of the
/// first violated invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntropyError(pub &'static str);

impl std::fmt::Display for EntropyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "entropy chunk corrupt: {}", self.0)
    }
}

impl std::error::Error for EntropyError {}

/// Bytes sampled per estimator window; four windows are spread across
/// the chunk, so at most 256 bytes are inspected however large it is.
const SAMPLE_WINDOW: usize = 64;

/// Samples in the estimator's full stage-2 sample: four windows.
const FULL_SAMPLE: u32 = 4 * SAMPLE_WINDOW as u32;

/// `p·log₂p` for `p = count / samples`, one term of the sampled
/// entropy.
fn plogp(count: u32, samples: u32) -> f64 {
    let p = f64::from(count) / f64::from(samples);
    p * p.log2()
}

/// [`plogp`] of every count out of a full sample, computed once per
/// process by the same expression.
fn plogp_table() -> &'static [f64; FULL_SAMPLE as usize + 1] {
    static TABLE: std::sync::OnceLock<[f64; FULL_SAMPLE as usize + 1]> = std::sync::OnceLock::new();
    // `black_box` keeps the compiler from folding the terms at build
    // time, so they come from the same `log2` as the in-place ones.
    TABLE
        .get_or_init(|| std::array::from_fn(|c| plogp(std::hint::black_box(c as u32), FULL_SAMPLE)))
}

/// Fixed per-chunk overhead of a `Huffman4` chunk the estimator
/// charges: the table, the three stream-end offsets, and slack for four
/// final partial bytes.
const HUFFMAN4_OVERHEAD: f64 = (HUFFMAN4_HEADER_BYTES + 5) as f64;

/// Pick a coding mode for `raw` by sampling, not scanning. The answer is
/// always [`Mode::Pass`], [`Mode::Constant`] or [`Mode::Huffman4`].
///
/// Constant detection probes a handful of spread positions and only pays
/// for a full scan when all probes match. The Huffman estimate comes from
/// four 64-byte windows: the sampled byte histogram's entropy `H` bounds
/// the bitstream at `n·H/8` bits, to which the `Huffman4` header is
/// added.
///
/// The estimate errs toward [`Mode::Pass`]: `Huffman4` is chosen only
/// when its estimated size undercuts the raw size by more than 1/16 —
/// mispredicting *toward* Pass costs a little ratio, while mispredicting
/// away from it costs encode time **and** gets reverted by
/// [`encode_chunk`]'s size check anyway.
pub fn select_mode(raw: &[u8]) -> Mode {
    let n = raw.len();
    if n < 2 {
        return Mode::Pass;
    }
    if probe_constant(raw) {
        return Mode::Constant;
    }

    // All windows sit at interior positions. The chunk's head (the
    // fixed-length array, one near-constant byte per block) is a tiny,
    // systematically atypical slice — an endpoint window anchored there
    // drags the sampled entropy far below the payload's and mispredicts
    // Huffman on incompressible data.
    //
    // Stage 1: two windows at 1/4 and 3/4, tracked with a 256-bit
    // presence bitmap (32 bytes of state). On dense data — most chunks
    // of a field that doesn't compress — the distinct count alone rules
    // every coded mode out and the estimator exits here. The Pass path
    // must stay within a few percent of a plain copy, so this stage never
    // touches the 1 KiB histogram: zeroing it per chunk is already
    // measurable against a cache-hot memcpy.
    if n > 4 * SAMPLE_WINDOW {
        let mut seen = [0u64; 4];
        let mut distinct = 0u32;
        let mut pairs = 0u32;
        let mut repeats = 0u32;
        for w in [1usize, 3] {
            let start = w * (n - SAMPLE_WINDOW) / 4;
            let win = &raw[start..start + SAMPLE_WINDOW];
            for (k, &b) in win.iter().enumerate() {
                let slot = &mut seen[(b >> 6) as usize];
                let bit = 1u64 << (b & 63);
                distinct += u32::from(*slot & bit == 0);
                *slot |= bit;
                if k > 0 {
                    pairs += 1;
                    repeats += u32::from(b == win[k - 1]);
                }
            }
        }
        // ≥ ~69% distinct sampled bytes: even an ideal byte code cannot
        // clear the 1/16 Pass margin, and runs are absent.
        let samples = 2 * SAMPLE_WINDOW as u32;
        if distinct * 16 >= samples * 11 && repeats * 8 < pairs {
            return Mode::Pass;
        }
    }

    // Stage 2: the chunk looks codable (or is small enough to sample
    // whole), so the full histogram pays for itself. Re-walk the stage-1
    // windows and add two more at 1/8 and 7/8 before the entropy
    // estimate below. At most 256 samples are counted, into one plain
    // table: zeroing and merging four lanes would cost more than the
    // store-forwarding chains they avoid at this size.
    let mut hist = [0u32; 256];
    let mut samples = 0u32;
    let mut sample = |win: &[u8]| {
        for &b in win {
            hist[usize::from(b)] += 1;
        }
        samples += win.len() as u32;
    };
    if n <= 4 * SAMPLE_WINDOW {
        sample(raw);
    } else {
        for (w, d) in [(1usize, 4usize), (3, 4), (1, 8), (7, 8)] {
            let start = w * (n - SAMPLE_WINDOW) / d;
            sample(&raw[start..start + SAMPLE_WINDOW]);
        }
    }
    // The occupied bins as a 256-bit set, so the sum below visits only
    // them, still in symbol order.
    let occupied: [u64; 4] = std::array::from_fn(|w| {
        hist[64 * w..64 * w + 64]
            .iter()
            .enumerate()
            .fold(0, |m, (b, &c)| m | u64::from(c > 0) << b)
    });
    let distinct: u32 = occupied.iter().map(|m| m.count_ones()).sum();

    // `p·log₂p` of every occupied bin, summed in symbol order. A full
    // sample (the four windows) reads each term from a table of the same
    // expression, so the sum is bit for bit the one computed in place.
    let n_f = n as f64;
    let full = (samples == FULL_SAMPLE).then(plogp_table);
    let mut entropy_bits = 0.0;
    for (w, &m) in occupied.iter().enumerate() {
        let mut m = m;
        while m != 0 {
            let c = hist[64 * w + m.trailing_zeros() as usize];
            m &= m - 1;
            entropy_bits -= match full {
                Some(table) => table[c as usize],
                None => plogp(c, samples),
            };
        }
    }
    // Miller–Madow bias correction: a plug-in estimate from few samples
    // over many occupied bins systematically *under*states the entropy
    // (uniform noise would otherwise look compressible).
    entropy_bits += f64::from(distinct - 1) / (2.0 * f64::from(samples) * std::f64::consts::LN_2);
    let bitstream = n_f * entropy_bits.min(8.0) / 8.0;

    let margin = n_f / 16.0;
    if bitstream + HUFFMAN4_OVERHEAD + margin < n_f {
        Mode::Huffman4
    } else {
        Mode::Pass
    }
}

/// Cheap constant test: probe eight spread positions, full scan only if
/// every probe equals the first byte.
fn probe_constant(raw: &[u8]) -> bool {
    let n = raw.len();
    let b = raw[0];
    for k in 1..8 {
        if raw[k * (n - 1) / 7] != b {
            return false;
        }
    }
    raw.iter().all(|&x| x == b)
}

/// Encode `raw` under `mode`, appending the coded bytes to `out`.
///
/// Returns the mode **actually** used: whenever the requested mode would
/// not produce strictly fewer bytes than `raw` (or its precondition does
/// not hold — a non-constant chunk requested as [`Mode::Constant`]), the
/// chunk falls back to [`Mode::Pass`] and the raw bytes are appended
/// instead. The returned mode is what belongs in the `CUSZPHY1` table,
/// and the appended length never exceeds `raw.len()`.
///
/// # Panics
/// Panics if `mode` is [`Mode::Rle`] or [`Mode::Huffman`]: those modes
/// are read only, and no encoder for them exists.
pub fn encode_chunk(mode: Mode, raw: &[u8], out: &mut Vec<u8>) -> Mode {
    assert!(
        !matches!(mode, Mode::Rle | Mode::Huffman),
        "{mode} is a read-only mode; encode as huffman4"
    );
    if raw.is_empty() {
        return Mode::Pass;
    }
    match mode {
        Mode::Constant => {
            if raw.iter().all(|&b| b == raw[0]) {
                out.push(raw[0]);
                return Mode::Constant;
            }
        }
        Mode::Huffman4 => {
            if interleave::encode(raw, out) {
                return Mode::Huffman4;
            }
        }
        Mode::Pass | Mode::Rle | Mode::Huffman => {}
    }
    out.extend_from_slice(raw);
    Mode::Pass
}

/// Decode a chunk of any of the five modes — coded by [`encode_chunk`] or
/// by an earlier encoder — into `out`, whose length must be the chunk's
/// recorded raw length.
///
/// The [`Mode::Huffman`] and [`Mode::Huffman4`] decoders build their
/// decode table in `table`, which the caller keeps across chunks; its
/// previous contents never affect the result. The other modes leave it
/// untouched.
///
/// Every inconsistency between `mode`, `comp`, and `out.len()` is a typed
/// [`EntropyError`]; no input panics. On error the contents of `out` are
/// unspecified (the caller re-validates or discards them).
pub fn decode_chunk(
    mode: Mode,
    comp: &[u8],
    out: &mut [u8],
    table: &mut DecodeTable,
) -> Result<(), EntropyError> {
    match mode {
        Mode::Pass => {
            if comp.len() != out.len() {
                return Err(EntropyError("pass chunk length mismatch"));
            }
            out.copy_from_slice(comp);
            Ok(())
        }
        Mode::Constant => {
            if comp.len() != 1 {
                return Err(EntropyError("constant chunk must store exactly one byte"));
            }
            out.fill(comp[0]);
            Ok(())
        }
        Mode::Rle => rle::decode(comp, out),
        Mode::Huffman => huffman::decode(comp, out, table),
        Mode::Huffman4 => interleave::decode(comp, out, table),
    }
}

/// Parse a [`Mode::Huffman`] or [`Mode::Huffman4`] chunk's code-length
/// table and build the decode table a `raw_len`-byte decode would use
/// into `table`, without decoding — the fixed per-chunk cost of a
/// Huffman decode, for the benchmarks. Other modes have no table and
/// return `Ok(())`.
#[doc(hidden)]
pub fn build_decode_table(
    mode: Mode,
    comp: &[u8],
    raw_len: usize,
    table: &mut DecodeTable,
) -> Result<(), EntropyError> {
    if !matches!(mode, Mode::Huffman | Mode::Huffman4) {
        return Ok(());
    }
    let packed = comp
        .get(..HUFFMAN_TABLE_BYTES)
        .ok_or(EntropyError("huffman table truncated"))?;
    let code = huffman::parse_lens_table(packed)?;
    let tab = table.build(&code, raw_len >= DecodeTable::GRAFT_MIN_SYMBOLS);
    std::hint::black_box(tab);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The modes [`encode_chunk`] writes.
    const WRITTEN: [Mode; 3] = [Mode::Pass, Mode::Constant, Mode::Huffman4];

    /// Deterministic xorshift bytes (the crate has no dependencies).
    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed >> 32) as u8
            })
            .collect()
    }

    fn skewed(len: usize, seed: u64) -> Vec<u8> {
        // Mostly zeros with occasional small values: the shape tight
        // error bounds produce after bit-shuffling.
        noise(len, seed)
            .into_iter()
            .map(|b| if b < 200 { 0 } else { b & 0x07 })
            .collect()
    }

    /// Long runs of a few values: the shape the estimator once sent to
    /// `Rle`.
    fn runny(len: usize, seed: u64) -> Vec<u8> {
        let period = 3 + (seed as usize % 300);
        (0..len).map(|i| ((i / period) % 7) as u8).collect()
    }

    /// The `(mode, stored bytes, raw length)` of every chunk of a
    /// `CUSZPHY1` frame, read straight from its 38-byte header and 9-byte
    /// table entries (`docs/FORMAT.md`).
    fn frame_chunks(frame: &[u8]) -> Vec<(Mode, &[u8], usize)> {
        let word = |at: usize| u32::from_le_bytes(frame[at..at + 4].try_into().unwrap()) as usize;
        let chunks = word(34);
        let mut at = 38 + 9 * chunks;
        (0..chunks)
            .map(|c| {
                let e = 38 + 9 * c;
                let comp = &frame[at..at + word(e + 1)];
                at += comp.len();
                (Mode::from_byte(frame[e]).unwrap(), comp, word(e + 5))
            })
            .collect()
    }

    /// The `mode` chunks of the golden frames an earlier encoder wrote:
    /// twelve `Huffman` chunks in one, nineteen `Rle` chunks in the other.
    fn golden_chunks(mode: Mode) -> Vec<(&'static [u8], usize)> {
        let frames: [&'static [u8]; 2] = [
            include_bytes!("../../cuszp-core/tests/data/pr9_hybrid_frame.bin"),
            include_bytes!("../../cuszp-core/tests/data/pr9_hybrid_frame_rle.bin"),
        ];
        frames
            .into_iter()
            .flat_map(frame_chunks)
            .filter(|&(m, _, _)| m == mode)
            .map(|(_, comp, raw_len)| (comp, raw_len))
            .collect()
    }

    fn roundtrip(mode: Mode, raw: &[u8]) -> Mode {
        let mut comp = Vec::new();
        let used = encode_chunk(mode, raw, &mut comp);
        assert!(comp.len() <= raw.len().max(1), "chunk expanded");
        let mut back = vec![0xA5u8; raw.len()];
        decode_chunk(used, &comp, &mut back, &mut DecodeTable::new()).unwrap();
        assert_eq!(back, raw, "mode {used} round trip");
        used
    }

    /// A decode table left behind by a golden `Huffman` chunk whose code
    /// is complete (Kraft sum 1), so every one of its entries is a valid
    /// code.
    fn dirty_table() -> DecodeTable {
        let (comp, raw_len) = golden_chunks(Mode::Huffman)
            .into_iter()
            .find(|(comp, _)| {
                let code = huffman::parse_lens_table(&comp[..HUFFMAN_TABLE_BYTES]).unwrap();
                let kraft: u32 = code
                    .lens()
                    .iter()
                    .filter(|&&l| l > 0)
                    .map(|&l| 1 << (12 - l))
                    .sum();
                kraft == 1 << 12
            })
            .expect("a golden Huffman chunk has a complete code");
        let mut table = DecodeTable::new();
        let mut back = vec![0u8; raw_len];
        decode_chunk(Mode::Huffman, comp, &mut back, &mut table).unwrap();
        table
    }

    /// Decode with a fresh table and with a dirty one: the results (and
    /// on success the bytes) must agree. Returns the fresh result.
    fn decode_both(mode: Mode, comp: &[u8], out: &mut [u8]) -> Result<(), EntropyError> {
        let fresh = decode_chunk(mode, comp, out, &mut DecodeTable::new());
        let want = out.to_vec();
        let dirty = decode_chunk(mode, comp, out, &mut dirty_table());
        assert_eq!(fresh, dirty, "{mode}: dirty table changed the result");
        if fresh.is_ok() {
            assert_eq!(out, &want[..], "{mode}: dirty table changed the bytes");
        }
        fresh
    }

    #[test]
    fn every_written_mode_roundtrips_on_every_shape() {
        let shapes: Vec<Vec<u8>> = vec![
            vec![],
            vec![42],
            vec![7; 1000],
            noise(1000, 99),
            skewed(5000, 3),
            (0..=255).collect(),
            noise(3, 1),
            skewed(20_000, 3),
            noise(4096, 9),
            skewed(300, 5),
            runny(5000, 4),
        ];
        for raw in &shapes {
            for mode in WRITTEN {
                roundtrip(mode, raw);
            }
        }
    }

    #[test]
    #[should_panic(expected = "read-only mode")]
    fn encoding_rle_is_api_misuse() {
        encode_chunk(Mode::Rle, &[1, 1, 1, 1], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "read-only mode")]
    fn encoding_one_way_huffman_is_api_misuse() {
        encode_chunk(Mode::Huffman, &skewed(1000, 1), &mut Vec::new());
    }

    #[test]
    fn constant_chunks_flush_to_one_byte() {
        let raw = vec![9u8; 4096];
        let mut comp = Vec::new();
        assert_eq!(
            encode_chunk(Mode::Constant, &raw, &mut comp),
            Mode::Constant
        );
        assert_eq!(comp, vec![9]);
    }

    #[test]
    fn misdeclared_constant_falls_back_to_pass() {
        let mut raw = vec![9u8; 100];
        raw[50] = 1;
        let mut comp = Vec::new();
        assert_eq!(encode_chunk(Mode::Constant, &raw, &mut comp), Mode::Pass);
        assert_eq!(comp, raw);
    }

    #[test]
    fn incompressible_chunks_fall_back_to_pass() {
        let raw = noise(300, 5);
        let mut comp = Vec::new();
        assert_eq!(encode_chunk(Mode::Huffman4, &raw, &mut comp), Mode::Pass);
        assert_eq!(comp, raw, "fallback must store the raw bytes");
    }

    #[test]
    fn estimator_picks_sensible_modes() {
        assert_eq!(select_mode(&[]), Mode::Pass);
        assert_eq!(select_mode(&vec![3u8; 10_000]), Mode::Constant);
        assert_eq!(select_mode(&noise(10_000, 17)), Mode::Pass);
        // Skewed-but-varied bytes pick Huffman4 at any size where its
        // header pays, and the coded mode must actually win.
        for len in [1000, 3000, 10_000] {
            let raw = skewed(len, 11);
            assert_eq!(select_mode(&raw), Mode::Huffman4, "len {len}");
            let mut comp = Vec::new();
            assert_eq!(
                encode_chunk(Mode::Huffman4, &raw, &mut comp),
                Mode::Huffman4
            );
            assert!(comp.len() < raw.len());
        }
    }

    #[test]
    fn estimator_never_picks_a_read_only_mode() {
        for seed in 0..12u64 {
            for len in [2usize, 64, 300, 1000, 2048, 4095, 4096, 10_000] {
                let raw = match seed % 4 {
                    0 => skewed(len, seed + 1),
                    1 => noise(len, seed + 1),
                    2 => runny(len, seed),
                    _ => noise(len, seed + 1).into_iter().map(|b| b & 0x1F).collect(),
                };
                let mode = select_mode(&raw);
                assert!(
                    WRITTEN.contains(&mode),
                    "len {len} seed {seed} picked {mode}"
                );
            }
        }
    }

    #[test]
    fn adaptive_never_beats_pass_by_size() {
        // Whatever the estimator says, the stored bytes never exceed raw.
        for seed in 0..20 {
            let raw = if seed % 2 == 0 {
                noise(777, seed)
            } else {
                skewed(777, seed)
            };
            let mode = select_mode(&raw);
            let mut comp = Vec::new();
            encode_chunk(mode, &raw, &mut comp);
            assert!(comp.len() <= raw.len());
        }
    }

    #[test]
    fn decode_rejects_wrong_lengths() {
        let mut out = vec![0u8; 10];
        assert!(decode_both(Mode::Pass, &[1, 2, 3], &mut out).is_err());
        assert!(decode_both(Mode::Constant, &[1, 2], &mut out).is_err());
        assert!(decode_both(Mode::Constant, &[], &mut out).is_err());
    }

    #[test]
    fn rle_corruption_is_typed() {
        let (comp, raw_len) = golden_chunks(Mode::Rle)[0];
        let mut out = vec![0u8; raw_len];
        // Reserved control byte.
        assert_eq!(
            decode_both(Mode::Rle, &[128], &mut out),
            Err(EntropyError("rle reserved control byte"))
        );
        // Truncated repeat run (control byte with no payload byte).
        assert!(decode_both(Mode::Rle, &[200], &mut out).is_err());
        // Truncated literal run.
        assert!(decode_both(Mode::Rle, &[10, 1, 2], &mut out).is_err());
        // Truncated chunk.
        assert!(decode_both(Mode::Rle, &comp[..comp.len() - 1], &mut out).is_err());
        // Output overflow: declared runs overshoot the raw length.
        let mut tiny = vec![0u8; 3];
        assert!(decode_both(Mode::Rle, comp, &mut tiny).is_err());
        // Underflow: runs end before the raw length is reached.
        let mut long = vec![0u8; raw_len + 1];
        assert!(decode_both(Mode::Rle, comp, &mut long).is_err());
    }

    #[test]
    fn huffman_corruption_is_typed() {
        let (comp, raw_len) = golden_chunks(Mode::Huffman)[0];
        let mut out = vec![0u8; raw_len];
        // Table truncated below 128 bytes.
        assert!(decode_both(Mode::Huffman, &comp[..100], &mut out).is_err());
        // Bitstream truncated.
        assert!(decode_both(Mode::Huffman, &comp[..comp.len() - 1], &mut out).is_err());
        // Trailing bytes.
        let mut long = comp.to_vec();
        long.push(0);
        assert!(decode_both(Mode::Huffman, &long, &mut out).is_err());
        // Overfull code-length table (all-one nibbles → Kraft > 1).
        let mut bad = comp.to_vec();
        for b in bad.iter_mut().take(HUFFMAN_TABLE_BYTES) {
            *b = 0x11;
        }
        assert!(decode_both(Mode::Huffman, &bad, &mut out).is_err());
        // An empty table cannot decode a non-empty chunk.
        let empty_table = vec![0u8; HUFFMAN_TABLE_BYTES];
        assert!(decode_both(Mode::Huffman, &empty_table, &mut out).is_err());
    }

    #[test]
    fn huffman4_corruption_is_typed() {
        let raw = skewed(20_000, 7);
        let mut comp = Vec::new();
        assert_eq!(
            encode_chunk(Mode::Huffman4, &raw, &mut comp),
            Mode::Huffman4
        );
        let mut out = vec![0u8; raw.len()];
        for cut in [0, 100, HUFFMAN4_HEADER_BYTES, comp.len() - 1] {
            assert!(
                decode_both(Mode::Huffman4, &comp[..cut], &mut out).is_err(),
                "prefix {cut}"
            );
        }
        let mut long = comp.clone();
        long.push(0);
        assert!(decode_both(Mode::Huffman4, &long, &mut out).is_err());
        // A Huffman4 chunk is not a valid 1-way chunk and vice versa
        // (the offset words sit where the 1-way bitstream starts).
        assert!(decode_both(Mode::Huffman, &comp, &mut out).is_err());
    }

    /// A Kraft-deficient code: symbol 0 is `0`, symbol 1 is `10`, and
    /// no code starts with `11`. Its nibble table, and the byte
    /// `0 10 0 0 10 0` (six symbols).
    fn deficient_code() -> (Vec<u8>, u8) {
        let mut table = vec![0u8; HUFFMAN_TABLE_BYTES];
        table[0] = 1 | 2 << 4;
        (table, 0b0100_0100)
    }

    #[test]
    fn stale_decode_table_never_changes_a_decode() {
        let (lens, byte) = deficient_code();
        let want: Vec<u8> = (0..240).map(|i| [0, 1, 0, 0, 1, 0][i % 6]).collect();

        // `Huffman`: 40 bytes of valid codes decode like a fresh table;
        // an `11` prefix — in the wide loop or in the careful tail — is
        // still an invalid code after a complete code filled the table.
        let mut valid = lens.clone();
        valid.extend(std::iter::repeat_n(byte, 40));
        let mut out = vec![0u8; 240];
        decode_both(Mode::Huffman, &valid, &mut out).unwrap();
        assert_eq!(out, want);
        for at in [HUFFMAN_TABLE_BYTES + 3, valid.len() - 1] {
            let mut bad = valid.clone();
            bad[at] = 0b1100_0000;
            assert_eq!(
                decode_both(Mode::Huffman, &bad, &mut out),
                Err(EntropyError("invalid huffman code")),
                "uncovered prefix at byte {at}"
            );
        }

        // `Huffman4`: four streams of ten bytes, 60 symbols each.
        let mut valid = lens;
        for end in [10u32, 20, 30] {
            valid.extend_from_slice(&end.to_le_bytes());
        }
        valid.extend(std::iter::repeat_n(byte, 40));
        let mut out = vec![0u8; 240];
        decode_both(Mode::Huffman4, &valid, &mut out).unwrap();
        let interleaved: Vec<u8> = (0..240).map(|i| want[i / 4]).collect();
        assert_eq!(out, interleaved);
        for at in [HUFFMAN4_HEADER_BYTES + 22, valid.len() - 1] {
            let mut bad = valid.clone();
            bad[at] = 0b1100_0000;
            assert_eq!(
                decode_both(Mode::Huffman4, &bad, &mut out),
                Err(EntropyError("invalid huffman code")),
                "uncovered prefix at byte {at}"
            );
        }
    }

    #[test]
    fn mode_bytes_roundtrip_and_reject_unknown() {
        for m in Mode::ALL {
            assert_eq!(Mode::from_byte(m.to_byte()), Some(m));
        }
        assert_eq!(Mode::from_byte(5), None);
        assert_eq!(Mode::from_byte(255), None);
    }
}
