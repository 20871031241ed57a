//! Byte-identity tests for the hybrid entropy stage.
//!
//! The stage once dispatched its histogram and RLE kernels over a SIMD
//! tier ladder; every tier had to emit the same `CUSZPHY1` frames, and
//! the fingerprints below pin those bytes so they stay fixed now that
//! one kernel set is left. Frames must invert to the plain stream for
//! the adaptive estimator and every forced mode, and the encoder writes
//! only `Pass`, `Constant` and `Huffman4`. On top of that, the retired
//! mode bytes are pinned with golden bytes:
//!
//! * **old frames, new decoder** — an early encoder's frames (checked into
//!   `tests/data/`) hold run-length (byte 2) and one-stream Huffman
//!   (byte 3) chunks, modes no decoder reads any more; they fail typed
//!   with `UnknownHybridMode` at parse, never a panic, and so does any
//!   frame with either byte in its table;
//! * **new frames, old mode set** — a frame carrying `Huffman4` chunks
//!   misread under the previous mode ids yields a typed error, never a
//!   panic, and truncation of such a frame is caught at every prefix.

use cuszp_core::hybrid::{
    self, HybridRef, HybridScratch, Mode, DEFAULT_CHUNK_BLOCKS, HYBRID_HEADER_BYTES,
    TABLE_ENTRY_BYTES,
};
use cuszp_core::{fast, CompressedRef, CuszpConfig, FormatError};
use cuszp_entropy::{encode_chunk, select_mode};
use proptest::prelude::*;

/// Golden frames an early encoder wrote, each with the mode byte of its
/// first retired chunk and its chunk counts by mode byte as written: the
/// adaptive frame holds twelve one-stream Huffman chunks (byte 3), the
/// forced run-length frame nineteen run-length chunks (byte 2).
const GOLDEN: [(&[u8], u8, [usize; 5]); 2] = [
    (
        include_bytes!("data/pr9_hybrid_frame.bin"),
        3,
        [4, 4, 0, 12, 0],
    ),
    (
        include_bytes!("data/pr9_hybrid_frame_rle.bin"),
        2,
        [1, 0, 19, 0, 0],
    ),
];

/// The retired mode bytes: run-length and one-stream Huffman.
const RETIRED_BYTES: [u8; 2] = [2, 3];

/// Mode bytes the encoder writes: `Pass`, `Constant` and `Huffman4`.
const WRITTEN_BYTES: [u8; 3] = [0, 1, 4];

/// Hybrid-encode a plain stream.
fn encode_frame(plain: &[u8], chunk_blocks: usize, force: Option<Mode>) -> Vec<u8> {
    let r = CompressedRef::parse(plain).expect("own plain stream parses");
    let mut hs = HybridScratch::new();
    let mut frame = Vec::new();
    hybrid::encode_with(&r, chunk_blocks, force, &mut hs, &mut frame);
    frame
}

fn compress_plain(data: &[f32], eb: f64) -> Vec<u8> {
    let mut scratch = fast::Scratch::new();
    let mut plain = Vec::new();
    fast::compress_into(&mut scratch, data, eb, CuszpConfig::default(), &mut plain);
    plain
}

/// Smooth, skewed data: residual planes compress well, so Huffman-style
/// modes actually run (uniform noise would collapse everything to Pass).
fn skewed_field(n: usize) -> Vec<f32> {
    (0..n).map(|i| (i as f32 * 0.004).sin() * 8.0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Frames invert to the plain stream, for the adaptive estimator and
    /// every forced mode.
    #[test]
    fn frames_invert_to_the_plain_stream(
        data in proptest::collection::vec(
            prop_oneof![
                3 => -1.0e5f32..1.0e5,
                1 => -1.0f32..1.0,
                1 => Just(0.0f32),
            ],
            1..3000,
        ),
        chunk_blocks in prop_oneof![Just(1usize), Just(3), Just(256)],
        force in prop_oneof![
            Just(None),
            Just(Some(Mode::Pass)),
            Just(Some(Mode::Constant)),
            Just(Some(Mode::Huffman4)),
        ],
    ) {
        let plain = compress_plain(&data, 0.01);
        let frame = encode_frame(&plain, chunk_blocks, force);
        let r = HybridRef::parse(&frame).expect("own frame parses");
        let mut hs = HybridScratch::new();
        let mut back = Vec::new();
        hybrid::decode_stream_bytes(&r, &mut hs, &mut back).expect("own frame decodes");
        prop_assert_eq!(&back, &plain);
    }

    /// A `Huffman4` frame inverts to its plain stream also through a
    /// scratch (staging buffer and decode table) that another freshly
    /// encoded frame left dirty.
    #[test]
    fn frames_invert_after_another_frame(
        data in proptest::collection::vec(-1.0e3f32..1.0e3, 1..3000),
        chunk_blocks in prop_oneof![Just(1usize), Just(3), Just(256)],
    ) {
        let fresh = encode_frame(&compress_plain(&data, 0.01), chunk_blocks, None);
        let mut hs = HybridScratch::new();
        let mut back = Vec::new();
        let r = HybridRef::parse(&fresh).expect("own frame parses");
        hybrid::decode_stream_bytes(&r, &mut hs, &mut back).expect("own frame decodes");
        let (frame, _) = huffman4_frame();
        let r = HybridRef::parse(&frame).expect("own frame parses");
        hybrid::decode_stream_bytes(&r, &mut hs, &mut back).expect("own frame decodes");
        prop_assert!(back == huffman4_plain(), "huffman4 frame diverged");
    }

    /// The encoder writes only `Pass`, `Constant` and `Huffman4`: on
    /// noise, skewed, runny and constant chunks the estimator's pick
    /// (after the size check) is one of them, and so is every entry of
    /// the mode table of every adaptive frame.
    #[test]
    fn encoder_writes_only_pass_constant_and_huffman4(
        shape in 0..4u8,
        len in 1..12_000usize,
        seed in any::<u64>(),
        wave_len in 1..60_000usize,
        freq in 1e-4f32..0.1,
        eb in prop_oneof![Just(1e-4), Just(1e-3), Just(1e-2)],
        chunk_blocks in prop_oneof![Just(1usize), Just(3), Just(16), Just(256)],
    ) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 32) as u8
        };
        let period = 3 + (seed % 300) as usize;
        let raw: Vec<u8> = match shape {
            0 => (0..len).map(|_| next()).collect(),
            1 => (0..len).map(|_| match next() { 0..=199 => 0, b => b & 7 }).collect(),
            2 => (0..len).map(|i| ((i / period) % 7) as u8).collect(),
            _ => vec![seed as u8; len],
        };
        let mut comp = Vec::new();
        let used = encode_chunk(select_mode(&raw), &raw, &mut comp);
        prop_assert!(
            WRITTEN_BYTES.contains(&used.to_byte()),
            "shape {} len {} wrote {}", shape, len, used
        );

        let data: Vec<f32> = (0..wave_len).map(|i| (i as f32 * freq).sin() * 8.0).collect();
        let frame = encode_frame(&compress_plain(&data, eb), chunk_blocks, None);
        let hist = HybridRef::parse(&frame).expect("own frame parses").mode_histogram();
        for (byte, &count) in hist.iter().enumerate() {
            prop_assert!(
                count == 0 || WRITTEN_BYTES.contains(&(byte as u8)),
                "frame wrote mode byte {}: {:?}", byte, hist
            );
        }
    }
}

/// A large skewed field drives the estimator into `Huffman4`, and the
/// frame inverts to the plain stream.
#[test]
fn adaptive_huffman4_frames_invert() {
    let data = skewed_field(400_000);
    let plain = compress_plain(&data, 1e-3);
    let frame = encode_frame(&plain, DEFAULT_CHUNK_BLOCKS, None);
    let r = HybridRef::parse(&frame).expect("own frame parses");
    let hist = r.mode_histogram();
    assert!(
        hist[Mode::Huffman4.to_byte() as usize] > 0,
        "skewed chunks must pick Huffman4, got {hist:?}"
    );
    let mut hs = HybridScratch::new();
    let mut back = Vec::new();
    hybrid::decode_stream_bytes(&r, &mut hs, &mut back).expect("own frame decodes");
    assert_eq!(
        back, plain,
        "Huffman4 frame must invert to the plain stream"
    );
}

/// The early encoder's golden frames no longer open: parsing fails with
/// `UnknownHybridMode` at their first retired chunk. Their tables, read
/// byte by byte, still hold the modes they were written with, so the
/// rejection is not vacuous. (`tests/container_errors.rs` takes them
/// through the other decode entry points.)
#[test]
fn retired_mode_golden_frames_are_rejected() {
    for (frame, first_retired, want_counts) in GOLDEN {
        let mut counts = [0usize; 5];
        let chunks = u32::from_le_bytes(frame[34..38].try_into().unwrap()) as usize;
        for c in 0..chunks {
            counts[usize::from(frame[HYBRID_HEADER_BYTES + c * TABLE_ENTRY_BYTES])] += 1;
        }
        assert_eq!(counts, want_counts, "golden frame's mode table as written");

        assert_eq!(
            HybridRef::parse(frame),
            Err(FormatError::UnknownHybridMode(first_retired))
        );
    }
}

/// Either retired byte in any entry of a frame's table fails the frame
/// at parse with `UnknownHybridMode`, whatever the other entries hold.
#[test]
fn retired_mode_bytes_are_rejected_in_any_entry() {
    let (frame, _) = huffman4_frame();
    let chunks = HybridRef::parse(&frame)
        .expect("own frame parses")
        .num_chunks();
    for c in 0..chunks {
        for byte in RETIRED_BYTES {
            let mut warped = frame.clone();
            warped[HYBRID_HEADER_BYTES + c * TABLE_ENTRY_BYTES] = byte;
            assert_eq!(
                HybridRef::parse(&warped),
                Err(FormatError::UnknownHybridMode(byte)),
                "chunk {c} relabelled {byte}"
            );
        }
    }
}

/// The plain stream [`huffman4_frame`] codes.
fn huffman4_plain() -> Vec<u8> {
    compress_plain(&skewed_field(8_000), 1e-3)
}

/// Build a frame guaranteed to carry at least one `Huffman4` chunk and
/// return it with the table index of that chunk.
fn huffman4_frame() -> (Vec<u8>, usize) {
    let plain = huffman4_plain();
    let frame = encode_frame(&plain, DEFAULT_CHUNK_BLOCKS, Some(Mode::Huffman4));
    let r = HybridRef::parse(&frame).expect("own frame parses");
    let hist = r.mode_histogram();
    assert!(
        hist[Mode::Huffman4.to_byte() as usize] > 0,
        "forced Huffman4 must stick on skewed data, got {hist:?}"
    );
    let chunks = hist.iter().sum::<usize>();
    let idx = (0..chunks)
        .find(|c| frame[HYBRID_HEADER_BYTES + c * TABLE_ENTRY_BYTES] == Mode::Huffman4.to_byte())
        .expect("a Huffman4 table entry exists");
    (frame, idx)
}

/// A `Huffman4` frame misread under the old mode ids fails with a typed
/// error — never a panic, never silent success. This emulates what a
/// PR-9 decoder would do with the new frames: its mode table rejects
/// byte 4 at parse time (`UnknownHybridMode`), and even if a chunk's
/// payload were reinterpreted under an old mode id the decode is caught.
/// The retired ids fail at parse already
/// (`retired_mode_bytes_are_rejected_in_any_entry`).
#[test]
fn huffman4_frames_fail_typed_under_old_mode_set() {
    let (frame, idx) = huffman4_frame();
    let mode_at = HYBRID_HEADER_BYTES + idx * TABLE_ENTRY_BYTES;

    for old_mode in [Mode::Pass.to_byte(), Mode::Constant.to_byte()] {
        let mut warped = frame.clone();
        warped[mode_at] = old_mode;
        let outcome = HybridRef::parse(&warped).map(|r| {
            let mut hs = HybridScratch::new();
            let mut back = Vec::new();
            hybrid::decode_stream_bytes(&r, &mut hs, &mut back)
        });
        match outcome {
            Err(_) | Ok(Err(_)) => {}
            Ok(Ok(())) => panic!("Huffman4 payload decoded cleanly as mode {old_mode}"),
        }
    }

    // The next unassigned id is still rejected at parse time, so future
    // mode additions keep failing closed on today's decoder.
    let mut warped = frame;
    warped[mode_at] = 5;
    assert!(HybridRef::parse(&warped).is_err());
}

/// Truncation of a `Huffman4`-bearing frame is caught at parse time for
/// every strict prefix, and every single-byte corruption of the frame
/// yields a typed error or a still-consistent decode — never a panic.
#[test]
fn huffman4_frame_corruption_is_typed_on_every_prefix() {
    let (frame, _) = huffman4_frame();
    for cut in 0..frame.len() {
        assert!(
            HybridRef::parse(&frame[..cut]).is_err(),
            "prefix {cut} of {} parsed",
            frame.len()
        );
    }
    let mut hs = HybridScratch::new();
    let mut back = Vec::new();
    for pos in 0..frame.len() {
        let mut warped = frame.clone();
        warped[pos] ^= 0x41;
        if let Ok(r) = HybridRef::parse(&warped) {
            let _ = hybrid::decode_stream_bytes(&r, &mut hs, &mut back);
        }
    }
}

/// FNV-1a 64 folded over `bytes`, continuing from `h`.
fn fnv64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Xorshift bytes skewed like a bit-shuffled residual plane: mostly
/// zeros, a few small values, a sparse tail of wide ones. Seeded by the
/// length, so each length is its own input.
fn skewed_chunk(len: usize) -> Vec<u8> {
    let mut s = 0x9E37_79B9_7F4A_7C15u64 ^ len as u64;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let b = (s >> 32) as u8;
            match b {
                0..=159 => 0,
                160..=229 => b & 3,
                _ => b & 0x3F,
            }
        })
        .collect()
}

/// Forced `mode` chunks over every length in `lens`, folded into one
/// fingerprint: `(FNV-64 over mode byte ++ raw length ++ coded bytes per
/// chunk, total coded bytes)`.
fn chunk_fingerprint(mode: Mode, lens: std::ops::RangeInclusive<usize>) -> (u64, usize) {
    let (mut h, mut total) = (FNV_OFFSET, 0usize);
    let mut comp = Vec::new();
    for len in lens {
        let raw = skewed_chunk(len);
        comp.clear();
        let used = encode_chunk(mode, &raw, &mut comp);
        h = fnv64(h, &[used.to_byte()]);
        h = fnv64(h, &(len as u32).to_le_bytes());
        h = fnv64(h, &comp);
        total += comp.len();
    }
    (h, total)
}

/// Forced `Huffman4` chunks reproduce fingerprints taken from the
/// previous encoder (per-symbol writes, four strided passes, rescan
/// repair). The length ranges hit every remainder of the 16-byte groups
/// of the interleaved writer, around 4 KiB and 8 KiB; lengths below the
/// 140-byte header fall back to `Pass`, which the fingerprints cover too.
#[test]
fn huffman_chunks_match_previous_encoder_fingerprints() {
    let want: [(Mode, std::ops::RangeInclusive<usize>, (u64, usize)); 3] = [
        (Mode::Huffman4, 1..=64, (0xb8935a37f8f67bff, 2080)),
        (Mode::Huffman4, 4090..=4110, (0xaede529fbd1a1452, 25536)),
        (Mode::Huffman4, 8192..=8208, (0x5b49af291b823b68, 38857)),
    ];
    for (mode, lens, fp) in &want {
        let got = chunk_fingerprint(*mode, lens.clone());
        assert_eq!(got, *fp, "mode {mode} lengths {lens:?}");
    }
}
