//! Differential property tests for the `CUSZPHY1` hybrid second stage.
//!
//! The invariant pinned here is stronger than "values round trip": the
//! hybrid framing must be invertible down to the serialized pre-stage
//! bytes. [`hybrid::decode_stream_bytes`] of any frame — whatever modes
//! the estimator (or a forced override) picked per chunk — reproduces
//! the plain `CUSZP1` stream byte for byte, so the second stage can
//! never change what the lossy layer said. Corruption of any single
//! byte, and truncation at any point, must yield a typed error (or a
//! still-valid frame), never a panic.

use cuszp_core::hybrid::{self, HybridRef, HybridScratch, Mode};
use cuszp_core::{fast, CuszpConfig};
use proptest::prelude::*;

fn data_strategy() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(
        prop_oneof![
            3 => -1.0e5f32..1.0e5,
            1 => -1.0f32..1.0,
            1 => Just(0.0f32),
        ],
        1..800,
    )
}

fn chunk_blocks_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(3), Just(7), Just(256)]
}

fn force_strategy() -> impl Strategy<Value = Option<Mode>> {
    prop_oneof![
        Just(None),
        Just(Some(Mode::Pass)),
        Just(Some(Mode::Constant)),
        Just(Some(Mode::Huffman4)),
    ]
}

/// Build (plain stream bytes, hybrid frame bytes) for one input.
fn encode_pair(
    data: &[f32],
    eb: f64,
    cfg: CuszpConfig,
    chunk_blocks: usize,
    force: Option<Mode>,
) -> (Vec<u8>, Vec<u8>) {
    let mut scratch = fast::Scratch::new();
    let mut plain = Vec::new();
    let r = fast::compress_into(&mut scratch, data, eb, cfg, &mut plain);
    let mut hs = HybridScratch::new();
    let mut frame = Vec::new();
    hybrid::encode_with(&r, chunk_blocks, force, &mut hs, &mut frame);
    (plain, frame)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The hybrid stage is invertible to the exact plain serialization,
    /// for every chunk size and every (forced or adaptive) mode mix.
    #[test]
    fn frame_inverts_to_plain_stream(
        data in data_strategy(),
        eb in prop_oneof![Just(1e-3), Just(0.1), Just(10.0)],
        chunk_blocks in chunk_blocks_strategy(),
        force in force_strategy(),
    ) {
        let cfg = CuszpConfig::default();
        let (plain, frame) = encode_pair(&data, eb, cfg, chunk_blocks, force);
        let r = HybridRef::parse(&frame).expect("own frame parses");
        prop_assert_eq!(r.num_elements as usize, data.len());

        let mut hs = HybridScratch::new();
        let mut back = Vec::new();
        hybrid::decode_stream_bytes(&r, &mut hs, &mut back).expect("own frame decodes");
        prop_assert_eq!(&back, &plain, "second stage must invert byte-for-byte");

        // And the value path agrees with the plain decoder.
        let mut scratch = fast::Scratch::new();
        let mut vals = vec![0f32; data.len()];
        hybrid::decode_into(&r, &mut hs, &mut scratch, &mut vals).expect("values decode");
        let plain_ref = cuszp_core::CompressedRef::parse(&plain).expect("plain parses");
        let mut plain_vals = vec![0f32; data.len()];
        fast::decompress_into(plain_ref, &mut scratch, &mut plain_vals);
        prop_assert_eq!(vals, plain_vals);
    }

    /// Forcing a mode never changes what the frame decodes to — a mode
    /// that cannot represent a chunk must fall back, not corrupt.
    #[test]
    fn forced_modes_agree(
        data in data_strategy(),
        chunk_blocks in chunk_blocks_strategy(),
    ) {
        let cfg = CuszpConfig::default();
        let (plain, _) = encode_pair(&data, 0.01, cfg, chunk_blocks, None);
        for force in [Mode::Pass, Mode::Constant, Mode::Huffman4] {
            let (_, frame) = encode_pair(&data, 0.01, cfg, chunk_blocks, Some(force));
            let r = HybridRef::parse(&frame).expect("own frame parses");
            let mut hs = HybridScratch::new();
            let mut back = Vec::new();
            hybrid::decode_stream_bytes(&r, &mut hs, &mut back).expect("own frame decodes");
            prop_assert_eq!(&back, &plain, "forced {:?} diverged", force);
        }
    }

    /// Any block range of a frame with `Huffman4` chunks, read through
    /// one reused scratch, decodes to the same values as that range of
    /// the plain stream: the `Huffman4` decoder agrees with the plain path
    /// on partial reads as well as on whole frames.
    #[test]
    fn huffman4_frames_decode_any_block_range(
        ranges in proptest::collection::vec((0..5000usize, 1..1200usize), 1..4),
    ) {
        let data: Vec<f32> = (0..40_000).map(|i| (i as f32 * 0.004).sin() * 8.0).collect();
        let cfg = CuszpConfig::default();
        let (plain, frame) = encode_pair(&data, 1e-3, cfg, 64, None);
        let r = HybridRef::parse(&frame).expect("own frame parses");
        prop_assert!(r.mode_histogram()[Mode::Huffman4.to_byte() as usize] > 0);
        let plain = cuszp_core::CompressedRef::parse(&plain).expect("own plain parses");
        let mut scratch = fast::Scratch::new();
        let mut want = vec![0f32; r.num_elements as usize];
        fast::decompress_into(plain, &mut scratch, &mut want);
        let (nb, l) = (r.num_blocks(), r.block_len as usize);
        let mut hs = HybridScratch::new();
        for (start, len) in ranges {
            let b0 = start % nb;
            let b1 = (b0 + len).min(nb);
            let covered = want.len().min(b1 * l) - b0 * l;
            let mut got = vec![0f32; covered];
            hybrid::decode_blocks_into(&r, b0..b1, &mut hs, &mut scratch, &mut got)
                .expect("own frame decodes");
            prop_assert!(
                got[..] == want[b0 * l..b0 * l + covered],
                "blocks {}..{}", b0, b1
            );
        }
    }

    /// Single-byte corruption anywhere in the frame either fails with a
    /// typed error at parse or decode time, or leaves a frame that still
    /// decodes to the declared geometry. It never panics.
    #[test]
    fn corruption_never_panics(
        data in data_strategy(),
        chunk_blocks in chunk_blocks_strategy(),
        pos_seed in any::<u32>(),
        flip in 1u8..=255,
    ) {
        let (_, mut frame) = encode_pair(&data, 0.01, CuszpConfig::default(), chunk_blocks, None);
        let pos = pos_seed as usize % frame.len();
        frame[pos] ^= flip;
        if let Ok(r) = HybridRef::parse(&frame) {
            // Parse-surviving corruption must still be decode-safe.
            let mut hs = HybridScratch::new();
            let mut back = Vec::new();
            let _ = hybrid::decode_stream_bytes(&r, &mut hs, &mut back);
            if r.num_elements <= 1 << 20 {
                let mut scratch = fast::Scratch::new();
                let mut vals = vec![0f32; r.num_elements as usize];
                let _ = hybrid::decode_into(&r, &mut hs, &mut scratch, &mut vals);
            }
        }
    }

    /// Every strict prefix of a frame is rejected at parse time: length
    /// accounting is exact, so truncation cannot go unnoticed.
    #[test]
    fn truncation_is_detected(
        data in data_strategy(),
        chunk_blocks in chunk_blocks_strategy(),
        cut_seed in any::<u32>(),
    ) {
        let (_, frame) = encode_pair(&data, 0.01, CuszpConfig::default(), chunk_blocks, None);
        let cut = cut_seed as usize % frame.len();
        prop_assert!(HybridRef::parse(&frame[..cut]).is_err());
    }
}

/// Deterministic uniform noise: every bit-plane is dense, so no entropy
/// mode can beat passthrough.
fn noise(n: usize) -> Vec<f32> {
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 2_000_001) as f32 - 1_000_000.0) * 0.01
        })
        .collect()
}

/// The serialized convenience path: with `hybrid: true` the codec ships
/// whichever serialization is smaller, and the decoder sniffs the magic.
/// Checked on a smooth wave, the first field of every dataset at REL
/// 1e-2, and the uniform-noise control at REL 1e-6 (~19 residual bits,
/// where the plain stream must be shipped).
#[test]
fn serialized_hybrid_roundtrip_and_size() {
    use cuszp_core::{Cuszp, CuszpConfig, ErrorBound};
    use datasets::{generate_subset, DatasetId, Scale};
    let mut inputs: Vec<(String, Vec<f32>, ErrorBound)> = vec![(
        "wave".into(),
        (0..50_000)
            .map(|i| (i as f32 * 0.002).sin() * 40.0)
            .collect(),
        ErrorBound::Abs(1e-3),
    )];
    for id in DatasetId::all() {
        let field = generate_subset(id, Scale::Tiny, 1).remove(0);
        inputs.push((id.name().into(), field.data, ErrorBound::Rel(1e-2)));
    }
    inputs.push(("noise".into(), noise(1 << 16), ErrorBound::Rel(1e-6)));

    let plain_codec = Cuszp::new();
    let hybrid_codec = Cuszp::with_config(CuszpConfig {
        hybrid: true,
        ..CuszpConfig::default()
    });
    for (name, data, bound) in &inputs {
        let plain = plain_codec.compress_serialized(data, *bound);
        let hy = hybrid_codec.compress_serialized(data, *bound);
        assert!(
            hy.len() <= plain.len(),
            "{name}: hybrid {} bytes > plain {} bytes",
            hy.len(),
            plain.len()
        );
        let a: Vec<f32> = plain_codec.decompress_serialized(&plain).unwrap();
        let b: Vec<f32> = hybrid_codec.decompress_serialized(&hy).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&a),
            bits(&b),
            "{name}: both serializations decode alike"
        );
    }
}

/// On the uniform-noise control at REL 1e-6 the estimator must get out
/// of the way: the adaptive frame codes every chunk as `Pass` and is
/// byte-identical to the frame forced to `Pass`, so adaptivity costs no
/// more than the passthrough copy itself.
#[test]
fn noise_control_adaptive_frame_is_all_pass() {
    use cuszp_core::value_range;
    let data = noise(1 << 16);
    let eb = 1e-6 * value_range(&data);
    let mut scratch = fast::Scratch::new();
    let mut plain = Vec::new();
    let r = fast::compress_into(&mut scratch, &data, eb, CuszpConfig::default(), &mut plain);
    let chunk_blocks = hybrid::auto_chunk_blocks(&r);
    let mut hs = HybridScratch::new();
    let (mut adaptive, mut pass) = (Vec::new(), Vec::new());
    hybrid::encode_with(&r, chunk_blocks, None, &mut hs, &mut adaptive);
    let hist = HybridRef::parse(&adaptive)
        .expect("own frame parses")
        .mode_histogram();
    let total: usize = hist.iter().sum();
    assert!(total > 0, "frame has chunks");
    assert_eq!(
        hist[Mode::Pass.to_byte() as usize],
        total,
        "estimator must pick Pass on every noise chunk, got {hist:?}"
    );
    hybrid::encode_with(&r, chunk_blocks, Some(Mode::Pass), &mut hs, &mut pass);
    assert_eq!(
        adaptive, pass,
        "adaptive frame must equal the forced-Pass frame"
    );
}
