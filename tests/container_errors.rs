//! Dead-variant audit for the `#[non_exhaustive]` error enums: every
//! variant of [`FormatError`] and [`StoreError`] must be *constructible
//! from bytes* — i.e. some concrete malformed input produces it. An
//! error variant nothing can trigger is dead API surface hiding behind
//! the attribute; this suite keeps the enums honest.
//!
//! (Being in a different crate, these matches also prove downstream code
//! can still name and construct the variants — `#[non_exhaustive]` on an
//! enum restricts exhaustive matching, not variant construction.)

#[path = "../crates/cuszp-store/tests/support/raw_codec.rs"]
mod raw_codec;

use cuszp_repro::cuszp_core::{
    hybrid, Compressed, CompressedRef, Cuszp, CuszpConfig, DType, ErrorBound, FormatError,
    FrameRef, HybridRef,
};
use cuszp_repro::cuszp_store::{
    write_shard, ChunkEntry, CodecRegistry, CuszpCodec, Shard, ShardIndex, StoreError, StoreScratch,
};
use std::collections::BTreeSet;

/// Stable label per variant; the wildcard arm is *required* here — the
/// enums are `#[non_exhaustive]` — which is exactly what the audit
/// documents.
fn format_variant(e: &FormatError) -> &'static str {
    match e {
        FormatError::BadMagic => "BadMagic",
        FormatError::Truncated => "Truncated",
        FormatError::Corrupt(_) => "Corrupt",
        FormatError::UnknownHybridMode(_) => "UnknownHybridMode",
        FormatError::Entropy(_) => "Entropy",
        _ => "future",
    }
}

fn store_variant(e: &StoreError) -> &'static str {
    match e {
        StoreError::Truncated => "Truncated",
        StoreError::BadMagic => "BadMagic",
        StoreError::Corrupt(_) => "Corrupt",
        StoreError::IndexOutOfBounds { .. } => "IndexOutOfBounds",
        StoreError::IndexOverlap { .. } => "IndexOverlap",
        StoreError::UnknownCodec(_) => "UnknownCodec",
        StoreError::Frame(_) => "Frame",
        StoreError::Shape(_) => "Shape",
        StoreError::DtypeMismatch { .. } => "DtypeMismatch",
        StoreError::UnsupportedDtype { .. } => "UnsupportedDtype",
        StoreError::Io(_) => "Io",
        _ => "future",
    }
}

fn sample_stream() -> Vec<u8> {
    let data: Vec<f32> = (0..200).map(|i| (i as f32 * 0.1).sin()).collect();
    Cuszp::new()
        .compress(&data, ErrorBound::Abs(1e-3))
        .to_bytes()
}

#[test]
fn every_format_error_variant_is_reachable_from_bytes() {
    let good = sample_stream();
    let mut seen = BTreeSet::new();
    let mut hit = |r: Result<CompressedRef<'_>, FormatError>| {
        seen.insert(format_variant(&r.expect_err("malformed input must fail")));
    };

    // BadMagic: wrong magic byte.
    let mut bad = good.clone();
    bad[0] = b'X';
    hit(CompressedRef::parse(&bad));
    // Truncated: any prefix cut.
    hit(CompressedRef::parse(&good[..good.len() - 1]));
    hit(CompressedRef::parse(&good[..3]));
    // Corrupt, via each header/accounting path.
    let mut bad = good.clone();
    bad[6] = 7; // lorenzo flag ∉ {0, 1}
    hit(CompressedRef::parse(&bad));
    let mut bad = good.clone();
    bad[7] = 9; // unknown dtype
    hit(CompressedRef::parse(&bad));
    let mut bad = good.clone();
    bad[16..20].copy_from_slice(&7u32.to_le_bytes()); // block_len % 8 != 0
    hit(CompressedRef::parse(&bad));
    let mut bad = good.clone();
    bad[20..28].copy_from_slice(&f64::NAN.to_le_bytes()); // bad bound
    hit(CompressedRef::parse(&bad));
    let mut bad = good.clone();
    bad.push(0); // trailing bytes
    hit(CompressedRef::parse(&bad));

    // `Compressed::validate` reaches Corrupt through its own checks.
    let c = Compressed::from_bytes(&good).unwrap();
    let mut wrong_fl = c.clone();
    wrong_fl.fixed_lengths.push(3);
    seen.insert(format_variant(
        &wrong_fl.validate().expect_err("fl size must fail"),
    ));
    let mut wrong_payload = c;
    wrong_payload.payload.pop();
    seen.insert(format_variant(
        &wrong_payload
            .validate()
            .expect_err("payload size must fail"),
    ));

    // The hybrid second stage's variants need a CUSZPHY1 frame. All-zero
    // data yields F = 0 blocks, so the frame is genuinely hybrid (the
    // constant-chunk flush wins over the fixed-length fallback).
    let hybrid_codec = Cuszp::with_config(CuszpConfig {
        hybrid: true,
        ..CuszpConfig::default()
    });
    let zeros = vec![0.0f32; 100_000];
    let hy = hybrid_codec.compress_serialized(&zeros, ErrorBound::Abs(1e-3));
    assert!(
        hy.starts_with(&hybrid::HYBRID_MAGIC),
        "frame must be hybrid"
    );
    // UnknownHybridMode: the first chunk's mode byte set to an undefined
    // value — rejected at parse, before any payload is trusted.
    let mut bad = hy.clone();
    bad[hybrid::HYBRID_HEADER_BYTES] = 9;
    seen.insert(format_variant(
        &hybrid_codec
            .decompress_serialized::<f32>(&bad)
            .expect_err("unknown mode byte must fail"),
    ));
    // Entropy: a skewed field's first `Huffman4` chunk with an
    // all-ones code-length table, whose Kraft sum overflows — the frame
    // table still validates, but decode fails typed inside the entropy
    // coder.
    let skewed: Vec<f32> = (0..100_000)
        .map(|i| (i as f32 * 0.004).sin() * 8.0)
        .collect();
    let mut bad = hybrid_codec.compress_serialized(&skewed, ErrorBound::Abs(1e-3));
    let r = HybridRef::parse(&bad).expect("own frame parses");
    let c = (0..r.num_chunks())
        .find(|&c| r.entry(c).0 == hybrid::Mode::Huffman4)
        .expect("a skewed field codes a Huffman4 chunk");
    let at = hybrid::HYBRID_HEADER_BYTES
        + r.num_chunks() * hybrid::TABLE_ENTRY_BYTES
        + (0..c).map(|k| r.entry(k).1 as usize).sum::<usize>();
    // The chunk's first 128 bytes are its code-length nibbles.
    bad[at..at + 128].fill(0x11);
    seen.insert(format_variant(
        &hybrid_codec
            .decompress_serialized::<f32>(&bad)
            .expect_err("overfull code-length table must fail"),
    ));

    assert_eq!(
        seen.into_iter().collect::<Vec<_>>(),
        vec![
            "BadMagic",
            "Corrupt",
            "Entropy",
            "Truncated",
            "UnknownHybridMode"
        ],
        "every FormatError variant must be reachable from bytes"
    );
}

#[test]
fn every_store_error_variant_is_reachable_from_bytes() {
    let data: Vec<f32> = (0..256).map(|i| (i as f32 * 0.05).sin()).collect();
    let good = write_shard(&data, &[256], &[64], &CuszpCodec::PLAIN, 1e-3).unwrap();
    let registry = CodecRegistry::with_defaults();
    let mut scratch = StoreScratch::new();
    let mut out = vec![0f32; 256];
    let mut seen = BTreeSet::new();

    // Locate the index: footer's first 8 bytes hold its offset.
    let index_offset =
        u64::from_le_bytes(good[good.len() - 16..good.len() - 8].try_into().unwrap()) as usize;
    // 1-D index: magic(8) + ndim(1) + dtype(1) + shape(8) + chunk_shape(8)
    // + count(4).
    let entries = index_offset + 30;

    // Truncated: empty shard.
    seen.insert(store_variant(&Shard::open(&[]).unwrap_err()));
    // BadMagic: footer magic flipped.
    let mut bad = good.clone();
    let last = bad.len() - 1;
    bad[last] = b'X';
    seen.insert(store_variant(&Shard::open(&bad).unwrap_err()));
    // Corrupt: index offset pointing past the footer.
    let mut bad = good.clone();
    let pos = bad.len() - 16;
    bad[pos..pos + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    seen.insert(store_variant(&Shard::open(&bad).unwrap_err()));
    // IndexOutOfBounds: entry 0's length runs past the frame region.
    let mut bad = good.clone();
    bad[entries + 8..entries + 16].copy_from_slice(&(good.len() as u64 * 2).to_le_bytes());
    seen.insert(store_variant(&Shard::open(&bad).unwrap_err()));
    // IndexOverlap: entry 1 rewound into entry 0's byte range.
    let mut bad = good.clone();
    bad[entries + 28..entries + 36].copy_from_slice(&0u64.to_le_bytes());
    seen.insert(store_variant(&Shard::open(&bad).unwrap_err()));
    // UnknownCodec: entry 0's format id renamed.
    let mut bad = good.clone();
    bad[entries + 24..entries + 28].copy_from_slice(b"????");
    let shard = Shard::open(&bad).expect("index itself is intact");
    seen.insert(store_variant(
        &shard
            .read_all(&registry, &mut scratch, &mut out)
            .unwrap_err(),
    ));
    // Frame: frame 0's magic flipped — the index is fine, the chunk
    // fails its codec's own validation at read time.
    let mut bad = good.clone();
    bad[0] = b'X';
    let shard = Shard::open(&bad).expect("index itself is intact");
    let err = shard
        .read_all(&registry, &mut scratch, &mut out)
        .unwrap_err();
    assert_eq!(err, StoreError::Frame(FormatError::BadMagic));
    seen.insert(store_variant(&err));
    // Shape: rank mismatch on the read request.
    let shard = Shard::open(&good).unwrap();
    seen.insert(store_variant(
        &shard
            .read_region(&registry, &[0, 0], &[2, 2], &mut scratch, &mut out)
            .unwrap_err(),
    ));
    // DtypeMismatch: the index's dtype byte flipped to f64 — an f32 read
    // is refused before any chunk is touched.
    let mut bad = good.clone();
    bad[index_offset + 9] = 1; // dtype byte: f64
    let shard = Shard::open(&bad).expect("f64 is a valid dtype byte");
    seen.insert(store_variant(
        &shard
            .read_all(&registry, &mut scratch, &mut out)
            .unwrap_err(),
    ));
    // UnsupportedDtype: a shard of the f32-only raw codec whose index
    // dtype byte claims f64 — the registered codec has no f64 path, so an
    // f64 read fails typed at the first chunk.
    let raw_registry = raw_codec::registry();
    let raw = raw_registry.get(*b"RAW4").unwrap();
    let rgood = write_shard(&data, &[256], &[64], raw, 1e-3).unwrap();
    let rindex =
        u64::from_le_bytes(rgood[rgood.len() - 16..rgood.len() - 8].try_into().unwrap()) as usize;
    let mut bad = rgood.clone();
    bad[rindex + 9] = 1; // dtype byte: f64
    let shard = Shard::open(&bad).expect("index itself is intact");
    let mut out64 = vec![0f64; 256];
    let err = shard
        .read_all(&raw_registry, &mut scratch, &mut out64)
        .unwrap_err();
    assert_eq!(
        err,
        StoreError::UnsupportedDtype {
            codec: "raw-4",
            dtype: DType::F64,
        }
    );
    seen.insert(store_variant(&err));
    // Io: opening a path that does not exist.
    let missing = std::env::temp_dir().join(format!("cuszp_missing_{}.shard", std::process::id()));
    seen.insert(store_variant(&Shard::open_path(&missing).unwrap_err()));

    assert_eq!(
        seen.into_iter().collect::<Vec<_>>(),
        vec![
            "BadMagic",
            "Corrupt",
            "DtypeMismatch",
            "Frame",
            "IndexOutOfBounds",
            "IndexOverlap",
            "Io",
            "Shape",
            "Truncated",
            "UnknownCodec",
            "UnsupportedDtype",
        ],
        "every StoreError variant must be reachable from bytes"
    );
}

/// The golden `CUSZPHY1` frames an early encoder wrote, with the mode
/// byte of the first chunk each holds in a retired mode: one-stream
/// Huffman (3) and run-length (2).
const RETIRED_GOLDEN: [(&[u8], u8); 2] = [
    (
        include_bytes!("../crates/cuszp-core/tests/data/pr9_hybrid_frame.bin"),
        3,
    ),
    (
        include_bytes!("../crates/cuszp-core/tests/data/pr9_hybrid_frame_rle.bin"),
        2,
    ),
];

/// Frames holding the retired mode bytes 2 and 3 fail typed with
/// `UnknownHybridMode` on every path that decodes outside bytes — the
/// hybrid and frame parsers, `decompress_serialized`, and a `CZH1` shard
/// read from memory and from a mapped file — and none panics.
#[test]
fn retired_hybrid_modes_fail_typed_on_every_entry_point() {
    let registry = CodecRegistry::with_defaults();
    let mut scratch = StoreScratch::new();
    for (frame, first_retired) in RETIRED_GOLDEN {
        let want = FormatError::UnknownHybridMode(first_retired);
        assert_eq!(HybridRef::parse(frame).unwrap_err(), want);
        assert_eq!(FrameRef::parse(frame).unwrap_err(), want);
        assert_eq!(
            Cuszp::new()
                .decompress_serialized::<f32>(frame)
                .unwrap_err(),
            want
        );

        // A one-chunk `CZH1` shard around the frame: the index is intact,
        // so the frame fails at read time.
        let n = u64::from_le_bytes(frame[10..18].try_into().unwrap()) as usize;
        let mut shard = frame.to_vec();
        ShardIndex {
            shape: vec![n],
            chunk_shape: vec![n],
            dtype: DType::F32,
            entries: vec![ChunkEntry {
                offset: 0,
                len: frame.len() as u64,
                num_elements: n as u64,
                format_id: *b"CZH1",
            }],
        }
        .append_to(&mut shard);
        let mut out = vec![0f32; n];
        let path = std::env::temp_dir().join(format!(
            "cuszp_retired_{first_retired}_{}.shard",
            std::process::id()
        ));
        std::fs::write(&path, &shard).unwrap();
        let mapped = Shard::open_path(&path);
        std::fs::remove_file(&path).unwrap();
        for opened in [Shard::open(&shard), mapped] {
            let err = opened
                .expect("index itself is intact")
                .read_all(&registry, &mut scratch, &mut out)
                .unwrap_err();
            assert_eq!(err, StoreError::Frame(want.clone()));
        }
    }
}
