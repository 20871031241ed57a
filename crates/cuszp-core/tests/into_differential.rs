//! Differential suite for the arena entry points: `compress_into` /
//! `decompress_into` must be **byte-identical** to the owned
//! `compress` / `decompress` API across element types, awkward tail
//! lengths, and — the part unique to this suite — *dirty* arenas and
//! output buffers reused across wildly different calls.

use cuszp_core::{fast, CompressedRef, CuszpConfig, FloatData, Scratch};
use proptest::prelude::*;

/// One arena + one output buffer per differential check, deliberately
/// carried across two passes so the second sees the first one's
/// leftovers.
fn assert_into_matches_owned<T: FloatData>(
    data: &[T],
    eb: f64,
    cfg: CuszpConfig,
) -> Result<(), TestCaseError> {
    let owned = fast::compress(data, eb, cfg);
    let owned_bytes = owned.to_bytes();
    let owned_back: Vec<T> = fast::decompress(&owned);

    let mut scratch = Scratch::new();
    let mut stream = Vec::new();
    let mut restored = vec![T::default(); data.len()];
    for pass in 0..2 {
        let r = fast::compress_into(&mut scratch, data, eb, cfg, &mut stream).to_owned();
        prop_assert_eq!(
            &stream,
            &owned_bytes,
            "serialized stream differs (pass {})",
            pass
        );
        prop_assert_eq!(&r, &owned, "parsed view differs (pass {})", pass);

        // Decode from the ref we just produced (borrowing `stream`) and
        // from the owned struct: both must reproduce the owned output.
        fast::decompress_into(
            CompressedRef::parse(&stream).expect("own output parses"),
            &mut scratch,
            &mut restored,
        );
        prop_assert_eq!(
            &restored,
            &owned_back,
            "reconstruction differs (pass {})",
            pass
        );
        // compress_with (arena-backed owned output) closes the square.
        let with = fast::compress_with(&mut scratch, data, eb, cfg);
        prop_assert_eq!(&with, &owned, "compress_with differs (pass {})", pass);
    }
    Ok(())
}

/// Lengths on, just before, and just after block boundaries.
fn awkward_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..700,
        Just(31usize),
        Just(32),
        Just(33),
        Just(127),
        Just(128),
        Just(129),
        Just(1024),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn f32_into_is_byte_identical(
        len in awkward_len(),
        seed in any::<u64>(),
        eb in 1e-5f64..1.0,
        block_len in prop_oneof![Just(8usize), Just(16), Just(32), Just(64), Just(128)],
        lorenzo in any::<bool>(),
    ) {
        let mut s = seed | 1;
        let data: Vec<f32> = (0..len).map(|_| {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            ((s % 20_000) as f32 - 10_000.0) * 0.37
        }).collect();
        assert_into_matches_owned(&data, eb, CuszpConfig { block_len, lorenzo, ..CuszpConfig::default() })?;
    }

    #[test]
    fn f64_into_is_byte_identical(
        len in awkward_len(),
        seed in any::<u64>(),
        eb in 1e-6f64..0.5,
        lorenzo in any::<bool>(),
    ) {
        let mut s = seed | 1;
        let data: Vec<f64> = (0..len).map(|_| {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            ((s % 2_000_000) as f64 - 1_000_000.0) * 1.3e-2
        }).collect();
        assert_into_matches_owned(&data, eb, CuszpConfig { lorenzo, ..CuszpConfig::default() })?;
    }

    #[test]
    fn dirty_arena_across_shapes_and_dtypes(
        lens in proptest::collection::vec(awkward_len(), 2..6),
        seed in any::<u64>(),
        eb in 1e-4f64..0.5,
    ) {
        // ONE arena + ONE output buffer across a random sequence of
        // shapes, alternating dtype: no call may see the last call's
        // state. (assert_into_matches_owned builds fresh ones, so here
        // the sequence itself shares them.)
        let mut scratch = Scratch::new();
        let mut stream = Vec::new();
        let mut s = seed | 1;
        for (i, &len) in lens.iter().enumerate() {
            let mut next = || { s ^= s << 13; s ^= s >> 7; s ^= s << 17; s };
            if i % 2 == 0 {
                let data: Vec<f32> = (0..len)
                    .map(|_| ((next() % 60_000) as f32 - 30_000.0) * 0.11)
                    .collect();
                let owned = fast::compress(&data, eb, CuszpConfig::default());
                fast::compress_into(&mut scratch, &data, eb, CuszpConfig::default(), &mut stream);
                prop_assert_eq!(&stream, &owned.to_bytes(), "f32 call {} differs", i);
                let mut back = vec![0f32; len];
                fast::decompress_into(owned.as_ref(), &mut scratch, &mut back);
                prop_assert_eq!(back, fast::decompress::<f32>(&owned), "f32 decode {} differs", i);
            } else {
                let data: Vec<f64> = (0..len)
                    .map(|_| ((next() % 999_999) as f64 - 500_000.0) * 2.3e-3)
                    .collect();
                let owned = fast::compress(&data, eb, CuszpConfig::default());
                fast::compress_into(&mut scratch, &data, eb, CuszpConfig::default(), &mut stream);
                prop_assert_eq!(&stream, &owned.to_bytes(), "f64 call {} differs", i);
                let mut back = vec![0f64; len];
                fast::decompress_into(owned.as_ref(), &mut scratch, &mut back);
                prop_assert_eq!(back, fast::decompress::<f64>(&owned), "f64 decode {} differs", i);
            }
        }
    }
}

#[test]
fn constant_and_zero_data_into_identical() {
    for v in [0.0f32, 1.25, -7.5] {
        let data = vec![v; 300];
        assert_into_matches_owned(&data, 0.01, CuszpConfig::default()).unwrap();
    }
}

#[test]
fn empty_input_into_identical() {
    assert_into_matches_owned::<f32>(&[], 0.1, CuszpConfig::default()).unwrap();
}

#[test]
fn wide_residuals_into_identical() {
    for amp in [3.0e4f32, 2.0e5, 3.0e6, 5.0e7] {
        let data: Vec<f32> = (0..512).map(|i| (i as f32 * 0.41).sin() * amp).collect();
        assert_into_matches_owned(&data, 1e-4, CuszpConfig::default()).unwrap();
    }
}
