//! The zero-allocation steady-state contract, proven executable: with
//! the counting allocator installed as this binary's global allocator,
//! the second `compress_into` / `decompress_into` call at a given shape
//! must perform **zero** heap operations.

use cuszp_core::hybrid::{self, HybridRef, HybridScratch, Mode};
use cuszp_core::{fast, simd, CompressedRef, CuszpConfig, Scratch};

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

fn wave(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| (i as f32 * 0.021).sin() * 55.0 + (i as f32 * 0.0013).cos() * 7.0)
        .collect()
}

/// Run `f` and return the number of heap operations it performed on
/// this thread. The code under test is sequential, so per-thread counts
/// are exact, and tests running concurrently in this binary cannot
/// disturb them.
fn heap_ops_of(f: impl FnOnce()) -> u64 {
    let before = alloc_counter::thread_snapshot();
    f();
    alloc_counter::thread_snapshot().since(&before).heap_ops()
}

#[test]
fn second_call_allocates_nothing() {
    // The data allocation itself proves the counter is live — if the
    // counting allocator were not installed, the zero assertions below
    // would pass vacuously.
    let data = wave(10_000);
    assert!(
        alloc_counter::is_installed(),
        "counting allocator must be this binary's #[global_allocator]"
    );

    let cfg = CuszpConfig::default();
    let mut scratch = Scratch::new();
    let mut stream = Vec::new();
    let mut restored = vec![0f32; data.len()];

    // Warm-up: grows the arena and the output buffer — which the
    // per-thread counter must see, or the zero checks below are vacuous.
    let warm_ops = heap_ops_of(|| {
        fast::compress_into(&mut scratch, &data, 0.01, cfg, &mut stream);
    });
    assert!(warm_ops > 0, "per-thread counter must see the warm-up");
    fast::decompress_into(
        CompressedRef::parse(&stream).expect("own output parses"),
        &mut scratch,
        &mut restored,
    );

    // Steady state, single-threaded: zero heap operations of any kind.
    let compress_ops = heap_ops_of(|| {
        fast::compress_into(&mut scratch, &data, 0.01, cfg, &mut stream);
    });
    assert_eq!(compress_ops, 0, "compress_into must not touch the heap");

    let decompress_ops = heap_ops_of(|| {
        fast::decompress_into(
            CompressedRef::parse(&stream).expect("own output parses"),
            &mut scratch,
            &mut restored,
        );
    });
    assert_eq!(decompress_ops, 0, "decompress_into must not touch the heap");
}

#[test]
fn steady_state_survives_content_changes() {
    // Same shape, different values (different per-block F / payload
    // sizes): capacity is shape-dependent only, so still zero heap ops.
    let cfg = CuszpConfig::default();
    let mut scratch = Scratch::new();
    let mut stream = Vec::new();
    let n = 4096;
    let mut restored = vec![0f32; n];
    let signal = wave(n + 64);

    fast::compress_into(&mut scratch, &signal[..n], 0.01, cfg, &mut stream);
    fast::decompress_into(
        cuszp_core::CompressedRef::parse(&stream).expect("own output parses"),
        &mut scratch,
        &mut restored,
    );
    let ops = heap_ops_of(|| {
        for shift in 1..64 {
            let window = &signal[shift..shift + n];
            let r = fast::compress_into(&mut scratch, window, 0.01, cfg, &mut stream);
            fast::decompress_into(r, &mut scratch, &mut restored);
        }
    });
    assert_eq!(ops, 0, "63 same-shape round trips must not touch the heap");
}

#[test]
fn f64_steady_state_is_also_clean() {
    let data: Vec<f64> = (0..5000)
        .map(|i| (i as f64 * 0.017).sin() * 900.0)
        .collect();
    let cfg = CuszpConfig::default();
    let mut scratch = Scratch::new();
    let mut stream = Vec::new();
    let mut restored = vec![0f64; data.len()];

    fast::compress_into(&mut scratch, &data, 0.05, cfg, &mut stream);
    fast::decompress_into(
        cuszp_core::CompressedRef::parse(&stream).expect("own output parses"),
        &mut scratch,
        &mut restored,
    );
    let ops = heap_ops_of(|| {
        let r = fast::compress_into(&mut scratch, &data, 0.05, cfg, &mut stream);
        fast::decompress_into(r, &mut scratch, &mut restored);
    });
    assert_eq!(ops, 0);
}

#[test]
fn warmed_arena_makes_even_the_first_call_free() {
    // `Scratch::warm_for` + a `max_stream_bytes` reservation move the
    // warm-up allocations to handshake time: the FIRST compress and
    // decompress at the declared shape already run allocation-free.
    let cfg = CuszpConfig::default();
    let data = wave(6000);
    let mut scratch = Scratch::new();
    scratch.warm_for::<f32>(data.len(), cfg);
    let mut stream = Vec::with_capacity(fast::max_stream_bytes::<f32>(data.len(), cfg));
    let mut restored = vec![0f32; data.len()];

    let first_compress = heap_ops_of(|| {
        fast::compress_into(&mut scratch, &data, 0.01, cfg, &mut stream);
    });
    assert_eq!(first_compress, 0, "warmed first compress must be free");
    let first_decompress = heap_ops_of(|| {
        fast::decompress_into(
            CompressedRef::parse(&stream).expect("own output parses"),
            &mut scratch,
            &mut restored,
        );
    });
    assert_eq!(first_decompress, 0, "warmed first decompress must be free");
}

#[test]
fn warmed_hybrid_encode_is_free_from_the_first_call() {
    // The Huffman4 writers briefly grow the frame past each chunk's final
    // size (padded stream regions); `max_frame_bytes` covers that slack,
    // so a frame buffer reserved to it never reallocates — on the first
    // encode, in every mode the encoder writes. The leading zeros make
    // the first chunks constant.
    let cfg = CuszpConfig::default();
    let mut data = wave(40_000);
    data[..16_384].fill(0.0);
    let stream = fast::compress(&data, 0.01, cfg);
    let r = stream.as_ref();
    let chunk = hybrid::DEFAULT_CHUNK_BLOCKS;
    for force in [
        None,
        Some(Mode::Pass),
        Some(Mode::Constant),
        Some(Mode::Huffman4),
    ] {
        let mut hs = HybridScratch::new();
        hs.warm_for::<f32>(data.len(), cfg, chunk);
        let mut frame = Vec::with_capacity(hybrid::max_frame_bytes::<f32>(data.len(), cfg, chunk));
        let ops = heap_ops_of(|| hybrid::encode_with(&r, chunk, force, &mut hs, &mut frame));
        assert_eq!(
            ops, 0,
            "warmed first hybrid encode ({force:?}) must be free"
        );
        let modes = HybridRef::parse(&frame)
            .expect("own frame parses")
            .mode_histogram();
        if let Some(m) = force {
            assert!(modes[m.to_byte() as usize] > 0, "{m} must stick: {modes:?}");
        }
    }
}

#[test]
fn warmed_hybrid_decode_is_free_from_the_first_call() {
    // `warm_for` sizes the chunk staging and allocates the Huffman
    // decode table, so the first decode of a `Huffman4` frame — whole
    // frame and a partial block range — touches the heap zero times.
    let cfg = CuszpConfig::default();
    let data = wave(40_000);
    let stream = fast::compress(&data, 0.01, cfg);
    let r = stream.as_ref();
    let chunk = hybrid::DEFAULT_CHUNK_BLOCKS;
    let want: Vec<f32> = fast::decompress(&stream);
    let mut frame = Vec::new();
    hybrid::encode_with(
        &r,
        chunk,
        Some(Mode::Huffman4),
        &mut HybridScratch::new(),
        &mut frame,
    );
    // Resolved up front: reading `CUSZP_SIMD` allocates once per process.
    simd::resolve_level(None);
    let h = HybridRef::parse(&frame).expect("frame parses");
    assert!(
        h.mode_histogram()[Mode::Huffman4.to_byte() as usize] > 0,
        "huffman4 chunks present"
    );

    let n = h.num_elements as usize;
    let mut hs = HybridScratch::new();
    hs.warm_for::<f32>(n, cfg, h.chunk_blocks as usize);
    let mut scratch = Scratch::new();
    scratch.warm_for::<f32>(n, cfg);
    let mut out = vec![0f32; n];
    let mut part = vec![0f32; 300 * 32];
    let ops = heap_ops_of(|| {
        hybrid::decode_into(&h, &mut hs, &mut scratch, &mut out).expect("decodes");
        hybrid::decode_blocks_into(&h, 200..500, &mut hs, &mut scratch, &mut part)
            .expect("decodes");
    });
    assert_eq!(ops, 0, "warmed first hybrid decode must be free");
    assert_eq!(out, want);
    assert_eq!(part, want[200 * 32..500 * 32]);
}

#[test]
fn container_iteration_is_allocation_free() {
    // The wire-decode path of the service: walking a serialized CUSZPCH1
    // container with `chunk_ref_iter` and decoding every chunk must not
    // touch the heap once the arena is warm.
    let data = wave(4096);
    let container =
        cuszp_core::Cuszp::new().compress_chunked(&data, cuszp_core::ErrorBound::Abs(0.01), 1024);
    let bytes = container.to_bytes();
    let mut scratch = Scratch::new();
    let mut restored = vec![0f32; data.len()];

    let decode_all = |scratch: &mut Scratch, restored: &mut [f32]| {
        let mut at = 0usize;
        for chunk in cuszp_core::chunk_ref_iter(&bytes).expect("container parses") {
            let chunk = chunk.expect("chunk parses");
            let n = chunk.num_elements as usize;
            fast::decompress_into(chunk, scratch, &mut restored[at..at + n]);
            at += n;
        }
        assert_eq!(at, data.len());
    };
    decode_all(&mut scratch, &mut restored); // warm-up
    let ops = heap_ops_of(|| decode_all(&mut scratch, &mut restored));
    assert_eq!(ops, 0, "container walk + decode must not touch the heap");
}

#[test]
fn shrinking_the_shape_stays_clean() {
    // Monotonic growth means a smaller follow-up shape is already
    // covered by the warm arena — no resize in either direction.
    let cfg = CuszpConfig::default();
    let big = wave(8192);
    let small = wave(1024);
    let mut scratch = Scratch::new();
    let mut stream = Vec::new();
    let mut restored = vec![0f32; big.len()];

    fast::compress_into(&mut scratch, &big, 0.01, cfg, &mut stream);
    fast::decompress_into(
        cuszp_core::CompressedRef::parse(&stream).expect("own output parses"),
        &mut scratch,
        &mut restored,
    );
    let ops = heap_ops_of(|| {
        let r = fast::compress_into(&mut scratch, &small, 0.01, cfg, &mut stream);
        fast::decompress_into(r, &mut scratch, &mut restored[..small.len()]);
    });
    assert_eq!(ops, 0, "smaller shape after a larger warm-up must be free");
}
