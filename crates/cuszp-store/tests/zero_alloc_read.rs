//! The zero-allocation partial-read contract, proven executable: with
//! the counting allocator installed as this binary's global allocator, a
//! warm [`StoreScratch`] serves region reads — any codec, any shape —
//! with **zero** heap operations. The 1-D suites also run the raw test
//! codec, whose reads take the trait's provided row walk.

#[path = "support/raw_codec.rs"]
mod raw_codec;

use cuszp_store::{write_shard, CodecRegistry, Shard, StoreScratch};

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

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
fn warm_partial_reads_allocate_nothing() {
    let data: Vec<f32> = (0..100_000)
        .map(|i| (i as f32 * 0.0021).sin() * 30.0 + (i as f32 * 0.00013).cos())
        .collect();
    assert!(
        alloc_counter::is_installed(),
        "counting allocator must be this binary's #[global_allocator]"
    );
    let registry = raw_codec::registry();

    for codec in registry.codecs() {
        let bytes = write_shard(&data, &[100_000], &[8192], codec, 1e-3).unwrap();
        let shard = Shard::open(&bytes).unwrap();
        let mut scratch = StoreScratch::new();
        let mut out = vec![0f32; data.len()];

        // Warm-up: the largest read grows the tile and the codec arena
        // to their high-water marks — which the per-thread counter must
        // see, or the zero checks below are vacuous.
        let warm_ops = heap_ops_of(|| {
            shard.read_all(&registry, &mut scratch, &mut out).unwrap();
        });
        assert!(warm_ops > 0, "per-thread counter must see the warm-up");

        // Steady state: single-block, mid-shard, chunk-straddling, and
        // full reads — zero heap operations of any kind.
        let l = codec.block_len();
        let mut small = vec![0f32; l];
        let mut straddle = vec![0f32; 4096];
        let ops = heap_ops_of(|| {
            shard
                .read_region(&registry, &[16384], &[l], &mut scratch, &mut small)
                .unwrap();
            shard
                .read_region(
                    &registry,
                    &[8192 - 2048],
                    &[4096],
                    &mut scratch,
                    &mut straddle,
                )
                .unwrap();
            shard.read_all(&registry, &mut scratch, &mut out).unwrap();
        });
        assert_eq!(
            ops,
            0,
            "warm reads must not touch the heap (codec {})",
            codec.name()
        );
        assert_eq!(&small[..], &out[16384..16384 + l], "codec {}", codec.name());
        assert_eq!(
            &straddle[..],
            &out[8192 - 2048..8192 + 2048],
            "codec {}",
            codec.name()
        );
    }
}

/// The mmap-backed path has the same contract: once warm, region reads
/// off a [`Shard::open_path`] shard perform zero heap operations — page
/// faults are the kernel's business, not the allocator's.
#[test]
fn warm_mmap_reads_allocate_nothing() {
    let data: Vec<f32> = (0..60_000)
        .map(|i| (i as f32 * 0.0017).sin() * 21.0)
        .collect();
    let registry = raw_codec::registry();

    for codec in registry.codecs() {
        let bytes = write_shard(&data, &[60_000], &[4096], codec, 1e-3).unwrap();
        let path = std::env::temp_dir().join(format!(
            "cuszp_zero_alloc_mmap_{}_{}.shard",
            std::process::id(),
            codec.name()
        ));
        std::fs::write(&path, &bytes).unwrap();
        let shard = Shard::open_path(&path).unwrap();
        let mut scratch = StoreScratch::new();
        let mut out = vec![0f32; data.len()];
        shard.read_all(&registry, &mut scratch, &mut out).unwrap();

        let l = codec.block_len();
        let mut small = vec![0f32; l];
        let ops = heap_ops_of(|| {
            shard
                .read_region(&registry, &[4096 + 128], &[l], &mut scratch, &mut small)
                .unwrap();
            shard.read_all(&registry, &mut scratch, &mut out).unwrap();
        });
        assert_eq!(
            ops,
            0,
            "warm mmap reads must not touch the heap (codec {})",
            codec.name()
        );
        assert_eq!(
            &small[..],
            &out[4096 + 128..4096 + 128 + l],
            "codec {}",
            codec.name()
        );
        drop(shard);
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn warm_2d_region_reads_allocate_nothing() {
    let (h, w) = (256, 512);
    let data: Vec<f32> = (0..h * w)
        .map(|i| {
            let (y, x) = (i / w, i % w);
            ((x as f32) * 0.07).sin() * ((y as f32) * 0.05).cos() * 12.0
        })
        .collect();
    let registry = CodecRegistry::with_defaults();
    let codec = registry.get(*b"CZP1").unwrap();
    let bytes = write_shard(&data, &[h, w], &[64, 64], codec, 1e-4).unwrap();
    let shard = Shard::open(&bytes).unwrap();
    let mut scratch = StoreScratch::new();
    let mut full = vec![0f32; h * w];
    shard.read_all(&registry, &mut scratch, &mut full).unwrap();

    let mut region = vec![0f32; 100 * 100];
    let ops = heap_ops_of(|| {
        // Straddles a 2×2 chunk neighborhood.
        shard
            .read_region(&registry, &[30, 30], &[100, 100], &mut scratch, &mut region)
            .unwrap();
    });
    assert_eq!(ops, 0, "warm 2-D region read must not touch the heap");
    for y in 0..100 {
        assert_eq!(
            &region[y * 100..(y + 1) * 100],
            &full[(30 + y) * w + 30..(30 + y) * w + 130],
            "row {y}"
        );
    }
}

/// Merged row runs keep the contract: on a 3-D `CZH1` shard, a warm
/// full read (one codec call per chunk), a full-width box (rows merged
/// within each chunk) and a partial-x box (one call per row) each
/// perform zero heap operations.
#[test]
fn warm_3d_hybrid_reads_allocate_nothing() {
    let shape = [9, 70, 300];
    let (plane, w) = (shape[1] * shape[2], shape[2]);
    let data: Vec<f32> = (0..shape.iter().product::<usize>())
        .map(|i| {
            let (z, y, x) = (i / plane, i / w % shape[1], i % w);
            ((x as f32) * 0.03).sin() * ((y as f32) * 0.09).cos() * 15.0 + z as f32
        })
        .collect();
    let registry = CodecRegistry::with_defaults();
    let codec = registry.get(*b"CZH1").unwrap();
    let bytes = write_shard(&data, &shape, &[4, 32, 128], codec, 1e-3).unwrap();
    let shard = Shard::open(&bytes).unwrap();
    let mut scratch = StoreScratch::new();
    let mut full = vec![0f32; data.len()];
    let warm_ops = heap_ops_of(|| {
        shard.read_all(&registry, &mut scratch, &mut full).unwrap();
    });
    assert!(warm_ops > 0, "per-thread counter must see the warm-up");

    let mut again = vec![0f32; data.len()];
    let ops = heap_ops_of(|| {
        shard.read_all(&registry, &mut scratch, &mut again).unwrap();
    });
    assert_eq!(ops, 0, "warm 3-D read_all must not touch the heap");
    assert_eq!(again, full);

    for (name, origin, extent) in [
        ("full-width box", [2, 10, 0], [5, 40, w]),
        ("partial-x box", [1, 5, 20], [7, 50, 150]),
    ] {
        let mut region = vec![0f32; extent.iter().product()];
        let ops = heap_ops_of(|| {
            shard
                .read_region(&registry, &origin, &extent, &mut scratch, &mut region)
                .unwrap();
        });
        assert_eq!(ops, 0, "warm 3-D {name} read must not touch the heap");
        for (r, row) in region.chunks(extent[2]).enumerate() {
            let (z, y) = (origin[0] + r / extent[1], origin[1] + r % extent[1]);
            let at = z * plane + y * w + origin[2];
            assert_eq!(row, &full[at..at + extent[2]], "{name} row {r}");
        }
    }
}
