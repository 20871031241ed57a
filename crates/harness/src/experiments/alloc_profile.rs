//! Small-payload throughput: the allocating codec API vs the
//! zero-allocation arena API (ISSUE 5).
//!
//! On multi-MB fields the codec's arithmetic dominates and allocator
//! traffic disappears into the noise. On *small* payloads — telemetry
//! windows, halo exchanges, per-timestep deltas, exactly the repeated-
//! call service shape the arena API targets — every owned-API call pays
//! several malloc/free round trips that can rival the compression work
//! itself. This experiment measures compress + decompress throughput for
//! payloads from 4 KiB to 1 MiB through both APIs and records the result
//! as `BENCH_alloc_profile.json` at the repository root. Targets:
//! ≥1.5× round-trip speedup on ≤64 KiB payloads, and — when the `repro`
//! binary's counting allocator is installed — **0 heap operations** per
//! steady-state arena call. The heap-op target holds everywhere; the
//! speedup is ~3× at 4 KiB and fades as the shared codec arithmetic
//! starts to dominate, crossing 1.5× around 32 KiB on a warm glibc heap
//! (whose freelists make this tight-loop baseline a *best case* for the
//! allocating API — a service heap churned by other requests retains the
//! arena advantage longer).
//!
//! The comparison is end-to-end for a serialization-shaped service —
//! both sides start from values and end at wire bytes (and back). The
//! allocating side produces an owned [`cuszp_core::Compressed`] plus its
//! `to_bytes()` stream, and decodes by `Compressed::from_bytes` (owned
//! copies of the F table and payload — the seed's only wire path) into a
//! freshly allocated output. The arena side produces the identical
//! serialized stream in a reused buffer, and decodes through a borrowed
//! [`CompressedRef::parse`] view into a reused slice.

use super::Ctx;
use crate::report::Report;
use cuszp_core::{fast, CompressedRef, CuszpConfig, Scratch};
use datasets::Scale;
use serde::Serialize;
use std::time::Instant;

/// One payload size, both APIs, both directions.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Uncompressed payload size in bytes (f32 elements × 4).
    pub payload_bytes: usize,
    /// Owned-API compress throughput (compress + serialize), MB/s.
    pub alloc_compress_mbps: f64,
    /// Arena-API compress throughput (identical output bytes), MB/s.
    pub into_compress_mbps: f64,
    /// `into / alloc` for compression.
    pub compress_speedup: f64,
    /// Owned-API decompress throughput, MB/s.
    pub alloc_decompress_mbps: f64,
    /// Arena-API decompress throughput, MB/s.
    pub into_decompress_mbps: f64,
    /// `into / alloc` for decompression.
    pub decompress_speedup: f64,
    /// Round-trip (compress + decompress) speedup.
    pub roundtrip_speedup: f64,
    /// Heap operations per steady-state arena round trip (0 when the
    /// counting allocator is installed; meaningless otherwise).
    pub steady_state_heap_ops: u64,
}

/// The checked-in benchmark artifact.
#[derive(Debug, Clone, Serialize)]
pub struct BenchFile {
    /// Artifact schema tag.
    pub experiment: String,
    /// Whether heap-op counts are live (the `repro` binary installs the
    /// counting allocator; other hosts of this module may not).
    pub counting_allocator_installed: bool,
    /// Timing samples per measurement.
    pub samples: usize,
    /// All measured payload sizes.
    pub rows: Vec<Row>,
    /// ISSUE 5 acceptance: minimum round-trip speedup across payloads
    /// ≤ 64 KiB (target ≥ 1.5×).
    pub small_payload_min_speedup: f64,
    /// Maximum steady-state heap ops across all rows (target 0).
    pub max_steady_state_heap_ops: u64,
}

/// Best-of-N tracker. One timing sample runs `reps` calls so
/// sub-microsecond payloads aren't timer-noise-bound.
struct BestOf {
    best: f64,
}

impl BestOf {
    fn new() -> Self {
        BestOf {
            best: f64::INFINITY,
        }
    }

    fn sample(&mut self, reps: usize, mut f: impl FnMut()) {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        self.best = self.best.min(t0.elapsed().as_secs_f64() / reps as f64);
    }
}

fn measure(elems: usize, samples: usize) -> Row {
    let eb = 0.01;
    let cfg = CuszpConfig::default();
    let data: Vec<f32> = (0..elems)
        .map(|i| (i as f32 * 0.023).sin() * 60.0 + (i as f32 * 0.0017).cos() * 9.0)
        .collect();
    let bytes = (elems * 4) as f64;
    let mbps = |secs: f64| bytes / secs / 1.0e6;
    // Amortize timer overhead: ~4 MB of payload per timing sample.
    let reps = ((1 << 22) / (elems * 4)).clamp(4, 1024);

    let owned = fast::compress(&data, eb, cfg);
    let owned_bytes = owned.to_bytes();

    let mut scratch = Scratch::new();
    let mut stream = Vec::new();
    let mut restored = vec![0f32; elems];

    // Correctness cross-check before timing anything.
    fast::compress_into(&mut scratch, &data, eb, cfg, &mut stream);
    assert_eq!(stream, owned_bytes, "arena stream must be byte-identical");

    let run_c_alloc = || {
        let c = fast::compress(&data, eb, cfg);
        std::hint::black_box(c.to_bytes());
    };
    let run_d_alloc = || {
        // The pre-arena wire-to-values path: `from_bytes` copies the F
        // table and the whole payload into an owned `Compressed` (there
        // is no borrowed view), then the owned `fast::decompress`
        // allocates a fresh arena and a zero-initialized output.
        let c = cuszp_core::Compressed::from_bytes(&owned_bytes).expect("stream parses");
        std::hint::black_box(fast::decompress::<f32>(&c));
    };
    let run_d_into = |scratch: &mut Scratch, restored: &mut Vec<f32>| {
        // The arena wire-to-values path: parse a borrowed view (no
        // copies), decode into the reused output.
        let c = CompressedRef::parse(&owned_bytes).expect("stream parses");
        fast::decompress_into(c, scratch, restored);
        std::hint::black_box(restored[0]);
    };

    // Warm-up: fill arenas, fault pages, warm caches on every path.
    for _ in 0..reps {
        run_c_alloc();
        fast::compress_into(&mut scratch, &data, eb, cfg, &mut stream);
        run_d_alloc();
        run_d_into(&mut scratch, &mut restored);
    }

    // Interleave the four configurations sample-by-sample so transient
    // machine load hits them symmetrically — the ratios of best-of-N
    // times are far more stable than timing each API in its own block.
    let mut c_alloc = BestOf::new();
    let mut c_into = BestOf::new();
    let mut d_alloc = BestOf::new();
    let mut d_into = BestOf::new();
    for _ in 0..samples {
        c_alloc.sample(reps, run_c_alloc);
        c_into.sample(reps, || {
            fast::compress_into(&mut scratch, &data, eb, cfg, &mut stream);
            std::hint::black_box(stream.len());
        });
        d_alloc.sample(reps, run_d_alloc);
        d_into.sample(reps, || run_d_into(&mut scratch, &mut restored));
    }
    let (c_alloc, c_into) = (c_alloc.best, c_into.best);
    let (d_alloc, d_into) = (d_alloc.best, d_into.best);

    // Heap traffic of one steady-state arena round trip (arena and
    // buffers are warm from the timing loops above).
    let before = alloc_counter::snapshot();
    fast::compress_into(&mut scratch, &data, eb, cfg, &mut stream);
    fast::decompress_into(
        CompressedRef::parse(&stream).expect("own output parses"),
        &mut scratch,
        &mut restored,
    );
    let steady_state_heap_ops = alloc_counter::snapshot().since(&before).heap_ops();

    Row {
        payload_bytes: elems * 4,
        alloc_compress_mbps: mbps(c_alloc),
        into_compress_mbps: mbps(c_into),
        compress_speedup: c_alloc / c_into,
        alloc_decompress_mbps: mbps(d_alloc),
        into_decompress_mbps: mbps(d_into),
        decompress_speedup: d_alloc / d_into,
        roundtrip_speedup: (c_alloc + d_alloc) / (c_into + d_into),
        steady_state_heap_ops,
    }
}

/// Run the allocation-profile experiment.
pub fn run(ctx: &Ctx) {
    let mut report = Report::new(
        "alloc_profile",
        "Small-payload throughput: allocating API vs zero-allocation arena API",
        &ctx.out_dir,
    );
    let samples = match ctx.scale {
        Scale::Tiny => 5,
        Scale::Small => 20,
        Scale::Medium => 40,
    };
    let installed = alloc_counter::is_installed();
    report.line(&format!(
        "payloads 4 KiB..1 MiB (f32); best of {samples} samples; counting allocator {}",
        if installed {
            "installed"
        } else {
            "NOT installed (heap-op counts inert)"
        }
    ));

    let sizes_kib = [4usize, 8, 16, 32, 64, 256, 1024];
    let rows: Vec<Row> = sizes_kib
        .iter()
        .map(|&kib| measure(kib * 1024 / 4, samples))
        .collect();

    report.table(
        &[
            "payload",
            "cmp alloc MB/s",
            "cmp arena MB/s",
            "dec alloc MB/s",
            "dec arena MB/s",
            "rt speedup",
            "heap ops",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{} KiB", r.payload_bytes / 1024),
                    format!("{:.0}", r.alloc_compress_mbps),
                    format!("{:.0}", r.into_compress_mbps),
                    format!("{:.0}", r.alloc_decompress_mbps),
                    format!("{:.0}", r.into_decompress_mbps),
                    format!("{:.2}x", r.roundtrip_speedup),
                    format!("{}", r.steady_state_heap_ops),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let small_payload_min_speedup = rows
        .iter()
        .filter(|r| r.payload_bytes <= 64 * 1024)
        .map(|r| r.roundtrip_speedup)
        .fold(f64::INFINITY, f64::min);
    let max_steady_state_heap_ops = rows
        .iter()
        .map(|r| r.steady_state_heap_ops)
        .max()
        .unwrap_or(0);
    report.line(&format!(
        "min round-trip speedup on <=64 KiB payloads: {small_payload_min_speedup:.2}x (target >=1.5x); \
         max steady-state heap ops: {max_steady_state_heap_ops} (target 0)"
    ));

    let bench = BenchFile {
        experiment: "alloc_profile".to_string(),
        counting_allocator_installed: installed,
        samples,
        rows: rows.clone(),
        small_payload_min_speedup,
        max_steady_state_heap_ops,
    };

    report.save_json(&rows);
    report.save_text();

    // Perf-trajectory artifact at the repository root, like
    // BENCH_host_codec.json, so successive PRs diff it directly.
    let root = ctx.out_dir.parent().unwrap_or(std::path::Path::new("."));
    let path = root.join("BENCH_alloc_profile.json");
    let json = serde_json::to_string_pretty(&bench).expect("serialize bench file");
    std::fs::write(&path, json).expect("write BENCH_alloc_profile.json");
    report.line(&format!(
        "benchmark trajectory written to {}",
        path.display()
    ));
}
