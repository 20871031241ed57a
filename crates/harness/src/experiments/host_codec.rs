//! Host codec throughput trajectory — `host_ref` vs the word-parallel
//! two-phase [`cuszp_core::fast`] codec, measured **per SIMD tier**.
//!
//! Not a paper figure: the paper's throughput story is about the GPU
//! kernels, but every `cuszp-pipeline` worker and every chunked
//! compression executes the *host* codec, so its real wall-clock speed is
//! what the repo's end-to-end numbers rest on. This experiment measures
//! compress/decompress GB/s for both codecs × {f32, f64} × {dense,
//! sparse} corpora × every [`SimdLevel`] tier the running host supports,
//! and records the result as `BENCH_host_codec.json` at the repository
//! root — a perf trajectory successive PRs are judged against.
//!
//! **Methodology.** Decompress rows time the warm-arena
//! [`fast::decompress_into_at`] serving path — the one the pipeline
//! workers, the service, and the store all run — so the number is codec
//! throughput, not allocator throughput. A supplementary
//! `decompress_owned` row (top tier only) times the allocating
//! [`fast::decompress`] wrapper, which zero-fills a fresh output `Vec`
//! and a fresh arena on every call; at 32 MiB outputs that path is
//! dominated by glibc's mmap-threshold churn, page faults and the extra
//! memset, and understates the codec severalfold, which is exactly why
//! the arena API exists (see DESIGN.md "Buffer reuse"). The JSON records which tier each row ran
//! at and which tiers the host actually supports — rows the host cannot
//! run are absent, never extrapolated.

use super::Ctx;
use crate::report::{f2, Report};
use cuszp_core::{fast, host_ref, simd, CuszpConfig, FloatData, Scratch, SimdLevel};
use datasets::Scale;
use serde::Serialize;
use std::time::Instant;

/// One measured configuration.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Element type ("f32" / "f64").
    pub dtype: String,
    /// Corpus ("dense" / "sparse").
    pub corpus: String,
    /// Direction ("compress" / "decompress" / "decompress_owned").
    pub direction: String,
    /// SIMD dispatch tier the fast-codec columns ran at.
    pub tier: String,
    /// `host_ref` throughput, GB/s of uncompressed data.
    pub ref_gbps: f64,
    /// Fast-codec throughput, GB/s.
    pub fast_gbps: f64,
    /// `fast_gbps / ref_gbps`.
    pub speedup: f64,
    /// Compression ratio of the corpus (context for the rates).
    pub ratio: f64,
}

/// The checked-in benchmark artifact.
#[derive(Debug, Clone, Serialize)]
pub struct BenchFile {
    /// Artifact schema tag.
    pub experiment: String,
    /// Elements per corpus.
    pub elements: usize,
    /// Highest SIMD tier the measuring host supports; every lower tier
    /// was also measured, so absent tiers mean the host lacks them.
    pub detected_tier: String,
    /// How decompress rows were timed (serving path vs owned wrapper).
    pub decompress_methodology: String,
    /// All measured rows.
    pub rows: Vec<Row>,
    /// Dense-f32 fast-codec speedup over `host_ref` (top tier).
    pub dense_f32_compress_speedup: f64,
    /// Decompression counterpart.
    pub dense_f32_decompress_speedup: f64,
}

/// Smooth two-tone wave — every block non-zero, moderate `F`.
fn dense<T: FloatData>(n: usize) -> Vec<T> {
    (0..n)
        .map(|i| {
            let x = i as f64;
            T::from_f64((x * 0.02).sin() * 40.0 + (x * 0.11).cos() * 3.0)
        })
        .collect()
}

/// Same signal with three of every four 1 Ki-element stripes zeroed —
/// mostly zero blocks, the workload where skipping payload work pays.
fn sparse<T: FloatData>(n: usize) -> Vec<T> {
    dense::<T>(n)
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            if (i >> 10) % 4 == 0 {
                v
            } else {
                T::from_f64(0.0)
            }
        })
        .collect()
}

/// Best-of-`iters` wall-clock seconds for `f` (after one warmup run).
fn best_seconds<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn measure<T: FloatData + Default + Copy>(
    data: &[T],
    dtype: &str,
    corpus: &str,
    iters: usize,
) -> Vec<Row> {
    let eb = 0.01;
    let base = CuszpConfig::default();
    let bytes = std::mem::size_of_val(data) as f64;
    let gbps = |secs: f64| bytes / secs / 1.0e9;
    let detected = simd::detect_level();

    let stream = host_ref::compress(data, eb, base);
    let ratio = bytes / stream.stream_bytes() as f64;

    // The scalar oracle's times are tier-independent; measure once.
    let c_ref = best_seconds(iters, || host_ref::compress(data, eb, base));
    let d_ref = best_seconds(iters, || host_ref::decompress::<T>(&stream));

    let mut rows = Vec::new();
    let row = |direction: &str, tier: &str, r: f64, f: f64| Row {
        dtype: dtype.to_string(),
        corpus: corpus.to_string(),
        direction: direction.to_string(),
        tier: tier.to_string(),
        ref_gbps: gbps(r),
        fast_gbps: gbps(f),
        speedup: r / f,
        ratio,
    };

    for level in SimdLevel::ALL.into_iter().filter(|&l| l <= detected) {
        let cfg = CuszpConfig {
            simd: Some(level),
            ..base
        };
        let fast_stream = fast::compress(data, eb, cfg);
        assert_eq!(stream, fast_stream, "fast codec must be byte-identical");

        let c_fast = best_seconds(iters, || fast::compress(data, eb, cfg));

        // Steady-state serving path: warm arena, caller-owned output.
        let mut scratch = Scratch::new();
        let mut out = vec![T::default(); data.len()];
        let d_fast = best_seconds(iters, || {
            fast::decompress_into_at(stream.as_ref(), &mut scratch, Some(level), &mut out)
        });

        let tier = level.name();
        rows.push(row("compress", tier, c_ref, c_fast));
        rows.push(row("decompress", tier, d_ref, d_fast));

        if level == detected {
            // Supplementary: the allocating wrapper, so the cost of NOT
            // using the arena path stays on the record.
            let d_own = best_seconds(iters, || fast::decompress::<T>(&stream));
            rows.push(row("decompress_owned", tier, d_ref, d_own));
        }
    }
    rows
}

/// Run the host-codec throughput experiment.
pub fn run(ctx: &Ctx) {
    let mut report = Report::new(
        "host_codec",
        "Host codec throughput: host_ref vs word-parallel fast codec, per SIMD tier",
        &ctx.out_dir,
    );
    // Tiny keeps the CI smoke run in seconds; larger scales measure at
    // working-set sizes where cache effects resemble real fields.
    let (n, iters) = match ctx.scale {
        Scale::Tiny => (1 << 16, 3),
        Scale::Small => (1 << 22, 5),
        Scale::Medium => (1 << 24, 5),
    };
    let detected = simd::detect_level();
    report.line(&format!(
        "corpus: {n} elements per configuration; best of {iters} runs; \
         detected SIMD tier: {detected}"
    ));
    report.line(
        "decompress rows time the warm-arena decompress_into serving path; \
         decompress_owned rows time the allocating wrapper (top tier only)",
    );

    let mut rows = Vec::new();
    rows.extend(measure(&dense::<f32>(n), "f32", "dense", iters));
    rows.extend(measure(&sparse::<f32>(n), "f32", "sparse", iters));
    rows.extend(measure(&dense::<f64>(n), "f64", "dense", iters));
    rows.extend(measure(&sparse::<f64>(n), "f64", "sparse", iters));

    report.table(
        &[
            "dtype",
            "corpus",
            "dir",
            "tier",
            "ref GB/s",
            "fast GB/s",
            "speedup",
            "ratio",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dtype.clone(),
                    r.corpus.clone(),
                    r.direction.clone(),
                    r.tier.clone(),
                    format!("{:.3}", r.ref_gbps),
                    format!("{:.3}", r.fast_gbps),
                    format!("{:.2}x", r.speedup),
                    f2(r.ratio),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let pick = |dir: &str| {
        rows.iter()
            .find(|r| {
                r.dtype == "f32"
                    && r.corpus == "dense"
                    && r.direction == dir
                    && r.tier == detected.name()
            })
            .map(|r| r.speedup)
            .unwrap_or(0.0)
    };
    let bench = BenchFile {
        experiment: "host_codec".to_string(),
        elements: n,
        detected_tier: detected.name().to_string(),
        decompress_methodology: "decompress rows: warm-arena decompress_into_at (the \
             pipeline/service/store serving path); decompress_owned rows: allocating \
             decompress wrapper, top tier only, included so allocator cost stays visible"
            .to_string(),
        rows: rows.clone(),
        dense_f32_compress_speedup: pick("compress"),
        dense_f32_decompress_speedup: pick("decompress"),
    };
    report.line(&format!(
        "dense f32 speedup at {detected}: {:.2}x compress, {:.2}x decompress",
        bench.dense_f32_compress_speedup, bench.dense_f32_decompress_speedup
    ));

    report.save_json(&rows);
    report.save_text();

    // The perf-trajectory file lives at the repository root, next to
    // ROADMAP.md, so successive PRs diff it directly.
    let root = ctx.out_dir.parent().unwrap_or(std::path::Path::new("."));
    let path = root.join("BENCH_host_codec.json");
    let json = serde_json::to_string_pretty(&bench).expect("serialize bench file");
    std::fs::write(&path, json).expect("write BENCH_host_codec.json");
    report.line(&format!(
        "benchmark trajectory written to {}",
        path.display()
    ));
}
