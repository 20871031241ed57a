//! Figs 17 & 18 — rate-distortion curves (PSNR and SSIM vs bit rate) for
//! all four compressors over the six datasets, plus the `CUSZPHY1`
//! hybrid second stage as a fifth curve (the sweep emits hybrid ratio
//! and throughput per bound).
//!
//! Shape claims reproduced:
//! * cuSZp and cuSZ trace the upper envelope (error-bounded prediction
//!   beats fixed-rate truncation), with cuSZ strongest at very low rates
//!   (Huffman) and cuSZp close while being ~100x faster.
//! * cuSZx sits below both at matched rates (midpoint flush).
//! * cuZFP is competitive on smooth multi-D data (Hurricane/NYX) but
//!   collapses on the 1-D HACC (paper: 28.77 dB / 0.1465 SSIM at rate 4,
//!   vs 60.42 dB / 0.7892 for cuSZp at the same rate).
//! * The hybrid stage (`cuSZp+hybrid`) is lossless over the lossy
//!   stream, so it moves every cuSZp point left (lower bit rate) at
//!   identical PSNR/SSIM; its rows also carry the second-stage encode
//!   and decode throughput so the rate win is priced.

use super::Ctx;
use crate::measure::measure_pipeline;
use crate::report::{f2, Report};
use crate::{error_bounded_compressors, CUZFP_RATES};
use baselines::{Compressor, CuzfpLike};
use cuszp_core::hybrid::{self, HybridRef, HybridScratch};
use cuszp_core::{fast, CuszpConfig, ErrorBound, Scratch};
use datasets::{generate_subset, DatasetId};
use gpu_sim::DeviceSpec;
use metrics::ssim::ssim;
use serde::Serialize;
use std::time::Instant;

/// One rate-distortion point.
#[derive(Debug, Clone, Serialize)]
pub struct Point {
    /// Dataset name.
    pub dataset: String,
    /// Compressor name (`cuSZp+hybrid` for the second-stage curve).
    pub compressor: String,
    /// Bit rate (bits per value).
    pub bit_rate: f64,
    /// PSNR, dB.
    pub psnr: f64,
    /// SSIM.
    pub ssim: f64,
    /// Second-stage encode throughput, GB/s of raw input — only on
    /// `cuSZp+hybrid` rows.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub enc_gbps: Option<f64>,
    /// Second-stage decode throughput, GB/s of raw input — only on
    /// `cuSZp+hybrid` rows.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub dec_gbps: Option<f64>,
}

/// Shipped hybrid size and second-stage throughput for one bound.
fn hybrid_stats(data: &[f32], eb: f64) -> (usize, f64, f64) {
    let raw = std::mem::size_of_val(data);
    let mut scratch = Scratch::new();
    let mut hs = HybridScratch::new();
    let mut plain = Vec::new();
    let mut frame = Vec::new();
    let mut back = Vec::new();
    let r = fast::compress_into(&mut scratch, data, eb, CuszpConfig::default(), &mut plain);
    hybrid::encode(&r, hybrid::auto_chunk_blocks(&r), &mut hs, &mut frame);
    let shipped = frame.len().min(plain.len());

    let reps = ((16 << 20) / raw.max(1)).clamp(1, 32);
    let mut best_enc = f64::INFINITY;
    let mut best_dec = f64::INFINITY;
    for _ in 0..3 {
        let r = cuszp_core::CompressedRef::parse(&plain).expect("own frame parses");
        let t0 = Instant::now();
        for _ in 0..reps {
            hybrid::encode(&r, hybrid::auto_chunk_blocks(&r), &mut hs, &mut frame);
            std::hint::black_box(frame.len());
        }
        best_enc = best_enc.min(t0.elapsed().as_secs_f64() / reps as f64);
        let t0 = Instant::now();
        for _ in 0..reps {
            let h = HybridRef::parse(&frame).expect("own hybrid frame parses");
            hybrid::decode_stream_bytes(&h, &mut hs, &mut back).expect("own frame decodes");
            std::hint::black_box(back.len());
        }
        best_dec = best_dec.min(t0.elapsed().as_secs_f64() / reps as f64);
    }
    (
        shipped,
        raw as f64 / best_enc / 1e9,
        raw as f64 / best_dec / 1e9,
    )
}

/// Measure the rate-distortion grid (one representative field per
/// dataset, as the paper plots per-field curves).
pub fn measure(ctx: &Ctx) -> Vec<Point> {
    let spec = DeviceSpec::a100();
    let mut points = Vec::new();
    for id in DatasetId::all() {
        let field = generate_subset(id, ctx.scale, 1).remove(0);
        for comp in error_bounded_compressors() {
            for bound in ErrorBound::paper_rel_set() {
                let eb = bound.absolute(field.value_range() as f64);
                let m = measure_pipeline(&spec, comp.as_ref(), &field, eb);
                let s = ssim(&field.data, &m.reconstruction, &field.shape);
                points.push(Point {
                    dataset: id.name().to_string(),
                    compressor: comp.kind().name().to_string(),
                    bit_rate: m.bit_rate,
                    psnr: m.psnr,
                    ssim: s,
                    enc_gbps: None,
                    dec_gbps: None,
                });
                // The hybrid second stage is lossless over cuSZp's lossy
                // stream: same reconstruction, fewer stored bits. Emit
                // it as its own curve with the stage's throughput.
                if comp.kind().name() == "cuSZp" {
                    let (shipped, enc_gbps, dec_gbps) = hybrid_stats(&field.data, eb);
                    points.push(Point {
                        dataset: id.name().to_string(),
                        compressor: "cuSZp+hybrid".to_string(),
                        bit_rate: shipped as f64 * 8.0 / field.data.len() as f64,
                        psnr: m.psnr,
                        ssim: s,
                        enc_gbps: Some(enc_gbps),
                        dec_gbps: Some(dec_gbps),
                    });
                }
            }
        }
        for rate in CUZFP_RATES {
            let comp = CuzfpLike::new(rate);
            let m = measure_pipeline(&spec, &comp, &field, 0.0);
            let s = ssim(&field.data, &m.reconstruction, &field.shape);
            points.push(Point {
                dataset: id.name().to_string(),
                compressor: comp.kind().name().to_string(),
                bit_rate: m.bit_rate,
                psnr: m.psnr,
                ssim: s,
                enc_gbps: None,
                dec_gbps: None,
            });
        }
    }
    points
}

/// Run the Fig 17/18 experiment.
pub fn run(ctx: &Ctx) {
    let mut report = Report::new(
        "fig17",
        "Rate distortion: PSNR (Fig 17) and SSIM (Fig 18)",
        &ctx.out_dir,
    );
    let points = measure(ctx);

    for id in DatasetId::all() {
        report.line(&format!("\n{}", id.name()));
        let mut rows = Vec::new();
        for comp in ["cuSZp", "cuSZp+hybrid", "cuSZ", "cuSZx", "cuZFP"] {
            let mut series: Vec<&Point> = points
                .iter()
                .filter(|p| p.dataset == id.name() && p.compressor == comp)
                .collect();
            series.sort_by(|a, b| a.bit_rate.partial_cmp(&b.bit_rate).expect("finite"));
            for p in series {
                let gbps = |v: Option<f64>| v.map_or_else(|| "-".to_string(), f2);
                rows.push(vec![
                    comp.to_string(),
                    f2(p.bit_rate),
                    f2(p.psnr),
                    format!("{:.4}", p.ssim),
                    gbps(p.enc_gbps),
                    gbps(p.dec_gbps),
                ]);
            }
        }
        report.table(
            &[
                "compressor",
                "bit-rate",
                "PSNR (dB)",
                "SSIM",
                "enc GB/s",
                "dec GB/s",
            ],
            &rows,
        );
    }

    // Sanity: the hybrid curve never stores more bits than cuSZp at the
    // same bound (the whole-frame fallback guarantees it). The two rates
    // are not counted identically — the baseline charges the bare device
    // stream, the hybrid point its full serialized container (38-byte
    // header plus chunk table) — so grant a small absolute allowance for
    // that fixed framing; it is only visible at the tiny test scale and
    // vanishes into the 0.1% slack on real field sizes.
    for id in DatasetId::all() {
        let base: Vec<&Point> = points
            .iter()
            .filter(|p| p.dataset == id.name() && p.compressor == "cuSZp")
            .collect();
        let hy: Vec<&Point> = points
            .iter()
            .filter(|p| p.dataset == id.name() && p.compressor == "cuSZp+hybrid")
            .collect();
        for (b, h) in base.iter().zip(&hy) {
            assert!(
                h.bit_rate <= b.bit_rate * 1.001 + 0.08,
                "{}: hybrid bit rate {} must not exceed cuSZp {}",
                id.name(),
                h.bit_rate,
                b.bit_rate
            );
        }
    }

    // The headline HACC contrast.
    let hacc_cuzfp = points
        .iter()
        .filter(|p| p.dataset == "HACC" && p.compressor == "cuZFP")
        .min_by(|a, b| a.bit_rate.partial_cmp(&b.bit_rate).expect("finite"));
    let hacc_cuszp = points
        .iter()
        .filter(|p| p.dataset == "HACC" && p.compressor == "cuSZp")
        .min_by(|a, b| a.bit_rate.partial_cmp(&b.bit_rate).expect("finite"));
    if let (Some(z), Some(p)) = (hacc_cuzfp, hacc_cuszp) {
        report.line(&format!(
            "\nHACC low-rate contrast: cuZFP {:.2} dB / {:.4} SSIM at {:.1} bits vs \
cuSZp {:.2} dB / {:.4} SSIM at {:.1} bits (paper: 28.77 dB/0.1465 vs 60.42 dB/0.7892)",
            z.psnr, z.ssim, z.bit_rate, p.psnr, p.ssim, p.bit_rate
        ));
    }
    report.save_json(&points);
    report.save_text();
}
