//! Fig 21 — per-step breakdown of the cuSZp kernels at REL 1e-2 over the
//! six datasets.
//!
//! Paper (compression): Block Bit-shuffle 21.67%, Global Synchronization
//! 37.50%, Fixed-length Encoding 30.00%, Quantization+Prediction the rest —
//! the three global-memory-touching steps dominate. In decompression the
//! weight shifts to BB, GS and QP (reads become writes; FE's fixed-length
//! byte is already amortized into GS's read).

use super::Ctx;
use crate::report::{pct, Report};
use baselines::common::CuszpAdapter;
use baselines::cuszp::{STEP_BB, STEP_FE, STEP_GS, STEP_QP};
use baselines::Compressor;
use cuszp_core::ErrorBound;
use datasets::{generate_subset, DatasetId};
use gpu_sim::{DeviceSpec, Gpu};
use serde::Serialize;

/// One dataset's step shares for one direction.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Dataset name.
    pub dataset: String,
    /// Direction.
    pub direction: String,
    /// Share per step, ordered QP, FE, GS, BB.
    pub shares: [f64; 4],
}

/// Run the Fig 21 experiment.
pub fn run(ctx: &Ctx) {
    let mut report = Report::new(
        "fig21",
        "cuSZp kernel-time breakdown (QP/FE/GS/BB), REL 1e-2",
        &ctx.out_dir,
    );
    let spec = DeviceSpec::a100();
    let comp = CuszpAdapter::new();
    let mut out = Vec::new();

    for direction in ["compression", "decompression"] {
        report.line(&format!("\n{direction}"));
        let mut rows = Vec::new();
        let mut avg = [0.0f64; 4];
        for id in DatasetId::all() {
            let field = generate_subset(id, ctx.scale, 1).remove(0);
            let eb = ErrorBound::Rel(1e-2).absolute(field.value_range() as f64);
            let mut gpu = Gpu::new(spec.clone());
            let input = gpu.h2d(&field.data);
            gpu.reset_timeline();
            let stream = comp.compress(&mut gpu, &input, &field.shape, eb);
            if direction == "decompression" {
                gpu.reset_timeline();
                let _ = comp.decompress(&mut gpu, stream.as_ref());
            }
            let b = gpu.breakdown();
            let share = |step: &str| -> f64 {
                b.steps
                    .iter()
                    .find(|s| s.step == step)
                    .map(|s| s.fraction)
                    .unwrap_or(0.0)
            };
            let shares = [
                share(STEP_QP),
                share(STEP_FE),
                share(STEP_GS),
                share(STEP_BB),
            ];
            for (a, s) in avg.iter_mut().zip(shares) {
                *a += s / 6.0;
            }
            rows.push(vec![
                id.name().to_string(),
                pct(shares[0]),
                pct(shares[1]),
                pct(shares[2]),
                pct(shares[3]),
            ]);
            out.push(Row {
                dataset: id.name().to_string(),
                direction: direction.to_string(),
                shares,
            });
        }
        rows.push(vec![
            "AVERAGE".into(),
            pct(avg[0]),
            pct(avg[1]),
            pct(avg[2]),
            pct(avg[3]),
        ]);
        report.table(&["dataset", "QP", "FE", "GS", "BB"], &rows);
    }
    report.line(
        "\npaper (compression averages): QP ~10.8%, FE 30.00%, GS 37.50%, BB 21.67%; \
decompression shifts weight to BB/GS/QP",
    );
    report.save_json(&out);
    report.save_text();
}
