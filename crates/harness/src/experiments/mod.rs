//! One module per paper table/figure. Every experiment takes a [`Ctx`]
//! and regenerates its artifact, printing paper-vs-measured values.

pub mod ablations;
pub mod fig01_motivation;
pub mod fig06_cdf;
pub mod fig07_smoothness;
pub mod fig10_sync;
pub mod fig13_end_to_end;
pub mod fig14_breakdown;
pub mod fig15_kernel;
pub mod fig16_artifacts;
pub mod fig19_visual;
pub mod fig20_isosurface;
pub mod fig21_kernel_breakdown;
pub mod fig22_time_varying;
pub mod gpus;
pub mod rate_distortion;
pub mod table3_ratio;

use datasets::Scale;
use std::path::PathBuf;

/// Shared experiment context.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Dataset generation scale.
    pub scale: Scale,
    /// Artifact output directory.
    pub out_dir: PathBuf,
    /// Upper bound on fields generated per dataset (keeps sweeps
    /// tractable; Table 2's full field counts are available at the cost of
    /// runtime).
    pub max_fields: usize,
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx {
            scale: Scale::Small,
            out_dir: PathBuf::from("artifacts"),
            max_fields: 3,
        }
    }
}

/// Experiment registry: `(id, description, runner)`.
pub type Runner = fn(&Ctx);

/// Every experiment, in paper order.
pub fn registry() -> Vec<(&'static str, &'static str, Runner)> {
    vec![
        (
            "fig01",
            "RTM visualization motivation (slice renders + SSIM)",
            fig01_motivation::run as Runner,
        ),
        (
            "fig06",
            "CDF of block relative value range (L=8, 32)",
            fig06_cdf::run as Runner,
        ),
        (
            "fig07",
            "Dataset smoothness slice renders",
            fig07_smoothness::run as Runner,
        ),
        (
            "fig10",
            "Global Synchronization throughput",
            fig10_sync::run as Runner,
        ),
        (
            "fig13",
            "End-to-end compression/decompression throughput",
            fig13_end_to_end::run as Runner,
        ),
        (
            "fig14",
            "End-to-end breakdown (GPU/CPU/Memcpy), Hurricane U",
            fig14_breakdown::run as Runner,
        ),
        ("fig15", "Kernel throughput", fig15_kernel::run as Runner),
        (
            "table3",
            "Compression ratios, 3 compressors x 6 datasets x 4 REL bounds",
            table3_ratio::run as Runner,
        ),
        (
            "fig16",
            "cuSZx constant-block stripe artifacts (CESM)",
            fig16_artifacts::run as Runner,
        ),
        (
            "fig17",
            "Rate distortion: PSNR (and Fig 18: SSIM)",
            rate_distortion::run as Runner,
        ),
        (
            "fig19",
            "Slice visualization cuSZp vs cuZFP at matched CR",
            fig19_visual::run as Runner,
        ),
        (
            "fig20",
            "Isosurface similarity, NYX",
            fig20_isosurface::run as Runner,
        ),
        (
            "fig21",
            "cuSZp kernel-time breakdown (QP/FE/GS/BB)",
            fig21_kernel_breakdown::run as Runner,
        ),
        (
            "fig22",
            "Time-varying RTM throughput",
            fig22_time_varying::run as Runner,
        ),
        (
            "gpus",
            "Lower-end GPU kernel throughput (A100/V100/3080)",
            gpus::run as Runner,
        ),
        (
            "ablations",
            "Design-choice ablations (L, Lorenzo, encoding)",
            ablations::run as Runner,
        ),
    ]
}
