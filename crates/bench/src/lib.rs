//! Shared workload builders for the Criterion benchmarks.
//!
//! Each bench target regenerates one paper table/figure's workload and
//! measures the wall-clock cost of this repository's implementations on
//! it. (The *simulated* GB/s numbers the paper reports come from the
//! `repro` binary; Criterion tracks the real execution cost so regressions
//! in the Rust code itself are caught.)

use baselines::common::CuszpAdapter;
use baselines::{Compressor, CuszLike, CuszxLike, CuzfpLike};
use cuszp_core::ErrorBound;
use datasets::{generate_subset, DatasetId, Field, Scale};
use gpu_sim::{DeviceSpec, Gpu};

/// Benchmark scale: Tiny keeps `cargo bench --workspace` in minutes.
pub const DATA_SCALE: Scale = Scale::Tiny;

/// First field of a dataset at bench scale.
pub fn bench_field(id: DatasetId) -> Field {
    generate_subset(id, DATA_SCALE, 1).remove(0)
}

/// All six bench fields.
pub fn all_bench_fields() -> Vec<(DatasetId, Field)> {
    DatasetId::all()
        .into_iter()
        .map(|id| (id, bench_field(id)))
        .collect()
}

/// Resolve a REL bound for a field.
pub fn eb_for(field: &Field, rel: f64) -> f64 {
    ErrorBound::Rel(rel).absolute(field.value_range() as f64)
}

/// Run one full compression pipeline; returns compressed bytes (to keep
/// the optimizer honest).
pub fn compress_once(comp: &dyn Compressor, field: &Field, eb: f64) -> u64 {
    let mut gpu = Gpu::new(DeviceSpec::a100());
    let input = gpu.h2d(&field.data);
    comp.compress(&mut gpu, &input, &field.shape, eb)
        .stream_bytes()
}

/// Run compression + decompression; returns a reconstruction checksum.
pub fn roundtrip_once(comp: &dyn Compressor, field: &Field, eb: f64) -> f64 {
    let mut gpu = Gpu::new(DeviceSpec::a100());
    let input = gpu.h2d(&field.data);
    let stream = comp.compress(&mut gpu, &input, &field.shape, eb);
    let out = comp.decompress(&mut gpu, stream.as_ref());
    let recon = gpu.d2h(&out);
    recon.iter().map(|&v| v as f64).sum()
}

/// The four compressors (cuZFP at the given rate).
pub fn compressors(rate: u32) -> Vec<(&'static str, Box<dyn Compressor>)> {
    vec![
        ("cuSZp", Box::new(CuszpAdapter::new())),
        ("cuSZ", Box::new(CuszLike::new())),
        ("cuSZx", Box::new(CuszxLike::new())),
        ("cuZFP", Box::new(CuzfpLike::new(rate))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_work() {
        let f = bench_field(DatasetId::Nyx);
        let eb = eb_for(&f, 1e-2);
        assert!(eb > 0.0);
        for (name, comp) in compressors(8) {
            let bytes = compress_once(comp.as_ref(), &f, eb);
            assert!(bytes > 0, "{name}");
        }
    }
}
