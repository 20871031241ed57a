//! The uniform compressor interface the experiment harness drives, plus
//! the cuSZp adapter.

use crate::cuszp::{compress_kernel, decompress_kernel, DeviceCompressed};
use cuszp_core::CuszpConfig;
use gpu_sim::{DeviceBuffer, Gpu};
use std::any::Any;

/// An opaque compressed stream held by a [`Compressor`] implementation.
pub trait Stream: Any {
    /// Compressed size in bytes (the CR numerator's denominator).
    fn stream_bytes(&self) -> u64;
    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
}

/// Which of the four evaluated compressors an object implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompressorKind {
    /// This paper's contribution.
    Cuszp,
    /// The cuSZ-like baseline.
    Cusz,
    /// The cuSZx-like baseline.
    Cuszx,
    /// The cuZFP-like baseline.
    Cuzfp,
}

impl CompressorKind {
    /// Paper display name.
    pub fn name(&self) -> &'static str {
        match self {
            CompressorKind::Cuszp => "cuSZp",
            CompressorKind::Cusz => "cuSZ",
            CompressorKind::Cuszx => "cuSZx",
            CompressorKind::Cuzfp => "cuZFP",
        }
    }
}

/// A GPU lossy compressor as the harness sees it: full pipelines starting
/// and ending with device-resident data, every kernel / host-compute /
/// PCIe event charged to the [`Gpu`] timeline.
pub trait Compressor {
    /// Which compressor this is.
    fn kind(&self) -> CompressorKind;

    /// True for error-bounded compressors (`eb` is honoured); false for
    /// fixed-rate ones (`eb` is ignored, as with cuZFP).
    fn is_error_bounded(&self) -> bool;

    /// Run the complete compression pipeline. `shape` gives the field's
    /// logical dimensions (multi-dimensional predictors/transforms use it;
    /// block-wise 1-D designs ignore it). `eb` is the absolute bound.
    fn compress(
        &self,
        gpu: &mut Gpu,
        input: &DeviceBuffer<f32>,
        shape: &[usize],
        eb: f64,
    ) -> Box<dyn Stream>;

    /// Run the complete decompression pipeline back to device memory.
    fn decompress(&self, gpu: &mut Gpu, stream: &dyn Stream) -> DeviceBuffer<f32>;
}

/// cuSZp exposed through the uniform interface (single fused kernel per
/// direction; see [`crate::cuszp`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct CuszpAdapter {
    config: CuszpConfig,
}

impl CuszpAdapter {
    /// Adapter with the paper-default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adapter with a custom configuration (ablations).
    pub fn with_config(config: CuszpConfig) -> Self {
        config.validate();
        CuszpAdapter { config }
    }
}

impl Stream for DeviceCompressed {
    fn stream_bytes(&self) -> u64 {
        self.stream_bytes()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl Compressor for CuszpAdapter {
    fn kind(&self) -> CompressorKind {
        CompressorKind::Cuszp
    }

    fn is_error_bounded(&self) -> bool {
        true
    }

    fn compress(
        &self,
        gpu: &mut Gpu,
        input: &DeviceBuffer<f32>,
        _shape: &[usize],
        eb: f64,
    ) -> Box<dyn Stream> {
        Box::new(compress_kernel(gpu, input, eb, self.config))
    }

    fn decompress(&self, gpu: &mut Gpu, stream: &dyn Stream) -> DeviceBuffer<f32> {
        let dc = stream
            .as_any()
            .downcast_ref::<DeviceCompressed>()
            .expect("stream produced by a different compressor");
        decompress_kernel(gpu, dc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;

    #[test]
    fn adapter_roundtrip() {
        let data: Vec<f32> = (0..4000).map(|i| (i as f32 * 0.01).sin() * 10.0).collect();
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let input = gpu.h2d(&data);
        let comp = CuszpAdapter::new();
        assert_eq!(comp.kind().name(), "cuSZp");
        assert!(comp.is_error_bounded());
        let stream = comp.compress(&mut gpu, &input, &[4000], 0.01);
        assert!(stream.stream_bytes() > 0);
        assert!(stream.stream_bytes() < 16000);
        let out = comp.decompress(&mut gpu, stream.as_ref());
        let recon = gpu.d2h(&out);
        for (&d, &r) in data.iter().zip(&recon) {
            assert!(
                (d as f64 - r as f64).abs()
                    <= 0.01 * (1.0 + 1e-6) + (d.abs().max(r.abs()) as f64) * 1.3e-7
            );
        }
    }

    #[test]
    fn kind_names() {
        assert_eq!(CompressorKind::Cusz.name(), "cuSZ");
        assert_eq!(CompressorKind::Cuszx.name(), "cuSZx");
        assert_eq!(CompressorKind::Cuzfp.name(), "cuZFP");
    }
}
