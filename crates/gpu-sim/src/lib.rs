//! # gpu-sim — a CUDA-like execution substrate with an analytic timing model
//!
//! The cuSZp paper (SC '23) is, at its core, an argument about *where time
//! goes* on a GPU: a compressor fused into a single kernel pays only for its
//! global-memory traffic and arithmetic, while multi-kernel CPU-assisted
//! pipelines (cuSZ, cuSZx) additionally pay kernel-launch latencies, PCIe
//! transfers, and serial host work. This crate reproduces that cost structure
//! in pure Rust so the paper's end-to-end experiments can run on a machine
//! without an NVIDIA GPU.
//!
//! Two things are simulated:
//!
//! 1. **Execution semantics.** Kernels are launched over a grid of thread
//!    blocks. Blocks are dispatched *in order* by workers that draw block ids
//!    from an atomic counter — exactly the guarantee chained-scan
//!    ("StreamScan"/decoupled-lookback) algorithms rely on, and the reason
//!    cuSZp can perform its Global Synchronization inside one kernel.
//!    Warp-level primitives (`shfl_up`, ballot, reductions, scans) are
//!    provided in warp-synchronous style over `[T; 32]` lane arrays.
//!    All compressors in this repository produce *real* compressed bytes
//!    through these kernels; nothing about the data path is mocked.
//!
//! 2. **Time.** A kernel's simulated duration is derived from the
//!    global-memory bytes it moved and the arithmetic it performed, which the
//!    kernel records step-by-step as it runs (see [`BlockCtx`]). Host-side
//!    work and PCIe transfers are charged against calibrated CPU/PCIe rates.
//!    The per-[`DeviceSpec`] constants are calibrated against the A100
//!    numbers reported in the paper; see `device.rs` for the calibration
//!    notes. Because the model consumes *measured traffic*, differences
//!    between pipelines (who launches how many kernels, who round-trips data
//!    through the host) emerge from the implementations themselves.
//!
//! ## Quick tour
//!
//! ```
//! use gpu_sim::{Gpu, DeviceSpec, LaunchConfig};
//!
//! let mut gpu = Gpu::new(DeviceSpec::a100());
//! let input = gpu.h2d(&[1u32, 2, 3, 4]);
//! let output = gpu.alloc::<u32>(4);
//! let n = input.len();
//! gpu.launch("double", LaunchConfig::grid(1), |ctx| {
//!     let inp = input.slice();
//!     let out = output.slice();
//!     for i in 0..n {
//!         out.set(i, inp.get(i) * 2);
//!     }
//!     ctx.read("load", (n * 4) as u64);
//!     ctx.write("store", (n * 4) as u64);
//!     ctx.ops("math", n as u64);
//! });
//! assert_eq!(gpu.d2h(&output), vec![2, 4, 6, 8]);
//! assert!(gpu.timeline().total_time() > 0.0);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod counters;
pub mod device;
pub mod kernel;
pub mod memory;
pub mod profiler;
pub mod reduce;
pub mod scan;
pub mod timing;
pub mod warp;

mod gpu;

pub use counters::{StepTraffic, TrafficCounters};
pub use device::DeviceSpec;
pub use gpu::Gpu;
pub use kernel::{BlockCtx, LaunchConfig};
pub use memory::{DeviceAtomics, DeviceBuffer, DeviceCopy, GpuSlice};
pub use profiler::{Breakdown, KernelRecord, StepShare};
pub use scan::{scan_tile_geometry, ScanState, SCAN_ITEMS_PER_THREAD, SCAN_TILE};
pub use timing::{Event, Timeline};
pub use warp::WARP;
