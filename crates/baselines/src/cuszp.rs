//! cuSZp's fused single-kernel device pipeline (paper §3–§4), on the
//! `gpu-sim` substrate.
//!
//! One kernel performs **all four steps** for compression and one for
//! decompression — cuSZp's defining design decision. Grid geometry mirrors
//! the reference implementation: one warp per thread block, one data block
//! of `L` values per lane, so a tile covers `32·L` elements. The Global
//! Synchronization is the decoupled-lookback [`ScanState`] from `gpu-sim`,
//! run *inside* the same kernel — no second launch, no host round-trip.
//!
//! Traffic recording convention (feeds Figs 13/14/15/21): each step charges
//! the global-memory bytes it actually moves and the serialized per-thread
//! ops on its critical path. Payload writes/reads are charged as *strided*
//! traffic — they land at scan-computed byte offsets, the access pattern
//! the paper's Fig 21 identifies as the dominant cost.

use cuszp_core::config::CuszpConfig;
use cuszp_core::dtype::{DType, FloatData};
use cuszp_core::encode::{cmp_bytes_for, plan_block};
use cuszp_core::format::Compressed;
use cuszp_core::quantize::{dequantize, quantize};
use gpu_sim::warp::exclusive_scan_u64;
use gpu_sim::{DeviceAtomics, DeviceBuffer, DeviceCopy, Gpu, LaunchConfig, ScanState, WARP};

/// Step labels (paper Fig 21 vocabulary).
pub const STEP_QP: &str = "QP";
/// Fixed-length Encoding step label.
pub const STEP_FE: &str = "FE";
/// Global Synchronization step label.
pub const STEP_GS: &str = "GS";
/// Block Bit-shuffle step label.
pub const STEP_BB: &str = "BB";

/// Data blocks processed per tile (one per warp lane).
pub const BLOCKS_PER_TILE: usize = WARP;

/// A compressed stream resident in device memory.
pub struct DeviceCompressed {
    /// Fixed length per block (fraction ⓐ).
    pub fixed_lengths: DeviceBuffer<u8>,
    /// Payload bytes (fraction ⓑ); only `payload_len` bytes are valid.
    pub payload: DeviceBuffer<u8>,
    /// Valid payload length (the synchronized total).
    pub payload_len: usize,
    /// Original element count.
    pub num_elements: usize,
    /// Block length `L`.
    pub block_len: usize,
    /// Absolute error bound used.
    pub eb: f64,
    /// Whether Lorenzo prediction was applied.
    pub lorenzo: bool,
    /// Element type of the original data.
    pub dtype: DType,
}

impl DeviceCompressed {
    /// The paper's compressed size: fixed-length array + payload.
    pub fn stream_bytes(&self) -> u64 {
        (self.fixed_lengths.len() + self.payload_len) as u64
    }

    /// Copy the stream to the host (charging the PCIe transfer), yielding
    /// the portable [`Compressed`] form.
    pub fn to_host(&self, gpu: &mut Gpu) -> Compressed {
        let fixed_lengths = gpu.d2h(&self.fixed_lengths);
        let payload = gpu.d2h_prefix(&self.payload, self.payload_len);
        Compressed {
            num_elements: self.num_elements as u64,
            block_len: self.block_len as u32,
            eb: self.eb,
            lorenzo: self.lorenzo,
            dtype: self.dtype,
            fixed_lengths,
            payload,
        }
    }
}

/// Upload a host stream to the device (charging PCIe transfers).
pub fn compressed_h2d(gpu: &mut Gpu, c: &Compressed) -> DeviceCompressed {
    let fixed_lengths = gpu.h2d(&c.fixed_lengths);
    let payload = gpu.h2d(&c.payload);
    DeviceCompressed {
        fixed_lengths,
        payload,
        payload_len: c.payload.len(),
        num_elements: c.num_elements as usize,
        block_len: c.block_len as usize,
        eb: c.eb,
        lorenzo: c.lorenzo,
        dtype: c.dtype,
    }
}

/// **Compression kernel** — all four steps fused into one launch.
///
/// `eb` is the absolute bound (REL bounds are resolved by the caller from
/// the value range, as the reference CLI does before launching).
pub fn compress_kernel<T: FloatData + DeviceCopy>(
    gpu: &mut Gpu,
    input: &DeviceBuffer<T>,
    eb: f64,
    cfg: CuszpConfig,
) -> DeviceCompressed {
    cfg.validate();
    assert!(
        eb.is_finite() && eb > 0.0,
        "absolute bound must be positive"
    );
    let n = input.len();
    let l = cfg.block_len;
    let num_blocks = n.div_ceil(l);
    let tiles = num_blocks.div_ceil(BLOCKS_PER_TILE).max(1);

    let fixed_lengths = gpu.alloc::<u8>(num_blocks);
    // Worst case per block is dtype-bounded: `(max_F + 1)·L/8` payload
    // bytes — 34·L/8 for f32 rather than the 65·L/8 f64 ceiling, halving
    // device memory pressure for single-precision streams.
    let max_f = T::DTYPE.max_fixed_len() as usize;
    let payload = gpu.alloc::<u8>(num_blocks * (max_f + 1) * l / 8);
    let scan = ScanState::new(tiles);
    let total = DeviceAtomics::zeroed(1);
    let lorenzo = cfg.lorenzo;

    gpu.launch("cuszp_compress", LaunchConfig::grid(tiles), |ctx| {
        let inp = input.slice();
        let fl = fixed_lengths.slice();
        let pay = payload.slice();
        let tile = ctx.block;
        let block0 = tile * BLOCKS_PER_TILE;

        // ① Quantization + Prediction, ② Fixed-length Encoding — per lane.
        let mut residuals = vec![0i64; BLOCKS_PER_TILE * l];
        let mut lane_cmp = [0u64; WARP];
        let mut lane_f = [0u8; WARP];
        let mut elems_loaded = 0usize;
        for lane in 0..WARP {
            let b = block0 + lane;
            if b >= num_blocks {
                continue;
            }
            let start = b * l;
            let end = (start + l).min(n);
            let resid = &mut residuals[lane * l..(lane + 1) * l];
            let mut prev = 0i64;
            for (k, r) in resid.iter_mut().enumerate() {
                let idx = start + k;
                if idx < end {
                    let q = quantize(inp.get(idx), eb);
                    *r = if lorenzo { q.wrapping_sub(prev) } else { q };
                    if lorenzo {
                        prev = q;
                    }
                } else {
                    *r = 0; // tail padding in the residual domain
                }
            }
            elems_loaded += end - start;

            let plan = plan_block(resid, l);
            assert!(
                plan.fixed_len as usize <= max_f,
                "block {b}: fixed length {} exceeds the {:?} cap of {max_f} \
                 bits — the bound is far below the data's representable \
                 precision",
                plan.fixed_len,
                T::DTYPE,
            );
            lane_f[lane] = plan.fixed_len;
            lane_cmp[lane] = plan.cmp_bytes as u64;
            fl.set(b, plan.fixed_len);
        }
        ctx.read(STEP_QP, (elems_loaded * std::mem::size_of::<T>()) as u64);
        // Divide + round + cast + subtract, serialized per element.
        ctx.ops(STEP_QP, (elems_loaded * 8) as u64);
        // abs/max reduction + sign extraction + bit-width count per
        // element, plus the F byte store.
        ctx.ops(STEP_FE, (elems_loaded * 12) as u64);
        ctx.write(STEP_FE, BLOCKS_PER_TILE.min(num_blocks - block0) as u64);

        // ③ Global Synchronization: warp scan + decoupled lookback.
        let (lane_off, tile_total, warp_ops) = exclusive_scan_u64(lane_cmp);
        let prefix = if tile == 0 {
            scan.publish_prefix(0, tile_total);
            0
        } else {
            scan.publish_aggregate(tile, tile_total);
            let (p, look_ops) = scan.lookback(tile);
            scan.publish_prefix(tile, p + tile_total);
            ctx.ops(STEP_GS, look_ops * 4);
            p
        };
        ctx.ops(STEP_GS, warp_ops + 2 * WARP as u64);
        // The dominant GS cost on real hardware is not the arithmetic but
        // the chain of uncached global flag/status round trips (publish
        // aggregate -> poll predecessors -> publish prefix), ~400-cycle
        // latency each, only partially hidden by tile-level concurrency.
        // Charged per tile; calibrated against the paper's Fig 10
        // (~208 GB/s average GS throughput) and Fig 21 (GS ~37% of the
        // compression kernel).
        ctx.ops(STEP_GS, 15_000);
        ctx.write(STEP_GS, 8);
        ctx.read(STEP_GS, 8);
        if tile == tiles - 1 {
            total.store(0, prefix + tile_total);
        }

        // ④ Block Bit-shuffle: write sign map + bit planes at the
        // synchronized offsets.
        let mut bytes_out = 0u64;
        let mut bit_ops = 0u64;
        for lane in 0..WARP {
            let b = block0 + lane;
            if b >= num_blocks || lane_f[lane] == 0 {
                continue;
            }
            let f = lane_f[lane] as usize;
            let resid = &residuals[lane * l..(lane + 1) * l];
            let mut off = prefix as usize + lane_off[lane] as usize;

            // Sign map: L/8 bytes.
            for j in 0..l / 8 {
                let mut byte = 0u8;
                for bit in 0..8 {
                    if resid[8 * j + bit] < 0 {
                        byte |= 1 << bit;
                    }
                }
                pay.set(off, byte);
                off += 1;
            }
            // Bit planes: F × L/8 bytes.
            for k in 0..f {
                for j in 0..l / 8 {
                    let mut byte = 0u8;
                    for bit in 0..8 {
                        let v = resid[8 * j + bit].unsigned_abs();
                        byte |= (((v >> k) & 1) as u8) << bit;
                    }
                    pay.set(off, byte);
                    off += 1;
                }
            }
            bytes_out += lane_cmp[lane];
            bit_ops += (f as u64 + 1) * (l as u64) + 8;
        }
        ctx.write_strided(STEP_BB, bytes_out);
        ctx.ops(STEP_BB, bit_ops * 2);
    });

    let payload_len = total.load(0) as usize;
    DeviceCompressed {
        fixed_lengths,
        payload,
        payload_len,
        num_elements: n,
        block_len: l,
        eb,
        lorenzo,
        dtype: T::DTYPE,
    }
}

/// **Decompression kernel** — the reverse pipeline, also fully fused.
///
/// # Panics
/// Panics if `T` does not match the stream's element type.
#[allow(clippy::needless_range_loop)] // k is the in-block lane index, as in the CUDA kernel
pub fn decompress_kernel<T: FloatData + DeviceCopy>(
    gpu: &mut Gpu,
    c: &DeviceCompressed,
) -> DeviceBuffer<T> {
    assert_eq!(c.dtype, T::DTYPE, "stream element type mismatch");
    let n = c.num_elements;
    let l = c.block_len;
    let num_blocks = n.div_ceil(l);
    assert_eq!(c.fixed_lengths.len(), num_blocks, "stream/block mismatch");
    let tiles = num_blocks.div_ceil(BLOCKS_PER_TILE).max(1);
    let output = gpu.alloc::<T>(n);
    let scan = ScanState::new(tiles);
    let eb = c.eb;
    let lorenzo = c.lorenzo;

    gpu.launch("cuszp_decompress", LaunchConfig::grid(tiles), |ctx| {
        let fl = c.fixed_lengths.slice();
        let pay = c.payload.slice();
        let out = output.slice();
        let tile = ctx.block;
        let block0 = tile * BLOCKS_PER_TILE;
        let lanes_here = BLOCKS_PER_TILE.min(num_blocks - block0);

        // ③⁻¹ Read the fixed lengths, rebuild block offsets via Eq 2, scan.
        let mut lane_cmp = [0u64; WARP];
        let mut lane_f = [0u8; WARP];
        for lane in 0..lanes_here {
            let f = fl.get(block0 + lane);
            lane_f[lane] = f;
            lane_cmp[lane] = cmp_bytes_for(f, l) as u64;
        }
        ctx.read(STEP_GS, lanes_here as u64);
        let (lane_off, tile_total, warp_ops) = exclusive_scan_u64(lane_cmp);
        let prefix = if tile == 0 {
            scan.publish_prefix(0, tile_total);
            0
        } else {
            scan.publish_aggregate(tile, tile_total);
            let (p, look_ops) = scan.lookback(tile);
            scan.publish_prefix(tile, p + tile_total);
            ctx.ops(STEP_GS, look_ops * 4);
            p
        };
        ctx.ops(STEP_GS, warp_ops + 2 * WARP as u64);
        // Global flag/status latency chain, as in compression.
        ctx.ops(STEP_GS, 12_000);
        ctx.write(STEP_GS, 8);
        ctx.read(STEP_GS, 8);

        // ④⁻¹ unshuffle, ②⁻¹ signs, ①⁻¹ prefix-sum + dequantize — per lane.
        let mut bytes_in = 0u64;
        let mut bit_ops = 0u64;
        let mut elems_stored = 0usize;
        let mut abs_vals = vec![0u64; l];
        for lane in 0..lanes_here {
            let b = block0 + lane;
            let start = b * l;
            let end = (start + l).min(n);
            let f = lane_f[lane] as usize;
            if f == 0 {
                for idx in start..end {
                    out.set(idx, T::from_f64(0.0));
                }
                elems_stored += end - start;
                continue;
            }
            let mut off = prefix as usize + lane_off[lane] as usize;
            let sign_base = off;
            off += l / 8;

            for v in abs_vals.iter_mut() {
                *v = 0;
            }
            for k in 0..f {
                for j in 0..l / 8 {
                    let byte = pay.get(off);
                    off += 1;
                    for bit in 0..8 {
                        abs_vals[8 * j + bit] |= (((byte >> bit) & 1) as u64) << k;
                    }
                }
            }
            let mut acc = 0i64;
            for k in 0..l {
                let neg = pay.get(sign_base + k / 8) & (1 << (k % 8)) != 0;
                let v = abs_vals[k] as i64;
                let resid = if neg { v.wrapping_neg() } else { v };
                let q = if lorenzo {
                    acc = acc.wrapping_add(resid);
                    acc
                } else {
                    resid
                };
                let idx = start + k;
                if idx < end {
                    out.set(idx, dequantize(q, eb));
                }
            }
            bytes_in += lane_cmp[lane];
            bit_ops += (f as u64 + 1) * (l as u64) + 8;
            elems_stored += end - start;
        }
        ctx.read_strided(STEP_BB, bytes_in);
        ctx.ops(STEP_BB, bit_ops * 2);
        // Sign application is folded into the reconstruction loop above.
        ctx.ops(STEP_FE, (elems_stored * 2) as u64);
        // Multiply + add, cheaper than the forward divide+round (this is
        // why decompression outruns compression in Fig 13/15).
        ctx.ops(STEP_QP, (elems_stored * 4) as u64);
        ctx.write(STEP_QP, (elems_stored * std::mem::size_of::<T>()) as u64);
    });

    output
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuszp_core::host_ref;
    use gpu_sim::DeviceSpec;

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::a100()).with_workers(2)
    }

    fn wave(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.02).sin() * 40.0 + (i as f32 * 0.11).cos() * 3.0)
            .collect()
    }

    #[test]
    fn device_matches_host_reference_bytes() {
        let data = wave(5000);
        let eb = 0.01;
        let cfg = CuszpConfig::default();
        let mut gpu = gpu();
        let input = gpu.h2d(&data);
        let dc = compress_kernel(&mut gpu, &input, eb, cfg);
        let host_stream = host_ref::compress(&data, eb, cfg);
        let dev_stream = dc.to_host(&mut gpu);
        assert_eq!(dev_stream.fixed_lengths, host_stream.fixed_lengths);
        assert_eq!(dev_stream.payload, host_stream.payload);
        assert_eq!(dc.stream_bytes(), host_stream.stream_bytes());
    }

    #[test]
    fn device_roundtrip_respects_bound() {
        let data = wave(3333); // non-multiple of 32·32
        let eb = 0.005;
        let mut gpu = gpu();
        let input = gpu.h2d(&data);
        let dc = compress_kernel(&mut gpu, &input, eb, CuszpConfig::default());
        let out: DeviceBuffer<f32> = decompress_kernel(&mut gpu, &dc);
        let recon = gpu.d2h(&out);
        for (i, (&d, &r)) in data.iter().zip(&recon).enumerate() {
            assert!(
                (d as f64 - r as f64).abs() <= eb * (1.0 + 1e-6),
                "idx {i}: {d} vs {r}"
            );
        }
    }

    #[test]
    fn single_kernel_per_direction() {
        let data = wave(2048);
        let mut gpu = gpu();
        let input = gpu.h2d(&data);
        gpu.reset_timeline();
        let dc = compress_kernel(&mut gpu, &input, 0.01, CuszpConfig::default());
        assert_eq!(
            gpu.timeline().kernel_count(),
            1,
            "compression must be one kernel"
        );
        assert_eq!(
            gpu.timeline().memcpy_time(),
            0.0,
            "no transfers inside compression"
        );
        gpu.reset_timeline();
        let _: DeviceBuffer<f32> = decompress_kernel(&mut gpu, &dc);
        assert_eq!(
            gpu.timeline().kernel_count(),
            1,
            "decompression must be one kernel"
        );
        assert_eq!(gpu.timeline().memcpy_time(), 0.0);
    }

    #[test]
    fn all_four_steps_recorded() {
        let data = wave(4096);
        let mut gpu = gpu();
        let input = gpu.h2d(&data);
        gpu.reset_timeline();
        compress_kernel(&mut gpu, &input, 0.01, CuszpConfig::default());
        let k = gpu.timeline().kernels().next().unwrap();
        for step in [STEP_QP, STEP_FE, STEP_GS, STEP_BB] {
            assert!(k.steps.get(step).is_some(), "missing step {step}");
        }
    }

    #[test]
    fn zero_data_compresses_to_fixed_lengths_only() {
        let data = vec![0.0f32; 4096];
        let mut gpu = gpu();
        let input = gpu.h2d(&data);
        let dc = compress_kernel(&mut gpu, &input, 0.001, CuszpConfig::default());
        assert_eq!(dc.payload_len, 0);
        assert_eq!(dc.stream_bytes(), 128); // 4096/32 blocks × 1 byte
        let out: DeviceBuffer<f32> = decompress_kernel(&mut gpu, &dc);
        assert!(gpu.d2h(&out).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn sparse_data_throughput_exceeds_dense() {
        // Zero blocks skip the bit-shuffle; simulated time must reflect it.
        let n = 32 * 32 * 64;
        let dense = wave(n);
        let sparse: Vec<f32> = dense
            .iter()
            .enumerate()
            .map(|(i, &v)| if i % 8 == 0 { v } else { 0.0 })
            .collect();
        // Make sparse truly sparse: whole blocks of zeros.
        let sparse: Vec<f32> = sparse
            .iter()
            .enumerate()
            .map(|(i, &v)| if (i / 1024) % 4 == 0 { v } else { 0.0 })
            .collect();
        let mut gpu = gpu();
        let dense_buf = gpu.h2d(&dense);
        let sparse_buf = gpu.h2d(&sparse);
        gpu.reset_timeline();
        compress_kernel(&mut gpu, &dense_buf, 0.001, CuszpConfig::default());
        let t_dense = gpu.timeline().gpu_time();
        gpu.reset_timeline();
        compress_kernel(&mut gpu, &sparse_buf, 0.001, CuszpConfig::default());
        let t_sparse = gpu.timeline().gpu_time();
        assert!(t_sparse < t_dense, "sparse {t_sparse} !< dense {t_dense}");
    }

    #[test]
    fn payload_allocation_is_dtype_bounded() {
        let data = wave(4096);
        let num_blocks = 4096 / 32;
        let mut gpu = gpu();
        let input = gpu.h2d(&data);
        let dc = compress_kernel(&mut gpu, &input, 0.01, CuszpConfig::default());
        // f32: (33+1)·L/8 bytes per block, not the f64 worst case.
        assert_eq!(dc.payload.len(), num_blocks * 34 * 32 / 8);

        let data64: Vec<f64> = data.iter().map(|&v| v as f64).collect();
        let input64 = gpu.h2d(&data64);
        let dc64 = compress_kernel(&mut gpu, &input64, 0.01, CuszpConfig::default());
        assert_eq!(dc64.payload.len(), num_blocks * 65 * 32 / 8);
        // Same stream bytes either way — only the allocation differs.
        let host32 = dc.to_host(&mut gpu);
        let host64 = dc64.to_host(&mut gpu);
        assert_eq!(host32.payload.len(), host64.payload.len());
    }

    #[test]
    fn compressed_h2d_roundtrip() {
        let data = wave(1000);
        let c = host_ref::compress(&data, 0.02, CuszpConfig::default());
        let mut gpu = gpu();
        let dc = compressed_h2d(&mut gpu, &c);
        let out: DeviceBuffer<f32> = decompress_kernel(&mut gpu, &dc);
        let recon = gpu.d2h(&out);
        assert_eq!(recon, host_ref::decompress::<f32>(&c));
    }

    #[test]
    fn works_with_one_worker_and_many() {
        let data = wave(8192);
        for workers in [1, 4] {
            let mut g = Gpu::new(DeviceSpec::a100()).with_workers(workers);
            let input = g.h2d(&data);
            let dc = compress_kernel(&mut g, &input, 0.01, CuszpConfig::default());
            let out: DeviceBuffer<f32> = decompress_kernel(&mut g, &dc);
            let recon = g.d2h(&out);
            for (&d, &r) in data.iter().zip(&recon) {
                assert!((d as f64 - r as f64).abs() <= 0.01 * (1.0 + 1e-6));
            }
        }
    }
}
