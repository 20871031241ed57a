//! cuSZx-like compressor: constant-block flush + fixed-length encoding,
//! with **CPU-side global synchronization** (paper refs \[39\], §5.3).
//!
//! Design reproduced from the paper's description:
//!
//! * The dataset is split into blocks of 128 values. If a block's value
//!   range fits within the bound (`(max − min) / 2 ≤ eb`), the whole block
//!   is flushed to its **range midpoint** and stored as one `f32` — the
//!   "constant block" design that inflates CRs on wide-range data under
//!   loose REL bounds (Table 3, HACC 1e-1/1e-2, CESM-ATM) and causes the
//!   horizontal stripe artifacts of Fig 16.
//! * Non-constant blocks quantize against the block midpoint and store a
//!   sign map plus fixed-length bit planes, nibble-aligned for SZx's
//!   byte-level operations (no Lorenzo, coarser widths — why cuSZp beats
//!   it at tight bounds).
//! * The per-block offsets are resolved **on the host**: sizes are copied
//!   D2H, prefix-summed by the CPU, and copied back before a compaction
//!   kernel — plus CPU pre/post-processing. These round-trips are exactly
//!   why its end-to-end throughput collapses to ~2 GB/s (Fig 13/14) while
//!   its kernel throughput stays high (Fig 15).

use crate::common::{Compressor, CompressorKind, Stream};
use cuszp_core::bitshuffle::{shuffle, unshuffle};
use gpu_sim::{DeviceBuffer, Gpu, LaunchConfig};
use std::any::Any;

/// SZx block length (the reference uses 128).
pub const BLOCK: usize = 128;
/// Descriptor value marking a constant block.
pub const CONSTANT: u8 = 0xFF;
/// Worst-case per-block payload: mid (4) + signs (16) + 64 planes × 16.
const MAX_BLOCK_BYTES: usize = 4 + BLOCK / 8 + 64 * BLOCK / 8;

/// Step labels for the breakdown profiler.
pub const STEP_STATS: &str = "block-stats";
/// Encode step label.
pub const STEP_ENC: &str = "encode";
/// Compaction step label.
pub const STEP_COMPACT: &str = "compact";
/// Decode step label.
pub const STEP_DEC: &str = "decode";

/// Device-resident cuSZx stream.
pub struct CuszxStream {
    /// Per-block descriptor: [`CONSTANT`] or the fixed length `F ∈ [1,64]`.
    pub descriptors: DeviceBuffer<u8>,
    /// Compacted payload.
    pub payload: DeviceBuffer<u8>,
    /// Valid payload bytes.
    pub payload_len: usize,
    /// Original element count.
    pub num_elements: usize,
    /// Absolute error bound used.
    pub eb: f64,
}

impl CuszxStream {
    /// Payload bytes a block with descriptor `d` occupies.
    pub fn block_bytes(d: u8) -> usize {
        if d == CONSTANT {
            4
        } else {
            4 + BLOCK / 8 + d as usize * BLOCK / 8
        }
    }
}

impl Stream for CuszxStream {
    fn stream_bytes(&self) -> u64 {
        (self.descriptors.len() + self.payload_len) as u64
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The cuSZx-like compressor.
#[derive(Debug, Clone, Copy, Default)]
pub struct CuszxLike;

impl CuszxLike {
    /// Construct with the reference block size.
    pub fn new() -> Self {
        CuszxLike
    }
}

fn encode_block(block: &[f32], eb: f64, scratch: &mut Vec<u8>) -> u8 {
    // Block statistics.
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &v in block {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let mid = (lo as f64 + hi as f64) / 2.0;
    scratch.clear();
    if (hi as f64 - lo as f64) / 2.0 <= eb {
        // Constant block: every value is replaced by the midpoint.
        scratch.extend_from_slice(&(mid as f32).to_le_bytes());
        return CONSTANT;
    }
    // Non-constant: quantize against the midpoint, fixed-length encode.
    let mut resid = [0i64; BLOCK];
    for (i, &v) in block.iter().enumerate() {
        resid[i] = ((v as f64 - mid) / (2.0 * eb)).round() as i64;
    }
    // Tail-short blocks: remaining residuals stay zero.
    let mut max_abs = 0u64;
    for &r in resid.iter() {
        max_abs = max_abs.max(r.unsigned_abs());
    }
    let f = (64 - max_abs.leading_zeros()) as u8;
    // SZx's "lightweight bit-level operations" work at nibble/byte
    // granularity for speed, so the per-value width is rounded up to a
    // multiple of 4 bits — the ratio cost of its ultra-fast kernel design
    // (visible in Table 3: cuSZx trails cuSZp at tight bounds despite the
    // same block machinery).
    let f = f.div_ceil(4).max(1) * 4;
    scratch.extend_from_slice(&(mid as f32).to_le_bytes());
    let mut signs = [0u8; BLOCK / 8];
    for (e, &r) in resid.iter().enumerate() {
        if r < 0 {
            signs[e / 8] |= 1 << (e % 8);
        }
    }
    scratch.extend_from_slice(&signs);
    let abs_vals: Vec<u64> = resid.iter().map(|r| r.unsigned_abs()).collect();
    let plane_off = scratch.len();
    scratch.resize(plane_off + f as usize * BLOCK / 8, 0);
    shuffle(&abs_vals, f, &mut scratch[plane_off..]);
    f
}

fn decode_block(
    descriptor: u8,
    bytes: &[u8],
    eb: f64,
    abs_vals: &mut [u64; BLOCK],
    out: &mut [f32],
) {
    let mid = f32::from_le_bytes(bytes[..4].try_into().expect("block too short")) as f64;
    if descriptor == CONSTANT {
        for v in out.iter_mut() {
            *v = mid as f32;
        }
        return;
    }
    let f = descriptor;
    let signs = &bytes[4..4 + BLOCK / 8];
    abs_vals.fill(0);
    unshuffle(&bytes[4 + BLOCK / 8..], f, abs_vals);
    for (e, v) in out.iter_mut().enumerate() {
        let neg = signs[e / 8] & (1 << (e % 8)) != 0;
        let q = abs_vals[e] as i64;
        // Wrapping: an absolute value of 2^63 (a saturated ±Inf residual,
        // or hostile payload bits) must negate to i64::MIN, not panic.
        let q = if neg { q.wrapping_neg() } else { q };
        *v = (mid + q as f64 * 2.0 * eb) as f32;
    }
}

impl Compressor for CuszxLike {
    fn kind(&self) -> CompressorKind {
        CompressorKind::Cuszx
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
        assert!(eb.is_finite() && eb > 0.0, "bound must be positive");
        let n = input.len();
        let num_blocks = n.div_ceil(BLOCK);

        // CPU preprocessing (radius/config setup in the reference).
        gpu.cpu_work("cuszx-preprocess", (num_blocks as u64) * 16 + 20_000);

        let descriptors = gpu.alloc::<u8>(num_blocks);
        let scratch = gpu.alloc::<u8>(num_blocks * MAX_BLOCK_BYTES);

        // Kernel 1: per-block stats + encode into worst-case scratch slots.
        gpu.launch("cuszx_encode", LaunchConfig::cover(num_blocks, 32), |ctx| {
            let inp = input.slice();
            let desc = descriptors.slice();
            let scr = scratch.slice();
            let b0 = ctx.block * 32;
            let mut buf = Vec::with_capacity(MAX_BLOCK_BYTES);
            let mut block = [0.0f32; BLOCK];
            let mut elems = 0usize;
            let mut payload = 0u64;
            for b in b0..(b0 + 32).min(num_blocks) {
                let start = b * BLOCK;
                let end = (start + BLOCK).min(n);
                for (k, v) in block.iter_mut().enumerate() {
                    *v = if start + k < end {
                        inp.get(start + k)
                    } else {
                        0.0
                    };
                }
                // Tail blocks re-use value 0 padding; midpoint math still
                // bounds the real elements.
                let d = encode_block(&block[..], eb, &mut buf);
                desc.set(b, d);
                scr.write_slice(b * MAX_BLOCK_BYTES, &buf);
                elems += end - start;
                payload += buf.len() as u64;
            }
            ctx.read(STEP_STATS, (elems * 4) as u64);
            ctx.ops(STEP_STATS, (elems * 3) as u64);
            ctx.ops(STEP_ENC, (elems * 10) as u64);
            ctx.write_strided(STEP_ENC, payload);
            ctx.write(STEP_ENC, 32.min(num_blocks.saturating_sub(b0)) as u64);
        });

        // CPU global synchronization + concatenation (paper §4.3: "Existing
        // GPU lossy compressors, such as cuSZx, generally perform this step
        // in the CPU"): the per-block encodings are copied D2H through
        // pageable memory, the host prefix-sums the sizes and concatenates,
        // and the final stream is copied back H2D.
        let desc_host = gpu.d2h(&descriptors);
        let payload_len: usize = desc_host.iter().map(|&d| CuszxStream::block_bytes(d)).sum();
        // Charge the pageable D2H of the used block bytes (the scratch is
        // block-strided on device; the reference copies exactly the used
        // prefix of each block slot).
        let _staged: Vec<u8> = gpu.d2h_prefix_pageable(&scratch, payload_len.min(scratch.len()));
        // Host-side concatenation into the final stream layout.
        let scr = scratch.slice();
        let mut payload_host = vec![0u8; payload_len.max(1)];
        let mut acc = 0usize;
        for (b, &d) in desc_host.iter().enumerate() {
            let bytes = CuszxStream::block_bytes(d);
            for k in 0..bytes {
                payload_host[acc + k] = scr.get(b * MAX_BLOCK_BYTES + k);
            }
            acc += bytes;
        }
        gpu.cpu_work(
            "cuszx-global-sync",
            payload_len as u64 / 2 + num_blocks as u64 * 8,
        );
        // Host postprocessing: the reference repackages headers and
        // validates block metadata element-wise before the stream is final.
        gpu.cpu_work("cuszx-postprocess", n as u64);
        let payload = gpu.h2d_pageable(&payload_host);

        Box::new(CuszxStream {
            descriptors,
            payload,
            payload_len,
            num_elements: n,
            eb,
        })
    }

    fn decompress(&self, gpu: &mut Gpu, stream: &dyn Stream) -> DeviceBuffer<f32> {
        let s = stream
            .as_any()
            .downcast_ref::<CuszxStream>()
            .expect("not a cuSZx stream");
        let n = s.num_elements;
        let num_blocks = n.div_ceil(BLOCK);

        // CPU preprocessing: the reference parses the compressed stream on
        // the host (pageable D2H), rebuilds the per-block offsets there,
        // and stages the stream back for the decode kernel. Decompression
        // therefore has a *larger* CPU share than compression (Fig 14b).
        gpu.cpu_work("cuszx-preprocess", n as u64 / 2 + 20_000);
        let staged = gpu.d2h_prefix_pageable(&s.payload, s.payload_len.min(s.payload.len()));
        let desc_host = gpu.d2h(&s.descriptors);
        let mut offsets_host = vec![0u32; num_blocks];
        let mut acc = 0u32;
        for (b, &d) in desc_host.iter().enumerate() {
            offsets_host[b] = acc;
            acc += CuszxStream::block_bytes(d) as u32;
        }
        gpu.cpu_work(
            "cuszx-global-sync",
            s.payload_len as u64 / 2 + (num_blocks as u64) * 8,
        );
        let offsets = gpu.h2d(&offsets_host);
        let payload = if staged.is_empty() {
            gpu.h2d_pageable(&[0u8])
        } else {
            gpu.h2d_pageable(&staged)
        };

        let output = gpu.alloc::<f32>(n);
        let eb = s.eb;
        gpu.launch("cuszx_decode", LaunchConfig::cover(num_blocks, 32), |ctx| {
            let desc = s.descriptors.slice();
            let off = offsets.slice();
            let pay = payload.slice();
            let out = output.slice();
            let b0 = ctx.block * 32;
            let mut moved = 0u64;
            let mut elems = 0usize;
            let mut block = [0.0f32; BLOCK];
            let mut bytes_buf = vec![0u8; MAX_BLOCK_BYTES];
            let mut abs_vals = [0u64; BLOCK];
            for b in b0..(b0 + 32).min(num_blocks) {
                let d = desc.get(b);
                let nbytes = CuszxStream::block_bytes(d);
                let src = off.get(b) as usize;
                for (k, byte) in bytes_buf[..nbytes].iter_mut().enumerate() {
                    *byte = pay.get(src + k);
                }
                decode_block(d, &bytes_buf[..nbytes], eb, &mut abs_vals, &mut block);
                let start = b * BLOCK;
                let end = (start + BLOCK).min(n);
                for (k, &v) in block.iter().take(end - start).enumerate() {
                    out.set(start + k, v);
                }
                moved += nbytes as u64;
                elems += end - start;
            }
            ctx.read_strided(STEP_DEC, moved);
            ctx.ops(STEP_DEC, (elems * 10) as u64);
            ctx.write(STEP_DEC, (elems * 4) as u64);
        });

        // CPU postprocessing (the reference validates/repackages on host —
        // the reason decompression has a *larger* CPU share in Fig 14b).
        gpu.cpu_work("cuszx-postprocess", (n as u64) / 2 + 20_000);

        output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;

    fn run(data: &[f32], eb: f64) -> (Vec<f32>, u64, Gpu) {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let input = gpu.h2d(data);
        let comp = CuszxLike::new();
        let stream = comp.compress(&mut gpu, &input, &[data.len()], eb);
        let bytes = stream.stream_bytes();
        let out = comp.decompress(&mut gpu, stream.as_ref());
        let recon = gpu.d2h(&out);
        (recon, bytes, gpu)
    }

    #[test]
    fn roundtrip_respects_bound() {
        let data: Vec<f32> = (0..5000).map(|i| (i as f32 * 0.01).sin() * 20.0).collect();
        let eb = 0.05;
        let (recon, _, _) = run(&data, eb);
        for (i, (&d, &r)) in data.iter().zip(&recon).enumerate() {
            assert!(
                (d as f64 - r as f64).abs()
                    <= eb * (1.0 + 1e-6) + (d.abs().max(r.abs()) as f64) * 1.3e-7,
                "idx {i}: {d} vs {r}"
            );
        }
    }

    #[test]
    fn smooth_blocks_become_constant() {
        // Slowly varying data + loose bound ⇒ nearly everything constant.
        let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 1e-4).sin()).collect();
        let eb = 0.1;
        let (recon, bytes, _) = run(&data, eb);
        // ~5 bytes per 128-value block.
        assert!(bytes < 4096 / 128 * 8, "bytes {bytes}");
        // Constant flush ⇒ runs of identical values (the stripe artifact).
        let mut runs = 0;
        for w in recon.windows(2) {
            if w[0] == w[1] {
                runs += 1;
            }
        }
        assert!(runs > recon.len() / 2, "expected constant runs, got {runs}");
    }

    #[test]
    fn rough_data_uses_nonconstant_blocks() {
        let data: Vec<f32> = (0..2048)
            .map(|i| (((i * 2654435761usize) % 1000) as f32) - 500.0)
            .collect();
        let eb = 0.5;
        let (recon, bytes, _) = run(&data, eb);
        assert!(bytes > 2048, "rough data can't be all-constant: {bytes}");
        for (&d, &r) in data.iter().zip(&recon) {
            assert!(
                (d as f64 - r as f64).abs()
                    <= eb * (1.0 + 1e-6) + (d.abs().max(r.abs()) as f64) * 1.3e-7
            );
        }
    }

    #[test]
    fn pipeline_round_trips_through_host() {
        // The defining cost structure: ≥2 kernels + D2H/H2D + CPU work per
        // direction.
        let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.02).cos()).collect();
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let input = gpu.h2d(&data);
        gpu.reset_timeline();
        let comp = CuszxLike::new();
        let stream = comp.compress(&mut gpu, &input, &[4096], 0.01);
        assert!(gpu.timeline().kernel_count() >= 1);
        assert!(gpu.timeline().memcpy_time() > 0.0, "needs host round-trip");
        assert!(gpu.timeline().cpu_time() > 0.0, "needs CPU work");
        // The host round-trip must dominate end-to-end time (Fig 13/14).
        let b = gpu.breakdown();
        assert!(
            b.gpu_fraction() < 0.5,
            "GPU fraction {:.2}",
            b.gpu_fraction()
        );
        let _ = stream;
    }

    #[test]
    fn tail_block_handled() {
        let data: Vec<f32> = (0..130).map(|i| i as f32).collect();
        let (recon, _, _) = run(&data, 0.5);
        assert_eq!(recon.len(), 130);
        for (&d, &r) in data.iter().zip(&recon) {
            assert!(
                (d as f64 - r as f64).abs()
                    <= 0.5 * (1.0 + 1e-6) + (d.abs().max(r.abs()) as f64) * 1.3e-7
            );
        }
    }

    #[test]
    fn non_finite_inputs_never_panic() {
        // ±Inf saturates a residual to 2^63, whose decode must negate
        // without overflow; blocks without them stay bounded.
        let mut data: Vec<f32> = (0..600).map(|i| (i as f32 * 0.1).sin()).collect();
        data[3] = f32::NAN;
        data[200] = f32::INFINITY;
        data[300] = f32::NEG_INFINITY;
        let (recon, _, _) = run(&data, 1e-3);
        assert_eq!(recon.len(), data.len());
        for (d, r) in data[400..].iter().zip(&recon[400..]) {
            assert!((d - r).abs() <= 1e-3 * (1.0 + 1e-6) + 1e-6, "{d} vs {r}");
        }
    }

    #[test]
    fn constant_block_flushes_to_midpoint() {
        // One block, range 0.08 ≤ 2·eb: everything becomes (lo+hi)/2.
        let mut data = vec![1.0f32; 128];
        data[5] = 1.08;
        let (recon, bytes, _) = run(&data, 0.05);
        assert_eq!(bytes, 1 + 4);
        assert!(recon.iter().all(|&v| (v - 1.04).abs() < 1e-6));
    }
}
