//! cuZFP-like compressor: fixed-rate transform coding in a single kernel
//! (paper refs [21, 33], §5).
//!
//! The algorithm family of ZFP, reimplemented from its published design:
//!
//! 1. Partition the field into blocks of `4^d` values (d = 1..3; higher-D
//!    fields collapse leading axes). Edge blocks pad by clamping.
//! 2. Per block: align to a common exponent and convert to 32-bit fixed
//!    point; apply the forward decorrelating **lifting transform** along
//!    each axis; reorder coefficients by total sequency; map to
//!    **negabinary** so significance decays from the MSB.
//! 3. Emit bit planes MSB→LSB into a per-block budget of exactly
//!    `rate × 4^d` bits (16 of which hold the block exponent). Fixed rate ⇒
//!    block offsets are multiplications, so the whole compressor is one
//!    kernel — but there is **no error bound**, and low rates produce the
//!    blocky artifacts of Fig 19 and the poor 1-D quality of Fig 17e.
//!
//! Like the original, the lifting pair is not bit-exact (inverse recovers
//! fixed-point values to within ~2 LSBs of the `2^-30` block scale), which
//! is far below bit-plane truncation error at any practical rate.

use crate::common::{Compressor, CompressorKind, Stream};
use gpu_sim::{DeviceBuffer, Gpu, LaunchConfig};
use std::any::Any;

/// Step labels for the profiler.
pub const STEP_GATHER: &str = "gather";
/// Transform step label.
pub const STEP_XFORM: &str = "transform";
/// Bit-plane emission step label.
pub const STEP_PLANES: &str = "bitplanes";

/// Bits reserved per block for the common exponent.
const EXP_BITS: usize = 16;
/// Exponent bias so it serializes as unsigned.
const EXP_BIAS: i32 = 16384;

/// Device-resident cuZFP stream (fixed rate ⇒ fixed geometry).
pub struct CuzfpStream {
    /// The packed bit stream, `block_bytes` per block.
    pub bits: DeviceBuffer<u8>,
    /// Bytes per block (`rate × 4^d / 8`, rounded up to whole bytes).
    pub block_bytes: usize,
    /// Number of blocks.
    pub num_blocks: usize,
    /// Original logical shape (collapsed to ≤3 axes).
    pub shape: Vec<usize>,
    /// Original element count.
    pub num_elements: usize,
    /// Rate in bits per value.
    pub rate: u32,
}

impl Stream for CuzfpStream {
    fn stream_bytes(&self) -> u64 {
        (self.num_blocks * self.block_bytes) as u64
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The cuZFP-like compressor at a fixed `rate` (bits per value).
#[derive(Debug, Clone, Copy)]
pub struct CuzfpLike {
    /// Bits per value; the paper evaluates 4, 8, 16, 24.
    pub rate: u32,
}

impl CuzfpLike {
    /// Compressor at `rate` bits/value.
    ///
    /// # Panics
    /// Panics if the rate is 0 or above 32.
    pub fn new(rate: u32) -> Self {
        assert!((1..=32).contains(&rate), "rate must be in 1..=32");
        CuzfpLike { rate }
    }
}

/// Collapse an arbitrary shape to at most 3 axes (leading axes merge).
pub fn collapse_shape(shape: &[usize]) -> Vec<usize> {
    match shape.len() {
        0 => vec![1],
        1..=3 => shape.to_vec(),
        _ => {
            let lead: usize = shape[..shape.len() - 2].iter().product();
            vec![lead, shape[shape.len() - 2], shape[shape.len() - 1]]
        }
    }
}

/// zfp's int→negabinary-style uint mapping (order-preserving in
/// significance).
#[inline]
fn int2uint(x: i32) -> u32 {
    ((x as u32).wrapping_add(0xaaaa_aaaa)) ^ 0xaaaa_aaaa
}

/// Inverse of [`int2uint`].
#[inline]
fn uint2int(u: u32) -> i32 {
    ((u ^ 0xaaaa_aaaa).wrapping_sub(0xaaaa_aaaa)) as i32
}

/// Forward lifting transform over 4 elements at stride `s`.
fn fwd_lift(p: &mut [i64], base: usize, s: usize) {
    let (mut x, mut y, mut z, mut w) = (p[base], p[base + s], p[base + 2 * s], p[base + 3 * s]);
    x += w;
    x >>= 1;
    w -= x;
    z += y;
    z >>= 1;
    y -= z;
    x += z;
    x >>= 1;
    z -= x;
    w += y;
    w >>= 1;
    y -= w;
    w += y >> 1;
    y -= w >> 1;
    p[base] = x;
    p[base + s] = y;
    p[base + 2 * s] = z;
    p[base + 3 * s] = w;
}

/// Inverse lifting transform over 4 elements at stride `s`.
fn inv_lift(p: &mut [i64], base: usize, s: usize) {
    let (mut x, mut y, mut z, mut w) = (p[base], p[base + s], p[base + 2 * s], p[base + 3 * s]);
    y += w >> 1;
    w -= y >> 1;
    y += w;
    w <<= 1;
    w -= y;
    z += x;
    x <<= 1;
    x -= z;
    y += z;
    z <<= 1;
    z -= y;
    w += x;
    x <<= 1;
    x -= w;
    p[base] = x;
    p[base + s] = y;
    p[base + 2 * s] = z;
    p[base + 3 * s] = w;
}

/// Geometry helper: blocks along each axis and block count for `shape`.
fn block_grid(shape: &[usize]) -> (Vec<usize>, usize) {
    let grid: Vec<usize> = shape.iter().map(|&s| s.div_ceil(4)).collect();
    let count = grid.iter().product();
    (grid, count)
}

/// Sequency (total-order) permutation for a `4^d` block: coefficient
/// indices sorted by coordinate sum, ties by index — approximating zfp's
/// PERM tables.
fn sequency_order(d: usize) -> Vec<usize> {
    let n = 4usize.pow(d as u32);
    let mut idx: Vec<usize> = (0..n).collect();
    let key = |i: usize| -> usize {
        let mut rem = i;
        let mut sum = 0;
        for _ in 0..d {
            sum += rem % 4;
            rem /= 4;
        }
        sum
    };
    idx.sort_by_key(|&i| (key(i), i));
    idx
}

struct BlockCodec {
    d: usize,
    n: usize,
    order: Vec<usize>,
    plane_bits: usize,
}

impl BlockCodec {
    fn new(d: usize) -> Self {
        let n = 4usize.pow(d as u32);
        BlockCodec {
            d,
            n,
            order: sequency_order(d),
            plane_bits: n,
        }
    }

    /// Encode one gathered block into `out` (exactly `budget_bits` bits).
    fn encode(&self, vals: &[f32], budget_bits: usize, out: &mut [u8]) {
        for b in out.iter_mut() {
            *b = 0;
        }
        // Common exponent. ±Inf has an infinite log2 which saturates the
        // i32 cast; clamp to the f32 exponent range instead of overflowing.
        let max = vals.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let e = if max > 0.0 {
            max.log2().floor().min(127.0) as i32 + 1
        } else {
            // All-zero block: store the minimum exponent; planes stay 0.
            -EXP_BIAS
        };
        let e_store = (e + EXP_BIAS) as u32 & 0xFFFF;
        let mut writer = BitWriter { out, pos: 0 };
        writer.put(e_store as u64, EXP_BITS);

        if max > 0.0 {
            // Fixed point at 2^(30 − e).
            let scale = (30 - e) as f64;
            let mut q: Vec<i64> = vals
                .iter()
                .map(|&v| ((v as f64) * scale.exp2()).round() as i64)
                .collect();
            // Lifting along each axis.
            self.transform(&mut q, false);
            // Reorder + negabinary.
            let coeffs: Vec<u32> = self.order.iter().map(|&i| int2uint(q[i] as i32)).collect();
            // Bit planes MSB→LSB within the remaining budget.
            let mut remaining = budget_bits - EXP_BITS;
            let mut plane = 31i32;
            while remaining > 0 && plane >= 0 {
                let take = remaining.min(self.plane_bits);
                for (k, &c) in coeffs.iter().take(take).enumerate() {
                    let bit = (c >> plane) & 1;
                    let _ = k;
                    writer.put(bit as u64, 1);
                }
                remaining -= take;
                plane -= 1;
            }
        }
    }

    /// Decode one block from `bits` into `vals`.
    fn decode(&self, bits: &[u8], budget_bits: usize, vals: &mut [f32]) {
        let mut reader = BitReader { bits, pos: 0 };
        let e_store = reader.get(EXP_BITS) as u32;
        let e = e_store as i32 - EXP_BIAS;
        if e == -EXP_BIAS {
            for v in vals.iter_mut() {
                *v = 0.0;
            }
            return;
        }
        let mut coeffs = vec![0u32; self.n];
        let mut remaining = budget_bits - EXP_BITS;
        let mut plane = 31i32;
        while remaining > 0 && plane >= 0 {
            let take = remaining.min(self.plane_bits);
            for c in coeffs.iter_mut().take(take) {
                let bit = reader.get(1) as u32;
                *c |= bit << plane;
            }
            remaining -= take;
            plane -= 1;
        }
        let mut q = vec![0i64; self.n];
        for (k, &src) in self.order.iter().enumerate() {
            q[src] = uint2int(coeffs[k]) as i64;
        }
        self.transform(&mut q, true);
        let scale = (e - 30) as f64;
        for (i, v) in vals.iter_mut().enumerate() {
            *v = ((q[i] as f64) * scale.exp2()) as f32;
        }
    }

    /// Apply the lifting transform along every axis (inverse applies axes
    /// in reverse order).
    fn transform(&self, q: &mut [i64], inverse: bool) {
        match self.d {
            1 => {
                if inverse {
                    inv_lift(q, 0, 1);
                } else {
                    fwd_lift(q, 0, 1);
                }
            }
            2 => {
                if inverse {
                    for x in 0..4 {
                        inv_lift(q, x, 4);
                    }
                    for y in 0..4 {
                        inv_lift(q, 4 * y, 1);
                    }
                } else {
                    for y in 0..4 {
                        fwd_lift(q, 4 * y, 1);
                    }
                    for x in 0..4 {
                        fwd_lift(q, x, 4);
                    }
                }
            }
            _ => {
                if inverse {
                    for z in 0..4 {
                        for y in 0..4 {
                            inv_lift(q, 16 * z + 4 * y, 1);
                        }
                    }
                    for z in 0..4 {
                        for x in 0..4 {
                            inv_lift(q, 16 * z + x, 4);
                        }
                    }
                    for y in 0..4 {
                        for x in 0..4 {
                            inv_lift(q, 4 * y + x, 16);
                        }
                    }
                } else {
                    for y in 0..4 {
                        for x in 0..4 {
                            fwd_lift(q, 4 * y + x, 16);
                        }
                    }
                    for z in 0..4 {
                        for x in 0..4 {
                            fwd_lift(q, 16 * z + x, 4);
                        }
                    }
                    for z in 0..4 {
                        for y in 0..4 {
                            fwd_lift(q, 16 * z + 4 * y, 1);
                        }
                    }
                }
            }
        }
    }
}

struct BitWriter<'a> {
    out: &'a mut [u8],
    pos: usize,
}

impl BitWriter<'_> {
    fn put(&mut self, bits: u64, count: usize) {
        for k in 0..count {
            if (bits >> k) & 1 != 0 {
                self.out[self.pos / 8] |= 1 << (self.pos % 8);
            }
            self.pos += 1;
        }
    }
}

struct BitReader<'a> {
    bits: &'a [u8],
    pos: usize,
}

impl BitReader<'_> {
    fn get(&mut self, count: usize) -> u64 {
        let mut v = 0u64;
        for k in 0..count {
            let bit = (self.bits[self.pos / 8] >> (self.pos % 8)) & 1;
            v |= (bit as u64) << k;
            self.pos += 1;
        }
        v
    }
}

/// Gather a 4^d block at block-coordinates `bc`, clamping at edges.
fn gather(inp: &gpu_sim::GpuSlice<'_, f32>, shape: &[usize], bc: &[usize], vals: &mut [f32]) {
    let d = shape.len();
    let mut strides = vec![1usize; d];
    for i in (0..d.saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    let n = vals.len();
    for (k, v) in vals.iter_mut().enumerate() {
        let mut rem = k;
        let mut idx = 0usize;
        for axis in (0..d).rev() {
            let o = rem % 4;
            rem /= 4;
            let coord = (bc[axis] * 4 + o).min(shape[axis] - 1);
            idx += coord * strides[axis];
        }
        let _ = n;
        *v = inp.get(idx);
    }
}

/// Scatter a decoded block back (skipping padded coordinates).
fn scatter(out: &gpu_sim::GpuSlice<'_, f32>, shape: &[usize], bc: &[usize], vals: &[f32]) -> usize {
    let d = shape.len();
    let mut strides = vec![1usize; d];
    for i in (0..d.saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    let mut stored = 0usize;
    'vals: for (k, &v) in vals.iter().enumerate() {
        let mut rem = k;
        let mut idx = 0usize;
        for axis in (0..d).rev() {
            let o = rem % 4;
            rem /= 4;
            let coord = bc[axis] * 4 + o;
            if coord >= shape[axis] {
                continue 'vals; // padded position
            }
            idx += coord * strides[axis];
        }
        out.set(idx, v);
        stored += 1;
    }
    stored
}

impl Compressor for CuzfpLike {
    fn kind(&self) -> CompressorKind {
        CompressorKind::Cuzfp
    }

    fn is_error_bounded(&self) -> bool {
        false
    }

    fn compress(
        &self,
        gpu: &mut Gpu,
        input: &DeviceBuffer<f32>,
        shape: &[usize],
        _eb: f64,
    ) -> Box<dyn Stream> {
        let shape = collapse_shape(shape);
        let n: usize = shape.iter().product();
        assert_eq!(n, input.len(), "shape/data mismatch");
        let d = shape.len();
        let block_vals = 4usize.pow(d as u32);
        let (grid, num_blocks) = block_grid(&shape);
        // zfp's `minbits`: a block always stores its exponent plus at least
        // one full bit plane, so very low nominal rates on small (1-D)
        // blocks are clamped up.
        let budget_bits = ((self.rate as usize) * block_vals).max(EXP_BITS + block_vals);
        let block_bytes = budget_bits.div_ceil(8);
        let bits = gpu.alloc::<u8>(num_blocks * block_bytes);
        let rate = self.rate;

        gpu.launch("cuzfp_encode", LaunchConfig::cover(num_blocks, 16), |ctx| {
            let inp = input.slice();
            let out = bits.slice();
            let codec = BlockCodec::new(d);
            let mut vals = vec![0.0f32; block_vals];
            let mut buf = vec![0u8; block_bytes];
            let b0 = ctx.block * 16;
            let mut blocks_done = 0u64;
            for b in b0..(b0 + 16).min(num_blocks) {
                // Decompose block index into block coordinates.
                let mut rem = b;
                let mut bc = vec![0usize; d];
                for axis in (0..d).rev() {
                    bc[axis] = rem % grid[axis];
                    rem /= grid[axis];
                }
                gather(&inp, &shape, &bc, &mut vals);
                codec.encode(&vals, budget_bits, &mut buf);
                out.write_slice(b * block_bytes, &buf);
                blocks_done += 1;
            }
            ctx.read(STEP_GATHER, blocks_done * (block_vals * 4) as u64);
            ctx.ops(STEP_GATHER, blocks_done * (block_vals * 2) as u64);
            ctx.ops(STEP_XFORM, blocks_done * (block_vals * 12) as u64);
            ctx.ops(STEP_PLANES, blocks_done * budget_bits as u64);
            ctx.write(STEP_PLANES, blocks_done * block_bytes as u64);
            let _ = rate;
        });

        Box::new(CuzfpStream {
            bits,
            block_bytes,
            num_blocks,
            shape,
            num_elements: n,
            rate: self.rate,
        })
    }

    fn decompress(&self, gpu: &mut Gpu, stream: &dyn Stream) -> DeviceBuffer<f32> {
        let s = stream
            .as_any()
            .downcast_ref::<CuzfpStream>()
            .expect("not a cuZFP stream");
        let d = s.shape.len();
        let block_vals = 4usize.pow(d as u32);
        let (grid, num_blocks) = block_grid(&s.shape);
        assert_eq!(num_blocks, s.num_blocks);
        let budget_bits = ((s.rate as usize) * block_vals).max(EXP_BITS + block_vals);
        let output = gpu.alloc::<f32>(s.num_elements);

        gpu.launch("cuzfp_decode", LaunchConfig::cover(num_blocks, 16), |ctx| {
            let inp = s.bits.slice();
            let out = output.slice();
            let codec = BlockCodec::new(d);
            let mut vals = vec![0.0f32; block_vals];
            let mut buf = vec![0u8; s.block_bytes];
            let b0 = ctx.block * 16;
            let mut blocks_done = 0u64;
            let mut stored = 0u64;
            for b in b0..(b0 + 16).min(num_blocks) {
                let mut rem = b;
                let mut bc = vec![0usize; d];
                for axis in (0..d).rev() {
                    bc[axis] = rem % grid[axis];
                    rem /= grid[axis];
                }
                let src = b * s.block_bytes;
                for (k, byte) in buf.iter_mut().enumerate() {
                    *byte = inp.get(src + k);
                }
                codec.decode(&buf, budget_bits, &mut vals);
                stored += scatter(&out, &s.shape, &bc, &vals) as u64;
                blocks_done += 1;
            }
            ctx.read(STEP_PLANES, blocks_done * s.block_bytes as u64);
            ctx.ops(STEP_PLANES, blocks_done * budget_bits as u64);
            ctx.ops(STEP_XFORM, blocks_done * (block_vals * 12) as u64);
            ctx.write(STEP_GATHER, stored * 4);
            ctx.ops(STEP_GATHER, stored * 2);
        });

        output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;

    fn run(data: &[f32], shape: &[usize], rate: u32) -> (Vec<f32>, u64) {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let input = gpu.h2d(data);
        let comp = CuzfpLike::new(rate);
        let stream = comp.compress(&mut gpu, &input, shape, 0.0);
        let bytes = stream.stream_bytes();
        let out = comp.decompress(&mut gpu, stream.as_ref());
        (gpu.d2h(&out), bytes)
    }

    #[test]
    fn lift_roundtrip_error_tiny() {
        // The pair recovers values to within a few LSBs (zfp-like).
        let mut q: Vec<i64> = vec![123456, -99999, 5555, -1, 0, 7, 1 << 20, -(1 << 18)];
        let orig = q.clone();
        fwd_lift(&mut q, 0, 1);
        inv_lift(&mut q, 0, 1);
        for (a, b) in orig.iter().zip(&q[..4]) {
            assert!((a - b).abs() <= 4, "{a} vs {b}");
        }
    }

    #[test]
    fn negabinary_roundtrip() {
        for x in [-1000000, -1, 0, 1, 42, i32::MAX / 2, i32::MIN / 2] {
            assert_eq!(uint2int(int2uint(x)), x);
        }
    }

    #[test]
    fn non_finite_inputs_never_panic() {
        // ±Inf has an infinite exponent, which must clamp to the f32
        // range rather than overflow the block exponent.
        let mut data: Vec<f32> = (0..200).map(|i| (i as f32 * 0.1).sin()).collect();
        data[3] = f32::NAN;
        data[77] = f32::INFINITY;
        data[150] = f32::NEG_INFINITY;
        let (recon, _) = run(&data, &[200], 16);
        assert_eq!(recon.len(), data.len());
        assert!(
            (data[120] - recon[120]).abs() < 1e-3,
            "clean block stays close"
        );
    }

    #[test]
    fn fixed_rate_is_exact() {
        let data: Vec<f32> = (0..64 * 64).map(|i| (i as f32 * 0.01).sin()).collect();
        for rate in [4u32, 8, 16] {
            let (_, bytes) = run(&data, &[64, 64], rate);
            // 16×16 blocks of 16 values... 2-D: 4x4 blocks → 16 values each.
            let blocks = 16 * 16;
            assert_eq!(bytes, (blocks * (rate as usize * 16).div_ceil(8)) as u64);
        }
    }

    #[test]
    fn high_rate_high_quality() {
        let data: Vec<f32> = (0..4096)
            .map(|i| {
                let (y, x) = (i / 64, i % 64);
                ((x as f32) * 0.1).sin() * ((y as f32) * 0.07).cos() * 10.0
            })
            .collect();
        let (recon, _) = run(&data, &[64, 64], 24);
        let max_err = data
            .iter()
            .zip(&recon)
            .map(|(&d, &r)| (d - r).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_err < 0.01,
            "rate-24 should be near-lossless, err {max_err}"
        );
    }

    #[test]
    fn low_rate_low_quality_but_exact_size() {
        let data: Vec<f32> = (0..4096)
            .map(|i| ((i * 2654435761usize) % 1000) as f32 - 500.0)
            .collect();
        let (recon, bytes) = run(&data, &[64, 64], 4);
        assert_eq!(bytes, (256 * (4 * 16) / 8) as u64);
        // Not error bounded: random data at 4 bits/value is badly distorted.
        let max_err = data
            .iter()
            .zip(&recon)
            .map(|(&d, &r)| (d - r).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err > 1.0, "expected visible distortion, {max_err}");
    }

    #[test]
    fn three_d_roundtrip() {
        let data: Vec<f32> = (0..16 * 16 * 16)
            .map(|i| {
                let z = i / 256;
                let y = (i / 16) % 16;
                let x = i % 16;
                (x as f32 * 0.3).sin() + (y as f32 * 0.2).cos() + z as f32 * 0.1
            })
            .collect();
        let (recon, _) = run(&data, &[16, 16, 16], 16);
        let rmse = (data
            .iter()
            .zip(&recon)
            .map(|(&d, &r)| ((d - r) as f64).powi(2))
            .sum::<f64>()
            / data.len() as f64)
            .sqrt();
        assert!(rmse < 0.01, "rmse {rmse}");
    }

    #[test]
    fn one_d_and_edge_padding() {
        let data: Vec<f32> = (0..103).map(|i| i as f32 * 0.5).collect();
        let (recon, _) = run(&data, &[103], 16);
        assert_eq!(recon.len(), 103);
        let rmse = (data
            .iter()
            .zip(&recon)
            .map(|(&d, &r)| ((d - r) as f64).powi(2))
            .sum::<f64>()
            / 103.0)
            .sqrt();
        assert!(rmse < 0.5, "rmse {rmse}");
    }

    #[test]
    fn single_kernel_each_way() {
        let data: Vec<f32> = (0..1024).map(|i| i as f32).collect();
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let input = gpu.h2d(&data);
        gpu.reset_timeline();
        let comp = CuzfpLike::new(8);
        let stream = comp.compress(&mut gpu, &input, &[32, 32], 0.0);
        assert_eq!(gpu.timeline().kernel_count(), 1);
        assert_eq!(gpu.timeline().memcpy_time(), 0.0);
        assert_eq!(gpu.timeline().cpu_time(), 0.0);
        gpu.reset_timeline();
        let _ = comp.decompress(&mut gpu, stream.as_ref());
        assert_eq!(gpu.timeline().kernel_count(), 1);
        assert_eq!(gpu.timeline().cpu_time(), 0.0);
    }

    #[test]
    fn collapse_shapes() {
        assert_eq!(collapse_shape(&[288, 115, 69, 69]), vec![288 * 115, 69, 69]);
        assert_eq!(collapse_shape(&[10, 20]), vec![10, 20]);
        assert_eq!(collapse_shape(&[7]), vec![7]);
    }

    #[test]
    fn all_zero_block_decodes_to_zero() {
        let data = vec![0.0f32; 256];
        let (recon, _) = run(&data, &[16, 16], 8);
        assert!(recon.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic]
    fn zero_rate_rejected() {
        CuzfpLike::new(0);
    }
}
