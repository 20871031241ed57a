//! The sequential reference codec.
//!
//! Produces *byte-identical* streams to the fused device kernels (a
//! cross-check the integration tests enforce) and serves as the oracle for
//! property tests. Also the natural "CPU port" a downstream user of the
//! library would call when no device is in play.

use crate::bitshuffle::{shuffle, unshuffle};
use crate::config::CuszpConfig;
use crate::dtype::FloatData;
use crate::encode::{apply_sign_map, cmp_bytes_for, plan_block, sign_map};
use crate::format::Compressed;
use crate::quantize::{quantize_block, reconstruct_block};

/// Compress `data` (`f32` or `f64`) under an **absolute** error bound `eb`.
pub fn compress<T: FloatData>(data: &[T], eb: f64, cfg: CuszpConfig) -> Compressed {
    cfg.validate();
    assert!(
        eb.is_finite() && eb > 0.0,
        "absolute bound must be positive"
    );
    let l = cfg.block_len;
    let num_blocks = data.len().div_ceil(l);

    let mut fixed_lengths = vec![0u8; num_blocks];
    let mut payload = Vec::new();
    let mut resid = vec![0i64; l];
    let mut abs_vals = vec![0u64; l];
    let mut signs = vec![0u8; l / 8];

    for (b, fl) in fixed_lengths.iter_mut().enumerate() {
        let start = b * l;
        let end = (start + l).min(data.len());
        // Tail block: pad residuals with zeros beyond the data.
        for r in resid.iter_mut() {
            *r = 0;
        }
        quantize_block(
            &data[start..end],
            eb,
            cfg.lorenzo,
            &mut resid[..end - start],
        );

        let plan = plan_block(&resid, l);
        *fl = plan.fixed_len;
        if plan.fixed_len == 0 {
            continue;
        }
        sign_map(&resid, &mut signs);
        for (a, &r) in abs_vals.iter_mut().zip(resid.iter()) {
            *a = r.unsigned_abs();
        }
        let off = payload.len();
        payload.resize(off + plan.cmp_bytes as usize, 0);
        payload[off..off + l / 8].copy_from_slice(&signs);
        shuffle(&abs_vals, plan.fixed_len, &mut payload[off + l / 8..]);
    }

    Compressed {
        num_elements: data.len() as u64,
        block_len: l as u32,
        eb,
        lorenzo: cfg.lorenzo,
        dtype: T::DTYPE,
        fixed_lengths,
        payload,
    }
}

/// Decompress a stream back to its element type.
///
/// # Panics
/// Panics if the stream is structurally invalid or was compressed from a
/// different element type than `T`.
pub fn decompress<T: FloatData>(c: &Compressed) -> Vec<T> {
    c.validate().expect("invalid stream");
    assert_eq!(c.dtype, T::DTYPE, "stream element type mismatch");
    let l = c.block_len as usize;
    let n = c.num_elements as usize;
    let mut out = vec![T::default(); n];
    let mut abs_vals = vec![0u64; l];
    let mut resid = vec![0i64; l];
    let mut block_out = vec![T::default(); l];

    let mut off = 0usize;
    for (b, &f) in c.fixed_lengths.iter().enumerate() {
        let start = b * l;
        let end = (start + l).min(n);
        if f == 0 {
            // Zero block: all quantization integers are zero ⇒ all values
            // reconstruct to 0.0.
            for v in out[start..end].iter_mut() {
                *v = T::from_f64(0.0);
            }
            continue;
        }
        let cmp = cmp_bytes_for(f, l) as usize;
        let signs = &c.payload[off..off + l / 8];
        unshuffle(&c.payload[off + l / 8..off + cmp], f, &mut abs_vals);
        apply_sign_map(&abs_vals, signs, &mut resid);
        reconstruct_block(&resid, c.eb, c.lorenzo, &mut block_out);
        out[start..end].copy_from_slice(&block_out[..end - start]);
        off += cmp;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ErrorBound;

    fn check_roundtrip(data: &[f32], eb: f64, cfg: CuszpConfig) -> Compressed {
        let c = compress(data, eb, cfg);
        c.validate().unwrap();
        let back: Vec<f32> = decompress(&c);
        assert_eq!(back.len(), data.len());
        for (i, (&d, &r)) in data.iter().zip(&back).enumerate() {
            assert!(
                (d as f64 - r as f64).abs() <= eb * (1.0 + 1e-6),
                "bound violated at {i}: {d} vs {r} (eb {eb})"
            );
        }
        c
    }

    #[test]
    fn roundtrip_smooth() {
        let data: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.01).sin() * 50.0).collect();
        check_roundtrip(&data, 0.01, CuszpConfig::default());
    }

    #[test]
    fn roundtrip_with_tail_block() {
        let data: Vec<f32> = (0..77).map(|i| i as f32 * 3.0 - 100.0).collect();
        let c = check_roundtrip(&data, 0.5, CuszpConfig::default());
        assert_eq!(c.num_blocks(), 3);
    }

    #[test]
    fn all_zero_data_is_all_zero_blocks() {
        let data = vec![0.0f32; 256];
        let c = check_roundtrip(&data, 0.001, CuszpConfig::default());
        assert!(c.fixed_lengths.iter().all(|&f| f == 0));
        assert!(c.payload.is_empty());
        // Max CR: 1 byte per 128 data bytes.
        assert_eq!(c.stream_bytes(), 8);
    }

    #[test]
    fn values_within_eb_make_zero_blocks() {
        let data = vec![0.0004f32; 64];
        let c = check_roundtrip(&data, 0.001, CuszpConfig::default());
        assert!(c.fixed_lengths.iter().all(|&f| f == 0));
    }

    #[test]
    fn roundtrip_without_lorenzo() {
        let data: Vec<f32> = (0..500).map(|i| ((i * 37) % 97) as f32).collect();
        let cfg = CuszpConfig {
            lorenzo: false,
            ..Default::default()
        };
        check_roundtrip(&data, 0.05, cfg);
    }

    #[test]
    fn roundtrip_block_len_variants() {
        let data: Vec<f32> = (0..640).map(|i| (i as f32).sqrt() * 10.0).collect();
        for l in [8, 16, 32, 64, 128] {
            let cfg = CuszpConfig {
                block_len: l,
                ..Default::default()
            };
            check_roundtrip(&data, 0.02, cfg);
        }
    }

    #[test]
    fn smooth_data_compresses_well() {
        let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.001).sin()).collect();
        let eb = ErrorBound::Rel(1e-2).absolute(2.0);
        let c = compress(&data, eb, CuszpConfig::default());
        let ratio = (data.len() * 4) as f64 / c.stream_bytes() as f64;
        // Each block's leading residual is the raw quantization integer
        // (Lorenzo restarts per block), so F is bounded below by its bit
        // width — ~5x here rather than the naive ~14x a cross-block Lorenzo
        // would give. This matches the real cuSZp block-wise design.
        assert!(ratio > 4.5, "expected strong compression, got {ratio:.2}");
    }

    #[test]
    fn random_data_compresses_poorly_but_roundtrips() {
        let data: Vec<f32> = (0..1024)
            .map(|i| (((i * 2654435761usize) % 100_000) as f32) - 50_000.0)
            .collect();
        let c = check_roundtrip(&data, 0.5, CuszpConfig::default());
        let ratio = (data.len() * 4) as f64 / c.stream_bytes() as f64;
        assert!(
            ratio < 4.0,
            "random data should not compress well: {ratio:.2}"
        );
    }

    #[test]
    fn recompression_is_lossless() {
        // decompress(compress(x)) is a fixed point.
        let data: Vec<f32> = (0..333).map(|i| (i as f32 * 0.37).cos() * 7.0).collect();
        let eb = 0.01;
        let c1 = compress(&data, eb, CuszpConfig::default());
        let d1: Vec<f32> = decompress(&c1);
        let c2 = compress(&d1, eb, CuszpConfig::default());
        let d2: Vec<f32> = decompress(&c2);
        assert_eq!(d1, d2);
    }

    #[test]
    fn negative_values_roundtrip() {
        let data = vec![-1.0f32, -100.0, -0.001, -55.5, 0.0, 1.0, -2.0, 3.0];
        check_roundtrip(&data, 0.0005, CuszpConfig::default());
    }

    #[test]
    fn stream_size_matches_eq2_exactly() {
        let data: Vec<f32> = (0..320).map(|i| (i as f32 * 1.7).sin() * 1000.0).collect();
        let c = compress(&data, 0.1, CuszpConfig::default());
        let payload = crate::format::eq2_payload_bytes(&c.fixed_lengths, 32).unwrap();
        let expected = c.num_blocks() as u64 + payload;
        assert_eq!(c.stream_bytes(), expected);
    }
}
