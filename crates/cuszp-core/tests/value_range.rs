//! Differential suite for [`cuszp_core::value_range`]: the lane scan must
//! give the value of the plain scalar loop it replaced — on random data
//! salted with NaN, ±∞, ±0.0 and subnormals, on every short length and
//! on lengths around multiples of the lane widths, and on all-non-finite
//! and constant inputs. A nonzero range must match bit for bit, since it
//! scales every REL bound and so every compressed byte.

use cuszp_core::{value_range, FloatData};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The scalar loop `value_range` used before the lane scan.
fn reference<T: FloatData + Copy>(data: &[T]) -> f64 {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in data {
        let v = v.to_f64();
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if hi >= lo {
        hi - lo
    } else {
        0.0
    }
}

fn assert_same<T: FloatData + Copy>(data: &[T]) {
    let (got, want) = (value_range(data), reference(data));
    assert_eq!(got, want, "len {}: {data:?}", data.len());
    if want != 0.0 {
        assert_eq!(got.to_bits(), want.to_bits(), "len {}", data.len());
    }
}

/// One element drawn from a mix: mostly ordinary values of both signs
/// and wide magnitude, salted with every special class.
trait Draw: FloatData + Copy {
    fn draw(rng: &mut StdRng) -> Self;
}

impl Draw for f32 {
    fn draw(rng: &mut StdRng) -> f32 {
        let r = rng.next_u64();
        match r % 16 {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => 0.0,
            4 => -0.0,
            // Subnormal: zero exponent, nonzero mantissa, either sign.
            5 => f32::from_bits(((r >> 8) as u32 & 0x807f_ffff) | 1),
            _ => ((r >> 11) as f32 / (1u64 << 53) as f32 - 0.5) * 10f32.powi((r >> 4) as i32 % 9),
        }
    }
}

impl Draw for f64 {
    fn draw(rng: &mut StdRng) -> f64 {
        let r = rng.next_u64();
        match r % 16 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 0.0,
            4 => -0.0,
            5 => f64::from_bits((rng.next_u64() & 0x800f_ffff_ffff_ffff) | 1),
            _ => ((r >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 10f64.powi((r >> 4) as i32 % 30),
        }
    }
}

/// 0..=64, then a step either side of each multiple of 16 (the f32 lane
/// width, a multiple of the f64 one) up to 1 KiB of elements.
fn lengths() -> Vec<usize> {
    let mut v: Vec<usize> = (0..=64).collect();
    for k in 5..=64 {
        v.extend([16 * k - 1, 16 * k, 16 * k + 1]);
    }
    v
}

fn random_matches<T: Draw>() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0000 + T::DTYPE.to_byte() as u64);
    for n in lengths() {
        for _ in 0..8 {
            let data: Vec<T> = (0..n).map(|_| T::draw(&mut rng)).collect();
            assert_same(&data);
        }
    }
}

#[test]
fn random_f32_with_specials_matches_scalar_loop() {
    random_matches::<f32>();
}

#[test]
fn random_f64_with_specials_matches_scalar_loop() {
    random_matches::<f64>();
}

#[test]
fn extremes_land_in_every_lane_and_the_tail() {
    // A lone minimum / maximum at each position of a ragged input, so
    // every lane and every tail slot has to carry it to the reduction.
    for n in [1usize, 7, 8, 15, 16, 17, 33, 47] {
        for at in 0..n {
            let mut a = vec![1.5f32; n];
            a[at] = -3.25;
            assert_same(&a);
            a[at] = 9.0;
            assert_same(&a);
            let mut b = vec![-1.5f64; n];
            b[at] = -1e300;
            assert_same(&b);
            b[at] = f64::MIN_POSITIVE / 4.0;
            assert_same(&b);
        }
    }
}

#[test]
fn all_non_finite_and_constant_inputs_match() {
    for n in lengths() {
        let specials32 = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let nf32: Vec<f32> = (0..n).map(|i| specials32[i % 3]).collect();
        assert_same(&nf32);
        let specials64 = [f64::NEG_INFINITY, f64::NAN, f64::INFINITY];
        let nf64: Vec<f64> = (0..n).map(|i| specials64[i % 3]).collect();
        assert_same(&nf64);
        for c in [0.0f32, -0.0, 7.5, -f32::MAX, f32::from_bits(1)] {
            assert_same(&vec![c; n]);
        }
        for c in [0.0f64, -0.0, -2.25, f64::MAX, f64::from_bits(3)] {
            assert_same(&vec![c; n]);
        }
        // Mixed-sign zeros: both loops give a zero range, whichever sign.
        let z: Vec<f32> = (0..n)
            .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
            .collect();
        assert_same(&z);
    }
}
