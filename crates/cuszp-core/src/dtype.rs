//! Element types the codec supports — the reference cuSZp ships `-f`
//! (float) and `-d` (double) code paths; this trait folds both into one
//! generic pipeline.

/// On-disk tag for the element type of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DType {
    /// IEEE-754 single precision.
    F32,
    /// IEEE-754 double precision.
    F64,
}

impl DType {
    /// Header byte for serialization.
    pub fn to_byte(self) -> u8 {
        match self {
            DType::F32 => 0,
            DType::F64 => 1,
        }
    }

    /// Parse the header byte.
    pub fn from_byte(b: u8) -> Option<DType> {
        match b {
            0 => Some(DType::F32),
            1 => Some(DType::F64),
            _ => None,
        }
    }

    /// Element size in bytes.
    pub fn size(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F64 => 8,
        }
    }

    /// Largest fixed length `F` a stream of this element type can use.
    ///
    /// `f32` quantization integers fit in the `i32` range wherever the
    /// bound is meaningful (the reference cuSZp stores them in `int`);
    /// the block-internal Lorenzo difference of two such integers spans
    /// at most 33 bits. `f64` residual magnitudes are capped by the
    /// 64-bit unsigned-abs representation. This bounds the device
    /// payload allocation at `(max_F + 1)·L/8` bytes per block — roughly
    /// **half** the f64 worst case for f32 streams.
    pub fn max_fixed_len(self) -> u8 {
        match self {
            DType::F32 => 33,
            DType::F64 => 64,
        }
    }
}

mod sealed {
    /// Seals [`super::FloatData`] to `f32`/`f64`: the SIMD batch paths in
    /// [`crate::simd`] reinterpret `&[T]` by `T::DTYPE`, which is sound
    /// only if the tag cannot lie about the element type. Also carries
    /// the crate-private per-type kernels that generic code dispatches to.
    pub trait Sealed: Sized {
        /// Smallest and largest **finite** element, widened to `f64`;
        /// `(+∞, −∞)` when there is none. Backs [`crate::value_range`].
        fn finite_min_max(data: &[Self]) -> (f64, f64);
    }

    // `$lanes` elements of `$t` per scan step: 64 bytes, so the lane
    // arrays map onto whole vector registers at every x86 tier.
    macro_rules! finite_min_max {
        ($t:ty, $lanes:expr) => {
            impl Sealed for $t {
                fn finite_min_max(data: &[$t]) -> (f64, f64) {
                    // Each lane keeps its own running min/max in the element's
                    // own type; a finite mask (not a branch) maps NaN and ±∞
                    // to the identity of each reduction, so the loop has no
                    // control flow for the compiler to keep scalar.
                    #[inline(always)]
                    fn fold(lo: &mut $t, hi: &mut $t, v: $t) {
                        let finite = v.is_finite();
                        let l = if finite { v } else { <$t>::INFINITY };
                        let h = if finite { v } else { <$t>::NEG_INFINITY };
                        *lo = if l < *lo { l } else { *lo };
                        *hi = if h > *hi { h } else { *hi };
                    }
                    const LANES: usize = $lanes;
                    let mut lo = [<$t>::INFINITY; LANES];
                    let mut hi = [<$t>::NEG_INFINITY; LANES];
                    let mut steps = data.chunks_exact(LANES);
                    for step in &mut steps {
                        for i in 0..LANES {
                            fold(&mut lo[i], &mut hi[i], step[i]);
                        }
                    }
                    for (i, &v) in steps.remainder().iter().enumerate() {
                        fold(&mut lo[i], &mut hi[i], v);
                    }
                    let l = lo
                        .into_iter()
                        .fold(<$t>::INFINITY, |a, b| if b < a { b } else { a });
                    let h = hi
                        .into_iter()
                        .fold(<$t>::NEG_INFINITY, |a, b| if b > a { b } else { a });
                    // Widening is exact and keeps order, so this is the
                    // min/max a scan over the widened values would find.
                    (l as f64, h as f64)
                }
            }
        };
    }
    finite_min_max!(f32, 16);
    finite_min_max!(f64, 8);
}

/// A floating-point element the codec can quantize.
///
/// The quantization itself runs in `f64` for both types; the trait carries
/// the conversions and the stream tag. The error-bound guarantee is exact
/// in `f64` arithmetic, with reconstruction rounding bounded by one ULP of
/// the element type (see `verify::check_bound`). Sealed: implemented for
/// `f32` and `f64` only.
pub trait FloatData:
    Copy + Send + Sync + Default + 'static + PartialEq + std::fmt::Debug + sealed::Sealed
{
    /// This type's stream tag.
    const DTYPE: DType;
    /// Widen to `f64` for quantization.
    fn to_f64(self) -> f64;
    /// Narrow from `f64` after dequantization.
    fn from_f64(v: f64) -> Self;
}

impl FloatData for f32 {
    const DTYPE: DType = DType::F32;
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn from_f64(v: f64) -> Self {
        v as f32
    }
}

impl FloatData for f64 {
    const DTYPE: DType = DType::F64;
    fn to_f64(self) -> f64 {
        self
    }
    fn from_f64(v: f64) -> Self {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_roundtrip() {
        for d in [DType::F32, DType::F64] {
            assert_eq!(DType::from_byte(d.to_byte()), Some(d));
        }
        assert_eq!(DType::from_byte(7), None);
    }

    #[test]
    fn sizes() {
        assert_eq!(DType::F32.size(), 4);
        assert_eq!(DType::F64.size(), 8);
    }

    #[test]
    fn conversions_are_exact_for_f64() {
        let v = 1.234_567_890_123_456_7f64;
        assert_eq!(f64::from_f64(v.to_f64()), v);
        assert_eq!(<f64 as FloatData>::DTYPE, DType::F64);
        assert_eq!(<f32 as FloatData>::DTYPE, DType::F32);
    }
}
