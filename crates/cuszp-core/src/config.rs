//! Error-bound modes and compressor configuration (paper §2.1, §4).

/// Default block length `L` — the reference cuSZp processes 32 values per
//  thread, which also caps the compression ratio at `32·4 / 1 = 128`
/// (Table 3's observed ceiling of 127.99).
pub const DEFAULT_BLOCK_LEN: usize = 32;

/// User-facing error-bound mode (paper Eq 1).
///
/// # Non-finite data policy
///
/// The REL denominator ([`crate::value_range`]) **skips** NaN and ±∞, so
/// a few stray non-finite values do not poison the bound resolution; the
/// range comes from the finite values alone. The bound guarantee itself
/// only ever applies to finite elements — a NaN input quantizes to an
/// integer like any other value and reconstructs as a finite number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Absolute bound δ: `|d_i − d'_i| ≤ δ`.
    Abs(f64),
    /// Value-range-relative bound λ: `|d_i − d'_i| ≤ λ · (max − min)`.
    Rel(f64),
}

impl ErrorBound {
    /// Resolve to an absolute bound given the dataset's value range.
    ///
    /// # Panics
    /// Panics if the resolved bound is not finite and positive — for REL
    /// bounds that includes empty, constant, and all-non-finite data,
    /// whose value range is `0.0`.
    pub fn absolute(&self, value_range: f64) -> f64 {
        let eb = match self {
            ErrorBound::Abs(d) => *d,
            ErrorBound::Rel(l) => l * value_range,
        };
        assert!(
            eb.is_finite() && eb > 0.0,
            "error bound must be positive and finite, got {eb} from {self} \
             (value range {value_range}; REL cannot resolve on empty, \
             constant, or all-non-finite data)"
        );
        eb
    }

    /// The paper's four standard REL settings (used across Table 3 and the
    /// throughput figures).
    pub fn paper_rel_set() -> [ErrorBound; 4] {
        [
            ErrorBound::Rel(1e-1),
            ErrorBound::Rel(1e-2),
            ErrorBound::Rel(1e-3),
            ErrorBound::Rel(1e-4),
        ]
    }
}

impl std::fmt::Display for ErrorBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErrorBound::Abs(d) => write!(f, "ABS {d:.0e}"),
            ErrorBound::Rel(l) => write!(f, "REL {l:.0e}"),
        }
    }
}

/// Host SIMD dispatch tier for the fast codec ([`crate::fast`]).
///
/// Every tier produces **byte-identical** streams and reconstructions:
/// the tier selects *which kernels run*, never *what they compute* — the
/// differential suites (`tests/fast_vs_ref.rs`, `tests/simd_tiers.rs`)
/// pin each tier against the scalar [`crate::host_ref`] oracle. The
/// default is runtime detection of the best tier the host supports; the
/// `CUSZP_SIMD` environment variable or [`CuszpConfig::simd`] force a
/// tier. Forcing a tier the host cannot run clamps **down** to the
/// detected one, so an override can never enable unsupported
/// instructions — overrides exist to *disable* vector paths (testing the
/// portable tiers on wide hosts, or pinning a tier process-wide for
/// reproducible latency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Portable word-parallel strip codec and scalar arithmetic. Runs on
    /// any host; the floor every other tier must match byte-for-byte.
    Scalar,
    /// 256-bit kernels (AVX2): packed byte transposes plus
    /// `vpmovmskb`-based plane extraction for the `L = 32`, `F ≤ 16`
    /// block codec, with a fused decode→dequantize path. Arithmetic
    /// outside the block codec stays scalar (AVX2 has no exact
    /// `f64`↔`i64` vector converts).
    Avx2,
    /// Full 512-bit paths (AVX-512 F/DQ/BW/VBMI): vector
    /// quantize/dequantize, `vpermb` byte transposes, delta-swap bit
    /// transposes, and fused decode→dequantize for `L = 32` at every
    /// `F ≤ 64`.
    Avx512,
}

impl SimdLevel {
    /// All tiers, weakest first — iterate this to test every tier at or
    /// below the detected one.
    pub const ALL: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512];

    /// Parse a tier name as used by `CUSZP_SIMD` (case-insensitive).
    pub fn parse(s: &str) -> Option<SimdLevel> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdLevel::Scalar),
            "avx2" => Some(SimdLevel::Avx2),
            "avx512" => Some(SimdLevel::Avx512),
            _ => None,
        }
    }

    /// The tier's `CUSZP_SIMD` name.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SimdLevel {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SimdLevel::parse(s)
            .ok_or_else(|| format!("unknown SIMD tier {s:?} (expected scalar, avx2, or avx512)"))
    }
}

/// Compressor configuration. The defaults reproduce the paper; the other
/// knobs exist for the ablation experiments called out in DESIGN.md §5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CuszpConfig {
    /// Block length `L`; must be a positive multiple of 8.
    pub block_len: usize,
    /// Apply the 1-D 1-layer Lorenzo prediction inside blocks (paper §4.1).
    /// Disabling it is the Fig 4 ablation.
    pub lorenzo: bool,
    /// Force a SIMD dispatch tier for this codec instance. `None` (the
    /// default) defers to the `CUSZP_SIMD` environment variable, then to
    /// runtime detection; `Some(level)` takes precedence over both but is
    /// still clamped to what the host supports. Output bytes are
    /// identical at every tier. Dispatch is a property of the running
    /// process, not of a stream, so no stream records it.
    pub simd: Option<SimdLevel>,
    /// Apply the lossless hybrid second stage ([`crate::hybrid`]) when
    /// serializing: the fixed-length stream is re-coded per chunk by the
    /// adaptive entropy coder and framed as `CUSZPHY1` whenever that is
    /// smaller than the plain `CUSZP1` serialization. Purely a *framing*
    /// switch — the stage is lossless, so reconstructed values and the
    /// error-bound contract are identical with it on or off. Only
    /// [`crate::Cuszp::compress_serialized`] and byte-stream consumers
    /// honor it; the in-memory [`crate::Compressed`] API is unaffected.
    pub hybrid: bool,
}

impl Default for CuszpConfig {
    fn default() -> Self {
        CuszpConfig {
            block_len: DEFAULT_BLOCK_LEN,
            lorenzo: true,
            simd: None,
            hybrid: false,
        }
    }
}

impl CuszpConfig {
    /// Validate invariants; call before compressing.
    ///
    /// # Panics
    /// Panics on an unusable configuration.
    pub fn validate(&self) {
        assert!(
            self.block_len >= 8 && self.block_len.is_multiple_of(8),
            "block_len must be a positive multiple of 8, got {}",
            self.block_len
        );
        assert!(self.block_len <= 4096, "block_len unreasonably large");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abs_bound_passthrough() {
        assert_eq!(ErrorBound::Abs(0.5).absolute(100.0), 0.5);
    }

    #[test]
    fn rel_bound_scales_by_range() {
        assert!((ErrorBound::Rel(1e-2).absolute(50.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn zero_bound_rejected() {
        ErrorBound::Abs(0.0).absolute(1.0);
    }

    #[test]
    #[should_panic]
    fn rel_on_constant_data_rejected() {
        ErrorBound::Rel(1e-3).absolute(0.0);
    }

    #[test]
    fn paper_set_has_four_rel_bounds() {
        let set = ErrorBound::paper_rel_set();
        assert_eq!(set.len(), 4);
        assert!(matches!(set[0], ErrorBound::Rel(r) if (r - 1e-1).abs() < 1e-12));
    }

    #[test]
    fn default_config_is_paper_config() {
        let cfg = CuszpConfig::default();
        cfg.validate();
        assert_eq!(cfg.block_len, 32);
        assert!(cfg.lorenzo);
    }

    #[test]
    #[should_panic]
    fn odd_block_len_rejected() {
        CuszpConfig {
            block_len: 12,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", ErrorBound::Rel(1e-3)), "REL 1e-3");
        assert_eq!(format!("{}", ErrorBound::Abs(1e-4)), "ABS 1e-4");
    }
}
