//! Print the host's detected SIMD dispatch tier and the first stage's
//! tile size — the diagnostic for "which kernels will my process run?".
//!
//! ```text
//! cargo run --release -p cuszp-core --example detect_tier
//! ```
//!
//! Honors `CUSZP_SIMD` (the printout shows the *resolved* tier next to
//! the detected one).

use cuszp_core::{simd, tune};

fn main() {
    let detected = simd::detect_level();
    let resolved = simd::resolve_level(None);
    println!("detected SIMD tier: {detected}");
    if resolved != detected {
        println!("resolved SIMD tier: {resolved} (CUSZP_SIMD override)");
    }
    println!("tile: {} elements", tune::TILE_ELEMS);
}
