//! The tile size of the host fast codec.
//!
//! [`crate::fast`] compresses blocks in *tiles*: the residual scratch
//! covers one tile, so the tile decides the phase-1 working set the way
//! the paper's thread-block size decides how much shared memory one GPU
//! block touches. The tile is one constant, as the paper's kernel shape
//! is (`L = 32`). Measured over the `snapshot` fields at store-chunk and
//! request sizes, every tile from 2048 to 32768 elements encoded within
//! 1.7 % of the others at the AVX-512 tier, and within 3.1 % at the
//! scalar and AVX2 tiers, inside the runs' own spread. The tile never
//! changes output bytes, and decode does not tile at all.

use crate::config::SimdLevel;
use crate::dtype::DType;

/// Elements per phase-1 tile: 8192 keeps the `i64` residual tile at
/// 64 KiB.
pub const TILE_ELEMS: usize = 8192;

/// [`TILE_ELEMS`], whatever the element type and tier. Kept for callers
/// that record the tile per `(dtype, tier)`, such as the e2ebench run
/// record.
pub fn tile_elems(_dtype: DType, _level: SimdLevel) -> usize {
    TILE_ELEMS
}
