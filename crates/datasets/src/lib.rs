//! # datasets — deterministic synthetic stand-ins for the cuSZp evaluation data
//!
//! The paper evaluates on six SDRBench datasets (Table 2): Hurricane
//! (weather), NYX (cosmology), QMCPack (quantum Monte Carlo), RTM (seismic
//! imaging), HACC (N-body cosmology particles), and CESM-ATM (climate).
//! Those archives are multi-gigabyte downloads that are not available in
//! this environment, so this crate generates *synthetic equivalents* with
//! matched statistical character:
//!
//! * dimensionality and aspect (3-D grids, a 4-D grid, 1-D particle arrays,
//!   2-D lat×lon fields),
//! * block-level smoothness (the property Fig 6 measures and the
//!   fixed-length encoding exploits),
//! * dynamic range and sparsity (what drives zero blocks, cuSZx constant
//!   blocks, and the REL error-bound behaviour),
//! * per-field variety within a dataset (min/avg/max spread in Table 3).
//!
//! Every generator is deterministic in `(dataset, field, scale)`, so
//! experiments and tests are reproducible. Default scales are laptop-sized;
//! the statistical character, not the byte count, is what the experiments
//! depend on.

#![forbid(unsafe_code)]

pub mod cesm;
pub mod field;
pub mod hacc;
pub mod hurricane;
pub mod io;
pub mod nyx;
pub mod qmcpack;
pub mod registry;
pub mod rtm;
pub mod spectral;

pub use field::Field;
pub use registry::{generate, generate_subset, DatasetId, Scale};
