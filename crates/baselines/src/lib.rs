//! # baselines — the cuSZp paper's comparison compressors, from scratch
//!
//! Rust implementations of the three GPU lossy compressors the paper
//! evaluates against, each with the *design choices the comparison hinges
//! on* (paper §1, §5.1.4):
//!
//! * [`cusz`] — prediction-based, error-bounded, **multi-kernel with
//!   CPU-built Huffman coding**. Dual-quantization + multi-dimensional
//!   Lorenzo produces quantization codes; a histogram is copied to the
//!   host, a canonical Huffman codebook is built on the CPU and copied
//!   back, then encode/compact kernels run. The host round-trips are what
//!   cap its end-to-end throughput at ~1–2 GB/s in Fig 13/14.
//! * [`cuszx`] — block-wise, error-bounded, ultra-fast kernels but
//!   **CPU-side global synchronization** and pre/post-processing. Blocks
//!   whose value range fits inside `2·eb` are flushed to their range
//!   midpoint ("constant blocks") — the source of both its high CRs on
//!   wide-range data (Table 3, HACC/CESM) and the stripe artifacts of
//!   Fig 16.
//! * [`cuzfp`] — **fixed-rate** (not error-bounded) transform coding in a
//!   single kernel: blocks of 4^d values, common-exponent fixed-point,
//!   forward decorrelating lifting transform, negabinary, bit-plane
//!   truncation to the exact rate budget. Single-kernel speed, but no
//!   error bound and weak 1-D quality (Fig 17e).
//!
//! [`cuszp`] holds cuSZp itself on the same simulated device: the
//! paper's single fused kernel per direction, byte-identical to
//! `cuszp-core`'s host codec. [`common`] defines the
//! [`common::Compressor`] trait the experiment harness drives, plus the
//! adapter exposing [`cuszp`] through the same interface.

pub mod common;
pub mod cusz;
pub mod cuszp;
pub mod cuszx;
pub mod cuzfp;

pub use common::{Compressor, CompressorKind, Stream};
pub use cusz::CuszLike;
pub use cuszx::CuszxLike;
pub use cuzfp::CuzfpLike;
