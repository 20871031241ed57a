//! Block-granular random access over error-bounded compressed data.
//!
//! cuSZp's Eq-2 prefix sum already yields exact per-block byte offsets,
//! yet reading one field from an archive normally means decompressing an
//! entire stream — the gap SZx and cuSZ+ note between throughput-oriented
//! fixed-length designs and query-style scientific workloads. This crate
//! closes it in three layers:
//!
//! 1. [`ErrorBoundedCodec`] — encode/decode plus `decode_blocks(range)`
//!    partial decode, implemented by one type, [`CuszpCodec`], under two
//!    ids: cuSZp ([`CuszpCodec::PLAIN`], `CZP1`, `CUSZP1` frames read
//!    through the recomputed `(F, CmpL)` offset table) and the hybrid
//!    two-stage cuSZp ([`CuszpCodec::HYBRID`], `CZH1`, `CUSZPHY1` frames
//!    read through their stored per-chunk offset table). Both read
//!    through [`cuszp_core::FrameRef`]. An application may register its
//!    own codec; the trait's provided row walks serve a codec that
//!    implements only the block-level methods. Frames are `f32` or
//!    `f64`; the shard index records which, and both built-in ids accept
//!    both.
//! 2. [`CodecRegistry`] — runtime dispatch keyed by a 4-byte format id,
//!    so a stored shard names its codec and readers resolve it at open.
//! 3. [`Shard`] — an n-D array split into chunks, each chunk one
//!    compressed frame, with a persisted chunk index (`CUSZPIX1` +
//!    `CUSZPFT1` footer). A region read touches only the chunks — and
//!    within each chunk only the 32-value (codec-defined) blocks — that
//!    overlap the request, copy-free over the shard bytes and zero-alloc
//!    after warm-up via the [`StoreScratch`] arena. Each touched chunk is
//!    one `decode_rows` call, and [`CuszpCodec`] writes its rows straight
//!    into the caller's output.
//!
//! The partial-read path is pinned by differential tests (value-identical
//! to full-decode-then-slice), a bytes-touched accounting check, and a
//! counting-allocator proof of the zero-alloc claim.
//!
//! Decoding dispatches over the host's SIMD tiers automatically; the
//! `CUSZP_SIMD` environment variable pins the tier **process-wide**
//! (every shard and reader in the process), purely a performance knob —
//! decoded values are identical at every tier.

#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod codec;
pub mod error;
pub mod index;
pub mod mmap;
pub mod registry;
pub mod store;

pub use codec::{CodecScratch, CuszpCodec, ErrorBoundedCodec, FormatId};
pub use cuszp_core::RowLayout;
pub use error::StoreError;
pub use index::{ChunkEntry, ShardIndex};
pub use registry::CodecRegistry;
pub use store::{write_shard, ReadStats, Shard, ShardElement, StoreScratch};
