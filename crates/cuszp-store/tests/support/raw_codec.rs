//! A codec for tests of the store's generic paths: frames are the f32
//! values as raw little-endian bytes, and it implements only the
//! trait's required methods. A store read through it therefore runs the
//! provided `decode_rows` walk and a store write the provided
//! `encode_rows` walk, and it keeps the trait's f32-only default. It is
//! registered at two block lengths, 4 and 128, so most shapes end in a
//! ragged block.

use cuszp_core::FormatError;
use cuszp_store::{CodecRegistry, CodecScratch, ErrorBoundedCodec, FormatId, StoreError};
use std::ops::Range;

/// Raw f32 frames cut into blocks of `block` values.
pub struct RawCodec {
    id: FormatId,
    name: &'static str,
    block: usize,
}

/// The raw codec at block lengths 4 and 128.
pub const RAW_CODECS: [RawCodec; 2] = [
    RawCodec {
        id: *b"RAW4",
        name: "raw-4",
        block: 4,
    },
    RawCodec {
        id: *b"RAWK",
        name: "raw-128",
        block: 128,
    },
];

/// The default registry plus both raw codecs.
pub fn registry() -> CodecRegistry {
    let mut r = CodecRegistry::with_defaults();
    for codec in RAW_CODECS {
        r.register(Box::new(codec));
    }
    r
}

impl ErrorBoundedCodec for RawCodec {
    fn format_id(&self) -> FormatId {
        self.id
    }
    fn name(&self) -> &'static str {
        self.name
    }
    fn block_len(&self) -> usize {
        self.block
    }
    fn encode(&self, data: &[f32], _eb: f64, _scratch: &mut CodecScratch, out: &mut Vec<u8>) {
        out.clear();
        out.extend(data.iter().flat_map(|v| v.to_le_bytes()));
    }
    fn num_elements(&self, stream: &[u8]) -> Result<usize, StoreError> {
        if !stream.len().is_multiple_of(4) {
            return Err(StoreError::Frame(FormatError::Truncated));
        }
        Ok(stream.len() / 4)
    }
    fn decode_blocks(
        &self,
        stream: &[u8],
        blocks: Range<usize>,
        _scratch: &mut CodecScratch,
        out: &mut [f32],
    ) -> Result<usize, StoreError> {
        let n = self.num_elements(stream)?;
        let e0 = (blocks.start * self.block).min(n);
        let e1 = (blocks.end * self.block).min(n);
        assert_eq!(out.len(), e1 - e0, "output slice length");
        let bytes = &stream[e0 * 4..e1 * 4];
        for (v, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
            *v = f32::from_le_bytes(b.try_into().expect("4-byte chunk"));
        }
        Ok(bytes.len())
    }
}
