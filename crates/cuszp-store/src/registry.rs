//! Runtime codec dispatch keyed by format id.

use crate::codec::{CuszpCodec, ErrorBoundedCodec, FormatId};

/// A set of codecs a reader resolves shard chunk entries against.
///
/// Registration is last-wins per format id, so an application can
/// override a default codec or add its own under a new id.
#[derive(Default)]
pub struct CodecRegistry {
    codecs: Vec<Box<dyn ErrorBoundedCodec + Send + Sync>>,
}

impl CodecRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registry holding the built-in codec under its two ids: cuSZp
    /// ([`CuszpCodec::PLAIN`], `CZP1`) and the hybrid two-stage cuSZp
    /// ([`CuszpCodec::HYBRID`], `CZH1`). A shard chunk naming any other
    /// id reads as [`crate::StoreError::UnknownCodec`] unless the caller
    /// registers a codec for it.
    pub fn with_defaults() -> Self {
        let mut r = Self::new();
        r.register(Box::new(CuszpCodec::PLAIN));
        r.register(Box::new(CuszpCodec::HYBRID));
        r
    }

    /// Register `codec`, replacing any codec with the same format id.
    pub fn register(&mut self, codec: Box<dyn ErrorBoundedCodec + Send + Sync>) {
        let id = codec.format_id();
        self.codecs.retain(|c| c.format_id() != id);
        self.codecs.push(codec);
    }

    /// Resolve a format id.
    pub fn get(&self, id: FormatId) -> Option<&(dyn ErrorBoundedCodec + Send + Sync)> {
        self.codecs
            .iter()
            .find(|c| c.format_id() == id)
            .map(|c| c.as_ref())
    }

    /// Iterate the registered codecs (conformance suites run this).
    pub fn codecs(&self) -> impl Iterator<Item = &(dyn ErrorBoundedCodec + Send + Sync)> {
        self.codecs.iter().map(|c| c.as_ref())
    }
}
