//! Integration coverage for the in-place compression stream: the bytes
//! `Cuszp::compress_into` writes are a complete wire-format frame that a
//! chunked container embeds verbatim.

use cuszp_repro::cuszp_core::{ChunkedCompressed, Cuszp, ErrorBound, Scratch};

#[test]
fn compress_into_stream_parses_as_single_chunk_frame() {
    // A compress_into output buffer is a complete wire-format stream, so
    // it can be framed into a container verbatim.
    let codec = Cuszp::new();
    let data: Vec<f32> = (0..3000).map(|i| (i as f32 * 0.01).sin()).collect();
    let mut scratch = Scratch::new();
    let mut stream = Vec::new();
    let r = codec
        .compress_into(&mut scratch, &data, ErrorBound::Rel(1e-3), &mut stream)
        .to_owned();
    let owned = codec.compress(&data, ErrorBound::Rel(1e-3));
    assert_eq!(r, owned);
    assert_eq!(stream, owned.to_bytes());

    let single = ChunkedCompressed::single(owned);
    let container_bytes = single.to_bytes();
    // The framed container embeds the compress_into bytes verbatim.
    let tail = &container_bytes[container_bytes.len() - stream.len()..];
    assert_eq!(tail, &stream[..]);
}
