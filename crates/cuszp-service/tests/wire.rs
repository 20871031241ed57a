//! Wire conformance with only one side of the socket under test, so a
//! mistake the server and `Client` share (byte order, framing) cannot
//! cancel out:
//!
//! * a raw `TcpStream` speaks hand-built frames to the `Server`;
//! * a fake listener captures a `Client`'s request bytes and feeds it
//!   hand-built replies — including hostile ones, which the client must
//!   reject from the header alone.

use cuszp_core::{fast, CuszpConfig, DType, ErrorBound, FloatData, Scratch};
use cuszp_service::protocol::*;
use cuszp_service::{Client, Server, ServiceConfig, ServiceError, Tenant};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;

const REL: f64 = 1e-3;

/// An element with its little-endian wire encoding spelled out, and the
/// `Client` calls for its dtype.
trait Le: FloatData + Copy + Default {
    fn push_le(self, out: &mut Vec<u8>);
    fn compress(c: &mut Client, data: &[Self]) -> Result<(), ServiceError>;
    fn decompress(c: &mut Client, payload: &[u8], out: &mut Vec<Self>) -> Result<(), ServiceError>;
}

impl Le for f32 {
    fn push_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn compress(c: &mut Client, data: &[f32]) -> Result<(), ServiceError> {
        c.compress_f32(data).map(|_| ())
    }
    fn decompress(c: &mut Client, payload: &[u8], out: &mut Vec<f32>) -> Result<(), ServiceError> {
        c.decompress_f32(payload, out)
    }
}

impl Le for f64 {
    fn push_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn compress(c: &mut Client, data: &[f64]) -> Result<(), ServiceError> {
        c.compress_f64(data).map(|_| ())
    }
    fn decompress(c: &mut Client, payload: &[u8], out: &mut Vec<f64>) -> Result<(), ServiceError> {
        c.decompress_f64(payload, out)
    }
}

fn le_bytes<T: Le>(v: &[T]) -> Vec<u8> {
    let mut out = Vec::new();
    for &x in v {
        x.push_le(&mut out);
    }
    out
}

fn tenant(dtype: DType, max_payload: u32) -> Tenant {
    Tenant {
        tenant_id: 5,
        dtype,
        bound: ErrorBound::Rel(REL),
        max_payload,
        hybrid: false,
    }
}

/// A smooth field with sign changes, signed zeros and a value that is
/// subnormal as `f32`, at a length that leaves a ragged last block.
fn field<T: Le>(n: usize) -> Vec<T> {
    let mut v: Vec<T> = (0..n)
        .map(|i| T::from_f64((i as f64 * 0.013).sin() * 300.0 + (i as f64 * 0.0007).cos()))
        .collect();
    v[1] = T::from_f64(-0.0);
    v[2] = T::from_f64(0.0);
    v[3] = T::from_f64(1e-40);
    v
}

/// Send one request frame built by hand; return the response status and
/// payload.
fn request(s: &mut TcpStream, op: u8, payload: &[u8]) -> (u8, Vec<u8>) {
    s.write_all(&[op]).unwrap();
    s.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
    s.write_all(payload).unwrap();
    let mut hdr = [0u8; RESPONSE_HEADER_BYTES];
    s.read_exact(&mut hdr).unwrap();
    let mut body = vec![0u8; u32::from_le_bytes(hdr[1..5].try_into().unwrap()) as usize];
    s.read_exact(&mut body).unwrap();
    (hdr[0], body)
}

fn server_speaks_little_endian<T: Le>() {
    let server = Server::start(ServiceConfig::default()).unwrap();
    let data = field::<T>(3001);
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.write_all(&tenant(T::DTYPE, 1 << 20).encode_hello())
        .unwrap();
    let mut reply = [0u8; HANDSHAKE_REPLY_BYTES];
    s.read_exact(&mut reply).unwrap();
    assert_eq!(reply[0], STATUS_OK);

    // Compress: the reply is the single-chunk container around the
    // library's frame at the REL bound resolved on this payload.
    let (status, container) = request(&mut s, OP_COMPRESS, &le_bytes(&data));
    assert_eq!(status, STATUS_OK);
    let eb = REL * cuszp_core::value_range(&data);
    let mut scratch = Scratch::new();
    let mut frame = Vec::new();
    let r = fast::compress_into(&mut scratch, &data, eb, CuszpConfig::default(), &mut frame);
    let mut decoded = vec![T::default(); data.len()];
    fast::decompress_into(r, &mut scratch, &mut decoded);
    let mut want = single_chunk_container_header(frame.len() as u64).to_vec();
    want.extend_from_slice(&frame);
    assert_eq!(container, want, "compress reply bytes");

    // Decompress: the reply is each decoded element's LE bytes.
    let (status, raw) = request(&mut s, OP_DECOMPRESS, &container);
    assert_eq!(status, STATUS_OK);
    assert_eq!(raw, le_bytes(&decoded), "decompress reply bytes");
    server.shutdown();
}

#[test]
fn server_reads_and_writes_little_endian_f32() {
    server_speaks_little_endian::<f32>();
}

#[test]
fn server_reads_and_writes_little_endian_f64() {
    server_speaks_little_endian::<f64>();
}

/// A one-connection fake server: completes the handshake (echoing the
/// hello's cap), then runs `script` on the socket and returns its result.
fn fake_server<R: Send + 'static>(
    script: impl FnOnce(&mut TcpStream) -> R + Send + 'static,
) -> (SocketAddr, JoinHandle<R>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let h = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let mut hello = [0u8; HANDSHAKE_BYTES];
        s.read_exact(&mut hello).unwrap();
        let t = Tenant::decode_hello(&hello).unwrap();
        s.write_all(&encode_handshake_reply(STATUS_OK, 0, t.max_payload))
            .unwrap();
        script(&mut s)
    });
    (addr, h)
}

/// Read one whole request frame (header included) off `s`.
fn capture(s: &mut TcpStream) -> Vec<u8> {
    let mut req = vec![0u8; REQUEST_HEADER_BYTES];
    s.read_exact(&mut req).unwrap();
    let len = u32::from_le_bytes(req[1..5].try_into().unwrap()) as usize;
    req.resize(REQUEST_HEADER_BYTES + len, 0);
    s.read_exact(&mut req[REQUEST_HEADER_BYTES..]).unwrap();
    req
}

fn client_speaks_little_endian<T: Le>() {
    let data = field::<T>(777);
    let reply = le_bytes(&data);
    let (addr, h) = fake_server(move |s| {
        let c = capture(s);
        s.write_all(&encode_response_header(STATUS_BUSY, 0))
            .unwrap();
        let d = capture(s);
        s.write_all(&encode_response_header(STATUS_OK, reply.len() as u32))
            .unwrap();
        s.write_all(&reply).unwrap();
        (c, d)
    });
    let mut client = Client::connect(addr, tenant(T::DTYPE, 1 << 20)).unwrap();
    assert!(matches!(
        T::compress(&mut client, &data),
        Err(ServiceError::Busy)
    ));
    // Start from a longer, dirty output: it must come back exactly the
    // decoded length with every element overwritten.
    let mut out = vec![T::from_f64(9.0); 1000];
    T::decompress(&mut client, b"any container", &mut out).unwrap();
    let (c, d) = h.join().unwrap();

    let mut want =
        encode_request_header(OP_COMPRESS, (data.len() * T::DTYPE.size()) as u32).to_vec();
    want.extend_from_slice(&le_bytes(&data));
    assert_eq!(c, want, "compress request bytes");
    let mut want = encode_request_header(OP_DECOMPRESS, 13).to_vec();
    want.extend_from_slice(b"any container");
    assert_eq!(d, want, "decompress request bytes");
    assert_eq!(le_bytes(&out), le_bytes(&data), "decoded elements");
}

#[test]
fn client_writes_and_reads_little_endian_f32() {
    client_speaks_little_endian::<f32>();
}

#[test]
fn client_writes_and_reads_little_endian_f64() {
    client_speaks_little_endian::<f64>();
}

fn assert_invalid_data(r: Result<(), ServiceError>) {
    match r {
        Err(ServiceError::Io(e)) => assert_eq!(e.kind(), ErrorKind::InvalidData, "{e}"),
        other => panic!("expected InvalidData, got {other:?}"),
    }
}

#[test]
fn reply_longer_than_the_connection_allows_is_rejected_from_the_header() {
    // A 4 GiB claim on a 4 KiB tenant. The fake then stays silent but
    // open: a client that believed the header would allocate for it and
    // block reading, never return InvalidData.
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    let (addr, h) = fake_server(move |s| {
        capture(s);
        s.write_all(&encode_response_header(STATUS_OK, u32::MAX))
            .unwrap();
        let _ = rx.recv();
    });
    let mut client = Client::connect(addr, tenant(DType::F32, 4096)).unwrap();
    assert_invalid_data(client.compress_f32(&[1.0, 2.0]).map(|_| ()));
    drop(tx);
    h.join().unwrap();
}

#[test]
fn decompress_reply_of_partial_elements_is_rejected() {
    for (dtype, len) in [(DType::F32, 7u32), (DType::F64, 12)] {
        let (addr, h) = fake_server(move |s| {
            capture(s);
            s.write_all(&encode_response_header(STATUS_OK, len))
                .unwrap();
            s.write_all(&vec![0u8; len as usize]).unwrap();
        });
        let mut client = Client::connect(addr, tenant(dtype, 4096)).unwrap();
        let r = match dtype {
            DType::F32 => client.decompress_f32(b"c", &mut Vec::new()),
            DType::F64 => client.decompress_f64(b"c", &mut Vec::new()),
        };
        assert_invalid_data(r);
        h.join().unwrap();
    }
}
