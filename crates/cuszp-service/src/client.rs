//! A blocking client for the `CUSZPSV1` protocol with a reusable
//! response buffer: after the first request of each kind, a client
//! performs no heap allocations on the success path — matching the
//! server's zero-allocation steady state, which keeps load-generator
//! measurements honest. Element payloads move straight between the
//! socket and the caller's slices, with no staging copy.

use crate::protocol::*;
use crate::wire::{self, WireFloat};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Why a request did not produce a result.
#[derive(Debug)]
pub enum ServiceError {
    /// The server's admission queue was full; the request was **not**
    /// processed. Safe to retry.
    Busy,
    /// The server rejected the request; the message is available from
    /// [`Client::last_error`] until the next request.
    Remote,
    /// The connection failed.
    Io(std::io::Error),
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Busy => write!(f, "server busy (admission queue full)"),
            ServiceError::Remote => write!(f, "server rejected the request"),
            ServiceError::Io(e) => write!(f, "connection error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Largest metrics or error reply a client accepts, whatever the tenant
/// cap: the metrics text is a few KiB, error messages under 100 bytes.
const CONTROL_REPLY_CAP: usize = 64 << 10;

/// A connected tenant session.
pub struct Client {
    stream: TcpStream,
    tenant: Tenant,
    /// Response payload buffer for everything but decoded elements, which
    /// are read straight into the caller's `Vec`. Compressed containers
    /// are borrowed from it by [`Client::compress_f32`] /
    /// [`Client::compress_f64`]. Grows only, within `resp_cap`.
    resp: Vec<u8>,
    /// Longest response this connection can legitimately receive, sized
    /// at [`Client::connect`] from the effective cap. A longer declared
    /// length is rejected before anything is read or allocated.
    resp_cap: usize,
    /// Last `ERR` message from the server (reused).
    errmsg: String,
}

impl Client {
    /// Connect and perform the `CUSZPSV1` handshake. On success the
    /// client's buffers are pre-sized for the **effective** payload cap
    /// (the tenant's ask clamped by the server — see
    /// [`Client::effective_max_payload`]), so steady-state requests
    /// allocate nothing.
    pub fn connect(addr: impl ToSocketAddrs, tenant: Tenant) -> std::io::Result<Client> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(&tenant.encode_hello())?;
        let mut reply = [0u8; HANDSHAKE_REPLY_BYTES];
        stream.read_exact(&mut reply)?;
        if reply[0] != STATUS_OK {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("handshake rejected (code {})", reply[1]),
            ));
        }
        let effective = u32::from_le_bytes(reply[4..8].try_into().unwrap());
        let tenant = Tenant {
            max_payload: effective,
            ..tenant
        };
        let cap = effective as usize;
        let elems = cap / tenant.dtype.size();
        let cfg = cuszp_core::CuszpConfig::default();
        let chunk = cuszp_core::hybrid::DEFAULT_CHUNK_BLOCKS;
        // Hybrid tenants may receive raw CUSZPHY1 frames, whose
        // worst-case (chunk-table overhead) can exceed the container's.
        let (stream_cap, frame_cap) = match tenant.dtype {
            cuszp_core::DType::F32 => (
                cuszp_core::fast::max_stream_bytes::<f32>(elems, cfg),
                cuszp_core::hybrid::max_frame_bytes::<f32>(elems, cfg, chunk),
            ),
            cuszp_core::DType::F64 => (
                cuszp_core::fast::max_stream_bytes::<f64>(elems, cfg),
                cuszp_core::hybrid::max_frame_bytes::<f64>(elems, cfg, chunk),
            ),
        };
        let mut resp_cap = single_chunk_container_len(stream_cap)
            .max(cap)
            .max(CONTROL_REPLY_CAP);
        if tenant.hybrid {
            resp_cap = resp_cap.max(frame_cap);
        }
        let resp = Vec::with_capacity(resp_cap);
        Ok(Client {
            stream,
            tenant,
            resp,
            resp_cap,
            errmsg: String::with_capacity(128),
        })
    }

    /// The payload cap actually in force on this connection (the
    /// handshake's clamped echo).
    pub fn effective_max_payload(&self) -> u32 {
        self.tenant.max_payload
    }

    /// The tenant configuration in force (with the effective cap).
    pub fn tenant(&self) -> Tenant {
        self.tenant
    }

    /// The server's message from the most recent `ERR` reply.
    pub fn last_error(&self) -> &str {
        &self.errmsg
    }

    /// Read a response header: `(status, payload length)`. A length over
    /// `resp_cap` cannot come from a well-behaved server and is rejected
    /// before any of it is read or allocated for.
    fn read_header(&mut self) -> Result<(u8, usize), ServiceError> {
        let mut hdr = [0u8; RESPONSE_HEADER_BYTES];
        self.stream.read_exact(&mut hdr)?;
        let len = u32::from_le_bytes(hdr[1..5].try_into().expect("4-byte field")) as usize;
        if len > self.resp_cap {
            return Err(invalid("response longer than this connection's capacity"));
        }
        Ok((hdr[0], len))
    }

    /// Read a `len`-byte response payload into `self.resp`; maps
    /// BUSY/ERR to the error enum.
    fn read_body(&mut self, status: u8, len: usize) -> Result<&[u8], ServiceError> {
        if self.resp.len() < len {
            self.resp.resize(len, 0);
        }
        self.stream.read_exact(&mut self.resp[..len])?;
        let body = &self.resp[..len];
        match status {
            STATUS_OK => Ok(body),
            STATUS_BUSY => Err(ServiceError::Busy),
            _ => {
                self.errmsg.clear();
                self.errmsg
                    .push_str(std::str::from_utf8(body).unwrap_or("<non-utf8 error>"));
                Err(ServiceError::Remote)
            }
        }
    }

    fn read_response(&mut self) -> Result<&[u8], ServiceError> {
        let (status, len) = self.read_header()?;
        self.read_body(status, len)
    }

    fn compress_impl<T: WireFloat>(&mut self, data: &[T]) -> Result<&[u8], ServiceError> {
        let head = encode_request_header(OP_COMPRESS, std::mem::size_of_val(data) as u32);
        wire::write_elems(&mut self.stream, &head, data)?;
        self.read_response()
    }

    fn decompress_impl<T: WireFloat>(
        &mut self,
        container: &[u8],
        out: &mut Vec<T>,
    ) -> Result<(), ServiceError> {
        let head = encode_request_header(OP_DECOMPRESS, container.len() as u32);
        wire::write_all_vectored(
            &mut self.stream,
            &mut [IoSlice::new(&head), IoSlice::new(container)],
        )?;
        let (status, len) = self.read_header()?;
        if status != STATUS_OK {
            return self.read_body(status, len).map(|_| ());
        }
        if !len.is_multiple_of(T::WIRE_SIZE) {
            return Err(invalid(
                "decompress reply is not a whole number of elements",
            ));
        }
        // Only a grown tail is ever filled before the read overwrites it.
        out.resize(len / T::WIRE_SIZE, T::from_f64(0.0));
        wire::read_elems(&mut self.stream, out)?;
        Ok(())
    }

    /// Compress `data` under the tenant's bound; returns the single-chunk
    /// `CUSZPCH1` container — or, for hybrid tenants whose entropy stage
    /// won, a raw `CUSZPHY1` frame — borrowed from the client's reused
    /// response buffer (copy it out to keep it past the next request).
    /// Either payload is accepted back by [`Client::decompress_f32`].
    pub fn compress_f32(&mut self, data: &[f32]) -> Result<&[u8], ServiceError> {
        self.compress_impl(data)
    }

    /// [`Client::compress_f32`] for `f64` tenants.
    pub fn compress_f64(&mut self, data: &[f64]) -> Result<&[u8], ServiceError> {
        self.compress_impl(data)
    }

    /// Decompress a `CUSZPCH1` container (or, on hybrid connections, a
    /// `CUSZPHY1` frame) into `out`, which is resized to the decoded
    /// length and overwritten.
    pub fn decompress_f32(
        &mut self,
        container: &[u8],
        out: &mut Vec<f32>,
    ) -> Result<(), ServiceError> {
        self.decompress_impl(container, out)
    }

    /// [`Client::decompress_f32`] for `f64` tenants.
    pub fn decompress_f64(
        &mut self,
        container: &[u8],
        out: &mut Vec<f64>,
    ) -> Result<(), ServiceError> {
        self.decompress_impl(container, out)
    }

    /// Fetch the server's plain-text metrics snapshot into `out`
    /// (cleared first).
    pub fn metrics_into(&mut self, out: &mut String) -> Result<(), ServiceError> {
        self.stream
            .write_all(&encode_request_header(OP_METRICS, 0))?;
        let body = self.read_response()?;
        out.clear();
        out.push_str(std::str::from_utf8(body).unwrap_or(""));
        Ok(())
    }
}

fn invalid(msg: &'static str) -> ServiceError {
    ServiceError::Io(std::io::Error::new(ErrorKind::InvalidData, msg))
}
