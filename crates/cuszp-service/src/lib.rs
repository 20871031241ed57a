//! # cuszp-service — a multi-tenant, zero-allocation compression service
//!
//! A TCP front-end over the cuSZp host codec: clients connect, declare a
//! tenant configuration (dtype, error bound, payload cap) in one
//! handshake, then stream compress/decompress requests as
//! length-prefixed frames. Responses carry single-chunk `CUSZPCH1`
//! containers, so anything the service emits is directly consumable by
//! [`cuszp_core::chunk_ref_iter`] or storable on disk. Tenants that set
//! the hello's hybrid flag ([`protocol::HELLO_FLAG_HYBRID`]) opt into
//! the `CUSZPHY1` entropy second stage: compress responses become raw
//! hybrid frames whenever the stage wins, and decompress requests may
//! carry either format.
//!
//! The design goals, in order:
//!
//! 1. **Zero steady-state allocations.** Every connection owns a
//!    [`Scratch`] arena plus staging buffers, all pre-warmed at
//!    handshake time to the tenant's declared payload cap
//!    ([`Scratch::warm_for`] / [`cuszp_core::fast::max_stream_bytes`]).
//!    The connection's own thread runs the codec on them, so after the
//!    first request its request loop performs **no heap operations**
//!    (proven by `tests/zero_alloc.rs`).
//! 2. **Bounded admission.** A request runs the codec only under a
//!    permit from the server's one admission counter: at most
//!    [`ServiceConfig::workers`] requests run at once and at most
//!    [`ServiceConfig::queue_depth`] more wait for a slot. A request
//!    beyond that gets an immediate `BUSY` reply, never a stalled
//!    client. The two bounds are the only admission policy — there is
//!    no hidden buffering.
//! 3. **Honest overload and shutdown.** [`Server::shutdown`] stops
//!    accepting, half-closes live connections so running and waiting
//!    requests drain and their responses are delivered, then joins every
//!    connection thread.
//!
//! Live counters — request counts, socket and codec byte totals, the
//! achieved compression ratio, and a p50/p99 service-latency histogram —
//! are exported in Prometheus-style plain text over the in-band
//! `M` (metrics) op. See `docs/SERVICE.md` for the operator guide and
//! the normative wire-format description.
//!
//! ```no_run
//! use cuszp_service::{Client, ServiceConfig, Server, Tenant};
//! use cuszp_core::{DType, ErrorBound};
//!
//! let server = Server::start(ServiceConfig::default()).unwrap();
//! let tenant = Tenant {
//!     tenant_id: 1,
//!     dtype: DType::F32,
//!     bound: ErrorBound::Abs(1e-2),
//!     max_payload: 1 << 20,
//!     hybrid: false,
//! };
//! let mut client = Client::connect(server.addr(), tenant).unwrap();
//! let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.02).sin()).collect();
//! let container = client.compress_f32(&data).unwrap().to_vec();
//! let mut restored = Vec::new();
//! client.decompress_f32(&container, &mut restored).unwrap();
//! assert_eq!(restored.len(), data.len());
//! server.shutdown();
//! ```

#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod client;
mod metrics;
pub mod protocol;
mod wire;

pub use client::{Client, ServiceError};
pub use metrics::{LatencyHistogram, ServiceMetrics, LATENCY_BUCKETS};
pub use protocol::Tenant;

use cuszp_core::fast;
use cuszp_core::hybrid::{self, HybridScratch, DEFAULT_CHUNK_BLOCKS, HYBRID_MAGIC};
use cuszp_core::{chunk_ref_iter, CuszpConfig, DType, ErrorBound, Scratch};
use protocol::*;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wire::WireFloat;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; use port `0` to let the OS pick (read it back from
    /// [`Server::addr`]).
    pub addr: String,
    /// Requests that may run the codec at once, each on its own
    /// connection's thread (`0` is taken as `1`).
    pub workers: usize,
    /// Requests that may wait for a codec slot beyond the ones running;
    /// `0` admits a request only when a slot is free right now. Once the
    /// bound is hit, further requests get `BUSY`.
    pub queue_depth: usize,
    /// Server-wide cap on a connection's raw payload size; tenant asks
    /// are clamped to this.
    pub max_payload: u32,
    /// Codec configuration applied to every compress request.
    pub codec: CuszpConfig,
    /// Artificial minimum per-request service time, slept while the
    /// request holds its codec slot. `ZERO` (the default) for
    /// production; nonzero makes overload deterministic for tests and
    /// lets the load generator emulate slower codecs.
    pub service_floor: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 2,
            max_payload: 16 << 20,
            codec: CuszpConfig::default(),
            service_floor: Duration::ZERO,
        }
    }
}

/// A connection's session arena: every buffer a request needs, owned by
/// the connection's thread, which runs the codec on them in place.
///
/// Element payloads never pass through a byte staging buffer: a compress
/// payload is read off the socket straight into the bytes of the typed
/// staging buffer, and a decompress reply is written straight from
/// them.
struct ConnBufs {
    tenant: Tenant,
    codec: CuszpConfig,
    /// Payloads that are not element data: decompress requests, and a
    /// compress request whose length is not a whole number of elements
    /// (read only to keep the stream in sync before its `ERR`). Its
    /// first `len` bytes are the payload; it grows only, so no byte is
    /// zero-filled twice.
    input: Vec<u8>,
    /// Typed staging for the tenant's dtype (only one is ever used),
    /// filled to the full cap at handshake: the compress input, read
    /// straight into its bytes, or the decompress output, which the
    /// reply is written straight from.
    f32s: Vec<f32>,
    f64s: Vec<f64>,
    /// Compress response frame: plain `CUSZP1` or raw `CUSZPHY1`.
    out: Vec<u8>,
    /// Hybrid tenants' first-stage staging: the plain `CUSZP1` frame the
    /// entropy stage re-encodes from, and the response itself when the
    /// stage does not win.
    stage: Vec<u8>,
    /// Hybrid chunk staging, warmed alongside `scratch`.
    hs: HybridScratch,
    scratch: Scratch,
}

/// Where a processed request's `OK` response body sits in its
/// [`ConnBufs`].
#[derive(Debug, Clone, Copy)]
enum Body {
    /// A plain `CUSZP1` frame, sent inside a single-chunk `CUSZPCH1`
    /// container: in `out`, or in `stage` when a hybrid tenant's entropy
    /// stage did not win.
    Plain { in_stage: bool },
    /// A raw `CUSZPHY1` frame in `out`.
    Hybrid,
    /// This many decoded elements at the front of the typed staging
    /// buffer.
    Decoded(usize),
}

impl ConnBufs {
    fn new(tenant: Tenant, codec: CuszpConfig) -> ConnBufs {
        let mut b = ConnBufs {
            tenant,
            codec,
            input: Vec::new(),
            f32s: Vec::new(),
            f64s: Vec::new(),
            out: Vec::new(),
            stage: Vec::new(),
            hs: HybridScratch::new(),
            scratch: Scratch::new(),
        };
        b.warm();
        b
    }

    /// Pre-size every buffer for the tenant's declared payload cap, so
    /// the first request — and all that follow — run allocation-free.
    fn warm(&mut self) {
        let cap = self.tenant.max_payload as usize;
        let elems = cap / self.tenant.dtype.size();
        self.input.reserve(cap);
        let (stream_cap, frame_cap) = match self.tenant.dtype {
            DType::F32 => {
                self.f32s.resize(elems, 0.0);
                self.scratch.warm_for::<f32>(elems, self.codec);
                if self.tenant.hybrid {
                    self.hs
                        .warm_for::<f32>(elems, self.codec, hybrid::AUTO_CHUNK_MAX_BLOCKS);
                }
                (
                    fast::max_stream_bytes::<f32>(elems, self.codec),
                    hybrid::max_frame_bytes::<f32>(elems, self.codec, DEFAULT_CHUNK_BLOCKS),
                )
            }
            DType::F64 => {
                self.f64s.resize(elems, 0.0);
                self.scratch.warm_for::<f64>(elems, self.codec);
                if self.tenant.hybrid {
                    self.hs
                        .warm_for::<f64>(elems, self.codec, hybrid::AUTO_CHUNK_MAX_BLOCKS);
                }
                (
                    fast::max_stream_bytes::<f64>(elems, self.codec),
                    hybrid::max_frame_bytes::<f64>(elems, self.codec, DEFAULT_CHUNK_BLOCKS),
                )
            }
        };
        // `out` carries a compressed frame (plain or hybrid); hybrid
        // tenants stage the plain frame separately.
        let out_cap = if self.tenant.hybrid {
            self.stage.reserve(stream_cap);
            stream_cap.max(frame_cap)
        } else {
            stream_cap
        };
        self.out.reserve(out_cap);
    }

    /// Read the `len`-byte payload of request `op` off `r`: a compress
    /// payload of whole elements goes straight into the typed staging
    /// buffer's bytes, anything else into `input`. `len` must be within
    /// the tenant cap, which the staging buffers were sized to.
    fn read_payload(&mut self, r: &mut impl Read, op: u8, len: usize) -> std::io::Result<()> {
        let size = self.tenant.dtype.size();
        if op == OP_COMPRESS && len.is_multiple_of(size) {
            return match self.tenant.dtype {
                DType::F32 => wire::read_elems(r, &mut self.f32s[..len / size]),
                DType::F64 => wire::read_elems(r, &mut self.f64s[..len / size]),
            };
        }
        if self.input.len() < len {
            self.input.resize(len, 0);
        }
        r.read_exact(&mut self.input[..len])
    }
}

/// Compress `floats` (the request payload) under the tenant's bound.
/// Hybrid tenants run the `CUSZPHY1` second stage over the plain frame
/// staged in `stage`; when the stage does not shrink the frame, the
/// staged plain frame is the response (container-wrapped as usual).
#[allow(clippy::too_many_arguments)]
fn process_compress_typed<T: WireFloat>(
    floats: &[T],
    scratch: &mut Scratch,
    stage: &mut Vec<u8>,
    hs: &mut HybridScratch,
    out: &mut Vec<u8>,
    bound: ErrorBound,
    codec: CuszpConfig,
    hybrid_stage: bool,
) -> Result<Body, &'static str> {
    let eb = match bound {
        ErrorBound::Abs(d) => d,
        ErrorBound::Rel(l) => {
            let eb = l * cuszp_core::value_range(floats);
            if !eb.is_finite() || eb <= 0.0 {
                return Err("REL bound cannot resolve: empty, constant, or non-finite data");
            }
            eb
        }
    };
    if hybrid_stage {
        let r = fast::compress_into(scratch, floats, eb, codec, stage);
        hybrid::encode(&r, hybrid::auto_chunk_blocks(&r), hs, out);
        Ok(if out.len() < stage.len() {
            Body::Hybrid
        } else {
            Body::Plain { in_stage: true }
        })
    } else {
        fast::compress_into(scratch, floats, eb, codec, out);
        Ok(Body::Plain { in_stage: false })
    }
}

/// Decompress `input` (one `CUSZPCH1` container, or — for hybrid
/// tenants — a raw `CUSZPHY1` frame) for element type `T` into the front
/// of `floats`, which holds the tenant cap's worth of elements.
fn process_decompress_typed<T: WireFloat>(
    input: &[u8],
    floats: &mut [T],
    scratch: &mut Scratch,
    hs: &mut HybridScratch,
    cap: u32,
    hybrid_stage: bool,
) -> Result<Body, &'static str> {
    let within_cap = |total: usize| {
        total
            .checked_mul(T::WIRE_SIZE)
            .is_some_and(|b| b as u64 <= cap as u64)
    };
    if hybrid_stage && input.starts_with(&HYBRID_MAGIC) {
        let r = hybrid::HybridRef::parse(input).map_err(|_| "malformed CUSZPHY1 frame")?;
        if r.dtype != T::DTYPE {
            return Err("hybrid frame dtype does not match tenant dtype");
        }
        let total = r.num_elements as usize;
        if !within_cap(total) {
            return Err("decoded size exceeds tenant payload cap");
        }
        hybrid::decode_into(&r, hs, scratch, &mut floats[..total])
            .map_err(|_| "corrupt CUSZPHY1 chunk")?;
        return Ok(Body::Decoded(total));
    }
    // Pass 1: framing + totals. `chunk_ref_iter` validates the container
    // table up front; per-chunk headers are validated as we walk.
    let mut total = 0usize;
    for chunk in chunk_ref_iter(input).map_err(|_| "malformed CUSZPCH1 container")? {
        let chunk = chunk.map_err(|_| "malformed chunk in container")?;
        if chunk.dtype != T::DTYPE {
            return Err("container dtype does not match tenant dtype");
        }
        total += chunk.num_elements as usize;
    }
    if !within_cap(total) {
        return Err("decoded size exceeds tenant payload cap");
    }
    // Pass 2: decode each chunk into its slice of the staging buffer.
    let mut at = 0usize;
    for chunk in chunk_ref_iter(input).expect("validated in pass 1") {
        let chunk = chunk.expect("validated in pass 1");
        let n = chunk.num_elements as usize;
        fast::decompress_into(chunk, scratch, &mut floats[at..at + n]);
        at += n;
    }
    Ok(Body::Decoded(total))
}

/// Run request `op` over its `len`-byte payload, already read into `b`:
/// dispatch on (op, dtype) and return where the `OK` response body sits,
/// or the `ERR` message.
fn process(b: &mut ConnBufs, op: u8, len: usize) -> Result<Body, &'static str> {
    let n = len / b.tenant.dtype.size();
    match (op, b.tenant.dtype) {
        (OP_COMPRESS, dtype) if !len.is_multiple_of(dtype.size()) => {
            Err("compress payload is not a whole number of elements")
        }
        (OP_COMPRESS, DType::F32) => process_compress_typed(
            &b.f32s[..n],
            &mut b.scratch,
            &mut b.stage,
            &mut b.hs,
            &mut b.out,
            b.tenant.bound,
            b.codec,
            b.tenant.hybrid,
        ),
        (OP_COMPRESS, DType::F64) => process_compress_typed(
            &b.f64s[..n],
            &mut b.scratch,
            &mut b.stage,
            &mut b.hs,
            &mut b.out,
            b.tenant.bound,
            b.codec,
            b.tenant.hybrid,
        ),
        (OP_DECOMPRESS, DType::F32) => process_decompress_typed::<f32>(
            &b.input[..len],
            &mut b.f32s,
            &mut b.scratch,
            &mut b.hs,
            b.tenant.max_payload,
            b.tenant.hybrid,
        ),
        (OP_DECOMPRESS, DType::F64) => process_decompress_typed::<f64>(
            &b.input[..len],
            &mut b.f64s,
            &mut b.scratch,
            &mut b.hs,
            b.tenant.max_payload,
            b.tenant.hybrid,
        ),
        _ => Err("internal: unknown op reached the codec"),
    }
}

/// The server's one admission counter, shared by every connection
/// thread: at most `slots` requests run the codec at once and at most
/// `queue_depth` more wait for a slot. A request holds its slot as a
/// [`Permit`].
struct Admission {
    slots: usize,
    queue_depth: usize,
    state: Mutex<Slots>,
    /// Signalled when a released slot is handed to a waiting request.
    handed_over: Condvar,
}

/// [`Admission`]'s counts. While any request waits, every slot is held:
/// a released slot passes straight to a waiter, so a request that
/// arrives later never takes it first.
#[derive(Default)]
struct Slots {
    /// Slots held, counting ones handed over to a waiter not yet awake.
    running: usize,
    /// Requests blocked for a slot.
    waiting: usize,
    /// Slots handed over to waiters and not yet taken up.
    handed_over: usize,
    /// Permits released over the server's lifetime.
    processed: u64,
}

impl Admission {
    fn new(slots: usize, queue_depth: usize) -> Admission {
        Admission {
            slots,
            queue_depth,
            state: Mutex::new(Slots::default()),
            handed_over: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Slots> {
        // Each update under the lock is a few integer steps that cannot
        // panic, so a poisoned lock still holds consistent counts.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A codec slot: at once if one is free, after a wait if the wait
    /// queue has room, or `None` (reply `BUSY`) if it has not.
    fn admit(&self) -> Option<Permit<'_>> {
        let mut s = self.lock();
        if s.running < self.slots {
            s.running += 1;
        } else if s.waiting < self.queue_depth {
            s.waiting += 1;
            while s.handed_over == 0 {
                s = self.handed_over.wait(s).unwrap_or_else(|e| e.into_inner());
            }
            s.handed_over -= 1;
        } else {
            return None;
        }
        Some(Permit(self))
    }

    /// Permits released so far: requests that ran the codec.
    fn processed(&self) -> u64 {
        self.lock().processed
    }
}

/// A held codec slot. Dropping it hands the slot to a waiting request,
/// or frees it when none waits.
struct Permit<'a>(&'a Admission);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut s = self.0.lock();
        s.processed += 1;
        if s.waiting > 0 {
            s.waiting -= 1;
            s.handed_over += 1;
            self.0.handed_over.notify_one();
        } else {
            s.running -= 1;
        }
    }
}

/// A running compression service. Dropping the server shuts it down;
/// prefer calling [`Server::shutdown`] explicitly to observe the drain.
pub struct Server {
    addr: SocketAddr,
    metrics: Arc<ServiceMetrics>,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    accept: Option<JoinHandle<()>>,
    admission: Arc<Admission>,
}

impl Server {
    /// Bind, spawn the accept loop, and return a handle. Each accepted
    /// connection gets its own thread, which runs its requests' codec
    /// under the admission bounds. The server is ready for connections
    /// when this returns.
    pub fn start(cfg: ServiceConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let metrics = Arc::new(ServiceMetrics::new());
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));

        let admission = Arc::new(Admission::new(cfg.workers.max(1), cfg.queue_depth));

        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let metrics = Arc::clone(&metrics);
            let admission = Arc::clone(&admission);
            std::thread::spawn(move || accept_loop(listener, stop, conns, metrics, admission, cfg))
        };

        Ok(Server {
            addr,
            metrics,
            stop,
            conns,
            accept: Some(accept),
            admission,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared handle to the live metrics (also scrapeable in-band via
    /// the `M` op).
    pub fn metrics(&self) -> Arc<ServiceMetrics> {
        Arc::clone(&self.metrics)
    }

    fn shutdown_impl(&mut self) -> u64 {
        // 1. Stop admitting new connections.
        self.stop.store(true, Ordering::SeqCst);
        // 2. Half-close live connections: handlers finish the request
        //    they are on, running or waiting for a slot (its response is
        //    still written — the write side stays open), then see EOF and
        //    exit.
        for c in self.conns.lock().expect("conn registry").iter() {
            let _ = c.shutdown(Shutdown::Read);
        }
        // 3. The accept thread joins every handler.
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.admission.processed()
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests, both
    /// running and waiting for a codec slot (their responses are
    /// delivered), join every thread. Returns the total number of
    /// requests that ran the codec over the server's lifetime.
    pub fn shutdown(mut self) -> u64 {
        self.shutdown_impl()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shutdown_impl();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    metrics: Arc<ServiceMetrics>,
    admission: Arc<Admission>,
    cfg: ServiceConfig,
) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                // Register under the lock, re-checking the stop flag
                // inside it: `shutdown` sets the flag *then* walks the
                // registry, so a connection is either registered (and
                // will be half-closed) or refused — never orphaned.
                {
                    let mut reg = conns.lock().expect("conn registry");
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(clone) = stream.try_clone() {
                        reg.push(clone);
                    }
                }
                let admission = Arc::clone(&admission);
                let metrics = Arc::clone(&metrics);
                let server_cap = cfg.max_payload;
                let codec = cfg.codec;
                let floor = cfg.service_floor;
                handlers.push(std::thread::spawn(move || {
                    handle_conn(stream, &admission, metrics, server_cap, codec, floor);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// One connection's lifetime: handshake, then the request loop. All
/// steady-state I/O reuses the session arena; the only allocations
/// happen during the handshake warm-up.
fn handle_conn(
    mut stream: TcpStream,
    admission: &Admission,
    metrics: Arc<ServiceMetrics>,
    server_cap: u32,
    codec: CuszpConfig,
    floor: Duration,
) {
    metrics.total_connections.fetch_add(1, Ordering::Relaxed);
    metrics.active_connections.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);

    let result = run_session(&mut stream, admission, &metrics, server_cap, codec, floor);
    let _ = result; // all exits are normal teardown: EOF, error reply, or shutdown
    metrics.active_connections.fetch_sub(1, Ordering::Relaxed);
}

fn run_session(
    stream: &mut TcpStream,
    admission: &Admission,
    metrics: &ServiceMetrics,
    server_cap: u32,
    codec: CuszpConfig,
    floor: Duration,
) -> std::io::Result<()> {
    // --- Handshake ---------------------------------------------------
    let mut hello = [0u8; HANDSHAKE_BYTES];
    stream.read_exact(&mut hello)?;
    let tenant = match Tenant::decode_hello(&hello) {
        Ok(t) => t,
        Err(code) => {
            stream.write_all(&encode_handshake_reply(STATUS_ERR, code, 0))?;
            metrics.errors.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
    };
    let effective = tenant.max_payload.min(server_cap);
    let tenant = Tenant {
        max_payload: effective,
        ..tenant
    };
    stream.write_all(&encode_handshake_reply(STATUS_OK, 0, effective))?;

    // --- Session arena (the connection's entire allocation budget) ---
    let mut bufs = ConnBufs::new(tenant, codec);
    let mut metrics_text = String::with_capacity(8192);

    // --- Request loop ------------------------------------------------
    loop {
        let mut hdr = [0u8; REQUEST_HEADER_BYTES];
        if stream.read_exact(&mut hdr).is_err() {
            return Ok(()); // client EOF or shutdown half-close
        }
        let op = hdr[0];
        let len = u32::from_le_bytes(hdr[1..5].try_into().unwrap());
        let t0 = Instant::now();

        match op {
            OP_METRICS if len == 0 => {
                metrics_text.clear();
                metrics.render_text(&mut metrics_text);
                let body = metrics_text.as_bytes();
                write_reply(stream, STATUS_OK, body)?;
                metrics
                    .bytes_in
                    .fetch_add(REQUEST_HEADER_BYTES as u64, Ordering::Relaxed);
                metrics.bytes_out.fetch_add(
                    (RESPONSE_HEADER_BYTES + body.len()) as u64,
                    Ordering::Relaxed,
                );
            }
            OP_COMPRESS | OP_DECOMPRESS => {
                if len as u64 > tenant.max_payload as u64 {
                    // The oversized payload was never read — the stream
                    // position is untrusted, so reply and close.
                    reply_err(stream, metrics, "request exceeds tenant payload cap")?;
                    return Ok(());
                }
                let len = len as usize;
                if bufs.read_payload(stream, op, len).is_err() {
                    return Ok(());
                }
                metrics
                    .bytes_in
                    .fetch_add((REQUEST_HEADER_BYTES + len) as u64, Ordering::Relaxed);

                match admission.admit() {
                    Some(permit) => {
                        let result = process(&mut bufs, op, len);
                        if !floor.is_zero() {
                            std::thread::sleep(floor);
                        }
                        drop(permit);
                        write_codec_response(stream, metrics, &bufs, len, result)?;
                        metrics.latency.record(t0.elapsed());
                    }
                    None => {
                        stream.write_all(&encode_response_header(STATUS_BUSY, 0))?;
                        metrics.busy_rejections.fetch_add(1, Ordering::Relaxed);
                        metrics
                            .bytes_out
                            .fetch_add(RESPONSE_HEADER_BYTES as u64, Ordering::Relaxed);
                    }
                }
            }
            _ => {
                // Unknown op: the `len` field is untrusted — reply and
                // close rather than resynchronize.
                reply_err(stream, metrics, "unknown request op")?;
                return Ok(());
            }
        }
    }
}

/// Write a response header and its body with one vectored write.
fn write_reply(stream: &mut TcpStream, status: u8, body: &[u8]) -> std::io::Result<()> {
    let head = encode_response_header(status, body.len() as u32);
    wire::write_all_vectored(stream, &mut [IoSlice::new(&head), IoSlice::new(body)])
}

/// Write an `ERR` response carrying a static message.
fn reply_err(
    stream: &mut TcpStream,
    metrics: &ServiceMetrics,
    msg: &'static str,
) -> std::io::Result<()> {
    metrics.errors.fetch_add(1, Ordering::Relaxed);
    write_reply(stream, STATUS_ERR, msg.as_bytes())?;
    metrics.bytes_out.fetch_add(
        (RESPONSE_HEADER_BYTES + msg.len()) as u64,
        Ordering::Relaxed,
    );
    Ok(())
}

/// Write the response to a processed `len`-byte request and account for
/// it. Every response goes out in one vectored write, straight from the
/// buffer the codec left it in.
fn write_codec_response(
    stream: &mut TcpStream,
    metrics: &ServiceMetrics,
    b: &ConnBufs,
    len: usize,
    result: Result<Body, &'static str>,
) -> std::io::Result<()> {
    let body = match result {
        Ok(body) => body,
        Err(msg) => return reply_err(stream, metrics, msg),
    };
    // Compress: a single-chunk CUSZPCH1 container, written as header +
    // frame without materializing it — or, when the hybrid second stage
    // won, the raw self-framing CUSZPHY1 frame.
    let (frame, wrapped) = match body {
        Body::Plain { in_stage } => (if in_stage { &b.stage } else { &b.out }, true),
        Body::Hybrid => (&b.out, false),
        Body::Decoded(n) => {
            // Decompress: payload is the raw little-endian elements.
            let raw = n * b.tenant.dtype.size();
            let head = encode_response_header(STATUS_OK, raw as u32);
            match b.tenant.dtype {
                DType::F32 => wire::write_elems(stream, &head, &b.f32s[..n])?,
                DType::F64 => wire::write_elems(stream, &head, &b.f64s[..n])?,
            }
            metrics.decompress_requests.fetch_add(1, Ordering::Relaxed);
            metrics.raw_bytes.fetch_add(raw as u64, Ordering::Relaxed);
            metrics
                .stream_bytes
                .fetch_add(len as u64, Ordering::Relaxed);
            metrics
                .bytes_out
                .fetch_add((RESPONSE_HEADER_BYTES + raw) as u64, Ordering::Relaxed);
            return Ok(());
        }
    };
    let container = single_chunk_container_header(frame.len() as u64);
    let (container, total) = if wrapped {
        (&container[..], single_chunk_container_len(frame.len()))
    } else {
        (&[][..], frame.len())
    };
    let head = encode_response_header(STATUS_OK, total as u32);
    wire::write_all_vectored(
        stream,
        &mut [
            IoSlice::new(&head),
            IoSlice::new(container),
            IoSlice::new(frame),
        ],
    )?;
    metrics.compress_requests.fetch_add(1, Ordering::Relaxed);
    metrics.raw_bytes.fetch_add(len as u64, Ordering::Relaxed);
    metrics
        .stream_bytes
        .fetch_add(total as u64, Ordering::Relaxed);
    metrics
        .bytes_out
        .fetch_add((RESPONSE_HEADER_BYTES + total) as u64, Ordering::Relaxed);
    Ok(())
}
