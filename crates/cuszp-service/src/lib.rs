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
//!    The bundle travels to a codec worker *by value* through an
//!    array-backed bounded channel and comes back the same way — after
//!    the first request, a connection's request loop performs **no heap
//!    operations** (proven by `tests/zero_alloc.rs`).
//! 2. **Bounded admission.** Requests are admitted to a shared
//!    [`WorkerPool`] via [`Submitter::try_submit`]; a full queue yields
//!    an immediate `BUSY` reply, never a stalled client. The queue bound
//!    is the only admission policy — there is no hidden buffering.
//! 3. **Honest overload and shutdown.** [`Server::shutdown`] stops
//!    accepting, half-closes live connections so in-flight requests
//!    drain and their responses are delivered, then joins the pool.
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
pub mod protocol;
mod wire;

pub use client::{Client, ServiceError};
pub use protocol::Tenant;

use cuszp_core::fast;
use cuszp_core::hybrid::{self, HybridScratch, DEFAULT_CHUNK_BLOCKS, HYBRID_MAGIC};
use cuszp_core::{chunk_ref_iter, CuszpConfig, DType, ErrorBound, Scratch};
use cuszp_pipeline::{ServiceMetrics, Submitter, WorkerPool};
use protocol::*;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wire::WireFloat;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; use port `0` to let the OS pick (read it back from
    /// [`Server::addr`]).
    pub addr: String,
    /// Codec worker threads draining the shared admission queue.
    pub workers: usize,
    /// Jobs that may wait *queued* beyond the ones being processed;
    /// `0` makes admission a rendezvous (a request is admitted only when
    /// a worker is free right now). Once the bound is hit, further
    /// requests get `BUSY`.
    pub queue_depth: usize,
    /// Server-wide cap on a connection's raw payload size; tenant asks
    /// are clamped to this.
    pub max_payload: u32,
    /// Codec configuration applied to every compress request.
    pub codec: CuszpConfig,
    /// Artificial minimum per-job service time, applied inside the
    /// worker. `ZERO` (the default) for production; nonzero makes
    /// overload deterministic for tests and lets the load generator
    /// emulate slower codecs.
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

/// A connection's session arena: every buffer a request needs, owned as
/// one bundle so the handler can move it to a codec worker and get it
/// back without copies or allocations. Boxed so the move through the
/// job channel is one pointer, not a memcpy of the whole struct.
///
/// Element payloads never pass through a byte staging buffer: a compress
/// payload is read off the socket straight into the bytes of the typed
/// staging buffer, and a decompress reply is written straight from
/// them.
struct ConnBufs {
    tenant: Tenant,
    codec: CuszpConfig,
    floor: Duration,
    /// Request op being processed (`OP_COMPRESS`/`OP_DECOMPRESS`).
    op: u8,
    /// Request payload length in bytes.
    len: usize,
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
    /// Result of processing: a response `STATUS_*`.
    status: u8,
    /// Error message when `status == STATUS_ERR`.
    err: &'static str,
    /// Where the body of an `OK` response sits.
    body: Body,
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
    fn new(tenant: Tenant, codec: CuszpConfig, floor: Duration) -> Box<ConnBufs> {
        let mut b = Box::new(ConnBufs {
            tenant,
            codec,
            floor,
            op: 0,
            len: 0,
            input: Vec::new(),
            f32s: Vec::new(),
            f64s: Vec::new(),
            out: Vec::new(),
            stage: Vec::new(),
            hs: HybridScratch::new(),
            scratch: Scratch::new(),
            status: STATUS_OK,
            err: "",
            body: Body::Decoded(0),
        });
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
        self.op = op;
        self.len = len;
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

    fn fail(&mut self, msg: &'static str) {
        self.status = STATUS_ERR;
        self.err = msg;
    }
}

/// A unit of admitted work: the connection's buffer bundle plus the
/// channel that returns it. Both ends are array-backed, so neither the
/// submit nor the reply allocates.
struct Job {
    bufs: Box<ConnBufs>,
    reply: SyncSender<Box<ConnBufs>>,
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
        let level = cuszp_core::simd::resolve_level(codec.simd);
        hybrid::encode_at(&r, hybrid::auto_chunk_blocks(&r), level, hs, out);
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

/// Run one admitted job in place: dispatch on (op, dtype), leave the
/// result status and where its response body sits in the bundle.
fn process(b: &mut ConnBufs) {
    b.status = STATUS_OK;
    b.err = "";
    let n = b.len / b.tenant.dtype.size();
    let result = match (b.op, b.tenant.dtype) {
        (OP_COMPRESS, dtype) if !b.len.is_multiple_of(dtype.size()) => {
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
            &b.input[..b.len],
            &mut b.f32s,
            &mut b.scratch,
            &mut b.hs,
            b.tenant.max_payload,
            b.tenant.hybrid,
        ),
        (OP_DECOMPRESS, DType::F64) => process_decompress_typed::<f64>(
            &b.input[..b.len],
            &mut b.f64s,
            &mut b.scratch,
            &mut b.hs,
            b.tenant.max_payload,
            b.tenant.hybrid,
        ),
        _ => Err("internal: unknown op reached worker"),
    };
    match result {
        Ok(body) => b.body = body,
        Err(msg) => b.fail(msg),
    }
    if !b.floor.is_zero() {
        std::thread::sleep(b.floor);
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
    pool: Option<WorkerPool<Job, u64>>,
}

impl Server {
    /// Bind, spawn the codec worker pool and the accept loop, and return
    /// a handle. The server is ready for connections when this returns.
    pub fn start(cfg: ServiceConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let metrics = Arc::new(ServiceMetrics::new());
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));

        let pool: WorkerPool<Job, u64> = WorkerPool::new(
            cfg.workers.max(1),
            cfg.queue_depth,
            |_, src: cuszp_pipeline::JobSource<Job>| {
                let mut processed = 0u64;
                while let Some(mut job) = src.next() {
                    process(&mut job.bufs);
                    processed += 1;
                    // The handler is guaranteed to be blocked on the
                    // matching recv; a send can only fail if the whole
                    // connection thread died, in which case the bundle
                    // is simply dropped.
                    let _ = job.reply.send(job.bufs);
                }
                processed
            },
        );
        let submitter = pool.handle();

        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let metrics = Arc::clone(&metrics);
            std::thread::spawn(move || accept_loop(listener, stop, conns, metrics, submitter, cfg))
        };

        Ok(Server {
            addr,
            metrics,
            stop,
            conns,
            accept: Some(accept),
            pool: Some(pool),
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
        //    they are on (its response is still written — the write side
        //    stays open), then see EOF and exit.
        for c in self.conns.lock().expect("conn registry").iter() {
            let _ = c.shutdown(Shutdown::Read);
        }
        // 3. The accept thread joins every handler; handlers drop their
        //    submitter clones as they exit.
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // 4. With all submitters gone, the pool drains and its workers
        //    exit.
        match self.pool.take() {
            Some(pool) => pool.close().into_iter().sum(),
            None => 0,
        }
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests
    /// (their responses are delivered), join every thread. Returns the
    /// total number of jobs the codec workers processed over the
    /// server's lifetime.
    pub fn shutdown(mut self) -> u64 {
        self.shutdown_impl()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() || self.pool.is_some() {
            self.shutdown_impl();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    metrics: Arc<ServiceMetrics>,
    submitter: Submitter<Job>,
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
                let submitter = submitter.clone();
                let metrics = Arc::clone(&metrics);
                let server_cap = cfg.max_payload;
                let codec = cfg.codec;
                let floor = cfg.service_floor;
                handlers.push(std::thread::spawn(move || {
                    handle_conn(stream, submitter, metrics, server_cap, codec, floor);
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
    submitter: Submitter<Job>,
    metrics: Arc<ServiceMetrics>,
    server_cap: u32,
    codec: CuszpConfig,
    floor: Duration,
) {
    metrics.total_connections.fetch_add(1, Ordering::Relaxed);
    metrics.active_connections.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);

    let result = run_session(&mut stream, submitter, &metrics, server_cap, codec, floor);
    let _ = result; // all exits are normal teardown: EOF, error reply, or shutdown
    metrics.active_connections.fetch_sub(1, Ordering::Relaxed);
}

fn run_session(
    stream: &mut TcpStream,
    submitter: Submitter<Job>,
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
    let mut bufs = Some(ConnBufs::new(tenant, codec, floor));
    let (reply_tx, reply_rx) = sync_channel::<Box<ConnBufs>>(1);
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
                let mut b = bufs.take().expect("session bundle present");
                if b.read_payload(stream, op, len as usize).is_err() {
                    return Ok(());
                }
                metrics.bytes_in.fetch_add(
                    (REQUEST_HEADER_BYTES + len as usize) as u64,
                    Ordering::Relaxed,
                );

                match submitter.try_submit(Job {
                    bufs: b,
                    reply: reply_tx.clone(),
                }) {
                    Ok(()) => {
                        let b = reply_rx.recv().expect("worker returns the bundle");
                        write_codec_response(stream, metrics, &b)?;
                        metrics.latency.record(t0.elapsed());
                        bufs = Some(b);
                    }
                    Err(job) => {
                        bufs = Some(job.bufs);
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

/// Write the response for a processed codec job and account for it.
/// Every response goes out in one vectored write, straight from the
/// buffer the codec left it in.
fn write_codec_response(
    stream: &mut TcpStream,
    metrics: &ServiceMetrics,
    b: &ConnBufs,
) -> std::io::Result<()> {
    if b.status != STATUS_OK {
        write_reply(stream, STATUS_ERR, b.err.as_bytes())?;
        metrics.errors.fetch_add(1, Ordering::Relaxed);
        metrics.bytes_out.fetch_add(
            (RESPONSE_HEADER_BYTES + b.err.len()) as u64,
            Ordering::Relaxed,
        );
        return Ok(());
    }
    // Compress: a single-chunk CUSZPCH1 container, written as header +
    // frame without materializing it — or, when the hybrid second stage
    // won, the raw self-framing CUSZPHY1 frame.
    let (frame, wrapped) = match b.body {
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
                .fetch_add(b.len as u64, Ordering::Relaxed);
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
    metrics.raw_bytes.fetch_add(b.len as u64, Ordering::Relaxed);
    metrics
        .stream_bytes
        .fetch_add(total as u64, Ordering::Relaxed);
    metrics
        .bytes_out
        .fetch_add((RESPONSE_HEADER_BYTES + total) as u64, Ordering::Relaxed);
    Ok(())
}
