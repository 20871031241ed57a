//! `service_mix`: an in-process `Server` with the default configuration
//! (one worker, queue depth 2) and one generator thread holding two
//! connections, an f32 tenant with the hybrid stage off and an f64 tenant
//! with it on. Each request compresses a slice of a snapshot field, then
//! decompresses the container it got back.

use crate::codecs::note_hybrid_frame;
use crate::input::REL_EB;
use crate::input::{
    fnv, fnv_f32, fnv_f64, ns, within_f32, within_f64, Field, Rng, Tally, Workload,
};
use crate::trace;
use cuszp_core::hybrid::{self, HybridRef, HybridScratch, HYBRID_MAGIC};
use cuszp_core::{chunk_ref_iter, fast, CuszpConfig, DType, ErrorBound, FloatData, Scratch};
use cuszp_service::protocol::single_chunk_container_header;
use cuszp_service::{Client, Server, ServiceConfig, ServiceError, Tenant};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Requests in the seeded list; more than a run sends.
const REQUESTS: usize = 8192;
/// Payload-size strata (log-spaced from 16 KiB to 1 MiB).
const SIZE_STRATA: usize = 64;
/// Payload sizes, in bytes.
const MIN_PAYLOAD: usize = 16 << 10;
const MAX_PAYLOAD: usize = 1 << 20;

#[derive(Clone)]
pub struct Request {
    wide: bool,
    field: usize,
    offset: usize,
    elems: usize,
}

/// The seeded request list: each tenant (f32 or f64), source field and
/// log-spaced payload-size stratum (16 KiB–1 MiB, log-uniform within the
/// stratum) equally often, in seeded order, at a seeded offset. A slice
/// whose values are all equal has no REL bound, so its offset is drawn
/// again.
pub fn requests(fields: &[Field], seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0x5e7c);
    let wide = rng.balanced(REQUESTS, 2);
    let field = rng.balanced(REQUESTS, fields.len());
    let stratum = rng.balanced(REQUESTS, SIZE_STRATA);
    let span = (MAX_PAYLOAD as f64 / MIN_PAYLOAD as f64).ln();
    (0..REQUESTS)
        .map(|i| {
            let wide = wide[i] == 1;
            let f = &fields[field[i]];
            let u = (stratum[i] as f64 + rng.unit()) / SIZE_STRATA as f64;
            let bytes = (MIN_PAYLOAD as f64 * (span * u).exp()) as usize;
            let elems = (bytes / if wide { 8 } else { 4 }).min(f.data.len());
            loop {
                let offset = rng.range(0, f.data.len() - elems);
                let slice = &f.data[offset..offset + elems];
                if slice.iter().any(|&v| v != slice[0]) {
                    break Request {
                        wide,
                        field: field[i],
                        offset,
                        elems,
                    };
                }
            }
        })
        .collect()
}

fn tenant(id: u64, dtype: DType, hybrid: bool) -> Tenant {
    Tenant {
        tenant_id: id,
        dtype,
        bound: ErrorBound::Rel(REL_EB),
        max_payload: MAX_PAYLOAD as u32,
        hybrid,
    }
}

/// Library-side buffers for the traced run's codec timing.
struct Lib {
    scratch: Scratch,
    hs: HybridScratch,
    stage: Vec<u8>,
    frame: Vec<u8>,
    container: Vec<u8>,
    out32: Vec<f32>,
    out64: Vec<f64>,
}

impl Lib {
    /// Sized for the largest request, as the service sizes a
    /// connection's arena at handshake, so traced calls are warm calls.
    fn warm() -> Lib {
        let cfg = CuszpConfig::default();
        let (n32, n64) = (MAX_PAYLOAD / 4, MAX_PAYLOAD / 8);
        let mut scratch = Scratch::new();
        scratch.warm_for::<f32>(n32, cfg);
        scratch.warm_for::<f64>(n64, cfg);
        let mut hs = HybridScratch::new();
        hs.warm_for::<f64>(n64, cfg, hybrid::AUTO_CHUNK_MAX_BLOCKS);
        let stream =
            fast::max_stream_bytes::<f32>(n32, cfg).max(fast::max_stream_bytes::<f64>(n64, cfg));
        let frame = hybrid::max_frame_bytes::<f64>(n64, cfg, hybrid::DEFAULT_CHUNK_BLOCKS);
        Lib {
            scratch,
            hs,
            stage: Vec::with_capacity(stream),
            frame: Vec::with_capacity(frame.max(stream)),
            container: Vec::with_capacity(frame.max(stream) + 64),
            out32: Vec::with_capacity(n32),
            out64: Vec::with_capacity(n64),
        }
    }
}

pub struct Service<'a> {
    fields: &'a [Field],
    reqs: Vec<Request>,
    server: Server,
    narrow: Client,
    wide: Client,
    container: Vec<u8>,
    wide_in: Vec<f64>,
    out32: Vec<f32>,
    out64: Vec<f64>,
    lib: Lib,
}

impl<'a> Service<'a> {
    /// Start the server, connect both tenants (handshakes), and warm each
    /// connection with one largest request.
    pub fn start(
        fields: &'a [Field],
        reqs: Vec<Request>,
        tally: &mut Tally,
    ) -> std::io::Result<Self> {
        let server = Server::start(ServiceConfig::default())?;
        let narrow = Client::connect(server.addr(), tenant(1, DType::F32, false))?;
        let wide = Client::connect(server.addr(), tenant(2, DType::F64, true))?;
        let mut s = Service {
            fields,
            reqs,
            server,
            narrow,
            wide,
            container: Vec::with_capacity(MAX_PAYLOAD + 4096),
            wide_in: Vec::with_capacity(MAX_PAYLOAD / 8),
            out32: Vec::with_capacity(MAX_PAYLOAD / 4),
            out64: Vec::with_capacity(MAX_PAYLOAD / 8),
            lib: Lib::warm(),
        };
        let list = std::mem::take(&mut s.reqs);
        for wide in [false, true] {
            let f = &fields[0];
            let elems = (MAX_PAYLOAD / if wide { 8 } else { 4 }).min(f.data.len());
            s.reqs = vec![Request {
                wide,
                field: 0,
                offset: 0,
                elems,
            }];
            s.step(0, tally);
        }
        s.reqs = list;
        Ok(s)
    }

    /// Counters from `Server::metrics()`: BUSY, ERR, bytes in, bytes out.
    pub fn server_counts(&self) -> [u64; 4] {
        let m = self.server.metrics();
        [
            m.busy_rejections.load(Ordering::Relaxed),
            m.errors.load(Ordering::Relaxed),
            m.bytes_in.load(Ordering::Relaxed),
            m.bytes_out.load(Ordering::Relaxed),
        ]
    }

    /// Close both connections and shut the server down, joining its
    /// threads.
    pub fn stop(self) {
        let Service {
            server,
            narrow,
            wide,
            ..
        } = self;
        drop(narrow);
        drop(wide);
        server.shutdown();
    }
}

fn failed(what: &str, e: ServiceError, client: &Client) {
    eprintln!("service_mix: {what} failed: {e} {}", client.last_error());
}

impl Workload for Service<'_> {
    fn round(&self) -> usize {
        1
    }

    fn step(&mut self, i: usize, tally: &mut Tally) -> u64 {
        let fields = self.fields;
        let r = &self.reqs[i % self.reqs.len()];
        let (wide, src) = (r.wide, &fields[r.field].data[r.offset..r.offset + r.elems]);
        let raw = (src.len() * if wide { 8 } else { 4 }) as u64;
        if wide {
            self.wide_in.clear();
            self.wide_in.extend(src.iter().map(|&v| v as f64));
        }
        let eb = if wide {
            REL_EB * cuszp_core::value_range(&self.wide_in)
        } else {
            REL_EB * cuszp_core::value_range(src)
        };

        let t0 = Instant::now();
        let span = trace::enter("svc.compress", raw);
        let sent = if wide {
            self.wide.compress_f64(&self.wide_in)
        } else {
            self.narrow.compress_f32(src)
        };
        let sent = sent.map(|c| {
            self.container.clear();
            self.container.extend_from_slice(c);
        });
        trace::exit(span);
        let compress_ns = ns(t0.elapsed());
        if let Err(e) = sent {
            failed("compress", e, if wide { &self.wide } else { &self.narrow });
            tally.op(false);
            return 0;
        }
        tally.op(true);
        tally.write.push(compress_ns, raw, tally.at);
        tally.ratio_raw += raw;
        tally.ratio_stored += self.container.len() as u64;

        let t1 = Instant::now();
        let span = trace::enter("svc.decompress", raw);
        let got = if wide {
            self.wide.decompress_f64(&self.container, &mut self.out64)
        } else {
            self.narrow.decompress_f32(&self.container, &mut self.out32)
        };
        trace::exit(span);
        let decompress_ns = ns(t1.elapsed());
        let mut ok = match got {
            Ok(()) => {
                tally.read.push(decompress_ns, raw, tally.at);
                tally.region.push(decompress_ns, raw, tally.at);
                tally.trip.push(compress_ns + decompress_ns, raw, tally.at);
                if wide {
                    within_f64(&self.wide_in, &self.out64, eb)
                } else {
                    within_f32(src, &self.out32, eb)
                }
            }
            Err(e) => {
                failed(
                    "decompress",
                    e,
                    if wide { &self.wide } else { &self.narrow },
                );
                false
            }
        };
        if ok && trace::enabled() {
            ok = self.library_matches(wide, eb, src);
        }
        if !ok {
            eprintln!("service_mix: request {i} did not round-trip within its bound");
        }
        tally.op(ok);
        let h = fnv(0, &self.container);
        if wide {
            fnv_f64(h, &self.out64)
        } else {
            fnv_f32(h, &self.out32)
        }
    }
}

impl Service<'_> {
    /// Time the same payload through the library (the traced run's
    /// computed codec time) and require the service's container and
    /// decoded values to be byte-identical to the library's.
    fn library_matches(&mut self, wide: bool, eb: f64, src: &[f32]) -> bool {
        let lib = &mut self.lib;
        let span = trace::enter("svc.codec", 0);
        if wide {
            library_compress(lib, &self.wide_in, eb, true);
        } else {
            library_compress(lib, src, eb, false);
        }
        let decoded = if wide {
            library_decompress(
                &lib.container,
                &mut lib.scratch,
                &mut lib.hs,
                &mut lib.out64,
            )
        } else {
            library_decompress(
                &lib.container,
                &mut lib.scratch,
                &mut lib.hs,
                &mut lib.out32,
            )
        };
        trace::exit(span);
        decoded
            && lib.container == self.container
            && if wide {
                lib.out64
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(self.out64.iter().map(|v| v.to_bits()))
            } else {
                lib.out32
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(self.out32.iter().map(|v| v.to_bits()))
            }
    }
}

/// What the service's compress path does for one request, into
/// `lib.container`: the first stage, the hybrid stage for hybrid tenants
/// (keeping the plain frame when the stage does not shrink it), and the
/// single-chunk container around a plain frame.
fn library_compress<T: FloatData>(lib: &mut Lib, data: &[T], eb: f64, hybrid_stage: bool) {
    let cfg = CuszpConfig::default();
    let bytes = (data.len() * T::DTYPE.size()) as u64;
    let span = trace::enter("fast.encode", bytes);
    let r = fast::compress_into(&mut lib.scratch, data, eb, cfg, &mut lib.stage);
    trace::exit(span);
    let mut plain = true;
    if hybrid_stage {
        let level = cuszp_core::simd::resolve_level(cfg.simd);
        let span = trace::enter("hybrid.encode", bytes);
        hybrid::encode_at(
            &r,
            hybrid::auto_chunk_blocks(&r),
            level,
            &mut lib.hs,
            &mut lib.frame,
        );
        plain = lib.frame.len() >= lib.stage.len();
        trace::exit(span);
        note_hybrid_frame(&lib.frame, plain);
    }
    lib.container.clear();
    if plain {
        lib.container
            .extend_from_slice(&single_chunk_container_header(lib.stage.len() as u64));
        lib.container.extend_from_slice(&lib.stage);
    } else {
        lib.container.extend_from_slice(&lib.frame);
    }
}

/// What the service's decompress path does: a raw hybrid frame, or each
/// chunk of a container, decoded into `out`.
fn library_decompress<T: FloatData>(
    container: &[u8],
    scratch: &mut Scratch,
    hs: &mut HybridScratch,
    out: &mut Vec<T>,
) -> bool {
    let bytes = |n: usize| (n * T::DTYPE.size()) as u64;
    if container.starts_with(&HYBRID_MAGIC) {
        let Ok(r) = HybridRef::parse(container) else {
            return false;
        };
        let n = r.num_elements as usize;
        out.clear();
        out.resize(n, T::from_f64(0.0));
        let chunks = r.num_chunks() as u64;
        trace::count(|c| {
            c.chunks_decoded += chunks;
            c.chunks_needed += chunks;
        });
        let span = trace::enter("hybrid.decode", bytes(n));
        let res = hybrid::decode_into(&r, hs, scratch, out);
        trace::exit(span);
        return res.is_ok();
    }
    let Ok(chunks) = chunk_ref_iter(container) else {
        return false;
    };
    out.clear();
    for chunk in chunks {
        let Ok(chunk) = chunk else {
            return false;
        };
        let at = out.len();
        let n = chunk.num_elements as usize;
        out.resize(at + n, T::from_f64(0.0));
        let span = trace::enter("fast.decode", bytes(n));
        fast::decompress_into(chunk, scratch, &mut out[at..]);
        trace::exit(span);
    }
    true
}
