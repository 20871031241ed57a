//! End-to-end service tests over real sockets: concurrent byte-identical
//! round trips, bounded admission (a request waits for a codec slot, or
//! gets BUSY at once when the wait queue is full), graceful shutdown
//! drain, per-tenant cap enforcement, and error semantics.

use cuszp_core::{CuszpConfig, DType, ErrorBound};
use cuszp_service::protocol::REQUEST_HEADER_BYTES;
use cuszp_service::{Client, Server, ServiceConfig, ServiceError, ServiceMetrics, Tenant};
use std::sync::atomic::Ordering;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn wave(n: usize, phase: f32) -> Vec<f32> {
    (0..n)
        .map(|i| (i as f32 * 0.021 + phase).sin() * 55.0 + (i as f32 * 0.0013).cos() * 7.0)
        .collect()
}

fn tenant_f32(cap: u32) -> Tenant {
    Tenant {
        tenant_id: 1,
        dtype: DType::F32,
        bound: ErrorBound::Abs(1e-2),
        max_payload: cap,
        hybrid: false,
    }
}

/// Request bytes a 4096-element f32 compress puts on the wire.
const WAVE_REQUEST_BYTES: u64 = (REQUEST_HEADER_BYTES + 4096 * 4) as u64;

/// Send one 4096-element compress on `client` from a new thread; it
/// yields whether the reply was `OK` and when it arrived, since `t0`.
fn compress_in_background(
    mut client: Client,
    phase: f32,
    t0: Instant,
) -> JoinHandle<(bool, Duration)> {
    std::thread::spawn(move || {
        let ok = client.compress_f32(&wave(4096, phase)).is_ok();
        (ok, t0.elapsed())
    })
}

/// Wait until the server has read `n` request bytes in all, so every
/// request sent so far has reached its connection thread. That thread
/// asks for a codec slot right after the read; the short settle covers
/// that step.
fn await_bytes_in(metrics: &ServiceMetrics, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while metrics.bytes_in.load(Ordering::Relaxed) < n {
        assert!(
            Instant::now() < deadline,
            "request never reached the server"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(20));
}

#[test]
fn concurrent_clients_roundtrip_byte_identical() {
    let server = Server::start(ServiceConfig {
        workers: 2,
        queue_depth: 8,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let handles: Vec<_> = (0..4)
        .map(|k| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, tenant_f32(1 << 20)).unwrap();
                let data = wave(10_000 + 17 * k, k as f32);
                // The service must produce the exact bytes of the local
                // single-chunk container for the same input and bound.
                let expected = cuszp_core::Cuszp::new()
                    .compress_chunked(&data, ErrorBound::Abs(1e-2), data.len())
                    .to_bytes();
                let mut restored = Vec::new();
                for _ in 0..5 {
                    let container = client.compress_f32(&data).unwrap().to_vec();
                    assert_eq!(container, expected, "service output must be byte-identical");
                    client.decompress_f32(&container, &mut restored).unwrap();
                    assert_eq!(restored.len(), data.len());
                    assert!(
                        cuszp_core::verify::check_bound(&data, &restored, 1e-2),
                        "bound violated"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let metrics = server.metrics();
    let jobs = server.shutdown();
    assert_eq!(jobs, 4 * 5 * 2, "4 clients x 5 iterations x (C + D)");
    assert_eq!(
        metrics
            .compress_requests
            .load(std::sync::atomic::Ordering::Relaxed),
        20
    );
    assert_eq!(
        metrics
            .decompress_requests
            .load(std::sync::atomic::Ordering::Relaxed),
        20
    );
}

#[test]
fn f64_tenant_roundtrips_with_rel_bound() {
    let server = Server::start(ServiceConfig::default()).unwrap();
    let tenant = Tenant {
        tenant_id: 9,
        dtype: DType::F64,
        bound: ErrorBound::Rel(1e-3),
        max_payload: 1 << 20,
        hybrid: false,
    };
    let mut client = Client::connect(server.addr(), tenant).unwrap();
    let data: Vec<f64> = (0..5000)
        .map(|i| (i as f64 * 0.017).sin() * 900.0)
        .collect();
    let range = cuszp_core::value_range(&data);
    let container = client.compress_f64(&data).unwrap().to_vec();
    let mut restored = Vec::new();
    client.decompress_f64(&container, &mut restored).unwrap();
    let eb = 1e-3 * range;
    for (a, b) in data.iter().zip(&restored) {
        assert!((a - b).abs() <= eb * (1.0 + 1e-9), "REL bound violated");
    }
    server.shutdown();
}

#[test]
fn full_queue_replies_busy_not_hang() {
    // One worker with a 200 ms service floor and a rendezvous queue:
    // while client A's request is in service, client B's must bounce
    // with BUSY immediately.
    let server = Server::start(ServiceConfig {
        workers: 1,
        queue_depth: 0,
        service_floor: Duration::from_millis(200),
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let a = std::thread::spawn(move || {
        let mut client = Client::connect(addr, tenant_f32(1 << 16)).unwrap();
        let data = wave(4096, 0.0);
        client.compress_f32(&data).unwrap().len()
    });
    // Let A's request reach the worker.
    std::thread::sleep(Duration::from_millis(60));

    let mut b = Client::connect(addr, tenant_f32(1 << 16)).unwrap();
    let data = wave(4096, 1.0);
    let t0 = std::time::Instant::now();
    match b.compress_f32(&data) {
        Err(ServiceError::Busy) => {}
        other => panic!("expected BUSY, got {:?}", other.map(<[u8]>::len)),
    }
    assert!(
        t0.elapsed() < Duration::from_millis(120),
        "BUSY must be immediate, not queued behind the floor"
    );
    // The connection stays usable: once the worker frees up, retry wins.
    std::thread::sleep(Duration::from_millis(250));
    assert!(b.compress_f32(&data).is_ok());

    assert!(a.join().unwrap() > 0);
    let metrics = server.metrics();
    assert!(
        metrics
            .busy_rejections
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    // A request already in service when shutdown starts must still get
    // its response (half-close: read side only).
    let server = Server::start(ServiceConfig {
        workers: 1,
        queue_depth: 0,
        service_floor: Duration::from_millis(300),
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let client_thread = std::thread::spawn(move || {
        let mut client = Client::connect(addr, tenant_f32(1 << 16)).unwrap();
        let data = wave(2048, 0.0);
        client
            .compress_f32(&data)
            .map(<[u8]>::len)
            .map_err(|e| e.to_string())
    });
    // Request is in the worker (floor = 300 ms) when shutdown begins.
    std::thread::sleep(Duration::from_millis(100));
    let jobs = server.shutdown();
    assert_eq!(jobs, 1, "the in-flight job must be processed, not dropped");
    let result = client_thread.join().unwrap();
    assert!(
        result.unwrap() > 0,
        "client must receive the drained response"
    );
}

#[test]
fn queued_request_waits_for_a_free_slot() {
    // One codec slot and one waiting place, 200 ms floor: A runs, B waits
    // for A's slot and then runs, and C, finding both taken, bounces with
    // BUSY at once.
    let server = Server::start(ServiceConfig {
        workers: 1,
        queue_depth: 1,
        service_floor: Duration::from_millis(200),
        ..ServiceConfig::default()
    })
    .unwrap();
    let metrics = server.metrics();
    let connect = || Client::connect(server.addr(), tenant_f32(1 << 16)).unwrap();
    let (a, b, mut c) = (connect(), connect(), connect());

    let t0 = Instant::now();
    let a = compress_in_background(a, 0.0, t0);
    await_bytes_in(&metrics, WAVE_REQUEST_BYTES);
    let b = compress_in_background(b, 1.0, t0);
    await_bytes_in(&metrics, 2 * WAVE_REQUEST_BYTES);

    let sent = Instant::now();
    match c.compress_f32(&wave(4096, 2.0)) {
        Err(ServiceError::Busy) => {}
        other => panic!("expected BUSY, got {:?}", other.map(<[u8]>::len)),
    }
    assert!(
        sent.elapsed() < Duration::from_millis(120),
        "BUSY must be immediate, not queued behind the floor"
    );

    let (a_ok, _) = a.join().unwrap();
    let (b_ok, b_done) = b.join().unwrap();
    assert!(
        a_ok && b_ok,
        "the running and the waiting request both succeed"
    );
    assert!(
        b_done >= Duration::from_millis(400),
        "B must run after A's floor, not beside it (done after {b_done:?})"
    );
    assert_eq!(metrics.busy_rejections.load(Ordering::Relaxed), 1);
    assert_eq!(server.shutdown(), 2);
}

#[test]
fn shutdown_drains_running_and_waiting_requests() {
    // When shutdown starts, A holds the one codec slot (floor = 300 ms)
    // and B waits for it: both responses must still be delivered.
    let server = Server::start(ServiceConfig {
        workers: 1,
        queue_depth: 1,
        service_floor: Duration::from_millis(300),
        ..ServiceConfig::default()
    })
    .unwrap();
    let metrics = server.metrics();
    let connect = || Client::connect(server.addr(), tenant_f32(1 << 16)).unwrap();
    let (a, b) = (connect(), connect());

    let t0 = Instant::now();
    let a = compress_in_background(a, 0.0, t0);
    await_bytes_in(&metrics, WAVE_REQUEST_BYTES);
    let b = compress_in_background(b, 1.0, t0);
    await_bytes_in(&metrics, 2 * WAVE_REQUEST_BYTES);

    assert_eq!(server.shutdown(), 2, "both requests are processed");
    assert!(
        a.join().unwrap().0,
        "the running request's response is delivered"
    );
    assert!(
        b.join().unwrap().0,
        "the waiting request's response is delivered"
    );
}

#[test]
fn error_reply_releases_its_codec_slot() {
    // One slot and no waiting place: if an `ERR` reply kept its slot, the
    // next request would get BUSY.
    let server = Server::start(ServiceConfig {
        workers: 1,
        queue_depth: 0,
        ..ServiceConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr(), tenant_f32(1 << 16)).unwrap();
    let data = wave(2048, 0.0);
    let mut container = client.compress_f32(&data).unwrap().to_vec();
    container[9] ^= 0xFF;
    let mut out = Vec::new();
    match client.decompress_f32(&container, &mut out) {
        Err(ServiceError::Remote) => {}
        other => panic!("expected Remote rejection, got {other:?}"),
    }
    assert!(client.compress_f32(&data).is_ok(), "the slot was released");
    assert_eq!(server.shutdown(), 3);
}

#[test]
fn per_tenant_cap_is_clamped_and_enforced() {
    let server = Server::start(ServiceConfig {
        max_payload: 1 << 12, // 4 KiB server-wide
        ..ServiceConfig::default()
    })
    .unwrap();
    // Tenant asks for 1 MiB; the handshake clamps to the server cap.
    let mut client = Client::connect(server.addr(), tenant_f32(1 << 20)).unwrap();
    assert_eq!(client.effective_max_payload(), 1 << 12);

    // Within the cap: fine.
    let small = wave(1024, 0.0); // 4096 bytes
    assert!(client.compress_f32(&small).is_ok());

    // Over the cap: ERR, and the server closes the connection (the
    // oversized payload was never read, so the stream is untrusted).
    let big = wave(1025, 0.0);
    match client.compress_f32(&big) {
        Err(ServiceError::Remote) => {
            assert!(
                client.last_error().contains("cap"),
                "{}",
                client.last_error()
            );
        }
        other => panic!(
            "expected Remote rejection, got {:?}",
            other.map(<[u8]>::len)
        ),
    }
    server.shutdown();
}

#[test]
fn rel_bound_on_constant_data_is_an_error_not_a_crash() {
    let server = Server::start(ServiceConfig::default()).unwrap();
    let tenant = Tenant {
        tenant_id: 3,
        dtype: DType::F32,
        bound: ErrorBound::Rel(1e-3),
        max_payload: 1 << 16,
        hybrid: false,
    };
    let mut client = Client::connect(server.addr(), tenant).unwrap();
    let constant = vec![4.25f32; 2048];
    match client.compress_f32(&constant) {
        Err(ServiceError::Remote) => {
            assert!(
                client.last_error().contains("REL"),
                "{}",
                client.last_error()
            );
        }
        other => panic!(
            "expected Remote rejection, got {:?}",
            other.map(<[u8]>::len)
        ),
    }
    // Recoverable: the same connection still serves valid requests.
    let data = wave(2048, 0.0);
    assert!(client.compress_f32(&data).is_ok());
    server.shutdown();
}

#[test]
fn bad_handshake_is_rejected() {
    let server = Server::start(ServiceConfig::default()).unwrap();
    // Zero bound → HS_BAD_BOUND → connect fails.
    let bad = Tenant {
        tenant_id: 1,
        dtype: DType::F32,
        bound: ErrorBound::Abs(0.0),
        max_payload: 4096,
        hybrid: false,
    };
    assert!(Client::connect(server.addr(), bad).is_err());
    server.shutdown();
}

#[test]
fn corrupt_container_is_rejected_cleanly() {
    let server = Server::start(ServiceConfig::default()).unwrap();
    let mut client = Client::connect(server.addr(), tenant_f32(1 << 16)).unwrap();
    let data = wave(2048, 0.0);
    let mut container = client.compress_f32(&data).unwrap().to_vec();
    // Flip a byte in the container's chunk table.
    container[9] ^= 0xFF;
    let mut out = Vec::new();
    match client.decompress_f32(&container, &mut out) {
        Err(ServiceError::Remote) => {}
        other => panic!("expected Remote rejection, got {other:?}"),
    }
    // Connection survives (payload was fully read; stream in sync).
    assert!(client.compress_f32(&data).is_ok());
    server.shutdown();
}

#[test]
fn metrics_scrape_reflects_traffic() {
    let server = Server::start(ServiceConfig::default()).unwrap();
    let mut client = Client::connect(server.addr(), tenant_f32(1 << 20)).unwrap();
    let data = wave(8192, 0.0);
    let container = client.compress_f32(&data).unwrap().to_vec();
    let mut restored = Vec::new();
    client.decompress_f32(&container, &mut restored).unwrap();

    let mut text = String::new();
    client.metrics_into(&mut text).unwrap();
    assert!(
        text.contains("cuszp_requests_total{op=\"compress\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("cuszp_requests_total{op=\"decompress\"} 1"),
        "{text}"
    );
    assert!(text.contains("cuszp_compression_ratio"), "{text}");
    assert!(text.contains("cuszp_request_latency_seconds"), "{text}");
    assert!(text.contains("cuszp_active_connections 1"), "{text}");

    // The codec-level ratio advertised must be raw/container for the one
    // compress + one decompress (same stream both ways).
    let metrics = server.metrics();
    let raw = metrics.raw_bytes.load(std::sync::atomic::Ordering::Relaxed);
    let stream = metrics
        .stream_bytes
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(raw, 2 * (data.len() as u64) * 4);
    assert_eq!(stream, 2 * container.len() as u64);
    server.shutdown();
}

#[test]
fn empty_compress_request_roundtrips() {
    // Zero elements is a valid (if degenerate) ABS-bound request.
    let server = Server::start(ServiceConfig::default()).unwrap();
    let mut client = Client::connect(server.addr(), tenant_f32(4096)).unwrap();
    let container = client.compress_f32(&[]).unwrap().to_vec();
    let mut out = vec![1.0f32; 3];
    client.decompress_f32(&container, &mut out).unwrap();
    assert!(out.is_empty());
    server.shutdown();
}

#[test]
fn hybrid_tenant_roundtrips_both_frame_formats() {
    let server = Server::start(ServiceConfig::default()).unwrap();
    let tenant = Tenant {
        hybrid: true,
        ..tenant_f32(1 << 20)
    };
    let mut client = Client::connect(server.addr(), tenant).unwrap();

    // Highly redundant data: the entropy stage must win, so the response
    // is a raw self-framing CUSZPHY1 frame, smaller than the plain
    // container for the same input.
    let zeros = vec![0.0f32; 100_000];
    let frame = client.compress_f32(&zeros).unwrap().to_vec();
    assert!(
        frame.starts_with(&cuszp_core::hybrid::HYBRID_MAGIC),
        "redundant data must come back as a hybrid frame"
    );
    let plain = cuszp_core::Cuszp::new()
        .compress_chunked(&zeros, ErrorBound::Abs(1e-2), zeros.len())
        .to_bytes();
    assert!(frame.len() < plain.len(), "hybrid frame must be smaller");
    let mut restored = Vec::new();
    client.decompress_f32(&frame, &mut restored).unwrap();
    assert_eq!(restored, zeros);

    // A hybrid connection still accepts plain containers on decompress —
    // and round-trips arbitrary data whichever format comes back.
    client.decompress_f32(&plain, &mut restored).unwrap();
    assert_eq!(restored, zeros);
    let data = wave(10_000, 0.3);
    let payload = client.compress_f32(&data).unwrap().to_vec();
    client.decompress_f32(&payload, &mut restored).unwrap();
    assert_eq!(restored.len(), data.len());
    assert!(
        cuszp_core::verify::check_bound(&data, &restored, 1e-2),
        "bound violated through the hybrid path"
    );
    server.shutdown();
}

#[test]
fn default_codec_config_is_paper_config() {
    // Guard: the service compresses with the paper defaults unless
    // configured otherwise, so wire streams match local `Cuszp::new()`.
    let cfg = ServiceConfig::default();
    assert_eq!(cfg.codec, CuszpConfig::default());
    assert_eq!(cfg.workers, 1);
}
