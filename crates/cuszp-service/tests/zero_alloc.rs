//! The service's headline contract, proven executable: with the
//! counting allocator installed for this whole test binary (the server's
//! accept and connection threads, which run the codec, and the client
//! alike), a warmed connection's request loop performs **zero heap
//! operations** — across compress, decompress, and metrics scrapes.

use cuszp_core::{DType, ErrorBound};
use cuszp_service::{Client, Server, ServiceConfig, Tenant};
use std::sync::{Mutex, MutexGuard};

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// The server's threads do the work, so these tests read the
/// process-wide counters and must not overlap: each holds this lock for
/// its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failing test poisons the lock; `()` holds no state it could have
    // left half-updated, so the next test may proceed.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn heap_ops_of(f: impl FnOnce()) -> u64 {
    let before = alloc_counter::snapshot();
    f();
    alloc_counter::snapshot().since(&before).heap_ops()
}

#[test]
fn steady_state_request_loop_is_allocation_free() {
    let _serial = serial();
    let data: Vec<f32> = (0..16_384)
        .map(|i| (i as f32 * 0.021).sin() * 55.0 + (i as f32 * 0.0013).cos() * 7.0)
        .collect();
    assert!(
        alloc_counter::is_installed(),
        "counting allocator must be this binary's #[global_allocator]"
    );

    let server = Server::start(ServiceConfig::default()).unwrap();
    let tenant = Tenant {
        tenant_id: 42,
        dtype: DType::F32,
        bound: ErrorBound::Abs(1e-2),
        max_payload: (data.len() * 4) as u32,
        hybrid: false,
    };
    let mut client = Client::connect(server.addr(), tenant).unwrap();

    // Reused client-side result buffers (part of the steady state).
    let mut container = Vec::new();
    let mut restored: Vec<f32> = Vec::new();
    // Sized up front: the rendered text grows a little between scrapes
    // (counters gain digits, new histogram buckets appear), and a
    // caller-owned scrape buffer is warmed by *capacity*, not length.
    let mut metrics_text = String::with_capacity(16 * 1024);

    let roundtrip = |client: &mut Client,
                     container: &mut Vec<u8>,
                     restored: &mut Vec<f32>,
                     metrics_text: &mut String| {
        let c = client.compress_f32(&data).unwrap();
        container.clear();
        container.extend_from_slice(c);
        client.decompress_f32(container, restored).unwrap();
        client.metrics_into(metrics_text).unwrap();
    };

    // Warm-up: the handshake already warmed the server-side arena; one
    // round trip warms the client result buffers above.
    roundtrip(
        &mut client,
        &mut container,
        &mut restored,
        &mut metrics_text,
    );
    assert_eq!(restored.len(), data.len());

    // Steady state: the entire process — connection handler, admission
    // permit, codec, reply path, metrics render, client — does zero heap
    // operations across 20 round trips.
    let ops = heap_ops_of(|| {
        for _ in 0..20 {
            roundtrip(
                &mut client,
                &mut container,
                &mut restored,
                &mut metrics_text,
            );
        }
    });
    assert_eq!(
        ops, 0,
        "20 steady-state round trips must not touch the heap"
    );

    // Sanity: traffic was real.
    assert!(cuszp_core::verify::check_bound(&data, &restored, 1e-2));
    assert!(metrics_text.contains("cuszp_requests_total{op=\"compress\"} 21"));
    server.shutdown();
}

#[test]
fn hybrid_tenant_steady_state_is_allocation_free() {
    let _serial = serial();
    // The CUSZPHY1 second stage (estimator, RLE, Huffman) writes only
    // into the connection's pre-warmed staging buffers, so a hybrid
    // tenant keeps the same zero-heap-op contract. Redundant data forces
    // the entropy coders to actually run (the response is a raw hybrid
    // frame, not the container fallback).
    let data = vec![0.0f32; 65_536];
    assert!(alloc_counter::is_installed());

    let server = Server::start(ServiceConfig::default()).unwrap();
    let tenant = Tenant {
        tenant_id: 43,
        dtype: DType::F32,
        bound: ErrorBound::Abs(1e-2),
        max_payload: (data.len() * 4) as u32,
        hybrid: true,
    };
    let mut client = Client::connect(server.addr(), tenant).unwrap();

    let mut frame = Vec::new();
    let mut restored: Vec<f32> = Vec::new();
    let roundtrip = |client: &mut Client, frame: &mut Vec<u8>, restored: &mut Vec<f32>| {
        let c = client.compress_f32(&data).unwrap();
        frame.clear();
        frame.extend_from_slice(c);
        client.decompress_f32(frame, restored).unwrap();
    };

    roundtrip(&mut client, &mut frame, &mut restored);
    assert!(
        frame.starts_with(&cuszp_core::hybrid::HYBRID_MAGIC),
        "the entropy stage must win on all-zero data"
    );
    assert_eq!(restored, data);

    let ops = heap_ops_of(|| {
        for _ in 0..20 {
            roundtrip(&mut client, &mut frame, &mut restored);
        }
    });
    assert_eq!(
        ops, 0,
        "20 steady-state hybrid round trips must not touch the heap"
    );
    server.shutdown();
}

#[test]
fn grow_only_buffers_stay_allocation_free_across_sizes_and_errors() {
    let _serial = serial();
    // An f64 hybrid tenant sent requests of mixed sizes — the largest
    // first, then smaller ones, then the largest again — so every
    // grow-only buffer (server staging, client response, the caller's
    // output `Vec`) shrinks and regrows within its warmed capacity.
    // Redundant payloads come back as hybrid frames, noise as the plain
    // fall-back, and one malformed compress gets ERR mid-stream while
    // the connection stays usable.
    const N: usize = 32_768;
    let redundant = |n: usize| -> Vec<f64> { (0..n).map(|i| ((i / 512) % 3) as f64).collect() };
    let noise = |n: usize| -> Vec<f64> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 11) as f64 / (1u64 << 53) as f64 * 1e6
            })
            .collect()
    };
    let inputs = [
        noise(N),
        redundant(N / 4),
        noise(N / 2),
        redundant(1000),
        redundant(N),
        noise(N),
    ];
    assert!(alloc_counter::is_installed());

    let server = Server::start(ServiceConfig::default()).unwrap();
    let tenant = Tenant {
        tenant_id: 44,
        dtype: DType::F64,
        bound: ErrorBound::Abs(1e-2),
        max_payload: (N * 8) as u32,
        hybrid: true,
    };
    let mut client = Client::connect(server.addr(), tenant).unwrap();

    let mut frame = Vec::new();
    let mut restored: Vec<f64> = Vec::new();
    // Returns whether each reply was a hybrid frame.
    let pass = |client: &mut Client, frame: &mut Vec<u8>, restored: &mut Vec<f64>| {
        let mut hybrid = [false; 6];
        for (k, data) in inputs.iter().enumerate() {
            let c = client.compress_f64(data).unwrap();
            frame.clear();
            frame.extend_from_slice(c);
            hybrid[k] = frame.starts_with(&cuszp_core::hybrid::HYBRID_MAGIC);
            client.decompress_f64(frame, restored).unwrap();
            assert_eq!(restored.len(), data.len());
            if k == 2 {
                // Three f32s are 12 bytes: not a whole number of f64s.
                assert!(matches!(
                    client.compress_f32(&[1.0, 2.0, 3.0]),
                    Err(cuszp_service::ServiceError::Remote)
                ));
                assert_eq!(
                    client.last_error(),
                    "compress payload is not a whole number of elements"
                );
            }
        }
        hybrid
    };

    let hybrid = pass(&mut client, &mut frame, &mut restored);
    assert_eq!(
        hybrid,
        [false, true, false, true, true, false],
        "redundant inputs must win the entropy stage, noise must fall back"
    );
    assert!(inputs[5]
        .iter()
        .zip(&restored)
        .all(|(a, b)| (a - b).abs() <= 1e-2 * (1.0 + 1e-9)));

    let ops = heap_ops_of(|| {
        for _ in 0..3 {
            pass(&mut client, &mut frame, &mut restored);
        }
    });
    assert_eq!(
        ops, 0,
        "mixed-size hybrid and fall-back round trips, with an ERR, must not touch the heap"
    );
    server.shutdown();
}
