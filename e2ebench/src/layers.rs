//! Per-layer metrics from the traced replay's spans and counters.

use crate::stats::{ratio, Outcome};
use crate::trace::{self, Counters, Span, NO_PARENT};

/// What the traced replay recorded.
pub struct Trace {
    pub spans: Vec<Span>,
    pub counters: Counters,
}

/// Span totals for one name.
#[derive(Default, Clone, Copy)]
struct Sum {
    calls: u64,
    ns: u64,
    self_ns: u64,
    self_heap: u64,
    bytes: u64,
}

/// Every per-layer metric, in `BENCHMARK.json` order. Layers a workload
/// does not reach report 0. `svc` holds `Server::metrics()` deltas over
/// the timed phase: BUSY replies, ERR replies, bytes in, bytes out.
pub fn report(out: &mut Outcome, tr: &Trace, svc: [u64; 4], overhead: f64, error_rate: f64) {
    let selfs = trace::self_times(&tr.spans);
    let sum = |names: &[&str]| {
        let mut s = Sum::default();
        for (span, &(self_ns, self_heap)) in tr.spans.iter().zip(&selfs) {
            if names.contains(&span.name) {
                s.calls += 1;
                s.ns += span.dur_ns();
                s.self_ns += self_ns;
                s.self_heap += self_heap;
                s.bytes += span.bytes;
            }
        }
        s
    };
    // Direct children of store reads: the codec adapter's spans.
    let codec_under_read: u64 = tr
        .spans
        .iter()
        .filter(|s| s.parent != NO_PARENT && tr.spans[s.parent as usize].name == "store.read")
        .map(Span::dur_ns)
        .sum();
    let c = &tr.counters;
    let gbps = |s: Sum| ratio(s.bytes as f64, s.ns as f64);

    let fe = sum(&["fast.encode"]);
    let fd = sum(&["fast.decode"]);
    let he = sum(&["hybrid.encode"]);
    let hd = sum(&["hybrid.decode"]);
    let sw = sum(&["store.write"]);
    let sr = sum(&["store.read"]);
    let store_adapter = sum(&["codec.encode", "codec.decode", "codec.parse"]);
    let rt = sum(&["svc.compress", "svc.decompress"]);
    let codec = sum(&["svc.codec"]);

    let n = |v: u64| v as f64;
    out.metric("fast.encode.calls", n(fe.calls), "count");
    out.metric("fast.encode.ns", n(fe.ns), "ns");
    out.metric("fast.encode.gbps", gbps(fe), "GB/s");
    out.metric("fast.decode.calls", n(fd.calls), "count");
    out.metric("fast.decode.ns", n(fd.ns), "ns");
    out.metric("fast.decode.gbps", gbps(fd), "GB/s");
    out.metric("hybrid.encode.ns", n(he.ns), "ns");
    out.metric("hybrid.encode.gbps", gbps(he), "GB/s");
    out.metric("hybrid.decode.ns", n(hd.ns), "ns");
    out.metric("hybrid.chunks_decoded", n(c.chunks_decoded), "count");
    out.metric("hybrid.chunks_needed", n(c.chunks_needed), "count");
    out.metric(
        "hybrid.redecode_ratio",
        ratio(n(c.chunks_decoded), n(c.chunks_needed)),
        "x",
    );
    out.metric(
        "hybrid.fallback_frac",
        ratio(n(c.hybrid_fallbacks), n(c.hybrid_encodes)),
        "frac",
    );
    for (i, mode) in ["pass", "constant", "rle", "huffman", "huffman4"]
        .iter()
        .enumerate()
    {
        out.metric(format!("hybrid.mode.{mode}"), n(c.modes[i]), "count");
    }
    out.metric("store.write.ns", n(sw.ns), "ns");
    out.metric("store.write.self_ns", n(sw.self_ns), "ns");
    out.metric("store.read.ns", n(sr.ns), "ns");
    out.metric("store.read.self_ns", n(sr.self_ns), "ns");
    out.metric("store.read.codec_ns", n(codec_under_read), "ns");
    // Wall time of the read calls not covered by the store's own time and
    // its codec spans (the recorder's own cost on the read path).
    out.metric(
        "store.read.remainder_ns",
        c.read_wall_ns as f64 - n(sr.self_ns) - n(codec_under_read),
        "ns",
    );
    out.metric("store.read.codec_calls", n(c.codec_calls), "count");
    out.metric("store.read.chunks_touched", n(c.chunks_touched), "count");
    out.metric("store.read.blocks_decoded", n(c.blocks_decoded), "count");
    out.metric(
        "store.read.payload_bytes_read",
        n(c.payload_bytes_read),
        "bytes",
    );
    out.metric(
        "store.read.amplification",
        ratio(n(c.elems_decoded), n(c.elems_returned)),
        "x",
    );
    out.metric("svc.rt_ns", n(rt.ns), "ns");
    out.metric("svc.codec_ns", n(codec.ns), "ns");
    out.metric("svc.unattributed_ns", n(rt.ns) - n(codec.ns), "ns");
    out.metric("svc.busy", n(svc[0]), "count");
    out.metric("svc.errors", n(svc[1]), "count");
    out.metric("svc.bytes_in", n(svc[2]), "bytes");
    out.metric("svc.bytes_out", n(svc[3]), "bytes");
    out.metric("fast.heap_ops", n(fe.self_heap + fd.self_heap), "count");
    out.metric("hybrid.heap_ops", n(he.self_heap + hd.self_heap), "count");
    out.metric(
        "store.heap_ops",
        n(sw.self_heap + sr.self_heap + store_adapter.self_heap),
        "count",
    );
    out.metric("svc.heap_ops", n(rt.self_heap), "count");
    out.metric("trace.overhead_frac", overhead, "frac");
    out.metric("error_rate", error_rate, "frac");
}
