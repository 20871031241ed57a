//! In-memory span recorder for the traced run.
//!
//! Spans are kept in a pre-reserved vector on the benchmark thread, so
//! recording one does not touch the heap (the per-span heap-op counts
//! stay honest), and are written out once, when the run ends. Each span
//! has a name, start and end (ns since the recorder was enabled), its
//! parent span, the request id it belongs to, the raw bytes it covered,
//! and the heap operations the process performed while it was open.
//!
//! Besides spans, the recorder keeps the counts the per-layer metrics need
//! (hybrid chunks decoded, codec calls, elements decoded, frame modes),
//! taken at the same boundaries as the spans.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// Spans one traced pass may record; a pass stops early when this is hit.
pub const MAX_SPANS: usize = 1 << 21;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
    pub bytes: u64,
    pub heap_ops: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Counts taken at layer boundaries while tracing.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Hybrid chunks entropy-decoded, summed over decode calls.
    pub chunks_decoded: u64,
    /// Distinct hybrid chunks the reads needed (one per chunk per read).
    pub chunks_needed: u64,
    /// Codec `decode_blocks` calls made by the store.
    pub codec_calls: u64,
    /// Elements the codec decoded for the store.
    pub elems_decoded: u64,
    /// Elements the store returned to the caller.
    pub elems_returned: u64,
    /// The store's own read accounting (`ReadStats`), summed.
    pub chunks_touched: u64,
    pub blocks_decoded: u64,
    pub payload_bytes_read: u64,
    /// Wall time of the store read calls, timed around each call.
    pub read_wall_ns: u64,
    /// Hybrid encodes, and how many of them stored the plain frame.
    pub hybrid_encodes: u64,
    pub hybrid_fallbacks: u64,
    /// Chunk counts per hybrid mode, indexed by mode byte.
    pub modes: [u64; 5],
}

struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    req: u64,
    counters: Counters,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        req: 0,
        counters: Counters::default(),
    });
}

/// Start recording on this thread (reserving all span storage up front).
pub fn enable() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.spans.reserve(MAX_SPANS);
        r.stack.reserve(64);
        r.epoch = Instant::now();
        r.enabled = true;
    });
}

/// Stop recording; the spans and counters stay readable.
pub fn disable() {
    REC.with(|r| r.borrow_mut().enabled = false);
}

pub fn enabled() -> bool {
    REC.with(|r| r.borrow().enabled)
}

/// Whether the span store is full (the traced pass should stop).
pub fn full() -> bool {
    REC.with(|r| r.borrow().spans.len() + 64 >= MAX_SPANS)
}

/// Tag the spans that follow with request id `req`.
pub fn set_request(req: u64) {
    REC.with(|r| r.borrow_mut().req = req);
}

/// Handle of an open span.
#[must_use]
pub struct Open(Option<u32>);

/// Open a span covering `bytes` raw bytes. No-op when tracing is off.
pub fn enter(name: &'static str, bytes: u64) -> Open {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled || r.spans.len() >= MAX_SPANS {
            return Open(None);
        }
        let id = r.spans.len() as u32;
        let parent = r.stack.last().copied().unwrap_or(NO_PARENT);
        let req = r.req;
        let heap = alloc_counter::snapshot().heap_ops();
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
            bytes,
            heap_ops: heap,
        });
        r.stack.push(id);
        Open(Some(id))
    })
}

/// Close a span opened by [`enter`].
pub fn exit(open: Open) {
    let Some(id) = open.0 else { return };
    let heap = alloc_counter::snapshot().heap_ops();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let end_ns = r.epoch.elapsed().as_nanos() as u64;
        let popped = r.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must close in LIFO order");
        let s = &mut r.spans[id as usize];
        s.end_ns = end_ns;
        s.heap_ops = heap - s.heap_ops;
    });
}

/// Update the counters (only while tracing).
pub fn count(f: impl FnOnce(&mut Counters)) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.enabled {
            f(&mut r.counters);
        }
    });
}

/// Move out the recorded spans; copy the counters.
pub fn take() -> (Vec<Span>, Counters) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        (std::mem::take(&mut r.spans), r.counters)
    })
}

/// Per-span self time and self heap ops: the span minus its direct
/// children.
pub fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut child = vec![(0u64, 0u64); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let c = &mut child[s.parent as usize];
            c.0 += s.dur_ns();
            c.1 += s.heap_ops;
        }
    }
    spans
        .iter()
        .zip(&child)
        .map(|(s, c)| {
            (
                s.dur_ns().saturating_sub(c.0),
                s.heap_ops.saturating_sub(c.1),
            )
        })
        .collect()
}

/// Write spans as tab-separated rows: id, name, start, end, parent, req,
/// bytes, heap_ops (`parent` is -1 for roots).
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "id\tname\tstart_ns\tend_ns\tparent\treq\tbytes\theap_ops"
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            s.parent as i64
        };
        writeln!(
            w,
            "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}\t{}",
            s.name, s.start_ns, s.end_ns, s.req, s.bytes, s.heap_ops
        )?;
    }
    w.flush()
}
