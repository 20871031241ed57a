//! # cuszp-pipeline — batched, multi-stream compression
//!
//! cuSZp's headline numbers are single-kernel latencies, but production
//! use (checkpointing a simulation, archiving a campaign) compresses
//! *many* fields back-to-back. This crate overlaps those compressions the
//! way a CUDA application overlaps streams: a pool of workers — each the
//! software analogue of one stream — pulls fixed-size chunks from a
//! **bounded** submission queue and compresses them concurrently.
//!
//! - **Chunked container** — every submitted field becomes a
//!   [`ChunkedCompressed`], each chunk byte-identical to the single-shot
//!   path at the same absolute bound (see
//!   [`cuszp_core::Cuszp::compress_chunked`]).
//! - **Backpressure** — the submission queue holds at most
//!   [`PipelineConfig::queue_depth`] chunks; [`Pipeline::submit`] blocks
//!   once the pool falls behind, so peak memory is bounded by
//!   `queue_depth + workers` chunks regardless of batch size.
//! - **Per-stream counters** — every worker tracks chunks, bytes and busy
//!   time; in device mode each worker owns its own simulated GPU
//!   ([`gpu_sim::Gpu`]) and reports the simulated kernel seconds from its
//!   timeline, plugging the pipeline into gpu-sim's profiler.
//!
//! ```
//! use cuszp_pipeline::{Pipeline, PipelineConfig};
//! use cuszp_core::ErrorBound;
//!
//! let mut pipe = Pipeline::<f32>::new(PipelineConfig::default());
//! for i in 0..4 {
//!     let field: Vec<f32> = (0..50_000).map(|j| ((i + j) as f32 * 0.01).sin()).collect();
//!     pipe.submit(&format!("field{i}"), field, ErrorBound::Rel(1e-3));
//! }
//! let batch = pipe.finish();
//! assert_eq!(batch.fields.len(), 4);
//! assert!(batch.stats.ratio > 1.0);
//! ```

use cuszp_core::{fast, ChunkedCompressed, Compressed, CuszpConfig, ErrorBound, FloatData};
use gpu_sim::{DeviceSpec, Gpu};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

pub mod pool;
pub mod stats;

pub use pool::{JobSource, Submitter, WorkerPool};
pub use stats::{BatchStats, LatencyHistogram, ServiceMetrics, StreamStats};

/// Pipeline shape: worker count, queue bound, chunking, codec.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Worker threads (streams). Defaults to the host's parallelism.
    pub workers: usize,
    /// Bounded in-flight chunk queue; `submit` blocks when full.
    pub queue_depth: usize,
    /// Elements per chunk. Multiples of the block length keep chunk
    /// streams block-aligned with the single-shot path.
    pub chunk_elems: usize,
    /// Inner codec configuration (block length, Lorenzo).
    pub codec: CuszpConfig,
    /// `Some(spec)`: each worker owns a simulated GPU of this model and
    /// compresses with the fused device kernel, so per-stream stats carry
    /// simulated kernel time. `None`: host reference codec.
    pub device: Option<DeviceSpec>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1);
        PipelineConfig {
            workers,
            queue_depth: 2 * workers,
            chunk_elems: 1 << 20,
            codec: CuszpConfig::default(),
            device: None,
        }
    }
}

impl PipelineConfig {
    /// Host-codec pipeline with `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        PipelineConfig {
            workers,
            queue_depth: 2 * workers.max(1),
            ..Self::default()
        }
    }

    /// Panic on degenerate settings.
    pub fn validate(&self) {
        assert!(self.workers >= 1, "pipeline needs at least one worker");
        assert!(self.queue_depth >= 1, "queue depth must be at least 1");
        assert!(self.chunk_elems >= 1, "chunk_elems must be positive");
        self.codec.validate();
    }
}

/// One chunk of one submitted field, headed for a worker.
struct Job<T> {
    field: usize,
    chunk: usize,
    data: Arc<Vec<T>>,
    start: usize,
    end: usize,
    eb: f64,
    submitted: Instant,
}

/// A finished chunk, headed back to the collector.
struct Done {
    field: usize,
    chunk: usize,
    compressed: Compressed,
    latency_seconds: f64,
}

struct FieldMeta {
    name: String,
    num_chunks: usize,
    bytes_in: u64,
}

/// A compressed field out of the pipeline.
#[derive(Debug, Clone)]
pub struct CompressedField {
    /// Name given at submission.
    pub name: String,
    /// The chunked container (chunks in submission order).
    pub container: ChunkedCompressed,
    /// Original size in bytes.
    pub bytes_in: u64,
    /// Submit-to-last-chunk-complete latency, seconds.
    pub latency_seconds: f64,
}

/// Everything a finished batch yields.
#[derive(Debug)]
pub struct BatchResult {
    /// Compressed fields, in submission order.
    pub fields: Vec<CompressedField>,
    /// Batch-level and per-stream counters.
    pub stats: BatchStats,
}

/// A running compression pipeline. Submit fields, then [`finish`].
///
/// [`finish`]: Pipeline::finish
pub struct Pipeline<T: FloatData> {
    cfg: PipelineConfig,
    pool: Option<WorkerPool<Job<T>, StreamStats>>,
    done_rx: Receiver<Done>,
    fields: Vec<FieldMeta>,
    started: Instant,
    in_flight: Arc<AtomicUsize>,
}

impl<T: FloatData> Pipeline<T> {
    /// Spawn the worker pool (a [`WorkerPool`] shared with the socket
    /// service — same bounded admission queue, same drain semantics).
    pub fn new(cfg: PipelineConfig) -> Self {
        cfg.validate();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<Done>();
        let in_flight = Arc::new(AtomicUsize::new(0));
        let worker_in_flight = Arc::clone(&in_flight);
        let codec = cfg.codec;
        let device = cfg.device.clone();
        let pool = WorkerPool::new(cfg.workers, cfg.queue_depth, move |id, src| {
            worker_loop(
                id,
                src,
                done_tx.clone(),
                Arc::clone(&worker_in_flight),
                codec,
                device.clone(),
            )
        });
        Pipeline {
            cfg,
            pool: Some(pool),
            done_rx,
            fields: Vec::new(),
            started: Instant::now(),
            in_flight,
        }
    }

    /// Chunk count at this pipeline's chunking for an `n`-element field.
    pub fn chunks_for(&self, n: usize) -> usize {
        n.div_ceil(self.cfg.chunk_elems)
    }

    /// Chunks currently queued or being compressed (bounded by
    /// `queue_depth + workers`).
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Submit one field. Blocks while the in-flight queue is full
    /// (backpressure) and returns the field's index in the batch.
    ///
    /// The bound is resolved against the whole field before chunking, so
    /// REL means the same absolute tolerance as single-shot compression.
    pub fn submit(&mut self, name: &str, data: Vec<T>, bound: ErrorBound) -> usize {
        let idx = self.fields.len();
        let submitted = Instant::now();
        let num_chunks = data.len().div_ceil(self.cfg.chunk_elems.max(1));
        self.fields.push(FieldMeta {
            name: name.to_string(),
            num_chunks,
            bytes_in: std::mem::size_of_val(&data[..]) as u64,
        });
        if data.is_empty() {
            return idx;
        }
        let eb = bound.absolute(cuszp_core::value_range(&data));
        let data = Arc::new(data);
        let pool = self.pool.as_ref().expect("pipeline not finished");
        for chunk in 0..num_chunks {
            let start = chunk * self.cfg.chunk_elems;
            let end = (start + self.cfg.chunk_elems).min(data.len());
            self.in_flight.fetch_add(1, Ordering::Relaxed);
            pool.submit(Job {
                field: idx,
                chunk,
                data: Arc::clone(&data),
                start,
                end,
                eb,
                submitted,
            });
        }
        idx
    }

    /// Close the queue, drain the pool, and assemble the batch.
    pub fn finish(mut self) -> BatchResult {
        // Close the queue: workers drain every queued job, then exit.
        let streams = self.pool.take().expect("finish called once").close();
        let wall_seconds = self.started.elapsed().as_secs_f64();

        // Assemble per-field containers in submission/chunk order.
        let mut per_field: Vec<Vec<Option<Compressed>>> = self
            .fields
            .iter()
            .map(|m| (0..m.num_chunks).map(|_| None).collect())
            .collect();
        let mut latency: Vec<f64> = vec![0.0; self.fields.len()];
        let mut chunk_latencies = Vec::new();
        for done in self.done_rx.try_iter() {
            latency[done.field] = latency[done.field].max(done.latency_seconds);
            chunk_latencies.push(done.latency_seconds);
            per_field[done.field][done.chunk] = Some(done.compressed);
        }
        let fields: Vec<CompressedField> = self
            .fields
            .iter()
            .zip(per_field)
            .zip(&latency)
            .map(|((meta, chunks), &lat)| CompressedField {
                name: meta.name.clone(),
                container: ChunkedCompressed {
                    chunks: chunks
                        .into_iter()
                        .map(|c| c.expect("every submitted chunk completed"))
                        .collect(),
                },
                bytes_in: meta.bytes_in,
                latency_seconds: lat,
            })
            .collect();
        let stats = BatchStats::collect(wall_seconds, &fields, &chunk_latencies, streams);
        BatchResult { fields, stats }
    }
}

fn worker_loop<T: FloatData>(
    id: usize,
    src: JobSource<Job<T>>,
    tx: Sender<Done>,
    in_flight: Arc<AtomicUsize>,
    codec: CuszpConfig,
    device: Option<DeviceSpec>,
) -> StreamStats {
    let mut stats = StreamStats::new(id);
    // One simulated GPU per worker = one stream with its own timeline.
    let mut gpu = device.map(Gpu::new);
    // Long-lived per-worker arena: after the first chunk warms it up, the
    // host codec's only allocations per chunk are the two output Vecs the
    // result owns — no intermediate buffer is ever reallocated.
    let mut scratch = fast::Scratch::new();
    // `JobSource::next` holds the queue lock only while drawing one job,
    // never while compressing it.
    while let Some(job) = src.next() {
        let t0 = Instant::now();
        let slice = &job.data[job.start..job.end];
        let compressed = match gpu.as_mut() {
            Some(gpu) => {
                let input = gpu.h2d(slice);
                cuszp_core::compress_kernel(gpu, &input, job.eb, codec).to_host(gpu)
            }
            // Workers are parallel across chunks; each runs the
            // sequential fast codec (byte-identical to the host_ref
            // oracle), reusing this worker's arena.
            None => fast::compress_with(&mut scratch, slice, job.eb, codec),
        };
        stats.chunks += 1;
        stats.bytes_in += std::mem::size_of_val(slice) as u64;
        stats.bytes_out += compressed.stream_bytes();
        stats.busy_seconds += t0.elapsed().as_secs_f64();
        in_flight.fetch_sub(1, Ordering::Relaxed);
        let done = Done {
            field: job.field,
            chunk: job.chunk,
            compressed,
            latency_seconds: job.submitted.elapsed().as_secs_f64(),
        };
        if tx.send(done).is_err() {
            break; // collector gone; nothing left to report to
        }
    }
    if let Some(gpu) = gpu.as_ref() {
        stats.sim_kernel_seconds = gpu.breakdown().total();
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuszp_core::Cuszp;

    fn wavy(n: usize, seed: f32) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.013 + seed).sin() * 4.0)
            .collect()
    }

    fn small_cfg(workers: usize) -> PipelineConfig {
        PipelineConfig {
            workers,
            queue_depth: 2,
            chunk_elems: 1000,
            codec: CuszpConfig::default(),
            device: None,
        }
    }

    #[test]
    fn matches_sequential_chunked_path() {
        let data = wavy(10_123, 0.0);
        let mut pipe = Pipeline::new(small_cfg(3));
        pipe.submit("a", data.clone(), ErrorBound::Rel(1e-3));
        let batch = pipe.finish();
        let reference = Cuszp::new().compress_chunked(&data, ErrorBound::Rel(1e-3), 1000);
        assert_eq!(batch.fields[0].container, reference);
    }

    #[test]
    fn many_fields_keep_submission_order() {
        let mut pipe = Pipeline::new(small_cfg(4));
        for i in 0..8 {
            pipe.submit(
                &format!("f{i}"),
                wavy(2500, i as f32),
                ErrorBound::Abs(1e-3),
            );
        }
        let batch = pipe.finish();
        let names: Vec<&str> = batch.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"]);
        for f in &batch.fields {
            assert_eq!(f.container.num_chunks(), 3); // 2500 / 1000
            let back: Vec<f32> = Cuszp::new().decompress_chunked(&f.container);
            assert_eq!(back.len(), 2500);
        }
    }

    #[test]
    fn tiny_queue_makes_progress() {
        // queue_depth 1 with one worker: submit must block and resume
        // repeatedly without deadlocking.
        let mut pipe = Pipeline::new(PipelineConfig {
            workers: 1,
            queue_depth: 1,
            chunk_elems: 100,
            codec: CuszpConfig::default(),
            device: None,
        });
        pipe.submit("big", wavy(5_000, 0.3), ErrorBound::Abs(1e-3));
        let batch = pipe.finish();
        assert_eq!(batch.fields[0].container.num_chunks(), 50);
        assert_eq!(batch.stats.chunks(), 50);
        assert_eq!(pipe_len(&batch), 5_000);
    }

    fn pipe_len(batch: &BatchResult) -> u64 {
        batch
            .fields
            .iter()
            .map(|f| f.container.total_elements())
            .sum()
    }

    #[test]
    fn empty_field_yields_empty_container() {
        let mut pipe = Pipeline::<f32>::new(small_cfg(2));
        pipe.submit("nothing", Vec::new(), ErrorBound::Abs(1.0));
        let batch = pipe.finish();
        assert_eq!(batch.fields[0].container.num_chunks(), 0);
        assert_eq!(batch.fields[0].bytes_in, 0);
    }

    #[test]
    fn stats_account_for_all_bytes() {
        let mut pipe = Pipeline::new(small_cfg(2));
        pipe.submit("a", wavy(3000, 0.0), ErrorBound::Abs(1e-3));
        pipe.submit("b", wavy(1500, 1.0), ErrorBound::Abs(1e-3));
        let batch = pipe.finish();
        assert_eq!(batch.stats.bytes_in, 4500 * 4);
        let per_stream: u64 = batch.stats.streams.iter().map(|s| s.bytes_in).sum();
        assert_eq!(per_stream, 4500 * 4);
        assert!(batch.stats.ratio > 1.0);
        assert!(batch.stats.wall_seconds > 0.0);
        assert!(batch.stats.max_chunk_latency_s >= batch.stats.mean_chunk_latency_s);
    }

    #[test]
    fn f64_fields_supported() {
        let data: Vec<f64> = (0..2000).map(|i| (i as f64 * 0.01).cos()).collect();
        let mut pipe = Pipeline::new(small_cfg(2));
        pipe.submit("d", data.clone(), ErrorBound::Rel(1e-4));
        let batch = pipe.finish();
        let back: Vec<f64> = Cuszp::new().decompress_chunked(&batch.fields[0].container);
        let eb = batch.fields[0].container.chunks[0].eb;
        for (d, r) in data.iter().zip(&back) {
            assert!((d - r).abs() <= eb * (1.0 + 1e-6));
        }
    }

    #[test]
    fn device_mode_collects_sim_kernel_time() {
        let mut pipe = Pipeline::new(PipelineConfig {
            workers: 2,
            queue_depth: 2,
            chunk_elems: 1024,
            codec: CuszpConfig::default(),
            device: Some(DeviceSpec::a100()),
        });
        let data = wavy(4096, 0.0);
        pipe.submit("dev", data.clone(), ErrorBound::Abs(1e-3));
        let batch = pipe.finish();
        // Device streams are byte-identical to the host path, so the
        // container still matches the sequential reference.
        let reference = Cuszp::new().compress_chunked(&data, ErrorBound::Abs(1e-3), 1024);
        assert_eq!(batch.fields[0].container, reference);
        let sim: f64 = batch
            .stats
            .streams
            .iter()
            .map(|s| s.sim_kernel_seconds)
            .sum();
        assert!(sim > 0.0, "simulated kernel time recorded");
    }

    #[test]
    #[should_panic]
    fn zero_workers_rejected() {
        PipelineConfig {
            workers: 0,
            ..PipelineConfig::default()
        }
        .validate();
    }
}
