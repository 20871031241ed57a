//! The bounded worker pool behind [`crate::Pipeline`].
//!
//! The shape mirrors a CUDA stream pool: `workers` threads each drain a
//! single **bounded** job queue. The queue bound is the admission policy:
//! [`WorkerPool::submit`] blocks while the queue is full (backpressure).
//! Each worker runs a caller-supplied loop body over a [`JobSource`] and
//! returns a summary value collected at [`close`].
//!
//! Steady-state submissions perform **no heap allocations**: the queue is
//! a rendezvous/array channel and jobs move by value.
//!
//! [`close`]: WorkerPool::close

use parking_lot::Mutex;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The receiving end a worker loop drains: a shared handle to the pool's
/// bounded job queue.
pub struct JobSource<J> {
    rx: Arc<Mutex<Receiver<J>>>,
}

impl<J> JobSource<J> {
    /// Block for the next job. `None` once the queue is closed (every
    /// sender dropped) **and** drained — the worker's signal to exit.
    ///
    /// The internal lock is held only while drawing one job, never while
    /// the caller processes it.
    pub fn next(&self) -> Option<J> {
        self.rx.lock().recv().ok()
    }
}

/// A pool of worker threads over one bounded job queue.
///
/// `J` is the job type (moved to a worker by value); `R` is the per-worker
/// summary returned by each worker's loop body (e.g.
/// [`crate::StreamStats`]) and collected by [`WorkerPool::close`].
pub struct WorkerPool<J, R> {
    tx: Option<SyncSender<J>>,
    handles: Vec<JoinHandle<R>>,
}

impl<J: Send + 'static, R: Send + 'static> WorkerPool<J, R> {
    /// Spawn `workers` threads, each running `body(worker_index, source)`
    /// to completion. `queue_depth` bounds jobs *queued* (not yet drawn by
    /// a worker); `0` makes the queue a rendezvous — a submission is
    /// admitted only when a worker is ready to take it.
    pub fn new<F>(workers: usize, queue_depth: usize, body: F) -> Self
    where
        F: Fn(usize, JobSource<J>) -> R + Send + Sync + 'static,
    {
        assert!(workers >= 1, "worker pool needs at least one worker");
        let (tx, rx) = sync_channel::<J>(queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let body = Arc::new(body);
        let handles = (0..workers)
            .map(|id| {
                let source = JobSource {
                    rx: Arc::clone(&rx),
                };
                let body = Arc::clone(&body);
                std::thread::spawn(move || body(id, source))
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Submit a job, blocking while the queue is full (backpressure).
    ///
    /// # Panics
    /// Panics if the pool's workers have all exited (the queue has no
    /// receiver left) — a bug in the worker body, not a load condition.
    pub fn submit(&self, job: J) {
        self.tx
            .as_ref()
            .expect("pool not closed")
            .send(job)
            .expect("worker pool alive");
    }

    /// Close the queue, wait for the workers to drain every queued job,
    /// and collect their summaries (in worker-index order).
    pub fn close(mut self) -> Vec<R> {
        drop(self.tx.take());
        self.handles
            .drain(..)
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_job_and_collects_summaries() {
        let pool: WorkerPool<usize, usize> = WorkerPool::new(3, 4, |_, src| {
            let mut sum = 0;
            while let Some(j) = src.next() {
                sum += j;
            }
            sum
        });
        for j in 1..=100 {
            pool.submit(j);
        }
        let sums = pool.close();
        assert_eq!(sums.len(), 3);
        assert_eq!(sums.iter().sum::<usize>(), 5050);
    }

    #[test]
    fn close_drains_queued_jobs() {
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        let pool: WorkerPool<u32, ()> = WorkerPool::new(2, 8, move |_, src| {
            while src.next().is_some() {
                d.fetch_add(1, Ordering::Relaxed);
            }
        });
        for _ in 0..50 {
            pool.submit(0);
        }
        pool.close();
        assert_eq!(done.load(Ordering::Relaxed), 50);
    }
}
