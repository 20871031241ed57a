//! Offline shim for `criterion` — wall-clock mean/min/max timing with the
//! same authoring API (`criterion_group!`, `criterion_main!`,
//! `Criterion::benchmark_group`, `Bencher::iter`). No statistics engine,
//! no plots: each benchmark warms up, runs timed samples, and prints one
//! line per benchmark.
//!
//! As with criterion, the first command-line argument that does not
//! start with `--` is a name filter (`cargo bench --bench components --
//! rows_chunk64k`): only benchmarks whose full id (`group/name`)
//! contains it run, and the others' closures are never called.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    /// Substring a benchmark's full id must contain to run.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_secs(1),
            filter: None,
        }
    }
}

impl Criterion {
    /// Take the name filter from the command line: the first argument
    /// that does not start with `--` (cargo passes `--bench` itself).
    pub fn configure_from_args(self) -> Self {
        match std::env::args().skip(1).find(|a| !a.starts_with("--")) {
            Some(filter) => self.with_filter(filter),
            None => self,
        }
    }

    /// Run only benchmarks whose full id contains `filter`.
    pub fn with_filter(mut self, filter: impl Into<String>) -> Self {
        self.filter = Some(filter.into());
        self
    }

    /// Whether the benchmark `id` passes the name filter.
    fn selects(&self, id: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| id.contains(f))
    }

    /// Start a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== {name} ==");
        BenchmarkGroup {
            parent: self,
            name,
            sample_size: 20,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_secs(1),
        }
    }

    /// Benchmark a single function outside a group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        if !self.selects(&id) {
            return self;
        }
        run_one(
            &id,
            self.sample_size,
            self.warm_up_time,
            self.measurement_time,
            f,
        );
        self
    }

    /// Set the default sample count.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }
}

/// A group of related benchmarks sharing settings.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Warm-up duration before sampling starts.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Total sampling budget.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Run one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into());
        if !self.parent.selects(&full) {
            return self;
        }
        run_one(
            &full,
            self.sample_size,
            self.warm_up_time,
            self.measurement_time,
            f,
        );
        self
    }

    /// End the group (prints nothing extra; provided for API parity).
    pub fn finish(&mut self) {}
}

/// Passed to the benchmark closure; call [`Bencher::iter`].
pub struct Bencher {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    /// Mean seconds per iteration, filled by `iter`.
    result: Option<Stats>,
}

#[derive(Debug, Clone, Copy)]
struct Stats {
    mean: f64,
    min: f64,
    max: f64,
    iters: u64,
}

impl Bencher {
    /// Measure `f`, called in timed batches until the measurement budget
    /// is spent.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up, and a first estimate of the per-iter cost.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        loop {
            black_box(f());
            warm_iters += 1;
            if warm_start.elapsed() >= self.warm_up_time {
                break;
            }
        }
        let est = warm_start.elapsed().as_secs_f64() / warm_iters as f64;

        // Choose a batch size so one sample is neither trivially short nor
        // longer than the whole budget.
        let budget = self.measurement_time.as_secs_f64();
        let per_sample = budget / self.sample_size as f64;
        let batch = ((per_sample / est.max(1e-9)).round() as u64).max(1);

        let mut min = f64::INFINITY;
        let mut max: f64 = 0.0;
        let mut total = 0.0f64;
        let mut total_iters: u64 = 0;
        let started = Instant::now();
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let dt = t0.elapsed().as_secs_f64() / batch as f64;
            min = min.min(dt);
            max = max.max(dt);
            total += dt * batch as f64;
            total_iters += batch;
            if started.elapsed().as_secs_f64() > budget * 2.0 {
                break; // long benches: don't exceed twice the budget
            }
        }
        self.result = Some(Stats {
            mean: total / total_iters as f64,
            min,
            max,
            iters: total_iters,
        });
    }
}

fn fmt_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.3} µs", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

fn run_one<F>(
    id: &str,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    mut f: F,
) where
    F: FnMut(&mut Bencher),
{
    let mut b = Bencher {
        sample_size,
        warm_up_time,
        measurement_time,
        result: None,
    };
    f(&mut b);
    match b.result {
        Some(s) => println!(
            "{id:<60} time: [{} {} {}]  ({} iters)",
            fmt_time(s.min),
            fmt_time(s.mean),
            fmt_time(s.max),
            s.iters
        ),
        None => println!("{id:<60} (no measurement — closure never called iter)"),
    }
}

/// Group benchmark functions under one callable.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Emit `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(5);
        g.warm_up_time(Duration::from_millis(5));
        g.measurement_time(Duration::from_millis(20));
        g.bench_function("sum", |b| b.iter(|| (0..1000u64).sum::<u64>()));
        g.finish();
    }

    #[test]
    fn filter_skips_non_matching_benchmarks() {
        let mut c = Criterion::default().with_filter("chunk64k");
        let mut ran = Vec::new();
        let mut g = c.benchmark_group("shim");
        g.sample_size(2);
        g.warm_up_time(Duration::from_millis(1));
        g.measurement_time(Duration::from_millis(2));
        g.bench_function("rows_chunk64k", |b| {
            ran.push("rows_chunk64k");
            b.iter(|| 1u64)
        });
        g.bench_function("roundtrip_32k", |b| {
            ran.push("roundtrip_32k");
            b.iter(|| 1u64)
        });
        g.finish();
        c.bench_function("chunk64k_alone", |_| ran.push("chunk64k_alone"));
        c.bench_function("other", |_| ran.push("other"));
        assert_eq!(ran, ["rows_chunk64k", "chunk64k_alone"]);
    }
}
