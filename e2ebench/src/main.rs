//! End-to-end benchmark of the cuSZp host paths.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <snapshot|region_reads|service_mix> --seed <n> \
//!     --seconds <s> --trace <0|1> [--size full|tiny]
//! ```
//!
//! Each run pins itself to one CPU, builds its inputs from the seed, sets
//! up several times (reporting the median), measures for the given
//! seconds with every time scaled to a reference host speed, checks every
//! decoded value against its source, writes a run record, and prints one
//! JSON result line last on stdout. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` runs the same steps untraced for half the time,
//! replays them with spans on, and prints the per-layer metrics. See
//! `README.md` beside this crate for the workloads and metrics.

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

mod codecs;
mod input;
mod layers;
mod record;
mod region;
mod service;
mod snapshot;
mod stats;
mod trace;

use input::{run_for, Field, Size, Tally, Workload};
use stats::{median, ratio, Outcome};
use std::time::Instant;

const USAGE: &str = "usage: e2ebench --workload <snapshot|region_reads|service_mix> \
                     --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut size = Size::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !["snapshot", "region_reads", "service_mix"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        size,
    })
}

/// Pin the process to the last CPU it may run on; threads started later
/// inherit the pin. Every thread of a workload then shares one CPU, so a
/// hand-off between threads is a switch on that CPU, not a wake-up on
/// another one, whose cost depends on where the scheduler put each thread
/// and how deeply the other CPU slept. Returns the CPU and how many CPUs
/// the process could use before.
fn pin_to_one_cpu() -> Option<(usize, usize)> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    const WORDS: usize = 16;
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable 1024-bit CPU set of the size passed.
    if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let allowed: Vec<usize> = (0..WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    let cpu = *allowed.last()?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a 1024-bit CPU set of the size passed.
    if unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) } != 0 {
        return None;
    }
    Some((cpu, allowed.len()))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = pin_to_one_cpu();
    let t_inputs = Instant::now();
    let fields = input::snapshot_fields(args.size);
    let input_s = t_inputs.elapsed().as_secs_f64();

    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    out.note("nproc", nproc.to_string());
    out.note(
        "pinned_cpu",
        pinned.map_or("null".into(), |(cpu, _)| cpu.to_string()),
    );
    out.note("input_generation_s", stats::num(input_s));
    match args.workload.as_str() {
        "snapshot" => run_snapshot(&args, &fields, &mut out),
        "region_reads" => run_region(&args, &fields, &mut out),
        _ => run_service(&args, &fields, &mut out),
    }
    record::finish(&args, &fields, &mut out);
    println!("{}", out.result_json());
}

/// What a timed phase produced: the untraced tally, and with tracing on,
/// the traced replay's tally and spans.
struct Measured {
    tally: Tally,
    traced: Option<(Tally, layers::Trace)>,
}

/// Measure: with tracing off, run for the whole time; with it on, run
/// untraced for half the time, then replay the same steps through the
/// timing wrappers with spans on, and require identical outputs.
fn measure(args: &Args, w: &mut dyn Workload, out: &mut Outcome) -> Measured {
    let mut tally = Tally::default();
    if !args.trace {
        run_for(w, args.seconds, &mut tally);
        return Measured {
            tally,
            traced: None,
        };
    }
    let plain = run_for(w, args.seconds / 2.0, &mut tally);
    w.use_traced_codecs();
    let mut replayed = Tally::default();
    trace::enable();
    let with_spans = input::replay(w, plain.len(), &mut replayed);
    trace::disable();
    let identical = with_spans[..] == plain[..with_spans.len()];
    out.note("untraced_steps", plain.len().to_string());
    out.note("traced_steps", with_spans.len().to_string());
    out.note("traced_outputs_identical", identical.to_string());
    if !identical {
        eprintln!("e2ebench: traced outputs differ from untraced ones");
        out.correct = false;
    }
    let (spans, counters) = trace::take();
    match record::write_spans(args, &spans) {
        Ok(path) => out.note("spans_file", stats::quote(&path)),
        Err(e) => eprintln!("e2ebench: could not write spans: {e}"),
    }
    Measured {
        tally,
        traced: Some((replayed, layers::Trace { spans, counters })),
    }
}

/// Set-up times, as measured and at the reference host speed.
#[derive(Default)]
struct Setups {
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

impl Setups {
    /// Probe the host, then start timing a set-up.
    fn start(&self, tally: &mut Tally) -> Instant {
        tally.probe();
        Instant::now()
    }

    fn stop(&mut self, t: Instant, tally: &Tally) {
        let s = t.elapsed().as_secs_f64();
        self.raw.push(s);
        self.scaled.push(s * tally.at.scale);
    }
}

/// The end-to-end metrics, from the untraced tally.
fn end_to_end(out: &mut Outcome, setup_s: f64, t: &Tally) {
    out.metric("setup_s", setup_s, "s");
    out.metric("write_gbps", t.write.gbps(), "GB/s");
    out.metric("read_gbps", t.read.gbps(), "GB/s");
    out.metric(
        "ratio",
        ratio(t.ratio_raw as f64, t.ratio_stored as f64),
        "x",
    );
    out.metric("region_p50_us", t.region.quantile_us(0.5), "us");
    out.metric("region_p99_us", t.region.quantile_us(0.99), "us");
    out.metric("compress_rt_p50_us", t.write.quantile_us(0.5), "us");
    out.metric("compress_rt_p99_us", t.write.quantile_us(0.99), "us");
    out.metric("decompress_rt_p50_us", t.read.quantile_us(0.5), "us");
    out.metric("decompress_rt_p99_us", t.read.quantile_us(0.99), "us");
    out.metric("svc_gbps", t.trip.gbps(), "GB/s");
    out.metric("peak_rss_mib", record::peak_rss_mib(), "MiB");
}

/// Fold a run into the outcome: counts, verdict, metrics, run record.
fn conclude(out: &mut Outcome, setup: &Setups, setup_tally: &Tally, m: Measured, svc: [u64; 4]) {
    let Measured { tally, traced } = m;
    out.attempted += setup_tally.attempted + tally.attempted;
    out.failed += setup_tally.failed + tally.failed;
    let probes: Vec<f64> = tally.probes.iter().map(|&p| p.1 as f64).collect();
    out.note("host_probe_ns", stats::num(median(&probes)));
    let per_window: Vec<String> = tally
        .window_probe_ns()
        .values()
        .map(|&p| stats::num(p))
        .collect();
    out.note("window_probe_ns", format!("[{}]", per_window.join(", ")));
    let setups: Vec<String> = setup.raw.iter().map(|v| stats::num(*v)).collect();
    out.note("setup_s_samples", format!("[{}]", setups.join(", ")));
    for (k, s) in [
        ("write_samples", &tally.write),
        ("read_samples", &tally.read),
        ("region_samples", &tally.region),
        ("trip_samples", &tally.trip),
    ] {
        out.note_samples(k, s);
    }
    match traced {
        None => {
            end_to_end(out, median(&setup.scaled), &tally);
            let mut unscaled = Outcome::default();
            end_to_end(&mut unscaled, median(&setup.raw), &tally.unscaled());
            out.note("unscaled_metrics", unscaled.values_json());
        }
        Some((replayed, tr)) => {
            out.attempted += replayed.attempted;
            out.failed += replayed.failed;
            // Same steps, so the summed step times compare directly.
            let n = replayed.trip.count();
            let overhead = ratio(
                replayed.trip.total_ns() as f64,
                tally.trip.first_ns(n) as f64,
            ) - 1.0;
            let error_rate = ratio(out.failed as f64, out.attempted as f64);
            layers::report(out, &tr, svc, overhead, error_rate);
        }
    }
    out.note(
        "error_rate",
        stats::num(ratio(out.failed as f64, out.attempted as f64)),
    );
    out.correct = out.correct && out.failed == 0 && out.attempted > 0;
}

fn run_snapshot(args: &Args, fields: &[Field], out: &mut Outcome) {
    let order = input::Rng::new(args.seed).permutation(fields.len());
    // Restore targets, touched once so page faults stay out of the timing.
    let mut restored: Vec<Vec<f32>> = fields.iter().map(|f| vec![1f32; f.data.len()]).collect();
    let mut setup = Setups::default();
    let mut setup_tally = Tally::default();
    for _ in 1..SETUPS {
        let t = setup.start(&mut setup_tally);
        let w = snapshot::Snapshot::setup(fields, order.clone(), &mut restored, &mut setup_tally);
        setup.stop(t, &setup_tally);
        drop(w);
    }
    let t = setup.start(&mut setup_tally);
    let mut w = snapshot::Snapshot::setup(fields, order, &mut restored, &mut setup_tally);
    setup.stop(t, &setup_tally);
    let m = measure(args, &mut w, out);
    let raw: u64 = fields.iter().map(Field::raw_bytes).sum();
    let stored =
        ratio(m.tally.ratio_stored as f64, m.tally.trip.count() as f64) * fields.len() as f64;
    out.note(
        "working_set_bytes",
        format!(
            "{{\"raw\": {raw}, \"stored\": {}, \"what\": \"fields written and restored per round, and their CZH1 shards\"}}",
            stored as u64
        ),
    );
    conclude(out, &setup, &setup_tally, m, [0; 4]);
}

fn run_region(args: &Args, fields: &[Field], out: &mut Outcome) {
    let mut setup = Setups::default();
    let mut setup_tally = Tally::default();
    let boxes = region::boxes(fields, args.seed);
    for k in 1..SETUPS {
        setup_tally.at.window = k as u32;
        let t = setup.start(&mut setup_tally);
        let shards = region::populate(fields, &mut setup_tally);
        let w = region::Regions::open(fields, &shards, boxes.clone(), &mut setup_tally);
        setup.stop(t, &setup_tally);
        drop(w);
    }
    setup_tally.at.window = 0;
    let t = setup.start(&mut setup_tally);
    let shards = region::populate(fields, &mut setup_tally);
    let mut w = region::Regions::open(fields, &shards, boxes, &mut setup_tally);
    setup.stop(t, &setup_tally);
    let mut m = measure(args, &mut w, out);
    // The compress side of this workload is the shard population in
    // set-up: it supplies `write_gbps`, `compress_rt_*` and `ratio`.
    m.tally.write = setup_tally.write.clone();
    m.tally.ratio_raw = setup_tally.ratio_raw;
    m.tally.ratio_stored = setup_tally.ratio_stored;
    let stored: usize = shards.iter().map(Vec::len).sum();
    out.note(
        "working_set_bytes",
        format!("{{\"stored\": {stored}, \"what\": \"CZP1 shards the boxes are read from\"}}"),
    );
    conclude(out, &setup, &setup_tally, m, [0; 4]);
}

fn run_service(args: &Args, fields: &[Field], out: &mut Outcome) {
    let mut setup = Setups::default();
    let mut setup_tally = Tally::default();
    let mut w = None;
    let reqs = service::requests(fields, args.seed);
    for k in 0..SETUPS {
        let t = setup.start(&mut setup_tally);
        let started = service::Service::start(fields, reqs.clone(), &mut setup_tally);
        setup.stop(t, &setup_tally);
        match started {
            Ok(s) if k + 1 < SETUPS => s.stop(),
            Ok(s) => w = Some(s),
            Err(e) => {
                eprintln!("service_mix: set-up failed: {e}");
                setup_tally.op(false);
            }
        }
    }
    let Some(mut w) = w else {
        conclude(
            out,
            &setup,
            &setup_tally,
            Measured {
                tally: Tally::default(),
                traced: None,
            },
            [0; 4],
        );
        return;
    };
    let before = w.server_counts();
    let m = measure(args, &mut w, out);
    let after = w.server_counts();
    let svc = [0, 1, 2, 3].map(|i| after[i] - before[i]);
    w.stop();
    out.note(
        "working_set_bytes",
        format!(
            "{{\"max_request\": {}, \"what\": \"largest request payload; each connection's arena is sized for it\"}}",
            1u64 << 20
        ),
    );
    conclude(out, &setup, &setup_tally, m, svc);
}
