//! Seeded inputs, the step loop shared by the workloads, and the
//! error-bound checks.

use crate::stats::{median, At, Samples};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// REL error bound every workload uses (the paper's default 1e-3).
pub const REL_EB: f64 = 1e-3;

/// Input scale: `Full` is the benchmark; `Tiny` is the self-test's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// SplitMix64: a small, fully determined generator for the seeded inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.range(0, i));
        }
        p
    }

    /// `n` draws with every stratum of `0..k` equally often, in seeded
    /// order: the seed moves which draw lands where, not the mix, so
    /// quantiles over the list hardly vary from seed to seed.
    pub fn balanced(&mut self, n: usize, k: usize) -> Vec<usize> {
        self.permutation(n).into_iter().map(|i| i % k).collect()
    }
}

/// One snapshot field and its absolute bound (REL 1e-3 of its range).
pub struct Field {
    pub name: String,
    pub shape: Vec<usize>,
    pub data: Vec<f32>,
    pub eb: f64,
}

impl Field {
    pub fn raw_bytes(&self) -> u64 {
        (self.data.len() * 4) as u64
    }
}

/// The snapshot one simulation rank writes: Hurricane, NYX and RTM
/// fields from all of each dataset's families. The set is fixed so that
/// ratio and throughput compare across seeds; the seed orders it.
///
/// Generating the Medium fields takes about half a minute, so they are
/// cached beside the benchmark executable, keyed by the executable's
/// size and modification time: a rebuild regenerates them.
pub fn snapshot_fields(size: Size) -> Vec<Field> {
    use datasets::{hurricane, nyx, rtm, DatasetId, Scale};
    let scale = match size {
        Size::Full => Scale::Medium,
        Size::Tiny => Scale::Tiny,
    };
    let hs = scale.shape(DatasetId::Hurricane);
    let ns = scale.shape(DatasetId::Nyx);
    let rs = scale.shape(DatasetId::Rtm);
    type Gen = Box<dyn Fn() -> datasets::Field>;
    let mut gens: Vec<Gen> = Vec::new();
    for name in ["U", "QCLOUD", "P", "TC"] {
        let s = hs.clone();
        gens.push(Box::new(move || hurricane::field(name, &s)));
    }
    for name in ["baryon_density", "velocity_x", "temperature"] {
        let s = ns.clone();
        gens.push(Box::new(move || nyx::field(name, &s)));
    }
    for t in [900, 1800, 2700] {
        let s = rs.clone();
        gens.push(Box::new(move || rtm::snapshot(t, &s)));
    }
    let cache = cache_dir(size);
    gens.iter()
        .enumerate()
        .map(|(i, gen)| {
            let f = cached(cache.as_deref(), i, gen);
            let eb = REL_EB * cuszp_core::value_range(&f.data);
            Field {
                name: f.name,
                shape: f.shape,
                data: f.data,
                eb,
            }
        })
        .collect()
}

/// The input cache directory for this build of the benchmark, with any
/// other builds' caches removed; `None` when it cannot be made.
fn cache_dir(size: Size) -> Option<std::path::PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let meta = std::fs::metadata(&exe).ok()?;
    let mtime = meta
        .modified()
        .ok()?
        .duration_since(std::time::UNIX_EPOCH)
        .ok()?;
    let key = fnv(
        fnv(0, &meta.len().to_le_bytes()),
        &mtime.as_nanos().to_le_bytes(),
    );
    let parent = exe.parent()?;
    let name = format!("e2ebench-inputs-{size:?}-{key:016x}");
    for old in std::fs::read_dir(parent).ok()?.flatten() {
        let n = old.file_name().to_string_lossy().into_owned();
        if n.starts_with(&format!("e2ebench-inputs-{size:?}-")) && n != name {
            let _ = std::fs::remove_dir_all(old.path());
        }
    }
    let dir = parent.join(name);
    std::fs::create_dir_all(&dir).ok()?;
    Some(dir)
}

/// Field `i` from the cache when present (and of the generated length),
/// else generated and stored.
fn cached(
    dir: Option<&std::path::Path>,
    i: usize,
    gen: &dyn Fn() -> datasets::Field,
) -> datasets::Field {
    let Some(dir) = dir else { return gen() };
    let meta = dir.join(format!("{i}.txt"));
    let data = dir.join(format!("{i}.f32"));
    if let (Ok(head), Ok(bytes)) = (std::fs::read_to_string(&meta), std::fs::read(&data)) {
        let mut lines = head.lines();
        let name = lines.next().unwrap_or_default().to_string();
        let shape: Vec<usize> = lines.filter_map(|l| l.parse().ok()).collect();
        if !shape.is_empty() && shape.iter().product::<usize>() * 4 == bytes.len() {
            let v = bytes
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")))
                .collect();
            return datasets::Field::new(name, shape, v);
        }
    }
    let f = gen();
    let bytes: Vec<u8> = f.data.iter().flat_map(|v| v.to_le_bytes()).collect();
    let head = std::iter::once(f.name.clone())
        .chain(f.shape.iter().map(|d| d.to_string()))
        .collect::<Vec<_>>()
        .join("\n");
    // Data first, then the header that marks the entry complete.
    let _ = std::fs::write(&data, bytes).and_then(|_| std::fs::write(&meta, head));
    f
}

/// Every reconstructed f32 value lies within `eb` of its source (up to
/// f32 representability — the library's own contract check).
pub fn within_f32(src: &[f32], got: &[f32], eb: f64) -> bool {
    src.len() == got.len() && cuszp_core::verify::check_bound(src, got, eb)
}

/// Every reconstructed f64 value lies within `eb` of its source (the
/// slack is the f64 rounding of the reconstruction, as in the
/// repository's error-bound contract tests).
pub fn within_f64(src: &[f64], got: &[f64], eb: f64) -> bool {
    src.len() == got.len()
        && src.iter().zip(got).all(|(&d, &r)| {
            (d - r).abs() <= eb * (1.0 + 1e-6) + d.abs() * f64::EPSILON + f64::EPSILON
        })
}

/// FNV-1a over bytes: fingerprints of outputs, for the traced-vs-untraced
/// byte-identity check.
pub fn fnv(h: u64, bytes: &[u8]) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Fingerprint of a float slice's bit patterns.
pub fn fnv_f32(h: u64, v: &[f32]) -> u64 {
    v.iter().fold(h, |h, x| fnv(h, &x.to_bits().to_le_bytes()))
}

pub fn fnv_f64(h: u64, v: &[f64]) -> u64 {
    v.iter().fold(h, |h, x| fnv(h, &x.to_bits().to_le_bytes()))
}

pub fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Tallies of one timed phase.
#[derive(Debug, Default)]
pub struct Tally {
    /// Compress-side operations (store writes, service compress).
    pub write: Samples,
    /// Decompress-side operations (restores, box reads, service
    /// decompress).
    pub read: Samples,
    /// `read_region` calls (full-extent `read_all` on `snapshot`).
    pub region: Samples,
    /// Write + read of the same data (checkpoint + restore, compress +
    /// decompress round trip).
    pub trip: Samples,
    /// Raw and stored (or wire) bytes behind `ratio`.
    pub ratio_raw: u64,
    pub ratio_stored: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Host probe times taken during the phase, with their window.
    pub probes: Vec<(u32, u64)>,
    /// Window the current step's samples belong to (see [`run_for`]),
    /// and the scale of the last host probe.
    pub at: At,
}

impl Tally {
    /// Count one operation; `ok == false` is a failure.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += !ok as u64;
    }

    /// The same tally with its latencies unscaled.
    pub fn unscaled(&self) -> Tally {
        Tally {
            write: self.write.unscaled(),
            read: self.read.unscaled(),
            region: self.region.unscaled(),
            trip: self.trip.unscaled(),
            ratio_raw: self.ratio_raw,
            ratio_stored: self.ratio_stored,
            ..Tally::default()
        }
    }

    /// Time the host probe and read the samples that follow at its speed: their latencies are scaled by
    /// [`PROBE_REF_NS`] over the probe's time.
    pub fn probe(&mut self) {
        let p = host_probe_ns();
        self.probes.push((self.at.window, p));
        self.at.scale = PROBE_REF_NS / p as f64;
    }

    /// The median probe time of each window that has probes.
    pub fn window_probe_ns(&self) -> BTreeMap<u32, f64> {
        let mut per_window: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for &(w, p) in &self.probes {
            per_window.entry(w).or_default().push(p as f64);
        }
        per_window
            .into_iter()
            .map(|(w, p)| (w, median(&p)))
            .collect()
    }

    /// Read every sample of a timed phase at its window's speed: the
    /// median of the probes taken in the window, which averages the
    /// host's speed over the window where one probe catches an instant.
    fn scale_by_window(&mut self) {
        let scale: BTreeMap<u32, f64> = self
            .window_probe_ns()
            .into_iter()
            .map(|(w, p)| (w, PROBE_REF_NS / p))
            .collect();
        for s in [
            &mut self.write,
            &mut self.read,
            &mut self.region,
            &mut self.trip,
        ] {
            s.rescale(|w| scale.get(&w).copied());
        }
    }
}

/// A workload as a cyclic sequence of steps; step `i` is fully determined
/// by the seed and `i`, so a traced pass can replay an untraced one.
pub trait Workload {
    /// Steps per round; timed phases end on a round boundary.
    fn round(&self) -> usize;
    /// Run step `i`, tallying it; returns a fingerprint of its outputs.
    fn step(&mut self, i: usize, tally: &mut Tally) -> u64;
    /// Route store calls through the timing wrappers (traced pass).
    fn use_traced_codecs(&mut self) {}
}

/// The host probe's time at the reference host speed. Every latency is
/// reported at that speed: scaled by this over the median probe time of
/// its window (for set-up, the probe just before it).
///
/// The host's speed moves with its other tenants' load, in spells of
/// seconds to minutes, and whole runs fall in one spell: raw restore
/// times of the same seed differ by up to 1.6× between runs minutes
/// apart. The probe is the benchmark's own code, so no change to the
/// program moves it; scaled latencies compare across runs made in
/// different spells. The run record keeps every probe time and the
/// unscaled metrics.
pub const PROBE_REF_NS: f64 = 75_000.0;

/// How fast the host runs now: the geometric mean of two fixed loops'
/// times (each the median of five). One is bound by a single dependency
/// chain and follows the core's clock; the other, eight independent
/// shift-xor chains with a lookup per step, fills the core's ports as
/// the codecs' inner loops do and follows how much of the core another
/// tenant takes. On a 2-vCPU cloud Xeon the codec paths slowed about as
/// much as the mean, and less than the second loop alone. About 0.8 ms.
fn host_probe_ns() -> u64 {
    let median5 = |f: fn() -> u64| {
        let mut p: Vec<u64> = (0..5).map(|_| f()).collect();
        p.sort_unstable();
        p[2] as f64
    };
    (median5(chain_loop_ns) * median5(ports_loop_ns)).sqrt() as u64
}

/// One dependency chain over an L1-resident buffer (~0.1 ms).
fn chain_loop_ns() -> u64 {
    let mut buf = [0u64; 4096];
    for (i, x) in buf.iter_mut().enumerate() {
        *x = i as u64;
    }
    let t = Instant::now();
    let mut h = 1u64;
    for _ in 0..32 {
        for x in buf.iter_mut() {
            *x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(7) ^ h;
            h = h.wrapping_add(*x);
        }
    }
    std::hint::black_box(h);
    ns(t.elapsed())
}

/// Eight independent shift-xor chains, each step a lookup in an
/// L1-resident table (~50 µs).
fn ports_loop_ns() -> u64 {
    let table: Vec<u32> = (0..4096u32)
        .map(|i| i.wrapping_mul(0x9e37_79b1) >> 7)
        .collect();
    let mut x = [0u64; 8];
    for (i, v) in x.iter_mut().enumerate() {
        *v = (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    let t = Instant::now();
    let mut acc = 0u64;
    for _ in 0..8192 {
        for v in x.iter_mut() {
            *v ^= *v << 13;
            *v ^= *v >> 7;
            *v ^= *v << 17;
            acc = acc.wrapping_add(table[(*v & 4095) as usize] as u64);
        }
    }
    std::hint::black_box((acc, x));
    ns(t.elapsed())
}

/// Length of one measurement window of a workload without rounds.
pub const WINDOW_S: f64 = 2.0;

/// Run steps from 0 until `seconds` have passed and a round is complete.
/// Each step's samples go to a window: its round, or for workloads
/// without rounds its [`WINDOW_S`] slice of the phase. Metrics are read
/// at the fast quartile of windows ([`crate::stats::FAST_Q`]), so a host
/// slowdown that covers up to three quarters of a run's windows does not
/// move them.
pub fn run_for(w: &mut dyn Workload, seconds: f64, tally: &mut Tally) -> Vec<u64> {
    let t0 = Instant::now();
    let round = w.round().max(1);
    let mut prints = Vec::new();
    let mut i = 0;
    let mut next_probe = 0.0;
    while i % round != 0 || i == 0 || t0.elapsed().as_secs_f64() < seconds {
        let now = t0.elapsed().as_secs_f64();
        tally.at.window = if round > 1 {
            (i / round) as u32
        } else {
            (now / WINDOW_S) as u32
        };
        if now >= next_probe {
            tally.probe();
            next_probe = now + 0.2;
        }
        prints.push(w.step(i, tally));
        i += 1;
    }
    tally.scale_by_window();
    prints
}

/// Re-run steps `0..n` (stopping early if the span store fills up).
pub fn replay(w: &mut dyn Workload, n: usize, tally: &mut Tally) -> Vec<u64> {
    tally.probe();
    let mut prints = Vec::with_capacity(n);
    for i in 0..n {
        if crate::trace::full() {
            break;
        }
        crate::trace::set_request(i as u64);
        prints.push(w.step(i, tally));
    }
    prints
}
