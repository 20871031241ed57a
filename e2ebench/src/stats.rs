//! Latency samples, metric rows and the result line.

use std::fmt::Write as _;

/// Where, from the fast end, a statistic over windows (or over one key's
/// repeats) is read. Contention from other tenants of the host only ever
/// slows a window, and it comes in spells of seconds to minutes; the
/// fast quartile is the program's own speed as long as a quarter of the
/// run's windows fall outside such spells, where the median needs half.
pub const FAST_Q: f64 = 0.25;

/// When a sample was taken: its measurement window, and the factor that
/// scales its latency to the reference host speed (see
/// [`crate::input::PROBE_REF_NS`]).
#[derive(Debug, Clone, Copy)]
pub struct At {
    pub window: u32,
    pub scale: f64,
}

impl Default for At {
    fn default() -> Self {
        At {
            window: 0,
            scale: 1.0,
        }
    }
}

/// Per-operation latencies and raw bytes, each in a measurement window.
/// Every statistic reads latencies scaled to the reference host speed;
/// the summed raw latencies are kept for the tracing overhead. Throughput
/// is computed per window and reported at the fast quartile of windows.
/// So are quantiles, unless the samples are keyed: repeats of one
/// operation (a snapshot field, round after round) then count once, at
/// the fast quartile of the key's latencies, and the quantile is taken
/// over keys; throughput is then the keys' bytes over their summed
/// fast-quartile latencies.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    scale: Vec<f64>,
    bytes: Vec<u64>,
    window: Vec<u32>,
    key: Vec<u32>,
    keyed: bool,
}

impl Samples {
    pub fn push(&mut self, ns: u64, bytes: u64, at: At) {
        self.ns.push(ns);
        self.scale.push(at.scale);
        self.bytes.push(bytes);
        self.window.push(at.window);
        self.key.push(0);
    }

    pub fn push_keyed(&mut self, ns: u64, bytes: u64, at: At, key: u32) {
        self.push(ns, bytes, at);
        *self.key.last_mut().expect("just pushed") = key;
        self.keyed = true;
    }

    /// The same samples at the host's own speed, unscaled.
    pub fn unscaled(&self) -> Samples {
        let mut s = self.clone();
        s.scale.fill(1.0);
        s
    }

    /// Give every sample its window's scale, where `scale` has one.
    pub fn rescale(&mut self, scale: impl Fn(u32) -> Option<f64>) {
        for (s, &w) in self.scale.iter_mut().zip(&self.window) {
            if let Some(v) = scale(w) {
                *s = v;
            }
        }
    }

    pub fn count(&self) -> usize {
        self.ns.len()
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Summed latency of the first `n` samples.
    pub fn first_ns(&self, n: usize) -> u64 {
        self.ns.iter().take(n).sum()
    }

    pub fn bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    pub fn windows(&self) -> usize {
        groups(&self.window).len()
    }

    fn lat(&self, idx: &[usize]) -> Vec<f64> {
        idx.iter()
            .map(|&i| self.ns[i] as f64 * self.scale[i])
            .collect()
    }

    /// Each key's fast-quartile latency in ns, with the key's bytes.
    fn per_key(&self) -> Vec<(f64, u64)> {
        groups(&self.key)
            .iter()
            .map(|g| (nearest_rank(&self.lat(g), FAST_Q), self.bytes[g[0]]))
            .collect()
    }

    /// The quantile in microseconds (0 without samples): over keys of
    /// each key's fast-quartile latency when keyed, else the fast quartile
    /// over windows of each window's quantile.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let us = if self.keyed {
            let per_key: Vec<f64> = self.per_key().iter().map(|k| k.0).collect();
            nearest_rank(&per_key, q)
        } else {
            let per_window: Vec<f64> = groups(&self.window)
                .iter()
                .map(|g| nearest_rank(&self.lat(g), q))
                .collect();
            nearest_rank(&per_window, FAST_Q)
        };
        us / 1e3
    }

    /// Raw bytes per summed scaled latency of each window, in GB/s.
    pub fn window_gbps(&self) -> Vec<f64> {
        groups(&self.window)
            .iter()
            .map(|idx| {
                let bytes: u64 = idx.iter().map(|&i| self.bytes[i]).sum();
                let ns: f64 = self.lat(idx).iter().sum();
                ratio(bytes as f64, ns)
            })
            .collect()
    }

    /// Throughput in GB/s: the keys' bytes over their summed
    /// fast-quartile latencies when keyed, else the fast quartile over
    /// windows.
    pub fn gbps(&self) -> f64 {
        if self.keyed {
            let per_key = self.per_key();
            let bytes: u64 = per_key.iter().map(|k| k.1).sum();
            let ns: f64 = per_key.iter().map(|k| k.0).sum();
            return ratio(bytes as f64, ns);
        }
        nearest_rank(&self.window_gbps(), 1.0 - FAST_Q)
    }
}

/// Sample indices grouped by label, in label order.
fn groups(labels: &[u32]) -> Vec<Vec<usize>> {
    let mut g: std::collections::BTreeMap<u32, Vec<usize>> = Default::default();
    for (i, &l) in labels.iter().enumerate() {
        g.entry(l).or_default().push(i);
    }
    g.into_values().collect()
}

/// Nearest-rank quantile of a list (0 when empty).
fn nearest_rank(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median of a list (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run prints: the verdict, operation counts, metrics, and the
/// run record (key → JSON value text) written beside them.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub record: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, key: impl Into<String>, json_value: impl Into<String>) {
        self.record.push((key.into(), json_value.into()));
    }

    /// Note a latency sample set's count, quantiles and per-window
    /// throughputs in the run record.
    pub fn note_samples(&mut self, key: &str, s: &Samples) {
        let windows: Vec<String> = s.window_gbps().iter().map(|&v| num(v)).collect();
        self.note(
            key,
            format!(
                "{{\"count\": {}, \"windows\": {}, \"p50_us\": {}, \"p99_us\": {}, \"bytes\": {}, \"window_gbps\": [{}]}}",
                s.count(),
                s.windows(),
                num(s.quantile_us(0.5)),
                num(s.quantile_us(0.99)),
                s.bytes(),
                windows.join(", ")
            ),
        );
    }

    /// The metrics as one JSON object of name → value.
    pub fn values_json(&self) -> String {
        let rows: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("{}: {}", quote(&m.name), num(m.value)))
            .collect();
        format!("{{{}}}", rows.join(", "))
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&x.name),
                num(x.value),
                quote(x.unit)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }

    /// The run record as one JSON object.
    pub fn record_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.record.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{}: {v}", quote(k));
        }
        s.push('}');
        s
    }
}

/// A finite JSON number with all its digits (non-finite values print as
/// 0; callers guard the divisions that could produce them).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(window: u32) -> At {
        At { window, scale: 1.0 }
    }

    #[test]
    fn statistics_are_fast_quartiles_over_windows() {
        let mut s = Samples::default();
        for ns in 1..=100u64 {
            s.push(ns * 1000, 10, at(0));
        }
        assert_eq!(s.quantile_us(0.5), 50.0);
        assert_eq!(s.quantile_us(0.99), 99.0);
        assert_eq!(s.bytes(), 1000);
        // Three more windows, two of them slow: the median window would be
        // half slow; the fast quartile is a fast window.
        for ns in 1..=100u64 {
            s.push(ns * 1000, 10, at(1));
            s.push(ns * 3000, 10, at(2));
            s.push(ns * 3000, 10, at(3));
        }
        assert_eq!(s.quantile_us(0.5), 50.0);
        assert_eq!(s.gbps(), 10.0 * 100.0 / (5050.0 * 1000.0));
        assert_eq!(s.window_gbps().len(), 4);
        assert_eq!(Samples::default().quantile_us(0.5), 0.0);
        assert_eq!(Samples::default().gbps(), 0.0);
    }

    #[test]
    fn latencies_are_read_at_the_reference_speed() {
        let mut s = Samples::default();
        // The host ran at half the reference speed: twice the latency.
        let slow = At {
            window: 0,
            scale: 0.5,
        };
        s.push(4000, 8, slow);
        assert_eq!(s.quantile_us(0.5), 2.0);
        assert_eq!(s.gbps(), 8.0 / 2000.0);
        assert_eq!(s.total_ns(), 4000);
        assert_eq!(s.unscaled().quantile_us(0.5), 4.0);
    }

    #[test]
    fn keyed_statistics_are_over_key_fast_quartiles() {
        let mut s = Samples::default();
        for (round, ns) in [1000, 9000, 2000, 3000].into_iter().enumerate() {
            s.push_keyed(ns, 1, at(round as u32), 0);
            s.push_keyed(ns + 4000, 1, at(round as u32), 1);
        }
        // Key 0's fast quartile is 1 µs, key 1's is 5 µs.
        assert_eq!(s.quantile_us(0.5), 1.0);
        assert_eq!(s.quantile_us(0.99), 5.0);
        assert_eq!(s.gbps(), 2.0 / 6000.0);
        assert_eq!(s.windows(), 4);
    }

    #[test]
    fn json_is_escaped_and_finite() {
        assert_eq!(quote("a\"b"), "\"a\\\"b\"");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(1.5), "1.5");
    }
}
