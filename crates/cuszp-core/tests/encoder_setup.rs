//! Byte-identity oracles for the `Huffman4` encoder's setup: the mode
//! estimator ([`select_mode`]) and the code build ([`Codebook::build`],
//! lengths plus canonical codes in one pass) must decide exactly as the
//! standalone forms below, which are the encoder's previous
//! implementation kept as references:
//!
//! - `ref_select_mode` counts its samples through four lane tables and
//!   sums `p·log₂p` over all 256 bins in place;
//! - `ref_build_lengths` is the counting-sort, two-queue, O(1)-repair
//!   builder with a depth per node;
//! - `ref_assign_codes` assigns canonical codes from lengths alone.
//!
//! Any difference here would change a stored chunk, so the inputs aim at
//! the places a decision can flip: noise, skewed, runny and real-shaped
//! (cuSZp stream) chunks, chunks that pass the constant probe without
//! being constant, chunks whose sampled entropy sits within 1e-9 of the
//! 1/16 Pass margin, and frequency tables that force the Kraft repair.

use cuszp_core::{fast, CuszpConfig};
use cuszp_entropy::{select_mode, Codebook, Mode, HUFFMAN4_HEADER_BYTES};
use proptest::prelude::*;

// ---- Reference estimator ----------------------------------------------

const SAMPLE_WINDOW: usize = 64;
const HUFFMAN4_OVERHEAD: f64 = (HUFFMAN4_HEADER_BYTES + 5) as f64;

/// Four interleaved count tables.
struct Lanes4 {
    t: [[u32; 256]; 4],
}

impl Lanes4 {
    fn accumulate(&mut self, bytes: &[u8]) {
        let mut it = bytes.chunks_exact(8);
        for c in &mut it {
            let v = u64::from_le_bytes(c.try_into().unwrap());
            for k in 0..8 {
                self.t[k & 3][((v >> (8 * k)) & 255) as usize] += 1;
            }
        }
        for (k, &b) in it.remainder().iter().enumerate() {
            self.t[k & 3][b as usize] += 1;
        }
    }

    fn merge_into(&self, hist: &mut [u32; 256]) {
        for (b, h) in hist.iter_mut().enumerate() {
            *h += self.t[0][b] + self.t[1][b] + self.t[2][b] + self.t[3][b];
        }
    }
}

fn ref_probe_constant(raw: &[u8]) -> bool {
    let n = raw.len();
    let b = raw[0];
    for k in 1..8 {
        if raw[k * (n - 1) / 7] != b {
            return false;
        }
    }
    raw.iter().all(|&x| x == b)
}

/// The estimator's stage-2 slack, `n − (bitstream + overhead + margin)`:
/// `Huffman4` is chosen iff it is positive. `None` when stage 2 does not
/// run (the chunk is tiny, constant, or rejected by stage 1).
fn ref_stage2_slack(raw: &[u8]) -> Option<f64> {
    let n = raw.len();
    if n < 2 || ref_probe_constant(raw) {
        return None;
    }
    if n > 4 * SAMPLE_WINDOW {
        let mut seen = [0u64; 4];
        let mut distinct = 0u32;
        let mut pairs = 0u32;
        let mut repeats = 0u32;
        for w in [1usize, 3] {
            let start = w * (n - SAMPLE_WINDOW) / 4;
            let win = &raw[start..start + SAMPLE_WINDOW];
            for (k, &b) in win.iter().enumerate() {
                let slot = &mut seen[(b >> 6) as usize];
                let bit = 1u64 << (b & 63);
                distinct += u32::from(*slot & bit == 0);
                *slot |= bit;
                if k > 0 {
                    pairs += 1;
                    repeats += u32::from(b == win[k - 1]);
                }
            }
        }
        let samples = 2 * SAMPLE_WINDOW as u32;
        if distinct * 16 >= samples * 11 && repeats * 8 < pairs {
            return None;
        }
    }
    let mut lanes = Lanes4 {
        t: [[0u32; 256]; 4],
    };
    let mut samples = 0u32;
    let mut sample = |win: &[u8]| {
        lanes.accumulate(win);
        samples += win.len() as u32;
    };
    if n <= 4 * SAMPLE_WINDOW {
        sample(raw);
    } else {
        for (w, d) in [(1usize, 4usize), (3, 4), (1, 8), (7, 8)] {
            let start = w * (n - SAMPLE_WINDOW) / d;
            sample(&raw[start..start + SAMPLE_WINDOW]);
        }
    }
    let mut hist = [0u32; 256];
    lanes.merge_into(&mut hist);
    let distinct = hist.iter().filter(|&&c| c > 0).count() as u32;
    let n_f = n as f64;
    let mut entropy_bits = 0.0;
    for &c in &hist {
        if c > 0 {
            let p = f64::from(c) / f64::from(samples);
            entropy_bits -= p * p.log2();
        }
    }
    entropy_bits += f64::from(distinct - 1) / (2.0 * f64::from(samples) * std::f64::consts::LN_2);
    let bitstream = n_f * entropy_bits.min(8.0) / 8.0;
    let margin = n_f / 16.0;
    Some(n_f - (bitstream + HUFFMAN4_OVERHEAD + margin))
}

fn ref_select_mode(raw: &[u8]) -> Mode {
    if raw.len() >= 2 && ref_probe_constant(raw) {
        return Mode::Constant;
    }
    match ref_stage2_slack(raw) {
        Some(slack) if slack > 0.0 => Mode::Huffman4,
        _ => Mode::Pass,
    }
}

// ---- Reference code build ---------------------------------------------

const LIMIT: u8 = 12;

fn ref_sorted_leaves(freq: &[u32; 256]) -> ([u64; 256], usize) {
    let mut start = [0u16; 256];
    for &f in freq {
        start[f.min(255) as usize] += 1;
    }
    let mut sum = 0u16;
    for c in &mut start[1..255] {
        (*c, sum) = (sum, sum + *c);
    }
    let small = usize::from(sum);
    let mut keys = [0u64; 256];
    let mut n = small;
    for (s, &f) in freq.iter().enumerate().filter(|&(_, &f)| f > 0) {
        let key = u64::from(f) << 16 | s as u64;
        if f < 255 {
            keys[usize::from(start[f as usize])] = key;
            start[f as usize] += 1;
        } else {
            keys[n] = key;
            n += 1;
        }
    }
    keys[small..n].sort_unstable();
    (keys, n)
}

/// Lengths for `freq`; returns whether the Kraft repair ran.
fn ref_build_lengths(freq: &[u32; 256], lens: &mut [u8; 256]) -> bool {
    let (keys, n) = ref_sorted_leaves(freq);
    if n == 0 {
        return false;
    }
    if n == 1 {
        lens[keys[0] as u16 as usize] = 1;
        return false;
    }
    let total = 2 * n - 1;
    let mut weight = [0u64; 511];
    let mut parent = [0u16; 511];
    for (w, &k) in weight.iter_mut().zip(&keys[..n]) {
        *w = k >> 16;
    }
    let mut leaf = 0usize;
    let mut node = n;
    for next in n..total {
        let mut take = || {
            let from_leaf = (leaf < n) & ((node >= next) | (weight[leaf] <= weight[node]));
            let i = if from_leaf { leaf } else { node };
            leaf += usize::from(from_leaf);
            node += usize::from(!from_leaf);
            i
        };
        let a = take();
        let b = take();
        weight[next] = weight[a] + weight[b];
        parent[a] = next as u16;
        parent[b] = next as u16;
    }
    let mut depth = [0u8; 511];
    for i in (0..total - 1).rev() {
        depth[i] = depth[parent[i] as usize] + 1;
    }
    let mut count = [0u32; LIMIT as usize + 1];
    let mut members = [[0u64; 4]; LIMIT as usize + 1];
    let mut kraft = 0u64;
    for (&d, &k) in depth.iter().zip(&keys[..n]) {
        let s = k as u16 as usize;
        let l = d.min(LIMIT);
        lens[s] = l;
        kraft += 1u64 << (LIMIT - l);
        count[l as usize] += 1;
        members[l as usize][s >> 6] |= 1u64 << (s & 63);
    }
    let repaired = kraft > 1u64 << LIMIT;
    while kraft > 1u64 << LIMIT {
        let l = (1..LIMIT as usize).rev().find(|&l| count[l] > 0).unwrap();
        let set = &mut members[l];
        let w = set.iter().position(|&m| m != 0).unwrap();
        let s = w * 64 + set[w].trailing_zeros() as usize;
        set[w] &= set[w] - 1;
        count[l] -= 1;
        count[l + 1] += 1;
        members[l + 1][s >> 6] |= 1u64 << (s & 63);
        lens[s] = l as u8 + 1;
        kraft -= 1u64 << (LIMIT as usize - l - 1);
    }
    repaired
}

fn ref_assign_codes(lens: &[u8; 256]) -> [u16; 256] {
    let mut bl_count = [0u32; LIMIT as usize + 1];
    for &l in lens {
        if l > 0 {
            bl_count[l as usize] += 1;
        }
    }
    let mut next = [0u32; LIMIT as usize + 1];
    let mut code = 0u32;
    for l in 1..=LIMIT as usize {
        code = (code + bl_count[l - 1]) << 1;
        next[l] = code;
    }
    let mut codes = [0u16; 256];
    for (s, &l) in lens.iter().enumerate() {
        if l > 0 {
            codes[s] = next[l as usize] as u16;
            next[l as usize] += 1;
        }
    }
    codes
}

// ---- Checks -----------------------------------------------------------

fn check_mode(raw: &[u8]) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        select_mode(raw),
        ref_select_mode(raw),
        "mode differs on a {}-byte chunk",
        raw.len()
    );
    Ok(())
}

/// Lengths and codes of the one-pass build against the references;
/// returns whether the reference repaired the Kraft sum.
fn check_code(freq: &[u32; 256]) -> Result<bool, TestCaseError> {
    let mut lens = [0u8; 256];
    let repaired = ref_build_lengths(freq, &mut lens);
    let book = Codebook::build(freq);
    prop_assert_eq!(book.lens(), &lens, "lengths differ");
    let codes = book.codes();
    let want = ref_assign_codes(&lens);
    for s in 0..256 {
        if lens[s] > 0 {
            prop_assert_eq!(codes[s], want[s], "code of symbol {} differs", s);
        }
    }
    Ok(repaired)
}

/// The estimator's decision and, for its `Huffman4` chunks, the code
/// build over the chunk's own histogram.
fn check_chunk(raw: &[u8]) -> Result<(), TestCaseError> {
    check_mode(raw)?;
    let mut freq = [0u32; 256];
    for &b in raw {
        freq[b as usize] += 1;
    }
    check_code(&freq)?;
    Ok(())
}

fn xorshift(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

fn noise(len: usize, mut seed: u64) -> Vec<u8> {
    seed |= 1;
    (0..len)
        .map(|_| (xorshift(&mut seed) >> 32) as u8)
        .collect()
}

/// Mostly zeros with occasional small values, `zeros`/256 of them zero.
fn skewed(len: usize, seed: u64, zeros: u8) -> Vec<u8> {
    noise(len, seed)
        .into_iter()
        .map(|b| if b < zeros { 0 } else { b & 0x0F })
        .collect()
}

fn runny(len: usize, seed: u64) -> Vec<u8> {
    let period = 3 + (seed as usize % 300);
    (0..len).map(|i| ((i / period) % 7) as u8).collect()
}

/// A cuSZp stream (fixed lengths ++ payload) of a smooth field with
/// some noise: the bytes the hybrid stage codes.
fn cuszp_chunk(len: usize, seed: u64, rel: f64) -> Vec<u8> {
    let mut s = seed | 1;
    let data: Vec<f32> = (0..len)
        .map(|i| {
            let t = i as f32 * 0.01;
            let jitter = (xorshift(&mut s) >> 40) as f32 / (1u64 << 24) as f32;
            (t.sin() * 30.0 + (t * 0.37).cos() * 7.0) + jitter * 0.5
        })
        .collect();
    let c = fast::compress(&data, 37.0 * rel, CuszpConfig::default());
    let mut raw = c.fixed_lengths;
    raw.extend_from_slice(&c.payload);
    raw
}

/// 256 sorted sample bytes, near-uniform over 90–250 symbols: a sampled
/// entropy of about 6.5–7.4 bits.
fn margin_samples(seed: u64) -> [u8; 256] {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let k = 90 + (xorshift(&mut s) % 161);
    let mut v: [u8; 256] = std::array::from_fn(|_| ((xorshift(&mut s) >> 11) % k) as u8);
    v.sort_unstable();
    v
}

/// An `n`-byte chunk whose four estimator windows hold
/// [`margin_samples`] in order, the rest filled with `fill`.
fn margin_chunk(seed: u64, n: usize, fill: u8) -> Vec<u8> {
    let samples = margin_samples(seed);
    let mut raw = vec![fill; n];
    for (k, (w, d)) in [(1usize, 4usize), (3, 4), (1, 8), (7, 8)]
        .into_iter()
        .enumerate()
    {
        let start = w * (n - SAMPLE_WINDOW) / d;
        raw[start..start + SAMPLE_WINDOW].copy_from_slice(&samples[64 * k..64 * k + 64]);
    }
    raw
}

/// Seeds and lengths of [`margin_chunk`]s whose sampled entropy lies
/// within 1e-9 bits of the entropy at which the estimator switches
/// between `Pass` and `Huffman4`, both sides, found by a search over
/// seeds. Pairs with the same length share a count multiset but sum it
/// in a different symbol order, so their slacks differ in the last bits.
const NEAR_MARGIN: [(u64, usize); 12] = [
    (25_287, 15_631),
    (453_910, 3_724),
    (470_470, 1_562),
    (1_656_277, 9_231),
    (1_933_931, 13_210),
    (2_031_356, 11_341),
    (2_808_216, 1_620),
    (2_912_854, 1_562),
    (3_329_472, 3_724),
    (6_245_368, 1_620),
    (6_249_797, 3_911),
    (11_342_328, 3_911),
];

/// Positions the constant probe reads.
fn probe_positions(n: usize) -> Vec<usize> {
    (0..8).map(|k| k * (n - 1) / 7).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn modes_and_codes_match_on_generated_chunks(
        len in prop_oneof![2usize..300, 300usize..20_000, Just(256usize), Just(257usize)],
        seed in any::<u64>(),
        shape in 0u8..4,
        zeros in 100u8..250,
    ) {
        let raw = match shape {
            0 => noise(len, seed),
            1 => skewed(len, seed, zeros),
            2 => runny(len, seed),
            _ => noise(len, seed).into_iter().map(|b| b & (zeros >> 3)).collect(),
        };
        check_chunk(&raw)?;
    }

    #[test]
    fn modes_and_codes_match_on_cuszp_streams(
        len in 256usize..40_000,
        seed in any::<u64>(),
        rel in prop_oneof![Just(1e-2f64), Just(1e-3), Just(1e-4), Just(1e-5)],
    ) {
        check_chunk(&cuszp_chunk(len, seed, rel))?;
    }

    #[test]
    fn modes_match_when_the_constant_probe_is_defeated(
        len in 9usize..20_000,
        fill in any::<u8>(),
        seed in any::<u64>(),
        changes in 1usize..4,
    ) {
        // Every probed byte equals the first, so only the full scan can
        // tell the chunk is not constant.
        let mut raw = vec![fill; len];
        let probes = probe_positions(len);
        let mut s = seed | 1;
        let mut changed = 0;
        for _ in 0..16 {
            let at = (xorshift(&mut s) % len as u64) as usize;
            if !probes.contains(&at) {
                raw[at] = fill.wrapping_add(1 + (xorshift(&mut s) % 255) as u8);
                changed += 1;
                if changed == changes {
                    break;
                }
            }
        }
        prop_assume!(changed > 0);
        prop_assert_ne!(ref_select_mode(&raw), Mode::Constant);
        check_chunk(&raw)?;
    }

    #[test]
    fn modes_match_within_1e_9_of_the_pass_margin(
        pick in 0usize..NEAR_MARGIN.len(),
        fill in any::<u8>(),
        step in prop_oneof![Just(0isize), Just(-1), Just(1)],
    ) {
        let (seed, n) = NEAR_MARGIN[pick];
        let raw = margin_chunk(seed, n.checked_add_signed(step).unwrap(), fill);
        if step == 0 {
            // The slack is n·(H* − H)/8 for the sampled entropy H and the
            // switching entropy H*.
            let slack = ref_stage2_slack(&raw).expect("stage 2 runs");
            prop_assert!(
                slack.abs() <= n as f64 * 1e-9 / 8.0,
                "seed {} length {}: slack {} is not near the margin", seed, n, slack
            );
        }
        check_chunk(&raw)?;
    }

    #[test]
    fn codes_match_where_the_kraft_repair_runs(
        support in 24usize..=256,
        ratio in 1.7f64..3.0,
        first in 0usize..256,
        step in 0usize..128,
    ) {
        // Counts growing by at least the golden ratio merge into a chain,
        // so the unlimited depths run far past 12 and the capped lengths
        // overfill the Kraft sum. Distinct symbols, in a scattered order.
        let mut freq = [0u32; 256];
        let mut f = 1.0f64;
        for k in 0..support {
            freq[(first + k * (2 * step + 1)) % 256] = f as u32;
            f = (f * ratio).min(4e9);
        }
        prop_assert!(check_code(&freq)?, "the table did not need the repair");
    }
}
