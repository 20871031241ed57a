//! PackBits run-length coding.
//!
//! The classic byte-oriented scheme: a control byte `c` announces either
//! `c + 1` literal bytes (`c ≤ 127`) or `257 − c` repeats of the next
//! byte (`c ≥ 129`); `c = 128` is reserved and rejected on decode. The
//! encoder emits repeat runs only at length ≥ 3 (a 2-byte run breaks
//! even at best) and batches literals up to 128, so worst-case expansion
//! is one control byte per 128 literals — and the chunk layer falls back
//! to `Pass` before even that is stored.
//!
//! Decode is `memcpy`/`fill` dominated.

use crate::EntropyError;

/// Append the PackBits coding of `raw` to `out`. Never reads `out`'s
/// existing contents; may append up to `raw.len() + raw.len()/128 + 1`
/// bytes (the caller compares sizes and discards a losing encode).
pub(crate) fn encode(raw: &[u8], out: &mut Vec<u8>) {
    let mut i = 0usize;
    while i < raw.len() {
        let b = raw[i];
        let end = run_end(raw, i, (i + 128).min(raw.len()));
        let run = end - i;
        if run >= 3 {
            out.push((257 - run) as u8);
            out.push(b);
            i = end;
        } else {
            // Literal batch: until a run of ≥ 3 starts or 128 bytes.
            let start = i;
            i = next_triple(raw, i + run, (start + 128).min(raw.len()));
            out.push((i - start - 1) as u8);
            out.extend_from_slice(&raw[start..i]);
        }
    }
}

/// The smallest `j` in `(i, cap)` with `raw[j] != raw[i]`, or `cap`.
fn run_end(raw: &[u8], i: usize, cap: usize) -> usize {
    let b = raw[i];
    let mut j = i + 1;
    while j < cap && raw[j] == b {
        j += 1;
    }
    j
}

/// The smallest `j` in `[from, cap)` starting a run of ≥ 3 (`j + 2 <
/// raw.len()` and three equal bytes), or `cap`.
fn next_triple(raw: &[u8], from: usize, cap: usize) -> usize {
    let mut j = from;
    while j < cap {
        if j + 2 < raw.len() && raw[j] == raw[j + 1] && raw[j + 1] == raw[j + 2] {
            return j;
        }
        j += 1;
    }
    cap
}

/// Decode PackBits bytes into `out`, whose length must equal the
/// original raw length exactly. Overruns, underruns, truncated runs, and
/// the reserved control byte are all typed errors.
pub(crate) fn decode(comp: &[u8], out: &mut [u8]) -> Result<(), EntropyError> {
    let mut i = 0usize;
    let mut o = 0usize;
    while i < comp.len() {
        let c = comp[i];
        i += 1;
        if c < 128 {
            let n = c as usize + 1;
            if i + n > comp.len() {
                return Err(EntropyError("rle literal run truncated"));
            }
            if o + n > out.len() {
                return Err(EntropyError("rle output overflow"));
            }
            out[o..o + n].copy_from_slice(&comp[i..i + n]);
            i += n;
            o += n;
        } else if c == 128 {
            return Err(EntropyError("rle reserved control byte"));
        } else {
            let n = 257 - c as usize;
            if i >= comp.len() {
                return Err(EntropyError("rle repeat run truncated"));
            }
            let b = comp[i];
            i += 1;
            if o + n > out.len() {
                return Err(EntropyError("rle output overflow"));
            }
            out[o..o + n].fill(b);
            o += n;
        }
    }
    if o != out.len() {
        return Err(EntropyError("rle output underflow"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(raw: &[u8]) -> Vec<u8> {
        let mut comp = Vec::new();
        encode(raw, &mut comp);
        let mut back = vec![0xEEu8; raw.len()];
        decode(&comp, &mut back).unwrap();
        assert_eq!(back, raw);
        comp
    }

    #[test]
    fn runs_collapse() {
        let mut raw = vec![0u8; 1000];
        raw.extend_from_slice(&[1, 2, 3]);
        raw.extend(vec![7u8; 300]);
        let comp = roundtrip(&raw);
        assert!(comp.len() < 30, "got {}", comp.len());
    }

    #[test]
    fn literals_cost_one_control_per_128() {
        let raw: Vec<u8> = (0..=255u16).map(|i| (i % 251) as u8).collect();
        let comp = roundtrip(&raw);
        assert!(comp.len() <= raw.len() + raw.len() / 128 + 1);
    }

    #[test]
    fn run_lengths_around_the_batch_limit() {
        for n in [1usize, 2, 3, 127, 128, 129, 256, 257] {
            roundtrip(&vec![5u8; n]);
            let mut mixed: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
            mixed.extend(vec![9u8; n]);
            roundtrip(&mixed);
        }
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert!(roundtrip(&[]).is_empty());
    }

    #[test]
    fn run_and_triple_boundaries_roundtrip() {
        // Runs and triples at many periods, and a sparse alphabet so
        // runs of 2 (the encoder-ambiguous zone) occur.
        let mut shapes: Vec<Vec<u8>> = vec![
            vec![],
            vec![1],
            vec![3; 2],
            vec![3; 3],
            (0..200u8).collect(),
        ];
        for period in [1usize, 2, 3, 5, 29, 31, 32, 33, 63, 64, 65, 127, 128, 129] {
            let raw: Vec<u8> = (0..5000).map(|i| ((i / period) % 7) as u8).collect();
            shapes.push(raw);
        }
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut noisy = Vec::with_capacity(4096);
        for _ in 0..4096 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            noisy.push(((seed >> 32) & 3) as u8);
        }
        shapes.push(noisy);
        for raw in &shapes {
            roundtrip(raw);
        }
    }
}
