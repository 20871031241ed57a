//! Multi-lane byte histograms.
//!
//! A naive `hist[b] += 1` loop is limited not by ALU throughput but by
//! the store→load forwarding chain: consecutive increments of the *same*
//! bin must serialize through the store buffer, and real inputs (long
//! zero runs after bit-shuffling) hit exactly that worst case. The
//! classic fix — the same one FSE/zstd and the cuSZ Huffman build use —
//! is to count into several independent sub-tables so consecutive bytes
//! land in different tables, then merge once at the end. `Lanes4`
//! counts into 4 interleaved sub-tables, 8 bytes per iteration from one
//! `u64` load.

/// Four interleaved count tables for incremental accumulation — the
/// sampled estimator feeds its 64-byte windows through this so even the
/// sampling path avoids the single-table forwarding chain.
pub(crate) struct Lanes4 {
    t: [[u32; 256]; 4],
}

impl Lanes4 {
    pub(crate) fn new() -> Self {
        Lanes4 {
            t: [[0u32; 256]; 4],
        }
    }

    /// Count `bytes` into the four lanes.
    pub(crate) fn accumulate(&mut self, bytes: &[u8]) {
        let mut it = bytes.chunks_exact(8);
        for c in &mut it {
            let v = u64::from_le_bytes(c.try_into().expect("chunk of 8"));
            self.t[0][(v & 255) as usize] += 1;
            self.t[1][((v >> 8) & 255) as usize] += 1;
            self.t[2][((v >> 16) & 255) as usize] += 1;
            self.t[3][((v >> 24) & 255) as usize] += 1;
            self.t[0][((v >> 32) & 255) as usize] += 1;
            self.t[1][((v >> 40) & 255) as usize] += 1;
            self.t[2][((v >> 48) & 255) as usize] += 1;
            self.t[3][((v >> 56) & 255) as usize] += 1;
        }
        for (k, &b) in it.remainder().iter().enumerate() {
            self.t[k & 3][b as usize] += 1;
        }
    }

    /// Sum the lanes into `hist` (added to its current contents).
    pub(crate) fn merge_into(&self, hist: &mut [u32; 256]) {
        for (b, h) in hist.iter_mut().enumerate() {
            *h += self.t[0][b] + self.t[1][b] + self.t[2][b] + self.t[3][b];
        }
    }
}

/// Four byte histograms partitioned by position: `result[s]` counts the
/// bytes at positions `i ≡ s (mod 4)`. This is the `Huffman4` encoder's
/// sizing pass — the per-stream code-length totals (and the shared
/// frequency table, as the four-way sum) fall out of one counting pass,
/// because the 4-lane sub-tables *are* a positional partition: lane `k`
/// holds positions `i ≡ k (mod 4)` directly.
pub(crate) fn stride4_histograms(bytes: &[u8]) -> [[u32; 256]; 4] {
    let mut lanes = Lanes4::new();
    lanes.accumulate(bytes);
    lanes.t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(bytes: &[u8]) -> [u32; 256] {
        let mut h = [0u32; 256];
        for &b in bytes {
            h[b as usize] += 1;
        }
        h
    }

    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn stride4_histograms_match_the_reference_count() {
        let shapes: Vec<Vec<u8>> = vec![
            vec![],
            vec![7],
            vec![0; 4096],
            noise(1, 3),
            noise(15, 4),
            noise(16, 5),
            noise(17, 6),
            noise(100_003, 7),
            (0..=255).collect(),
        ];
        for raw in &shapes {
            let lanes = stride4_histograms(raw);
            for (s, lane) in lanes.iter().enumerate() {
                let stream: Vec<u8> = raw.iter().skip(s).step_by(4).copied().collect();
                assert_eq!(*lane, reference(&stream), "len {} lane {s}", raw.len());
            }
        }
    }

    #[test]
    fn lanes4_accumulates_incrementally() {
        let a = noise(77, 11);
        let b = noise(130, 12);
        let mut lanes = Lanes4::new();
        lanes.accumulate(&a);
        lanes.accumulate(&b);
        let mut got = [0u32; 256];
        lanes.merge_into(&mut got);
        let mut all = a.clone();
        all.extend_from_slice(&b);
        assert_eq!(got, reference(&all));
    }
}
