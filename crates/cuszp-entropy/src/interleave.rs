//! `Huffman4` — four interleaved canonical-Huffman bitstreams.
//!
//! The 1-way Huffman decoder is latency-bound, not throughput-bound: each
//! table lookup's *address* depends on the bit position left by the
//! previous lookup, so decode speed is one `L1-hit + shift` dependency
//! chain, ~5–6 cycles per symbol no matter how wide the core is. The
//! classic fix (Fabian Giesen's "reading bits in far too many ways";
//! the same shape cuSZ uses across GPU warps, here across issue ports)
//! is to split the symbols round-robin across N independent bitstreams
//! and run N decoders in one loop — the chains interleave in the
//! out-of-order window and per-symbol cost drops toward the reciprocal
//! throughput of the lookup.
//!
//! N = 4 is the sweet spot for this format: 4 chains of ~5 cycles
//! already cover the ~1-cycle reciprocal throughput of a load+shift
//! chain on any x86 this targets, while the header cost is only three
//! `u32` stream boundaries (the fourth ends at the chunk). N = 8 would
//! double that header for no additional latency hiding and spill the
//! reader state out of registers.
//!
//! ## Chunk layout (`Mode::Huffman4`, wire byte 4)
//!
//! ```text
//! [128 B packed-nibble code-length table]   — same table as Mode::Huffman
//! [3 × u32 LE: end0, end1, end2]            — byte offsets, relative to
//!                                             the streams region, of the
//!                                             ends of streams 0, 1, 2
//! [stream 0][stream 1][stream 2][stream 3]  — streams region
//! ```
//!
//! Stream `s` codes symbols `raw[i]` with `i % 4 == s`, each stream
//! MSB-first with zero padding in its final partial byte, exactly like
//! the 1-way bitstream. One shared code table covers all four streams —
//! symbol statistics do not depend on `i % 4` — so the only overhead
//! versus 1-way is the 12 offset bytes plus at most 3 extra partial-byte
//! paddings.
//!
//! ## Encoding
//!
//! Three steps, each with its own bench row (`chunk16k_histogram`,
//! `chunk16k_code_lengths`, `chunk16k_huffman4_write`): the stride-4
//! histograms, the code build over their sum ([`Codebook::build`]), and
//! the bit writing. The exact size of every stream is known from the
//! per-stream histograms before any byte is written; the header's
//! stream ends and the fall-back-to-`Pass` decision both need it.
//! Writing is then one pass over `raw` in 16-byte groups, each group
//! feeding four symbols to each of the four writers as one joined store
//! (see `huffman.rs`). Because the streams are written side by side
//! rather than one after another, each gets its own zeroed region
//! followed by 8 bytes of padding that takes its writer's spilled bytes;
//! `copy_within` closes the gaps once all four are done. The encoder
//! asserts each stream's final size against the precomputation, so a
//! wrong size can never leave a bad chunk behind. On the bench corpus's
//! `Huffman4` chunks (~3.7 KB) a chunk's encode costs ~3 µs of
//! histogram, ~3 µs of code build and ~6 µs of writing.
//!
//! Decode validates in a fixed order (header size → offsets monotone and
//! in-bounds → code-length table → per-stream bitstreams), so corrupt
//! frames fail with a typed [`EntropyError`] before any stream work.

use crate::huffman::{
    parse_lens_table, push_lens_table, BitReader, Codebook, DecodeTable, WideWriter,
    HUFFMAN_TABLE_BYTES, WRITE_SLACK,
};
use crate::{histogram, EntropyError};

/// Number of interleaved bitstreams in a `Huffman4` chunk.
pub const HUFFMAN4_STREAMS: usize = 4;

/// Fixed header of a `Huffman4` chunk: the 128-byte code-length table
/// plus three little-endian `u32` stream-end offsets.
pub const HUFFMAN4_HEADER_BYTES: usize = HUFFMAN_TABLE_BYTES + 12;

/// Append the `Huffman4` coding of `raw` (header + 4 streams) to `out`
/// **iff** it is strictly smaller than `raw`; returns whether it was
/// appended. Stream sizes are computed from the code lengths before any
/// byte is written, so a losing encode costs the histogram pass only.
pub(crate) fn encode(raw: &[u8], out: &mut Vec<u8>) -> bool {
    debug_assert!(!raw.is_empty());
    // One counting pass yields both the shared frequency table and the
    // exact per-stream bit totals: the 4-lane histogram's lanes are
    // already a positional partition, so no separate length-summing
    // sweep over `raw` is needed.
    let lanes = histogram::stride4_histograms(raw);
    let freq: [u32; 256] =
        std::array::from_fn(|b| lanes[0][b] + lanes[1][b] + lanes[2][b] + lanes[3][b]);
    write(raw, &lanes, &Codebook::build(&freq), out)
}

/// The `Huffman4` encoder's last step, the bit writing: append `raw`
/// coded with `book`, whose `lanes` are `raw`'s stride-4 histograms,
/// iff that is strictly smaller than `raw`; returns whether it was
/// appended. [`crate::encode_chunk`] with `Huffman4` is the three steps
/// in a row, plus the fall-back to `Pass`.
pub fn write(
    raw: &[u8],
    lanes: &[[u32; 256]; HUFFMAN4_STREAMS],
    book: &Codebook,
    out: &mut Vec<u8>,
) -> bool {
    let lens = book.lens();
    let bits: [u64; HUFFMAN4_STREAMS] = std::array::from_fn(|s| {
        lanes[s]
            .iter()
            .zip(lens.iter())
            .map(|(&f, &l)| u64::from(f) * u64::from(l))
            .sum()
    });
    let sizes: [u64; HUFFMAN4_STREAMS] = std::array::from_fn(|s| bits[s].div_ceil(8));
    let region: u64 = sizes.iter().sum();
    if HUFFMAN4_HEADER_BYTES as u64 + region >= raw.len() as u64 {
        return false;
    }

    let mark = out.len();
    out.reserve(HUFFMAN4_HEADER_BYTES + region as usize + HUFFMAN4_STREAMS * WRITE_SLACK);
    push_lens_table(lens, out);
    let mut end = 0u64;
    for &sz in sizes.iter().take(3) {
        end += sz;
        out.extend_from_slice(&(end as u32).to_le_bytes());
    }

    // One pass over 16-byte groups: a group holds four symbols of each
    // stream (stream `s` takes bytes `s, s+4, s+8, s+12`), so each of the
    // four writers makes one joined store per group. Each stream gets its
    // own region followed by `WRITE_SLACK` bytes of padding, where its
    // stores spill; the regions are closed up afterwards. The writers
    // stay scalar locals so their state lives in registers.
    let base = out.len();
    let sizes = sizes.map(|sz| sz as usize);
    let mut starts = [0usize; HUFFMAN4_STREAMS];
    let mut at = base;
    for (start, &sz) in starts.iter_mut().zip(&sizes) {
        *start = at;
        at += sz + WRITE_SLACK;
    }
    out.resize(at, 0);
    let buf = &mut out[..];
    let mut w0 = WideWriter::at(starts[0]);
    let mut w1 = WideWriter::at(starts[1]);
    let mut w2 = WideWriter::at(starts[2]);
    let mut w3 = WideWriter::at(starts[3]);
    let mut groups = raw.chunks_exact(4 * HUFFMAN4_STREAMS);
    for g in &mut groups {
        let (bits, len) = book.join4(g[0], g[4], g[8], g[12]);
        w0.put(bits, len, buf);
        let (bits, len) = book.join4(g[1], g[5], g[9], g[13]);
        w1.put(bits, len, buf);
        let (bits, len) = book.join4(g[2], g[6], g[10], g[14]);
        w2.put(bits, len, buf);
        let (bits, len) = book.join4(g[3], g[7], g[11], g[15]);
        w3.put(bits, len, buf);
    }
    // The < 16 trailing bytes start at a multiple of 16, so byte `k` of
    // the remainder belongs to stream `k % 4`.
    let rem = groups.remainder();
    macro_rules! tail {
        ($w:ident, $s:expr) => {
            for &b in rem.iter().skip($s).step_by(HUFFMAN4_STREAMS) {
                let (bits, len) = book.code(b);
                $w.put(bits, len, buf);
            }
        };
    }
    tail!(w0, 0);
    tail!(w1, 1);
    tail!(w2, 2);
    tail!(w3, 3);

    // Close the gaps between regions, checking every stream's size
    // against the precomputation the header and the Pass fall-back used.
    let mut dst = base;
    for (s, w) in [w0, w1, w2, w3].iter().enumerate() {
        assert_eq!(w.end(), starts[s] + sizes[s], "stream size precomputation");
        out.copy_within(starts[s]..starts[s] + sizes[s], dst);
        dst += sizes[s];
    }
    out.truncate(dst);
    debug_assert!(out.len() - mark < raw.len());
    true
}

/// Decode a `Huffman4` chunk into `out` (whose length is the chunk's
/// recorded raw length), building the shared decode table in `table`.
/// Every malformation is a typed [`EntropyError`]; no input panics.
pub(crate) fn decode(
    comp: &[u8],
    out: &mut [u8],
    table: &mut DecodeTable,
) -> Result<(), EntropyError> {
    if comp.len() < HUFFMAN4_HEADER_BYTES {
        return Err(EntropyError("huffman4 header truncated"));
    }
    let region = &comp[HUFFMAN4_HEADER_BYTES..];
    let mut ends = [0usize; HUFFMAN4_STREAMS];
    for (s, end) in ends.iter_mut().take(3).enumerate() {
        let at = HUFFMAN_TABLE_BYTES + 4 * s;
        *end = u32::from_le_bytes(comp[at..at + 4].try_into().expect("header sized")) as usize;
    }
    ends[3] = region.len();
    if ends[0] > ends[1] || ends[1] > ends[2] || ends[2] > ends[3] {
        return Err(EntropyError("huffman4 stream offsets out of order"));
    }

    let code = parse_lens_table(&comp[..HUFFMAN_TABLE_BYTES])?;
    if out.is_empty() {
        return if region.is_empty() {
            Ok(())
        } else {
            Err(EntropyError("huffman trailing bytes"))
        };
    }
    if code.coded() == 0 {
        return Err(EntropyError("huffman table empty"));
    }
    let tab = table.build(&code, out.len() >= DecodeTable::GRAFT_MIN_SYMBOLS);

    let n = out.len();
    let streams: [&[u8]; HUFFMAN4_STREAMS] =
        std::array::from_fn(|s| &region[if s == 0 { 0 } else { ends[s - 1] }..ends[s]]);

    // Per-stream state as scalar locals: an indexed `[BitReader; 4]`
    // keeps the whole state in memory (the compiler cannot promote an
    // array that is re-indexed each round to registers), which chains
    // the four decoders through store-to-load forwarding and erases the
    // ILP this mode exists for. `step!` is one refill + lookup + store
    // for one stream; the four expansions per round carry no data
    // dependencies on each other.
    let (bits0, bits1, bits2, bits3) = (streams[0], streams[1], streams[2], streams[3]);
    let (mut acc0, mut have0, mut next0, mut idx0) = (0u64, 0u32, 0usize, 0usize);
    let (mut acc1, mut have1, mut next1, mut idx1) = (0u64, 0u32, 0usize, 1usize);
    let (mut acc2, mut have2, mut next2, mut idx2) = (0u64, 0u32, 0usize, 2usize);
    let (mut acc3, mut have3, mut next3, mut idx3) = (0u64, 0u32, 0usize, 3usize);

    const MAX: u32 = crate::HUFFMAN_MAX_CODE_LEN;
    macro_rules! step {
        ($acc:ident, $have:ident, $next:ident, $idx:ident, $rem:ident, $bits:ident,
         $( $guard:tt )*) => {{
            if $have < MAX {
                if $next + 4 <= $bits.len() {
                    let w = u32::from_be_bytes(
                        $bits[$next..$next + 4].try_into().expect("bounds checked"),
                    );
                    $acc = ($acc << 32) | u64::from(w);
                    $next += 4;
                    $have += 32;
                } else {
                    while $have < MAX && $next < $bits.len() {
                        $acc = ($acc << 8) | u64::from($bits[$next]);
                        $next += 1;
                        $have += 8;
                    }
                }
            }
            let peek = if $have >= MAX {
                ($acc >> ($have - MAX)) as usize & (crate::huffman::TABLE_SIZE - 1)
            } else {
                (($acc << (MAX - $have)) as usize) & (crate::huffman::TABLE_SIZE - 1)
            };
            let e = tab[peek];
            if e == 0 {
                return Err(EntropyError("invalid huffman code"));
            }
            let ltot = (e >> 20) & 0x1F;
            if e & (1 << 25) != 0 && ltot <= $have $( $guard )* {
                out[$idx] = e as u8;
                out[$idx + 4] = (e >> 8) as u8;
                $idx += 8;
                $rem -= 2;
                $have -= ltot;
            } else {
                let l1 = (e >> 16) & 0xF;
                if l1 > $have {
                    return Err(EntropyError("huffman bitstream truncated"));
                }
                out[$idx] = e as u8;
                $idx += 4;
                $rem -= 1;
                $have -= l1;
            }
        }};
    }

    // Fast interleaved loop: branchless refill (Giesen-style — one
    // unconditional 8-byte big-endian load per lookup, accumulator
    // left-aligned so the next bit is bit 63) and an unconditional
    // two-byte store per lookup. The refill-needed and 1-vs-2-symbol
    // branches of the careful `step!` path are data-dependent; their
    // mispredicts flush the pipeline and stall all four chains at once,
    // which is why the interleave shows no win without this. Here the
    // only per-round branches are the loop bound (predictable) and the
    // rare invalid-code exit.
    //
    // Safety of the shortcuts, per stream and round:
    // * `next + 8 ≤ len` ⇒ every loaded byte is real stream data, and
    //   `have ≥ 56 − 12 ≥ 44` after any consume, so `ltot ≤ 12 ≤ have`
    //   always — the truncation check is vacuous in this loop.
    // * `idx < n − 4` ⇒ symbols `idx` and `idx + 4` both exist, so the
    //   second store is in bounds (and the compiler can see it is, from
    //   the loop condition); for a 1-symbol entry it writes a
    //   placeholder the next store to that slot overwrites.
    // * An entry consumes `ltot` bits whether it carries one symbol or
    //   two (1-symbol entries have `ltot == l1`).
    //
    // The fast loop deliberately carries no `rem` counters: sixteen
    // mutable locals already fill the GPR file, and the position limit
    // `idx < lim` answers "≥ 2 symbols left" for free.
    macro_rules! fast_step {
        ($acc:ident, $have:ident, $next:ident, $idx:ident, $bits:ident) => {{
            let w = u64::from_be_bytes($bits[$next..$next + 8].try_into().expect("bounds checked"));
            $acc |= w >> $have;
            $next += ((63 - $have) >> 3) as usize;
            $have |= 56;
            let e = tab[($acc >> (64 - MAX)) as usize];
            if e == 0 {
                return Err(EntropyError("invalid huffman code"));
            }
            let ltot = (e >> 20) & 0x1F;
            out[$idx] = e as u8;
            out[$idx + 4] = (e >> 8) as u8;
            $idx += 4 + 4 * ((e >> 25) & 1) as usize;
            $acc <<= ltot;
            $have -= ltot;
        }};
    }
    // Wide rounds first: one branchless refill buys ≥ 56 bits, and a
    // lookup consumes ≤ 12, so four lookups per stream run between
    // refills (before lookup j the stream still holds ≥ 56 − 12j ≥ 20
    // bits). This amortizes the refill and the loop conditions 4×.
    // Guards, per stream and round: `next + 8 ≤ len` covers the round's
    // single load, and `idx < n − 28` keeps every sub-lookup's
    // unconditional two-byte store in bounds (the cursor grows ≤ 8 per
    // lookup, so it is < n − 4 even before the fourth).
    macro_rules! refill {
        ($acc:ident, $have:ident, $next:ident, $bits:ident) => {{
            let w = u64::from_be_bytes($bits[$next..$next + 8].try_into().expect("bounds checked"));
            $acc |= w >> $have;
            $next += ((63 - $have) >> 3) as usize;
            $have |= 56;
        }};
    }
    macro_rules! lookup {
        ($acc:ident, $have:ident, $idx:ident) => {{
            let e = tab[($acc >> (64 - MAX)) as usize];
            if e == 0 {
                return Err(EntropyError("invalid huffman code"));
            }
            let ltot = (e >> 20) & 0x1F;
            out[$idx] = e as u8;
            out[$idx + 4] = (e >> 8) as u8;
            $idx += 4 + 4 * ((e >> 25) & 1) as usize;
            $acc <<= ltot;
            $have -= ltot;
        }};
    }
    let wide = n.saturating_sub(28);
    while idx0 < wide
        && idx1 < wide
        && idx2 < wide
        && idx3 < wide
        && next0 + 8 <= bits0.len()
        && next1 + 8 <= bits1.len()
        && next2 + 8 <= bits2.len()
        && next3 + 8 <= bits3.len()
    {
        refill!(acc0, have0, next0, bits0);
        refill!(acc1, have1, next1, bits1);
        refill!(acc2, have2, next2, bits2);
        refill!(acc3, have3, next3, bits3);
        lookup!(acc0, have0, idx0);
        lookup!(acc1, have1, idx1);
        lookup!(acc2, have2, idx2);
        lookup!(acc3, have3, idx3);
        lookup!(acc0, have0, idx0);
        lookup!(acc1, have1, idx1);
        lookup!(acc2, have2, idx2);
        lookup!(acc3, have3, idx3);
        lookup!(acc0, have0, idx0);
        lookup!(acc1, have1, idx1);
        lookup!(acc2, have2, idx2);
        lookup!(acc3, have3, idx3);
        lookup!(acc0, have0, idx0);
        lookup!(acc1, have1, idx1);
        lookup!(acc2, have2, idx2);
        lookup!(acc3, have3, idx3);
    }
    let lim = n.saturating_sub(4);
    while idx0 < lim
        && idx1 < lim
        && idx2 < lim
        && idx3 < lim
        && next0 + 8 <= bits0.len()
        && next1 + 8 <= bits1.len()
        && next2 + 8 <= bits2.len()
        && next3 + 8 <= bits3.len()
    {
        fast_step!(acc0, have0, next0, idx0, bits0);
        fast_step!(acc1, have1, next1, idx1, bits1);
        fast_step!(acc2, have2, next2, idx2, bits2);
        fast_step!(acc3, have3, next3, idx3, bits3);
    }
    // Convert each left-aligned accumulator back to the low-aligned form
    // the careful tail expects. The counted bits and the consumed-bit
    // total (8·next − have) are identical in both forms, so the tail's
    // exact end-of-stream checks are unaffected. Outstanding symbol
    // counts are recovered from the positions: stream `s` still owes the
    // positions `idx, idx+4, …` below `n`.
    acc0 = if have0 > 0 { acc0 >> (64 - have0) } else { 0 };
    acc1 = if have1 > 0 { acc1 >> (64 - have1) } else { 0 };
    acc2 = if have2 > 0 { acc2 >> (64 - have2) } else { 0 };
    acc3 = if have3 > 0 { acc3 >> (64 - have3) } else { 0 };
    let mut rem0 = n.saturating_sub(idx0).div_ceil(4);
    let mut rem1 = n.saturating_sub(idx1).div_ceil(4);
    let mut rem2 = n.saturating_sub(idx2).div_ceil(4);
    let mut rem3 = n.saturating_sub(idx3).div_ceil(4);
    // Tail: remaining per-stream symbol counts differ by at most 2; the
    // two-symbol fast path now also needs `rem ≥ 2` so the final odd
    // symbol is not overshot.
    macro_rules! tail {
        ($acc:ident, $have:ident, $next:ident, $idx:ident, $rem:ident, $bits:ident) => {{
            while $rem > 0 {
                step!($acc, $have, $next, $idx, $rem, $bits, &&$rem >= 2);
            }
            let fin = BitReader {
                acc: $acc,
                have: $have,
                next: $next,
            };
            fin.finish($bits)?;
        }};
    }
    tail!(acc0, have0, next0, idx0, rem0, bits0);
    tail!(acc1, have1, next1, idx1, rem1, bits1);
    tail!(acc2, have2, next2, idx2, rem2, bits2);
    tail!(acc3, have3, next3, idx3, rem3, bits3);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn skewed(len: usize, seed: u64) -> Vec<u8> {
        noise(len, seed)
            .into_iter()
            .map(|b| if b < 200 { 0 } else { b & 0x07 })
            .collect()
    }

    fn roundtrip(raw: &[u8]) -> Option<Vec<u8>> {
        let mut comp = Vec::new();
        if !encode(raw, &mut comp) {
            return None;
        }
        assert!(comp.len() < raw.len());
        let mut back = vec![0xA5u8; raw.len()];
        decode(&comp, &mut back, &mut DecodeTable::new()).unwrap();
        assert_eq!(back, raw);
        Some(comp)
    }

    #[test]
    fn skewed_bytes_roundtrip_at_every_length_mod_4() {
        for extra in 0..4usize {
            let raw = skewed(8192 + extra, 21 + extra as u64);
            roundtrip(&raw).expect("skewed data must compress");
        }
    }

    #[test]
    fn tiny_and_degenerate_inputs() {
        // Tiny inputs lose to the 140-byte header and refuse; constant
        // input compresses enormously (~n/8 bits per stream).
        for n in 1..12usize {
            let mut comp = Vec::new();
            assert!(!encode(&vec![1u8; n], &mut comp));
            assert!(comp.is_empty());
        }
        roundtrip(&vec![200u8; 4096]).expect("constant input wins");
    }

    #[test]
    fn uniform_bytes_refuse_to_encode() {
        let raw = noise(4096, 77);
        let mut comp = Vec::new();
        assert!(!encode(&raw, &mut comp));
    }

    #[test]
    fn corruption_is_typed_on_every_prefix() {
        let raw = skewed(20_000, 9);
        let comp = roundtrip(&raw).unwrap();
        let mut out = vec![0u8; raw.len()];
        // One table across every prefix: a table a failed decode left
        // behind must not make the next one succeed.
        let mut tab = DecodeTable::new();
        for cut in 0..comp.len() {
            assert!(
                decode(&comp[..cut], &mut out, &mut tab).is_err(),
                "prefix of {cut} bytes must fail"
            );
        }
        // Trailing bytes (growing any one stream) must also fail.
        let mut long = comp;
        long.push(0);
        assert!(decode(&long, &mut out, &mut tab).is_err());
    }

    #[test]
    fn offset_corruption_is_typed() {
        let raw = skewed(20_000, 13);
        let comp = roundtrip(&raw).unwrap();
        let mut out = vec![0u8; raw.len()];
        for at in 0..3usize {
            // Out-of-order / out-of-bounds stream ends.
            let mut bad = comp.clone();
            bad[HUFFMAN_TABLE_BYTES + 4 * at..HUFFMAN_TABLE_BYTES + 4 * at + 4]
                .copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(decode(&bad, &mut out, &mut DecodeTable::new()).is_err());
            let mut bad = comp.clone();
            bad[HUFFMAN_TABLE_BYTES + 4 * at..HUFFMAN_TABLE_BYTES + 4 * at + 4]
                .copy_from_slice(&0u32.to_le_bytes());
            // Zeroing an end either reorders offsets or truncates a
            // stream — both must be typed errors (stream 0 may legally
            // be empty only when it codes zero symbols).
            assert!(decode(&bad, &mut out, &mut DecodeTable::new()).is_err());
        }
    }

    #[test]
    fn padding_corruption_is_typed() {
        let raw = skewed(20_000, 17);
        let comp = roundtrip(&raw).unwrap();
        let mut out = vec![0u8; raw.len()];
        // Flip the lowest bit of each stream's final byte: if the
        // encoder left padding bits there, decode must reject it.
        let region = HUFFMAN4_HEADER_BYTES;
        let mut ends = [0usize; 4];
        for (s, end) in ends.iter_mut().take(3).enumerate() {
            let at = HUFFMAN_TABLE_BYTES + 4 * s;
            *end = u32::from_le_bytes(comp[at..at + 4].try_into().unwrap()) as usize;
        }
        ends[3] = comp.len() - region;
        let mut rejected = 0;
        for &end in &ends {
            let mut bad = comp.clone();
            bad[region + end - 1] ^= 1;
            if decode(&bad, &mut out, &mut DecodeTable::new()).is_err() {
                rejected += 1;
            }
        }
        // A flipped low bit is either nonzero padding (typed) or a
        // changed final code (caught by the per-stream end checks) —
        // but a final code of trailing zeros could legally absorb it,
        // so just require that most streams reject.
        assert!(rejected >= 2, "only {rejected}/4 streams rejected");
    }

    #[test]
    fn empty_output_rules() {
        let mut header = vec![0u8; HUFFMAN4_HEADER_BYTES];
        let mut none: [u8; 0] = [];
        let mut tab = DecodeTable::new();
        decode(&header, &mut none, &mut tab).unwrap();
        let mut one = [0u8; 1];
        assert_eq!(
            decode(&header, &mut one, &mut tab),
            Err(EntropyError("huffman table empty"))
        );
        header.push(0);
        let mut none: [u8; 0] = [];
        assert!(decode(&header, &mut none, &mut tab).is_err());
    }
}
