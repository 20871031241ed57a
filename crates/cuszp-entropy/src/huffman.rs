//! Canonical, length-limited Huffman coding over bytes.
//!
//! Every Huffman chunk starts with a 128-byte packed-nibble code-length
//! table (one 4-bit length per symbol, low nibble = even symbol); a
//! one-stream `Huffman` chunk, which only earlier encoders wrote, follows
//! it with one MSB-first bitstream, a `Huffman4` chunk with four (see
//! `interleave.rs`). Lengths are capped at
//! [`HUFFMAN_MAX_CODE_LEN`] = 12 bits so the decoder is a single lookup
//! into a 4096-entry table — the table-driven decode the hybrid frame's
//! throughput numbers depend on. Codes are *canonical*: the lengths fully
//! determine the codebook (assigned in `(length, symbol)` order), so the
//! table is the entire header and encoder and decoder can never disagree
//! on code values.
//!
//! Hybrid chunks are small (a 64 KiB store chunk becomes one entropy
//! chunk of ~6–12 KB), so every per-chunk fixed cost and every
//! per-symbol instruction shows up in end-to-end write and read times.
//! Each stage is shaped for that size:
//!
//! * **Code lengths and codes, one pass.** [`Codebook::build`] orders
//!   the coded symbols by `(freq, symbol)` — a counting sort for the
//!   many rare symbols, a sort of packed `freq << 16 | symbol` keys for
//!   the few common ones — and runs the classic two-queue merge. Each
//!   merge step reads the first two entries of both queues at once and
//!   picks its pair with two compares, so the steps chain only through
//!   the queue positions, not through a load per pick. The leaves come
//!   out of the merge in runs of equal depth, longest first, so the
//!   per-length counts are run ends, not a counter per leaf. Capping at
//!   12 bits can overfill the Kraft sum; the repair then deepens the
//!   longest under-limit code, lowest symbol first, until the lengths
//!   are prefix-decodable again, building a length's 256-bit membership
//!   set only when a repair step first needs it (most chunks need
//!   none). The canonical codes are assigned from the counts in the same
//!   call. Everything runs in fixed-size stack arrays — no allocation,
//!   no recursion. On the `chunk16k_*` bench corpus
//!   (`crates/bench/benches/entropy.rs`; Intel Xeon, 2 vCPUs, shared
//!   host) the build takes ~3 µs per chunk, against ~7 µs for the
//!   standalone lengths-then-codes build it replaced.
//! * **Writer.** [`WideWriter`] joins the codes of four symbols (≤ 48
//!   bits) into one branchless 8-byte store instead of storing once per
//!   symbol. It keeps no accumulator: the ≤ 7 bits of its last partial
//!   byte are read back from the buffer by the next store, so a writer
//!   is one bit cursor, and the `Huffman4` encoder's four writers stay
//!   in registers beside the loop's pointers instead of being spilled to
//!   the stack on every store.
//! * **Decode table.** One pass over the 128-byte header unpacks,
//!   validates and counts the lengths; a counting sort puts the codes in
//!   canonical order. Canonical codes tile the 12-bit prefixes from zero
//!   without gaps, so each code's run of prefixes starts where the
//!   previous one ended — no code values are computed. Each run starts
//!   with the two-symbol entries for the codes that fit after it, then
//!   the one-symbol entry fills the rest, and prefixes no code starts
//!   are reset to the invalid marker, last. Every run is written with
//!   whole 8-entry stores instead of a `fill` of runtime length (a
//!   store-sized chunk has hundreds of runs, many 1–4 entries long);
//!   what a store spills past its run is
//!   overwritten by the later runs or lands in the table's 32-byte pad.
//!   The table is the caller's [`DecodeTable`], rebuilt in place per
//!   chunk, so no chunk pays for zeroing or copying 16 KiB. On the
//!   `chunk16k_*` bench corpus (`crates/bench/benches/entropy.rs`, 70
//!   `Huffman4` chunks; Intel Xeon, 2 vCPUs, shared host, pinned) a
//!   build takes ~2.0 µs per chunk with the graft and ~1.1 µs without.
//! * **Decoder.** A **multi-symbol** table (Fabian Giesen's "reading
//!   bits in far too many ways" construction): each 12-bit prefix entry
//!   carries up to two decoded symbols when both codes fit the window, so
//!   skewed chunks — short codes, exactly the ones the estimator routes
//!   here — emit two bytes per table hit. One branchless refill buys
//!   ≥ 56 bits, enough for four lookups, so the loop refills once per
//!   four lookups. The same table drives the four interleaved streams of
//!   [`crate::Mode::Huffman4`] (see `interleave.rs`).

use crate::EntropyError;

/// Size of the packed-nibble code-length table that heads every chunk.
pub const HUFFMAN_TABLE_BYTES: usize = 128;

/// Maximum code length in bits; also the decode-table index width.
pub const HUFFMAN_MAX_CODE_LEN: u32 = 12;

pub(crate) const LIMIT: u8 = HUFFMAN_MAX_CODE_LEN as u8;
pub(crate) const TABLE_SIZE: usize = 1 << HUFFMAN_MAX_CODE_LEN;

/// Bytes a [`WideWriter`] region needs past its stream's end: a store
/// runs at most 7 bytes past the final (partial) byte, and 8 keeps the
/// padding a whole word.
pub(crate) const WRITE_SLACK: usize = 8;

/// Encoder view of the canonical code: per-symbol lengths and code
/// values, in two tables. A symbol's code and length are two loads
/// with no unpacking, which measured ~8 % faster in the bit-writing loop
/// than one packed `code << 4 | len` entry per symbol: loads are cheaper
/// there than the shift and mask that split a packed entry.
#[doc(hidden)]
#[derive(Clone)]
pub struct Codebook {
    lens: [u8; 256],
    codes: [u16; 256],
}

impl Codebook {
    /// Per-symbol code lengths, 0 for an absent symbol.
    pub fn lens(&self) -> &[u8; 256] {
        &self.lens
    }

    /// Per-symbol canonical code values (right-aligned), 0 for an
    /// absent symbol.
    pub fn codes(&self) -> &[u16; 256] {
        &self.codes
    }

    /// One symbol's code (right-aligned) and length.
    #[inline(always)]
    pub(crate) fn code(&self, b: u8) -> (u64, u32) {
        (
            u64::from(self.codes[usize::from(b)]),
            u32::from(self.lens[usize::from(b)]),
        )
    }

    /// The codes of `a, b, c, d` joined in that order (≤ 48 bits,
    /// right-aligned) and their total length. The two halves join
    /// independently, so the chain is two shifts deep, not three.
    #[inline(always)]
    pub(crate) fn join4(&self, a: u8, b: u8, c: u8, d: u8) -> (u64, u32) {
        let (ca, la) = self.code(a);
        let (cb, lb) = self.code(b);
        let (cc, lc) = self.code(c);
        let (cd, ld) = self.code(d);
        let hi = ca << lb | cb;
        let lo = cc << ld | cd;
        (hi << (lc + ld) | lo, la + lb + lc + ld)
    }
}

/// Append the packed-nibble form of `lens` (low nibble = even symbol).
pub(crate) fn push_lens_table(lens: &[u8; 256], out: &mut Vec<u8>) {
    let packed: [u8; HUFFMAN_TABLE_BYTES] =
        std::array::from_fn(|i| lens[2 * i] | lens[2 * i + 1] << 4);
    out.extend_from_slice(&packed);
}

/// A chunk's code lengths, unpacked from its 128-byte nibble table and
/// validated: every length ≤ [`LIMIT`] and the Kraft sum ≤ 1. Only
/// [`parse_lens_table`] makes one, so [`DecodeTable::build`] never sees
/// an overfull code.
pub(crate) struct CodeLengths {
    lens: [u8; 256],
    /// Symbols per length; index 0 counts the absent symbols, and the
    /// over-limit lengths 13–15 count none.
    count: [u16; 16],
}

impl CodeLengths {
    /// Number of coded symbols (0 for an empty table — legal only when
    /// nothing is to be decoded; the caller enforces that).
    pub(crate) fn coded(&self) -> usize {
        256 - usize::from(self.count[0])
    }

    /// Per-symbol lengths, 0 for an absent symbol.
    #[cfg(test)]
    pub(crate) fn lens(&self) -> &[u8; 256] {
        &self.lens
    }
}

/// Unpack a 128-byte nibble table and validate the global invariants
/// shared by the 1-way and 4-way chunk forms, in one pass over the bytes
/// that also counts the symbols per length (the counting sort
/// [`DecodeTable::build`] orders the codes with). An over-limit length
/// is reported before an overfull Kraft sum.
pub(crate) fn parse_lens_table(table: &[u8]) -> Result<CodeLengths, EntropyError> {
    debug_assert_eq!(table.len(), HUFFMAN_TABLE_BYTES);
    let mut lens = [0u8; 256];
    // One count array per nibble, so consecutive equal lengths do not
    // chain every increment through one counter.
    let mut lo_count = [0u16; 16];
    let mut hi_count = [0u16; 16];
    for (pair, &b) in lens.chunks_exact_mut(2).zip(table) {
        let (lo, hi) = (b & 0x0F, b >> 4);
        pair[0] = lo;
        pair[1] = hi;
        lo_count[usize::from(lo)] += 1;
        hi_count[usize::from(hi)] += 1;
    }
    let count: [u16; 16] = std::array::from_fn(|l| lo_count[l] + hi_count[l]);
    if count[LIMIT as usize + 1..].iter().any(|&c| c > 0) {
        return Err(EntropyError("huffman code length exceeds limit"));
    }
    let kraft: u32 = (1..=LIMIT)
        .map(|l| u32::from(count[l as usize]) << (LIMIT - l))
        .sum();
    if count[0] < 256 && kraft > 1 << LIMIT {
        return Err(EntropyError("huffman table overfull"));
    }
    Ok(CodeLengths { lens, count })
}

/// Entries a build may write past the table: every run is filled with
/// whole stores of this many entries.
const STORE: usize = 8;

/// Flat multi-symbol decode table over 12-bit prefixes, owned by the
/// caller and rebuilt in place for every Huffman chunk.
///
/// Entry layout (`u32`): bits 0–7 first symbol, 8–15 second symbol,
/// 16–19 first code's length, 20–24 total consumed bits, bit 25 set when
/// the entry carries two symbols. A zero entry marks a prefix no valid
/// stream can produce.
///
/// The 16 KiB of entries, plus a 32-byte pad, are allocated on first use
/// (or by [`DecodeTable::warm`]) and reused by every later build, so a
/// decode loop pays neither a fresh zeroed array nor a by-value copy per
/// chunk. A build fills each run of equal entries with whole 8-entry
/// stores; a store may spill up to 7 entries past its run, into the next
/// run (written later, since runs go in ascending order) or into the
/// pad. Every build writes all 4096 entries — prefixes that no code
/// covers (Kraft sum < 1) are reset to the invalid marker, last — so a
/// table left over from an earlier chunk can never decode a later one
/// differently.
#[derive(Debug, Clone, Default)]
pub struct DecodeTable {
    entries: Option<Box<[u32; TABLE_SIZE + STORE]>>,
}

impl DecodeTable {
    /// Outputs below this many bytes skip the two-symbol graft: it costs
    /// a step per pair of codes that fit the window together (hundreds
    /// on skewed chunks), which only pays for itself once the symbol
    /// loop it accelerates is long enough. Tables with and without the
    /// graft decode to identical bytes — the flag trades build time
    /// against per-lookup yield, never output.
    ///
    /// The graft costs ~1 µs per chunk (the gap between the
    /// `chunk16k_decode_table` and `chunk16k_decode_table_nograft`
    /// rows) and pays from about a thousand symbols on: three
    /// alternating pinned rounds of `chunk16k_decode` at floors 0, 256,
    /// 512, 1024, 2048 and 4096 gave best passes of 467, 517, 460, 463,
    /// 488 and 541 µs — 0 to 1024 within the host's noise, 4096
    /// slower.
    pub(crate) const GRAFT_MIN_SYMBOLS: usize = 1024;

    /// An empty table; its entries are allocated by the first build.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate the entries now, so the first Huffman decode through
    /// this table touches the heap zero times.
    pub fn warm(&mut self) {
        self.slots();
    }

    /// Bytes currently held (diagnostic).
    pub fn capacity_bytes(&self) -> usize {
        self.entries
            .as_ref()
            .map_or(0, |e| std::mem::size_of_val(&**e))
    }

    fn slots(&mut self) -> &mut [u32; TABLE_SIZE + STORE] {
        self.entries.get_or_insert_with(|| {
            vec![0u32; TABLE_SIZE + STORE]
                .into_boxed_slice()
                .try_into()
                .expect("table size")
        })
    }

    /// Build the table for `code` and return its entries. `two_symbol`
    /// enables the two-symbol graft.
    pub(crate) fn build(&mut self, code: &CodeLengths, two_symbol: bool) -> &[u32; TABLE_SIZE] {
        // The symbols in canonical `(length, symbol)` order, by a
        // counting sort on the length. Absent symbols sort first and are
        // dropped, so the pass takes no branch. Each slot holds `symbol |
        // length << 16`, the one-symbol entry without its total length.
        let mut at = [0usize; 16];
        let mut sum = 0usize;
        for (start, &c) in at.iter_mut().zip(&code.count) {
            *start = sum;
            sum += usize::from(c);
        }
        let mut order = [0u32; 256];
        for (s, &l) in code.lens.iter().enumerate() {
            let slot = &mut at[usize::from(l)];
            order[*slot] = s as u32 | u32::from(l) << 16;
            *slot += 1;
        }
        // `at[l]` now ends length `l`: the codes no longer than `room`
        // bits are the first `at[room] − count[0]` of `order`.
        let absent = usize::from(code.count[0]);
        let order = &order[absent..];

        // Canonical codes taken in order tile the prefixes from zero
        // without gaps, so each code owns the run of 2^(12 − l1)
        // prefixes starting where the previous one ended. With the
        // graft, the run splits in two. After the first code c1 (l1
        // bits), the window's other 12 − l1 bits start with a second
        // code c2 (l2 bits) exactly on the prefixes `c1 ++ c2 ++ x`,
        // 2^(12 − l1 − l2) of them. Those second codes tile the head of
        // the run the same way, shortest first, each with a two-symbol
        // entry. The tail — second codes too long for the window, or
        // prefixes no code starts — keeps the one-symbol entry. Runs go
        // in ascending order, so what a store spills past its run is
        // overwritten by a later run or by the closing invalid fill.
        let shortest = order.first().map_or(0, |&t| t >> 16);
        let entries = self.slots();
        let mut covered = 0usize;
        for &t1 in order {
            let l1 = t1 >> 16;
            let room = HUFFMAN_MAX_CODE_LEN - l1;
            let end = covered + (1 << room);
            let mut from = covered;
            if two_symbol && room >= shortest {
                let head = t1 | l1 << 20 | 1 << 25;
                for &t2 in &order[..at[room as usize] - absent] {
                    let l2 = t2 >> 16;
                    let to = from + (1 << (room - l2));
                    fill_run(entries, from, to, head + ((t2 & 0xFF) << 8) + (l2 << 20));
                    from = to;
                }
            }
            fill_run(entries, from, end, t1 | l1 << 20);
            covered = end;
        }
        // What an incomplete code leaves uncovered must read as invalid,
        // whatever an earlier build put there.
        fill_run(entries, covered, TABLE_SIZE, 0);
        entries.first_chunk().expect("table size")
    }
}

/// Fill `entries[from..to]` with `v` in whole [`STORE`]-entry stores,
/// spilling up to `STORE − 1` entries past `to`. `to ≤ TABLE_SIZE`
/// keeps every store inside the pad.
#[inline(always)]
fn fill_run(entries: &mut [u32; TABLE_SIZE + STORE], from: usize, to: usize, v: u32) {
    debug_assert!(from <= to && to <= TABLE_SIZE, "run inside the table");
    let mut k = from;
    while k < to {
        entries[k..k + STORE].copy_from_slice(&[v; STORE]);
        k += STORE;
    }
}

/// Branchless MSB-first bit writer over a pre-sized, zeroed region of a
/// byte buffer. Every `put` unconditionally stores 8 big-endian bytes at
/// the byte holding the next bit, so the hot path has no data-dependent
/// flush branch — the branch in the classic accumulate-and-flush writer
/// mispredicts on real code-length mixes and dominates encode time. A
/// `put` takes up to 48 bits, the joined codes of four symbols, so one
/// store serves four symbols. The ≤ 7 bits of the last partial byte are
/// not kept in a register: the next `put` reads that byte back (the
/// store always leaves the bits past the stream's end zero), so the
/// writer's whole state is one bit cursor, and `Huffman4`'s four writers
/// stay in registers beside the loop's pointers. A store may run up to
/// 7 bytes past the stream's final byte; callers keep [`WRITE_SLACK`]
/// bytes of zeroed padding after each region and drop or overwrite it
/// once the stream is done.
pub(crate) struct WideWriter {
    /// Bit cursor: `bit / 8` is the byte the next store starts at, and
    /// its first `bit % 8` bits are already written.
    bit: usize,
}

impl WideWriter {
    pub(crate) fn at(pos: usize) -> WideWriter {
        WideWriter { bit: 8 * pos }
    }

    /// Append the `len` low bits of `bits` (1 ≤ `len` ≤ 48).
    #[inline(always)]
    pub(crate) fn put(&mut self, bits: u64, len: u32, out: &mut [u8]) {
        debug_assert!((1..=48).contains(&len), "one to four codes per put");
        debug_assert!(bits >> len == 0, "bits above the length");
        let pos = self.bit / 8;
        let word: &mut [u8; 8] = (&mut out[pos..pos + 8]).try_into().expect("8 bytes");
        // ≤ 7 bits written and len ≤ 48, so the shift is ≥ 9.
        let have = (self.bit & 7) as u32;
        let acc = u64::from(word[0]) << 56 | bits << (64 - have - len);
        *word = acc.to_be_bytes();
        self.bit += len as usize;
    }

    /// One past the final (possibly partial, zero-padded) byte — the
    /// partial byte is already stored by the last `put`.
    pub(crate) fn end(&self) -> usize {
        self.bit.div_ceil(8)
    }
}

/// One MSB-first bit reader with word-at-a-time refill. `acc` holds
/// `have` valid bits in its low positions; refill keeps `have` ≥ 12
/// while input bytes remain, loading 32 bits at a time away from the
/// tail.
pub(crate) struct BitReader {
    pub(crate) acc: u64,
    pub(crate) have: u32,
    pub(crate) next: usize,
}

impl BitReader {
    /// Top up to ≥ 12 valid bits (best effort near the stream tail).
    #[inline(always)]
    pub(crate) fn refill(&mut self, bits: &[u8]) {
        if self.have < HUFFMAN_MAX_CODE_LEN {
            if self.next + 4 <= bits.len() {
                let w = u32::from_be_bytes(
                    bits[self.next..self.next + 4]
                        .try_into()
                        .expect("bounds checked"),
                );
                self.acc = (self.acc << 32) | u64::from(w);
                self.next += 4;
                self.have += 32;
            } else {
                while self.have < HUFFMAN_MAX_CODE_LEN && self.next < bits.len() {
                    self.acc = (self.acc << 8) | u64::from(bits[self.next]);
                    self.next += 1;
                    self.have += 8;
                }
            }
        }
    }

    /// The next 12 bits MSB-first (zero-extended past the stream end).
    #[inline(always)]
    pub(crate) fn peek(&self) -> usize {
        if self.have >= HUFFMAN_MAX_CODE_LEN {
            (self.acc >> (self.have - HUFFMAN_MAX_CODE_LEN)) as usize & (TABLE_SIZE - 1)
        } else {
            ((self.acc << (HUFFMAN_MAX_CODE_LEN - self.have)) as usize) & (TABLE_SIZE - 1)
        }
    }

    /// End-of-stream validation shared by every stream form: all input
    /// bytes consumed, less than one byte of slack, and the slack (the
    /// encoder's final-byte padding) all zero.
    pub(crate) fn finish(&self, bits: &[u8]) -> Result<(), EntropyError> {
        if self.next != bits.len() || self.have >= 8 {
            return Err(EntropyError("huffman trailing bytes"));
        }
        if self.have > 0 && self.acc & ((1u64 << self.have) - 1) != 0 {
            return Err(EntropyError("huffman padding not zero"));
        }
        Ok(())
    }
}

/// Decode a one-stream `Huffman` chunk into `out` (whose length is the
/// chunk's recorded raw length). Every malformation — truncated table,
/// over-limit or Kraft-overfull lengths, a bit pattern matching no code,
/// a bitstream that ends early or carries unused bytes or non-zero
/// padding — is a typed [`EntropyError`]. The decode table is built in
/// `table`, whatever it held before.
pub(crate) fn decode(
    comp: &[u8],
    out: &mut [u8],
    table: &mut DecodeTable,
) -> Result<(), EntropyError> {
    if comp.len() < HUFFMAN_TABLE_BYTES {
        return Err(EntropyError("huffman table truncated"));
    }
    let code = parse_lens_table(&comp[..HUFFMAN_TABLE_BYTES])?;
    let bits = &comp[HUFFMAN_TABLE_BYTES..];
    if out.is_empty() {
        return if bits.is_empty() {
            Ok(())
        } else {
            Err(EntropyError("huffman trailing bytes"))
        };
    }
    if code.coded() == 0 {
        return Err(EntropyError("huffman table empty"));
    }
    let tab = table.build(&code, out.len() >= DecodeTable::GRAFT_MIN_SYMBOLS);

    // Fast path: branchless refill (Fabian Giesen's variant — one
    // unconditional 8-byte big-endian load, accumulator kept
    // left-aligned) and an unconditional two-byte store per lookup. The
    // refill branch and the 1-vs-2-symbol branch are data-dependent and
    // mispredict constantly in the careful loop below; here the only
    // branches are the loop bounds (always-taken) and the rare invalid
    // code. Entries consume `ltot` ≤ 12 bits whether they carry one
    // symbol or two (a 1-symbol entry has `ltot == l1`), and a 1-symbol
    // entry's second byte is dead weight the next store overwrites.
    let n = out.len();
    let mut acc: u64 = 0; // bits left-aligned: next bit is bit 63
    let mut have: u32 = 0;
    let mut next = 0usize;
    let mut o = 0usize;
    macro_rules! refill {
        () => {{
            let w = u64::from_be_bytes(bits[next..next + 8].try_into().expect("bounds checked"));
            acc |= w >> have;
            next += ((63 - have) >> 3) as usize;
            have |= 56;
        }};
    }
    macro_rules! lookup {
        () => {{
            let e = tab[(acc >> (64 - HUFFMAN_MAX_CODE_LEN)) as usize];
            if e == 0 {
                return Err(EntropyError("invalid huffman code"));
            }
            let ltot = (e >> 20) & 0x1F;
            out[o] = e as u8;
            out[o + 1] = (e >> 8) as u8;
            o += 1 + ((e >> 25) & 1) as usize;
            acc <<= ltot;
            have -= ltot;
        }};
    }
    // Wide rounds: a refill leaves ≥ 56 bits and a lookup consumes
    // ≤ 12, so four lookups run per refill (before lookup j at least
    // 56 − 12j ≥ 20 bits remain), and the next lookup's address no
    // longer waits on a load. `o + 8 ≤ n` keeps all four two-byte
    // stores in bounds (each lookup advances `o` by ≤ 2).
    while o + 8 <= n && next + 8 <= bits.len() {
        refill!();
        lookup!();
        lookup!();
        lookup!();
        lookup!();
    }
    while o + 1 < n && next + 8 <= bits.len() {
        refill!();
        lookup!();
    }

    // Careful tail: byte-accurate refill, exact end-of-stream checks.
    // The left-aligned accumulator converts to the low-aligned reader
    // exactly (same counted bits, same byte cursor, same consumed-bit
    // total 8·next − have).
    let mut br = BitReader {
        acc: if have > 0 { acc >> (64 - have) } else { 0 },
        have,
        next,
    };
    while o < n {
        br.refill(bits);
        let e = tab[br.peek()];
        if e == 0 {
            return Err(EntropyError("invalid huffman code"));
        }
        let ltot = (e >> 20) & 0x1F;
        if e & (1 << 25) != 0 && ltot <= br.have && o + 1 < n {
            // Two symbols per lookup: output is sequential here, so both
            // land directly.
            out[o] = e as u8;
            out[o + 1] = (e >> 8) as u8;
            o += 2;
            br.have -= ltot;
        } else {
            let l1 = (e >> 16) & 0xF;
            if l1 > br.have {
                return Err(EntropyError("huffman bitstream truncated"));
            }
            out[o] = e as u8;
            o += 1;
            br.have -= l1;
        }
    }
    br.finish(bits)
}

impl Codebook {
    /// The length-limited canonical code for `freq`, in one pass over
    /// the coded symbols: optimal lengths from a two-queue Huffman
    /// merge, capped at [`LIMIT`] with a Kraft-sum repair, then codes
    /// assigned in `(length, symbol)` order. Absent symbols get length 0.
    pub fn build(freq: &[u32; 256]) -> Codebook {
        let mut book = Codebook {
            lens: [0; 256],
            codes: [0; 256],
        };
        let (keys, n) = sorted_leaves(freq);
        if n <= 1 {
            // One coded symbol still takes a 1-bit code, `0`.
            if n == 1 {
                let s = keys[0] as u8 as usize;
                book.lens[s] = 1;
            }
            return book;
        }

        // Two-queue merge: the leaves ascending, the internal nodes in
        // creation (hence weight) order. Both queues stay sorted, so the
        // two smallest weights are among the first two of each queue, and
        // a tie goes to the leaf. A step reads all four fronts at once and
        // picks the pair with two compares and selects, so the only chain
        // from one step to the next is the two queue positions. Missing
        // entries read as `u64::MAX`; at least two real weights remain at
        // every step, so a sentinel is never picked. Node `j` is the `j`th
        // created, and the root is the last.
        let mut leaf_w = [u64::MAX; 258];
        for (w, &k) in leaf_w.iter_mut().zip(&keys[..n]) {
            *w = k >> 16;
        }
        let mut node_w = [u64::MAX; 257];
        // The parent of each leaf and node. Each step stores to both
        // fronts of both queues whether it takes them or not: a front it
        // leaves is stored again by the step that takes it.
        let mut leaf_up = [0u8; 258];
        let mut node_up = [0u8; 257];
        let (mut leaf, mut node) = (0usize, 0usize);
        for next in 0..n - 1 {
            let (l0, l1) = (leaf_w[leaf], leaf_w[leaf + 1]);
            let (n0, n1) = (node_w[node], node_w[node + 1]);
            let first_leaf = l0 <= n0;
            let second_leaf = if first_leaf { l1 <= n0 } else { l0 <= n1 };
            let a = if first_leaf { l0 } else { n0 };
            let b = match (first_leaf, second_leaf) {
                (true, true) => l1,
                (true, false) => n0,
                (false, true) => l0,
                (false, false) => n1,
            };
            node_w[next] = a + b;
            leaf_up[leaf] = next as u8;
            leaf_up[leaf + 1] = next as u8;
            node_up[node] = next as u8;
            node_up[node + 1] = next as u8;
            let leaves = usize::from(first_leaf) + usize::from(second_leaf);
            leaf += leaves;
            node += 2 - leaves;
        }

        // Depths of the internal nodes: parents are created after their
        // children, so one reverse sweep from the root reaches them all.
        // The leaves need no sweep: each leaf's depth is its parent's
        // plus one, independent of every other leaf.
        let mut depth = [0u8; 256];
        for j in (0..n - 2).rev() {
            depth[j] = depth[usize::from(node_up[j])] + 1;
        }

        // Nodes leave the queues in weight order and parents are taken in
        // creation order, so depth never grows along the take order: the
        // leaves, in `(freq, symbol)` order, come in runs of equal capped
        // length, longest first. `ends[l]` is where length `l`'s run
        // ends — an unconditional store per leaf, so equal lengths form no
        // counter chain.
        let mut ends = [0usize; LIMIT as usize + 1];
        for (i, &k) in keys[..n].iter().enumerate() {
            let l = (depth[usize::from(leaf_up[i])] + 1).min(LIMIT);
            book.lens[k as u8 as usize] = l;
            ends[usize::from(l)] = i + 1;
        }
        let mut count = [0u32; LIMIT as usize + 1];
        let mut run_start = 0;
        let mut kraft = 0u64;
        for l in (1..=LIMIT as usize).rev() {
            if ends[l] > run_start {
                count[l] = (ends[l] - run_start) as u32;
                run_start = ends[l];
                kraft += u64::from(count[l]) << (LIMIT as usize - l);
            }
        }
        if kraft > 1u64 << LIMIT {
            repair(&mut book.lens, &mut count, kraft);
        }

        // Canonical codes: the shortest length starts at 0, and the codes
        // of one length go to its symbols in symbol order.
        let mut next = [0u16; LIMIT as usize + 1];
        let mut code = 0u32;
        for l in 1..=LIMIT as usize {
            code = (code + count[l - 1]) << 1;
            next[l] = code as u16;
        }
        // Absent symbols read `next[0]`, which stays 0, so their code is
        // 0 and the pass has no branch.
        for (c, &l) in book.codes.iter_mut().zip(&book.lens) {
            let l = usize::from(l);
            *c = next[l];
            next[l] += u16::from(l != 0);
        }
        book
    }
}

/// Capping can overfill the Kraft sum; deepen the longest under-limit
/// code, lowest symbol first, until Σ 2^(LIMIT−len) ≤ 2^LIMIT again.
/// Each step frees 2^(LIMIT−l−1), and while overfull some code sits
/// below the limit (256 codes at the limit sum to 1/16), so this
/// terminates with prefix-decodable lengths. A length's 256-bit
/// membership set is built the first time a step needs it, by one scan
/// of the lengths, and kept up to date from then on; a step is then a
/// walk down ≤ 11 counts and one trailing-zero count.
#[cold]
fn repair(lens: &mut [u8; 256], count: &mut [u32; LIMIT as usize + 1], mut kraft: u64) {
    let mut members = [[0u64; 4]; LIMIT as usize + 1];
    let mut built = [false; LIMIT as usize + 1];
    while kraft > 1u64 << LIMIT {
        let l = (1..LIMIT as usize)
            .rev()
            .find(|&l| count[l] > 0)
            .expect("an overfull Kraft sum leaves a code below the limit");
        if !built[l] {
            for (w, set) in members[l].iter_mut().enumerate() {
                *set = lens[64 * w..64 * w + 64]
                    .iter()
                    .enumerate()
                    .fold(0, |m, (b, &len)| m | u64::from(usize::from(len) == l) << b);
            }
            built[l] = true;
        }
        let set = &mut members[l];
        let w = set.iter().position(|&m| m != 0).expect("count matches set");
        let s = w * 64 + set[w].trailing_zeros() as usize;
        set[w] &= set[w] - 1;
        count[l] -= 1;
        count[l + 1] += 1;
        members[l + 1][s >> 6] |= 1u64 << (s & 63);
        lens[s] = l as u8 + 1;
        kraft -= 1u64 << (LIMIT as usize - l - 1);
    }
}

/// The coded symbols as packed `freq << 16 | symbol` keys in `(freq,
/// symbol)` order, and their count. Most symbols of a skewed chunk are
/// rare, so keys with a frequency below 255 are placed by a counting
/// sort on the frequency (scanned in symbol order, so ties stay in
/// symbol order); the few larger ones share the last bucket, which is
/// then sorted as packed keys — one `u64` compare orders them by
/// `(freq, symbol)`.
fn sorted_leaves(freq: &[u32; 256]) -> ([u64; 256], usize) {
    // The coded symbols' keys in symbol order, compacted without a
    // branch: every key is stored, and only a coded one advances.
    let mut coded = [0u64; 256];
    let mut n = 0usize;
    for (s, &f) in freq.iter().enumerate() {
        coded[n] = u64::from(f) << 16 | s as u64;
        n += usize::from(f > 0);
    }
    let coded = &coded[..n];
    let bucket = |k: u64| (k >> 16).min(255) as usize;
    let mut start = [0u16; 256];
    for &k in coded {
        start[bucket(k)] += 1;
    }
    let mut sum = 0u16;
    for c in &mut start {
        (*c, sum) = (sum, sum + *c);
    }
    let tail = usize::from(start[255]);
    let mut keys = [0u64; 256];
    for &k in coded {
        let slot = &mut start[bucket(k)];
        keys[usize::from(*slot)] = k;
        *slot += 1;
    }
    keys[tail..n].sort_unstable();
    (keys, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_never_exceed_limit() {
        // An exponential histogram drives unlimited Huffman depths far
        // past 12; the repair must cap every length and keep Kraft ≤ 1.
        let mut freq = [0u32; 256];
        let mut f = 1u32;
        for slot in freq.iter_mut().take(30) {
            *slot = f;
            f = f.saturating_mul(2);
        }
        let lens = *Codebook::build(&freq).lens();
        let mut kraft = 0u64;
        for &l in &lens {
            assert!(l <= LIMIT);
            if l > 0 {
                kraft += 1 << (LIMIT - l);
            }
        }
        assert!(kraft <= 1 << LIMIT, "repaired lengths must satisfy Kraft");
        // And a skewed stream over those symbols still round trips.
        let mut raw = Vec::new();
        for s in 0..30u8 {
            raw.extend(std::iter::repeat_n(s, (s as usize + 1) * 3));
        }
        let mut comp = Vec::new();
        assert!(crate::interleave::encode(&raw, &mut comp));
        let mut back = vec![0u8; raw.len()];
        crate::interleave::decode(&comp, &mut back, &mut DecodeTable::new()).unwrap();
        assert_eq!(back, raw);
    }

    /// The builder this module shipped before the O(1) repair, kept as
    /// the reference the differential tests compare against: a tuple
    /// comparison sort, and a repair that rescans all 256 lengths per
    /// step for the longest one below the limit (lowest symbol first).
    fn build_lengths_rescan(freq: &[u32; 256], lens: &mut [u8; 256]) {
        let mut leaves = [(0u32, 0u16); 256];
        let mut n = 0usize;
        for (s, &f) in freq.iter().enumerate() {
            if f > 0 {
                leaves[n] = (f, s as u16);
                n += 1;
            }
        }
        if n == 0 {
            return;
        }
        if n == 1 {
            lens[leaves[0].1 as usize] = 1;
            return;
        }
        leaves[..n].sort_unstable();
        let total = 2 * n - 1;
        let mut weight = [0u64; 511];
        let mut parent = [0u16; 511];
        for (i, &(f, _)) in leaves[..n].iter().enumerate() {
            weight[i] = u64::from(f);
        }
        let mut leaf = 0usize;
        let mut node = n;
        for next in n..total {
            let mut take = |next: usize| {
                if leaf < n && (node >= next || weight[leaf] <= weight[node]) {
                    leaf += 1;
                    leaf - 1
                } else {
                    node += 1;
                    node - 1
                }
            };
            let a = take(next);
            let b = take(next);
            weight[next] = weight[a] + weight[b];
            parent[a] = next as u16;
            parent[b] = next as u16;
        }
        let mut depth = [0u8; 511];
        for i in (0..total - 1).rev() {
            depth[i] = depth[parent[i] as usize] + 1;
        }
        for (i, &(_, s)) in leaves[..n].iter().enumerate() {
            lens[s as usize] = depth[i].min(LIMIT);
        }
        let mut kraft: u64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u64 << (LIMIT - l))
            .sum();
        while kraft > 1u64 << LIMIT {
            let mut pick = (0u8, 0usize);
            for (s, &l) in lens.iter().enumerate() {
                if l > pick.0 && l < LIMIT {
                    pick = (l, s);
                }
            }
            lens[pick.1] += 1;
            kraft -= 1u64 << (LIMIT - pick.0 - 1);
        }
    }

    /// Canonical code values from lengths: codes are assigned in
    /// `(length, symbol)` order, the shortest length starting at 0 — the
    /// standalone assignment [`Codebook::build`] folds into its pass.
    fn assign_codes(lens: &[u8; 256]) -> [u16; 256] {
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

    /// Build with both builders; assert identical lengths and codes,
    /// every length within the limit, zero exactly for absent symbols,
    /// and Kraft ≤ 1.
    fn check_lengths(freq: &[u32; 256], what: &str) {
        let mut want = [0u8; 256];
        let book = Codebook::build(freq);
        let got = *book.lens();
        build_lengths_rescan(freq, &mut want);
        assert_eq!(got, want, "{what}: lengths differ from the rescan builder");
        assert_eq!(*book.codes(), assign_codes(&want), "{what}: codes differ");
        let mut kraft = 0u64;
        for (&f, &l) in freq.iter().zip(&got) {
            assert!(l <= LIMIT, "{what}: length {l} over the limit");
            assert_eq!(l == 0, f == 0, "{what}: length 0 iff absent");
            if l > 0 {
                kraft += 1 << (LIMIT - l);
            }
        }
        assert!(kraft <= 1 << LIMIT, "{what}: Kraft sum over 1");
    }

    #[test]
    fn build_lengths_matches_rescan_builder() {
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        // Random skewed histograms: a random support size, counts drawn
        // from a heavy-tailed spread so many symbols tie and some dwarf
        // the rest (the shape that forces deep trees and repairs).
        for case in 0..2000 {
            let mut freq = [0u32; 256];
            let support = 1 + (next() % 256) as usize;
            for _ in 0..support {
                let s = (next() % 256) as usize;
                let r = next();
                freq[s] = ((r >> 8) % (1u64 << (r % 24))) as u32 + 1;
            }
            check_lengths(&freq, &format!("random case {case}"));
        }
        // Exponential and Fibonacci counts over 2..=256 symbols drive the
        // unlimited depths far past the limit, so the repair runs deep.
        for k in 2..=256usize {
            let mut exp = [0u32; 256];
            let mut fib = [0u32; 256];
            let (mut a, mut b) = (1u32, 1u32);
            for s in 0..k {
                exp[s] = 1u32.checked_shl(s as u32).unwrap_or(u32::MAX).max(1);
                fib[s] = a;
                (a, b) = (b, a.saturating_add(b));
            }
            check_lengths(&exp, &format!("exponential over {k}"));
            check_lengths(&fib, &format!("fibonacci over {k}"));
        }
        // One, two and all 256 symbols; all-equal counts.
        let mut one = [0u32; 256];
        one[77] = 5;
        check_lengths(&one, "one symbol");
        let mut two = [0u32; 256];
        two[3] = 1;
        two[200] = 1_000_000;
        check_lengths(&two, "two symbols");
        check_lengths(&[1u32; 256], "all 256 equal");
        check_lengths(&[u32::MAX; 256], "all 256 equal at u32::MAX");
        let all: [u32; 256] = std::array::from_fn(|s| s as u32 + 1);
        check_lengths(&all, "all 256 ascending");
        // Ties on both sides of the counting-sort cut at 255.
        let around: [u32; 256] = std::array::from_fn(|s| 250 + (s as u32 * 7) % 11);
        check_lengths(&around, "ties around 255");
        check_lengths(&[0u32; 256], "no symbols");
    }

    /// `lens` through the chunk header's nibble form.
    fn parsed(lens: &[u8; 256]) -> CodeLengths {
        let mut packed = Vec::new();
        push_lens_table(lens, &mut packed);
        parse_lens_table(&packed).unwrap()
    }

    /// The table a build must produce, computed per prefix from the
    /// canonical codes alone: each code's prefixes get its one-symbol
    /// entry, then (with `two_symbol`) every prefix whose first code
    /// leaves room for a whole second code gets the pair.
    fn per_prefix_table(lens: &[u8; 256], two_symbol: bool) -> [u32; TABLE_SIZE] {
        let codes = assign_codes(lens);
        let mut entries = [0u32; TABLE_SIZE];
        for (s, &l) in lens.iter().enumerate().filter(|&(_, &l)| l > 0) {
            let (l, room) = (u32::from(l), HUFFMAN_MAX_CODE_LEN - u32::from(l));
            let base = usize::from(codes[s]) << room;
            entries[base..base + (1 << room)].fill(s as u32 | l << 16 | l << 20);
        }
        if !two_symbol {
            return entries;
        }
        let single = entries;
        for (p, e) in entries.iter_mut().enumerate() {
            if *e == 0 {
                continue;
            }
            let l1 = (*e >> 16) & 0xF;
            if l1 >= HUFFMAN_MAX_CODE_LEN {
                continue;
            }
            let e2 = single[(p << l1) & (TABLE_SIZE - 1)];
            if e2 == 0 {
                continue;
            }
            let l2 = (e2 >> 16) & 0xF;
            if l1 + l2 <= HUFFMAN_MAX_CODE_LEN {
                *e = (*e & 0x000F_00FF) | (e2 & 0xFF) << 8 | (l1 + l2) << 20 | 1 << 25;
            }
        }
        entries
    }

    /// Lengths for the symbols in `shape` order (symbol `i` gets
    /// `shape[i]`), the rest absent.
    fn lens_of(shape: &[u8]) -> [u8; 256] {
        let mut lens = [0u8; 256];
        lens[..shape.len()].copy_from_slice(shape);
        lens
    }

    #[test]
    fn pair_graft_matches_per_prefix_graft() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut cases: Vec<[u8; 256]> = Vec::new();
        for _ in 0..300 {
            let mut freq = [0u32; 256];
            let support = 1 + (next() % 256) as usize;
            for _ in 0..support {
                let s = (next() % 256) as usize;
                let r = next();
                freq[s] = ((r >> 8) % (1u64 << (r % 24))) as u32 + 1;
            }
            cases.push(*Codebook::build(&freq).lens());
        }
        // A single code at every length: all but its own run invalid,
        // down to one valid entry at 12 bits.
        for l in 1..=LIMIT {
            let mut one = [0u8; 256];
            one[(next() % 256) as usize] = l;
            cases.push(one);
        }
        // Kraft-complete codes whose last run ends at entry 4096 one to
        // four entries long: a chain of lengths 1..=11 closed by two
        // 12-bit codes, the same with its symbols scattered, 4-bit codes
        // closed by 10-bit ones, and all 256 symbols, mostly 8-bit,
        // closed by a 6..=12-bit chain.
        let mut chain: Vec<u8> = (1..LIMIT).collect();
        chain.extend([LIMIT, LIMIT]);
        cases.push(lens_of(&chain));
        let mut scattered = [0u8; 256];
        for (i, &l) in chain.iter().enumerate() {
            scattered[255 - 17 * i] = l;
        }
        cases.push(scattered);
        let mut tens = vec![4u8; 15];
        tens.extend([10u8; 64]);
        cases.push(lens_of(&tens));
        let mut wide = vec![8u8; 248];
        wide.extend([6, 7, 8, 9, 10, 11, 12, 12]);
        cases.push(lens_of(&wide));
        // Degenerate and incomplete codes: two depth-1 codes, a full
        // 8-bit code, and a sparse mix with gaps.
        let mut two = [0u8; 256];
        (two[0], two[255]) = (1, 1);
        let mut sparse = [0u8; 256];
        for (s, l) in [(1usize, 2u8), (5, 3), (6, 5), (200, 7), (201, 12)] {
            sparse[s] = l;
        }
        cases.extend([two, [8u8; 256], sparse]);
        // One table for every case and both graft settings: each build
        // must overwrite whatever the previous one left behind.
        let mut table = DecodeTable::new();
        for (i, lens) in cases.iter().enumerate() {
            let code = parsed(lens);
            for two_symbol in [true, false] {
                let got = table.build(&code, two_symbol);
                assert!(
                    *got == per_prefix_table(lens, two_symbol),
                    "case {i}, two_symbol {two_symbol}: tables differ"
                );
            }
        }
    }

    #[test]
    fn rebuild_after_a_spill_into_the_pad() {
        // The chain's last code owns entry 4095 alone, so its store
        // spills seven entries into the pad. The next build — a code
        // covering only the first half — must still match its reference.
        let mut chain: Vec<u8> = (1..LIMIT).collect();
        chain.extend([LIMIT, LIMIT]);
        let full = lens_of(&chain);
        let half = lens_of(&[1]);
        let mut table = DecodeTable::new();
        table.build(&parsed(&full), false);
        let pad = &table.entries.as_ref().unwrap()[TABLE_SIZE..];
        assert!(
            pad[..STORE - 1].iter().all(|&e| e != 0),
            "the last run spilled"
        );
        assert!(*table.build(&parsed(&half), true) == per_prefix_table(&half, true));
        assert!(*table.build(&parsed(&full), true) == per_prefix_table(&full, true));
    }

    #[test]
    fn empty_bitstream_rules() {
        let table = vec![0u8; HUFFMAN_TABLE_BYTES];
        let mut none: [u8; 0] = [];
        let mut tab = DecodeTable::new();
        decode(&table, &mut none, &mut tab).unwrap();
        let mut one = [0u8; 1];
        assert_eq!(
            decode(&table, &mut one, &mut tab),
            Err(EntropyError("huffman table empty"))
        );
    }

    #[test]
    fn nonzero_padding_rejected() {
        // Symbol 0 is `0` and symbol 1 is `10`: `0 10 0 0 10` is seven
        // bits, so the final byte carries one bit of padding.
        let mut comp = vec![0u8; HUFFMAN_TABLE_BYTES];
        comp[0] = 1 | 2 << 4;
        comp.push(0b0100_0100);
        let mut back = [0u8; 5];
        decode(&comp, &mut back, &mut DecodeTable::new()).unwrap();
        assert_eq!(back, [0, 1, 0, 0, 1]);
        comp[HUFFMAN_TABLE_BYTES] |= 1;
        assert_eq!(
            decode(&comp, &mut back, &mut DecodeTable::new()),
            Err(EntropyError("huffman padding not zero"))
        );
    }

    #[test]
    fn multi_symbol_entries_cover_short_codes() {
        // Two symbols at depth 1: every 12-bit prefix decodes two
        // symbols per hit.
        let mut lens = [0u8; 256];
        lens[0] = 1;
        lens[1] = 1;
        let mut table = DecodeTable::new();
        let tab = table.build(&parsed(&lens), true);
        for &e in tab.iter() {
            assert_ne!(e & (1 << 25), 0, "every prefix should be 2-symbol");
            assert_eq!((e >> 20) & 0x1F, 2, "two depth-1 codes consume 2 bits");
        }
    }
}
