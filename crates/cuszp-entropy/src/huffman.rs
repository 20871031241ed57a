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
//! * **Code lengths.** The builder orders the symbols by `(freq,
//!   symbol)` — a counting sort for the many rare symbols, a sort of
//!   packed `freq << 16 | symbol` keys for the few common ones — and
//!   runs the classic two-queue merge (linear after the sort, with a
//!   select instead of a branch picking each front).
//!   Capping at 12 bits can overfill the Kraft sum; the repair then
//!   deepens the longest under-limit code, lowest symbol first, until
//!   the lengths are prefix-decodable again. Per-length counts and
//!   256-bit membership sets make each repair step O(1) — a walk down
//!   at most 11 lengths and one trailing-zero count — instead of a
//!   rescan of all 256 lengths, and pick exactly the symbol such a
//!   rescan would. Everything runs in fixed-size stack arrays — no
//!   allocation, no recursion.
//! * **Writer.** [`WideWriter`] joins the codes of four symbols (≤ 48
//!   bits) into one branchless 8-byte store instead of storing once per
//!   symbol; the ≤ 7 bits still pending from earlier stores fit beside
//!   them in the `u64`. The `Huffman4` encoder runs four of them.
//! * **Decode table.** Built in one pass over the codes in canonical
//!   order, writing every entry once and reading none: each code's run
//!   of prefixes starts with the two-symbol entries for the codes that
//!   fit after it, then the one-symbol entry fills the rest of the run,
//!   and prefixes no code starts are reset to the invalid marker. The
//!   table is the caller's [`DecodeTable`], rebuilt in place per chunk,
//!   so no chunk pays for zeroing or copying 16 KiB.
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

/// Encoder view of the canonical code: one `code << 4 | len` entry per
/// symbol, so a symbol's code and length come from one load.
pub(crate) struct Codebook {
    entries: [u32; 256],
}

impl Codebook {
    pub(crate) fn new(lens: &[u8; 256]) -> Codebook {
        let codes = assign_codes(lens);
        Codebook {
            entries: std::array::from_fn(|s| u32::from(codes[s]) << 4 | u32::from(lens[s])),
        }
    }

    /// One symbol's code (right-aligned) and length.
    #[inline(always)]
    pub(crate) fn code(&self, b: u8) -> (u64, u32) {
        let e = self.entries[b as usize];
        (u64::from(e >> 4), e & 0xF)
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
    for i in 0..HUFFMAN_TABLE_BYTES {
        out.push(lens[2 * i] | (lens[2 * i + 1] << 4));
    }
}

/// Unpack a 128-byte nibble table into per-symbol lengths and validate
/// the global invariants shared by the 1-way and 4-way chunk forms:
/// every length ≤ [`LIMIT`] and the Kraft sum ≤ 1. Returns the lengths
/// plus the number of coded symbols (0 for an empty table — legal only
/// when nothing is to be decoded; the caller enforces that).
pub(crate) fn parse_lens_table(table: &[u8]) -> Result<([u8; 256], u32), EntropyError> {
    debug_assert_eq!(table.len(), HUFFMAN_TABLE_BYTES);
    let mut lens = [0u8; 256];
    for (i, &b) in table.iter().enumerate() {
        lens[2 * i] = b & 0x0F;
        lens[2 * i + 1] = b >> 4;
    }
    let mut kraft: u64 = 0;
    let mut nonzero = 0u32;
    for &l in &lens {
        if l > LIMIT {
            return Err(EntropyError("huffman code length exceeds limit"));
        }
        if l > 0 {
            kraft += 1u64 << (LIMIT - l);
            nonzero += 1;
        }
    }
    if nonzero > 0 && kraft > 1u64 << LIMIT {
        return Err(EntropyError("huffman table overfull"));
    }
    Ok((lens, nonzero))
}

/// Flat multi-symbol decode table over 12-bit prefixes, owned by the
/// caller and rebuilt in place for every Huffman chunk.
///
/// Entry layout (`u32`): bits 0–7 first symbol, 8–15 second symbol,
/// 16–19 first code's length, 20–24 total consumed bits, bit 25 set when
/// the entry carries two symbols. A zero entry marks a prefix no valid
/// stream can produce.
///
/// The 16 KiB of entries are allocated on first use (or by
/// [`DecodeTable::warm`]) and reused by every later build, so a decode
/// loop pays neither a fresh zeroed array nor a by-value copy per chunk.
/// Every build writes all 4096 entries — prefixes that no code covers
/// (Kraft sum < 1) are reset to the invalid marker — so a table left
/// over from an earlier chunk can never decode a later one differently.
#[derive(Debug, Clone, Default)]
pub struct DecodeTable {
    entries: Option<Box<[u32; TABLE_SIZE]>>,
}

impl DecodeTable {
    /// Outputs below this many bytes skip the two-symbol graft: it costs
    /// a step per pair of codes that fit the window together (hundreds
    /// on skewed chunks), which only pays for itself once the symbol
    /// loop it accelerates is long enough. Tables with and without the
    /// graft decode to identical bytes — the flag trades build time
    /// against per-lookup yield, never output.
    ///
    /// With the table built in place, the graft pays from about a
    /// thousand symbols on: decoding the `Huffman`/`Huffman4` chunks of
    /// 16 384-element pieces of the Small Hurricane, NYX and RTM fields
    /// (one-way `Huffman` chunks average 2.5 KB there), alternating
    /// floors in one pinned process, took 0.93–0.99 ms per pass at
    /// 1024, within noise of 512 and of always grafting, against
    /// 1.03–1.09 ms at the earlier floor of 4096.
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

    fn slots(&mut self) -> &mut [u32; TABLE_SIZE] {
        self.entries.get_or_insert_with(|| {
            vec![0u32; TABLE_SIZE]
                .into_boxed_slice()
                .try_into()
                .expect("table size")
        })
    }

    /// Build the table from validated lengths (Kraft ≤ 1, all ≤ 12) and
    /// return its entries. `two_symbol` enables the two-symbol graft.
    pub(crate) fn build(
        &mut self,
        lens: &[u8; 256],
        two_symbol: bool,
    ) -> Result<&[u32; TABLE_SIZE], EntropyError> {
        // The coded symbols in canonical `(length, symbol)` order, by a
        // counting sort on the length.
        let mut at = [0usize; LIMIT as usize + 1];
        for &l in lens.iter().filter(|&&l| (1..LIMIT).contains(&l)) {
            at[l as usize + 1] += 1;
        }
        for l in 1..=LIMIT as usize {
            at[l] += at[l - 1];
        }
        let mut order = [0u8; 256];
        let mut coded = 0usize;
        for (s, &l) in lens.iter().enumerate().filter(|&(_, &l)| l > 0) {
            order[at[l as usize]] = s as u8;
            at[l as usize] += 1;
            coded += 1;
        }
        let order = &order[..coded];
        let codes = assign_codes(lens);

        // Each code owns the run of prefixes it starts. With the graft,
        // the run splits in two. After the first code c1 (l1 bits), the
        // window's other 12 − l1 bits start with a second code c2 (l2
        // bits) exactly on the prefixes `c1 ++ c2 ++ x`, 2^(12 − l1 − l2)
        // of them. Canonical codes taken in order tile their range from
        // zero without gaps, so the second codes that fit (shortest
        // first) fill the head of the run back to back, each with a
        // two-symbol entry. The tail — second codes too long for the
        // window, or prefixes no code starts — keeps the one-symbol
        // entry. Every entry is written once and none is read.
        let shortest = order.first().map_or(0, |&s| u32::from(lens[s as usize]));
        let entries = self.slots();
        let mut covered = 0usize;
        for &s1 in order {
            let l1 = u32::from(lens[s1 as usize]);
            let room = HUFFMAN_MAX_CODE_LEN - l1;
            let base = (codes[s1 as usize] as usize) << room;
            let end = base + (1 << room);
            // Kraft ≤ 1 guarantees canonical codes fit; belt and braces.
            if end > TABLE_SIZE {
                return Err(EntropyError("huffman table overfull"));
            }
            let mut at = base;
            if two_symbol && room >= shortest {
                let head = u32::from(s1) | l1 << 16 | 1 << 25;
                for &s2 in order {
                    let l2 = u32::from(lens[s2 as usize]);
                    if l2 > room {
                        break;
                    }
                    let run = 1 << (room - l2);
                    entries[at..at + run].fill(head | u32::from(s2) << 8 | (l1 + l2) << 20);
                    at += run;
                }
            }
            entries[at..end].fill(u32::from(s1) | l1 << 16 | l1 << 20);
            covered = end;
        }
        // The runs tile `0..covered`; what an incomplete code leaves
        // uncovered must read as invalid, whatever an earlier build put
        // there.
        entries[covered..].fill(0);
        Ok(entries)
    }
}

/// Branchless MSB-first bit writer over a pre-sized region of a byte
/// buffer. Bits are kept left-aligned in `acc` (the next bit to write
/// is bit 63) and every `put` unconditionally stores 8 big-endian
/// bytes, so the hot path has no data-dependent flush branch — the
/// branch in the classic accumulate-and-flush writer mispredicts on
/// real code-length mixes and dominates encode time. A `put` takes up
/// to 48 bits, the joined codes of four symbols, so one store serves
/// four symbols: after a store at most 7 bits stay pending, and
/// 7 + 48 bits fit the `u64`. A store may run up to 7 bytes past the
/// stream's final byte; callers keep [`WRITE_SLACK`] bytes of padding
/// after each region and drop or overwrite it once the stream is done.
pub(crate) struct WideWriter {
    acc: u64,
    /// Bit cursor: `bit / 8` is the byte the next store starts at, and
    /// `bit % 8` bits of that byte are pending in `acc`.
    bit: usize,
}

impl WideWriter {
    pub(crate) fn at(pos: usize) -> WideWriter {
        WideWriter {
            acc: 0,
            bit: 8 * pos,
        }
    }

    /// Append the `len` low bits of `bits` (1 ≤ `len` ≤ 48).
    #[inline(always)]
    pub(crate) fn put(&mut self, bits: u64, len: u32, out: &mut [u8]) {
        debug_assert!((1..=48).contains(&len), "one to four codes per put");
        debug_assert!(bits >> len == 0, "bits above the length");
        // ≤ 7 bits pending and len ≤ 48, so the shift is ≥ 9.
        let have = (self.bit & 7) as u32;
        self.acc |= bits << (64 - have - len);
        let pos = self.bit / 8;
        out[pos..pos + 8].copy_from_slice(&self.acc.to_be_bytes());
        // Drop the bytes this store completed; the partial one stays.
        self.acc <<= (have + len) & !7;
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
    let (lens, nonzero) = parse_lens_table(&comp[..HUFFMAN_TABLE_BYTES])?;
    let bits = &comp[HUFFMAN_TABLE_BYTES..];
    if out.is_empty() {
        return if bits.is_empty() {
            Ok(())
        } else {
            Err(EntropyError("huffman trailing bytes"))
        };
    }
    if nonzero == 0 {
        return Err(EntropyError("huffman table empty"));
    }
    let tab = table.build(&lens, out.len() >= DecodeTable::GRAFT_MIN_SYMBOLS)?;

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

/// Optimal code lengths for `freq`, then capped to [`LIMIT`] with a
/// Kraft-sum repair. Zero-frequency symbols get length 0.
pub(crate) fn build_lengths(freq: &[u32; 256], lens: &mut [u8; 256]) {
    let (keys, n) = sorted_leaves(freq);
    if n == 0 {
        return;
    }
    if n == 1 {
        lens[keys[0] as u16 as usize] = 1;
        return;
    }

    // Two-queue merge: leaves ascending in 0..n, internal nodes appended
    // in creation (hence weight) order — both queues stay sorted, so the
    // two global minima are always at one of the two fronts. Which front
    // wins is data-dependent, so the choice is a select, not a branch.
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
            // `leaf ≤ n` and `node ≤ next` keep both reads in bounds; a
            // read past a queue's end is masked by its guard.
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
    // Children precede parents, so one reverse sweep yields all depths.
    let mut depth = [0u8; 511];
    for i in (0..total - 1).rev() {
        depth[i] = depth[parent[i] as usize] + 1;
    }

    // Cap at the limit, recording each code in its length's count and
    // 256-bit membership set (the sets at the limit itself go unused).
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

    // Capping can overfill the Kraft sum; deepen the longest under-limit
    // code, lowest symbol first, until Σ 2^(LIMIT−len) ≤ 2^LIMIT again.
    // Each step frees 2^(LIMIT−l−1), and while overfull some code sits
    // below the limit (256 codes at the limit sum to 1/16), so this
    // terminates with prefix-decodable lengths. A step is O(1): a walk
    // down ≤ 11 counts and one trailing-zero count.
    while kraft > 1u64 << LIMIT {
        let l = (1..LIMIT as usize)
            .rev()
            .find(|&l| count[l] > 0)
            .expect("an overfull Kraft sum leaves a code below the limit");
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
/// symbol order); the few larger ones follow, sorted as packed keys —
/// one `u64` compare orders them by `(freq, symbol)`.
fn sorted_leaves(freq: &[u32; 256]) -> ([u64; 256], usize) {
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

/// Canonical code values from lengths: codes are assigned in `(length,
/// symbol)` order, the shortest length starting at 0.
pub(crate) fn assign_codes(lens: &[u8; 256]) -> [u16; 256] {
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
        let mut lens = [0u8; 256];
        build_lengths(&freq, &mut lens);
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

    /// Build with both builders; assert identical lengths, every length
    /// within the limit, zero exactly for absent symbols, and Kraft ≤ 1.
    fn check_lengths(freq: &[u32; 256], what: &str) {
        let (mut got, mut want) = ([0u8; 256], [0u8; 256]);
        build_lengths(freq, &mut got);
        build_lengths_rescan(freq, &mut want);
        assert_eq!(got, want, "{what}: lengths differ from the rescan builder");
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

    /// The two-symbol table as the per-prefix graft pass this module
    /// shipped before builds it: for every prefix, look up the code that
    /// follows the first one and graft it when both fit the window.
    fn graft_per_prefix(lens: &[u8; 256]) -> [u32; TABLE_SIZE] {
        let mut entries = *DecodeTable::new().build(lens, false).unwrap();
        for p in 0..TABLE_SIZE {
            let e = entries[p];
            if e == 0 {
                continue;
            }
            let l1 = (e >> 16) & 0xF;
            if l1 >= HUFFMAN_MAX_CODE_LEN {
                continue;
            }
            let e2 = entries[(p << l1) & (TABLE_SIZE - 1)];
            if e2 == 0 {
                continue;
            }
            let l2 = (e2 >> 16) & 0xF;
            if l1 + l2 <= HUFFMAN_MAX_CODE_LEN {
                entries[p] = (e & 0x000F_00FF) | (e2 & 0xFF) << 8 | (l1 + l2) << 20 | 1 << 25;
            }
        }
        entries
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
            let mut lens = [0u8; 256];
            build_lengths(&freq, &mut lens);
            cases.push(lens);
        }
        // Degenerate and incomplete codes: one symbol (half the table
        // invalid), two depth-1 codes, a single 12-bit code, a full
        // 8-bit code, and a sparse mix with gaps.
        let mut one = [0u8; 256];
        one[9] = 1;
        let mut two = [0u8; 256];
        (two[0], two[255]) = (1, 1);
        let mut deep = [0u8; 256];
        deep[42] = LIMIT;
        let mut sparse = [0u8; 256];
        for (s, l) in [(1usize, 2u8), (5, 3), (6, 5), (200, 7), (201, 12)] {
            sparse[s] = l;
        }
        cases.extend([one, two, deep, [8u8; 256], sparse]);
        // One table for every case: each build must overwrite whatever
        // the previous case left behind.
        let mut table = DecodeTable::new();
        for (i, lens) in cases.iter().enumerate() {
            let got = table.build(lens, true).unwrap();
            assert!(*got == graft_per_prefix(lens), "case {i}: tables differ");
        }
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
        let tab = table.build(&lens, true).unwrap();
        for &e in tab.iter() {
            assert_ne!(e & (1 << 25), 0, "every prefix should be 2-symbol");
            assert_eq!((e >> 20) & 0x1F, 2, "two depth-1 codes consume 2 bits");
        }
    }
}
