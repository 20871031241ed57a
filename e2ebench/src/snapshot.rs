//! `snapshot`: one simulation rank checkpoints a multi-field snapshot into
//! `CZH1` shards with `write_shard`, then restores every field with
//! `Shard::read_all`.

use crate::codecs;
use crate::input::{fnv, fnv_f32, ns, within_f32, Field, Tally, Workload};
use crate::trace;
use cuszp_store::{write_shard, CodecRegistry, Shard, StoreScratch};
use std::time::Instant;

/// Chunk shape of every shard: 64 KiB of f32, 128 rows of 128 values.
/// `read_all` decodes one row per codec call, and a `CZH1` row decode
/// entropy-decodes its whole hybrid chunk, so restore time grows with the
/// rows per chunk; this shape keeps a full restore of the snapshot within
/// a few seconds while boxes of `region_reads` still touch only a few
/// chunks each.
pub const CHUNK: [usize; 3] = [4, 32, 128];

/// Checkpoints of a field per restore, as a run writes every few
/// timesteps and restores rarely. A write takes about 1/60 of a restore,
/// so one write per round would time each field's write only eight times
/// in a run; four give its fast quartile 30-odd samples.
const CHECKPOINTS: usize = 4;

pub struct Snapshot<'a> {
    fields: &'a [Field],
    order: Vec<usize>,
    registry: CodecRegistry,
    scratch: StoreScratch,
    restored: &'a mut [Vec<f32>],
}

impl<'a> Snapshot<'a> {
    /// Set up: registry, read scratch, and one warm-up checkpoint and
    /// restore of the first field.
    pub fn setup(
        fields: &'a [Field],
        order: Vec<usize>,
        restored: &'a mut [Vec<f32>],
        tally: &mut Tally,
    ) -> Self {
        let mut s = Snapshot {
            fields,
            order,
            registry: CodecRegistry::with_defaults(),
            scratch: StoreScratch::new(),
            restored,
        };
        s.trip(0, tally);
        s
    }
}

impl Workload for Snapshot<'_> {
    fn round(&self) -> usize {
        self.fields.len()
    }

    fn use_traced_codecs(&mut self) {
        self.registry = codecs::traced_registry();
    }

    fn step(&mut self, i: usize, tally: &mut Tally) -> u64 {
        self.trip(self.order[i % self.order.len()], tally)
    }
}

impl Snapshot<'_> {
    /// Checkpoint field `fi`, restore it, and check it; returns a
    /// fingerprint of the shard and the restored values. Latencies are
    /// keyed by field: quantiles are over the fields, each field at its
    /// fast quartile over the rounds.
    fn trip(&mut self, fi: usize, tally: &mut Tally) -> u64 {
        let f = &self.fields[fi];
        let raw = f.raw_bytes();
        let codec = self.registry.get(*b"CZH1").expect("CZH1 is registered");

        let mut shard = Vec::new();
        let mut write_ns = 0;
        for _ in 0..CHECKPOINTS {
            let t0 = Instant::now();
            let span = trace::enter("store.write", raw);
            let written = write_shard(&f.data, &f.shape, &CHUNK, codec, f.eb);
            trace::exit(span);
            write_ns = ns(t0.elapsed());
            shard = match written {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("snapshot: write_shard({}) failed: {e:?}", f.name);
                    tally.op(false);
                    return 0;
                }
            };
            tally.op(true);
            tally.write.push_keyed(write_ns, raw, tally.at, fi as u32);
        }
        tally.ratio_raw += raw;
        tally.ratio_stored += shard.len() as u64;

        let out = &mut self.restored[fi];
        let t1 = Instant::now();
        let read = Shard::open(&shard).and_then(|s| {
            let t2 = Instant::now();
            let span = trace::enter("store.read", raw);
            let stats = s.read_all(&self.registry, &mut self.scratch, out);
            trace::exit(span);
            let region_ns = ns(t2.elapsed());
            stats.map(|st| (s, st, region_ns))
        });
        let read_ns = ns(t1.elapsed());
        let ok = match read {
            Ok((s, stats, region_ns)) => {
                codecs::note_store_read(&s, &shard, stats, out.len(), region_ns, true);
                let (w, key) = (tally.at, fi as u32);
                tally.read.push_keyed(read_ns, raw, w, key);
                tally.region.push_keyed(region_ns, raw, w, key);
                tally.trip.push_keyed(write_ns + read_ns, raw, w, key);
                let ok = within_f32(&f.data, out, f.eb);
                if !ok {
                    eprintln!("snapshot: {} restored outside its bound", f.name);
                }
                ok
            }
            Err(e) => {
                eprintln!("snapshot: read_all({}) failed: {e:?}", f.name);
                false
            }
        };
        tally.op(ok);
        fnv_f32(fnv(0, &shard), out)
    }
}
