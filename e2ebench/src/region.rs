//! `region_reads`: a closed loop, one client, reading small boxes with
//! `Shard::read_region` from `CZP1` shards of the snapshot fields.

use crate::codecs;
use crate::input::{fnv_f32, ns, within_f32, Field, Rng, Tally, Workload};
use crate::snapshot::CHUNK;
use crate::trace;
use cuszp_store::{write_shard, CodecRegistry, Shard, StoreScratch};
use std::time::Instant;

/// Boxes in the seeded list; more than a run reads, so a run reads each
/// box at most once.
const BOXES: usize = 1 << 16;

/// A box of at most 8 × 32 × 128 elements in one field.
#[derive(Clone)]
pub struct Box3 {
    field: usize,
    origin: [usize; 3],
    extent: [usize; 3],
}

impl Box3 {
    fn len(&self) -> usize {
        self.extent.iter().product()
    }
}

/// The seeded box list: each field, and each extent 1–8 × 1–32 × 1–128
/// per axis, equally often (clamped to the field), in seeded order, at a
/// seeded origin that keeps the box inside the field.
pub fn boxes(fields: &[Field], seed: u64) -> Vec<Box3> {
    let mut rng = Rng::new(seed ^ 0xb0c5);
    let field = rng.balanced(BOXES, fields.len());
    let ext = [8, 32, 128].map(|max| rng.balanced(BOXES, max));
    (0..BOXES)
        .map(|i| {
            let shape = &fields[field[i]].shape;
            let mut origin = [0; 3];
            let mut extent = [0; 3];
            for axis in 0..3 {
                extent[axis] = (ext[axis][i] + 1).min(shape[axis]);
                origin[axis] = rng.range(0, shape[axis] - extent[axis]);
            }
            Box3 {
                field: field[i],
                origin,
                extent,
            }
        })
        .collect()
}

/// Write the `CZP1` shard of every field, timing each `write_shard` as a
/// compress-side operation of this workload.
pub fn populate(fields: &[Field], tally: &mut Tally) -> Vec<Vec<u8>> {
    let registry = CodecRegistry::with_defaults();
    let codec = registry.get(*b"CZP1").expect("CZP1 is registered");
    let mut shards = Vec::with_capacity(fields.len());
    for f in fields {
        let t0 = Instant::now();
        let shard = write_shard(&f.data, &f.shape, &CHUNK, codec, f.eb);
        let write_ns = ns(t0.elapsed());
        match shard {
            Ok(s) => {
                tally.op(true);
                tally.write.push(write_ns, f.raw_bytes(), tally.at);
                tally.ratio_raw += f.raw_bytes();
                tally.ratio_stored += s.len() as u64;
                shards.push(s);
            }
            Err(e) => {
                eprintln!("region_reads: write_shard({}) failed: {e:?}", f.name);
                tally.op(false);
                shards.push(Vec::new());
            }
        }
    }
    shards
}

pub struct Regions<'a> {
    fields: &'a [Field],
    shards: &'a [Vec<u8>],
    opened: Vec<Option<Shard<'a>>>,
    boxes: Vec<Box3>,
    registry: CodecRegistry,
    scratch: StoreScratch,
    out: Vec<f32>,
}

impl<'a> Regions<'a> {
    /// Open every shard and warm the read path with one box per field.
    pub fn open(
        fields: &'a [Field],
        shards: &'a [Vec<u8>],
        boxes: Vec<Box3>,
        tally: &mut Tally,
    ) -> Self {
        let opened = shards
            .iter()
            .map(|s| match Shard::open(s) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!("region_reads: Shard::open failed: {e:?}");
                    tally.op(false);
                    None
                }
            })
            .collect();
        let mut r = Regions {
            fields,
            shards,
            opened,
            boxes,
            registry: CodecRegistry::with_defaults(),
            scratch: StoreScratch::new(),
            out: vec![0f32; 8 * 32 * 128],
        };
        for fi in 0..fields.len() {
            if let Some(i) = r.boxes.iter().position(|b| b.field == fi) {
                r.step(i, tally);
            }
        }
        r
    }
}

impl Workload for Regions<'_> {
    fn round(&self) -> usize {
        1
    }

    fn use_traced_codecs(&mut self) {
        self.registry = codecs::traced_registry();
    }

    fn step(&mut self, i: usize, tally: &mut Tally) -> u64 {
        let b = &self.boxes[i % self.boxes.len()];
        let f = &self.fields[b.field];
        let Some(shard) = &self.opened[b.field] else {
            tally.op(false);
            return 0;
        };
        let n = b.len();
        let out = &mut self.out[..n];
        let bytes = (n * 4) as u64;
        let t0 = Instant::now();
        let span = trace::enter("store.read", bytes);
        let res = shard.read_region(&self.registry, &b.origin, &b.extent, &mut self.scratch, out);
        trace::exit(span);
        let read_ns = ns(t0.elapsed());
        let ok = match res {
            Ok(stats) => {
                codecs::note_store_read(shard, &self.shards[b.field], stats, n, read_ns, false);
                tally.read.push(read_ns, bytes, tally.at);
                tally.region.push(read_ns, bytes, tally.at);
                tally.trip.push(read_ns, bytes, tally.at);
                box_within(f, b, out)
            }
            Err(e) => {
                eprintln!("region_reads: read_region({}) failed: {e:?}", f.name);
                false
            }
        };
        tally.op(ok);
        fnv_f32(0, out)
    }
}

/// Every value of the box lies within the field's bound of its source.
fn box_within(f: &Field, b: &Box3, out: &[f32]) -> bool {
    let [_, ny, nx] = [f.shape[0], f.shape[1], f.shape[2]];
    let [ez, ey, ex] = b.extent;
    let [oz, oy, ox] = b.origin;
    (0..ez).all(|z| {
        (0..ey).all(|y| {
            let src = ((oz + z) * ny + oy + y) * nx + ox;
            let got = (z * ey + y) * ex;
            within_f32(&f.data[src..src + ex], &out[got..got + ex], f.eb)
        })
    })
}
