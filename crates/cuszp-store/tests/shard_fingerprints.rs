//! `CZH1` shard bytes are pinned by fingerprint. Every Tiny
//! Hurricane/NYX/RTM field is written with the snapshot chunk shape
//! `[4, 32, 128]` at a 1e-3 relative bound, and the shards of each
//! dataset must reproduce the FNV-64 and total length recorded from the
//! encoder that writes `Pass`, `Constant` and `Huffman4` chunks. The
//! entropy stage may get faster; its bytes may not move. Run under each
//! `CUSZP_SIMD` tier, this also checks that the shards are identical at
//! every tier.

use cuszp_store::{write_shard, CodecRegistry};
use datasets::{generate, DatasetId, Scale};

const CHUNK: [usize; 3] = [4, 32, 128];

fn fnv64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn hybrid_shards_match_recorded_fingerprints() {
    let registry = CodecRegistry::with_defaults();
    let codec = registry.get(*b"CZH1").expect("CZH1 is registered");
    let want = [
        (
            DatasetId::Hurricane,
            (0x71e4_c876_f5d7_9d67u64, 23_123usize),
        ),
        (DatasetId::Nyx, (0x77d7_5497_e22e_7769, 14_450)),
        (DatasetId::Rtm, (0x2766_f461_6623_0d35, 183_684)),
    ];
    for (id, fp) in want {
        let (mut h, mut total) = (0xcbf2_9ce4_8422_2325u64, 0usize);
        for f in generate(id, Scale::Tiny) {
            let eb = 1e-3 * f64::from(f.value_range());
            let shard = write_shard(&f.data, &f.shape, &CHUNK, codec, eb).expect("shard writes");
            h = fnv64(h, &shard);
            total += shard.len();
        }
        assert_eq!((h, total), fp, "{} shards moved", id.name());
    }
}
