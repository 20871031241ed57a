//! Archive a whole dataset: compress every field of a synthetic NYX
//! snapshot into its own `cuszp-store` shard on disk, reload each shard
//! through a memory map, and verify every field — the batch workflow a
//! simulation campaign would use for post-hoc analysis storage.
//!
//! ```text
//! cargo run --release --example archive_dataset
//! ```

use cuszp_core::{value_range, ErrorBound};
use cuszp_store::{write_shard, CodecRegistry, CuszpCodec, Shard, StoreScratch};
use datasets::{generate, DatasetId, Scale};

/// Edge of the cubic chunks each shard is split into (clamped per axis).
const CHUNK_EDGE: usize = 32;

fn main() {
    let fields = generate(DatasetId::Nyx, Scale::Small);
    let bound = ErrorBound::Rel(1e-3);
    let dir = std::env::temp_dir().join(format!("nyx_snapshot_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create archive dir");

    let (mut raw, mut stored) = (0u64, 0u64);
    let mut ebs = Vec::with_capacity(fields.len());
    for field in &fields {
        let eb = bound.absolute(value_range(&field.data));
        let chunk: Vec<usize> = field.shape.iter().map(|&d| d.min(CHUNK_EDGE)).collect();
        let shard = write_shard(&field.data, &field.shape, &chunk, &CuszpCodec::PLAIN, eb)
            .expect("write shard");
        std::fs::write(dir.join(format!("{}.czp", field.name)), &shard).expect("write shard file");
        println!(
            "  {:<22} {:>9} -> {:>9} bytes ({:.2}x, eb {:.3e})",
            field.name,
            field.size_bytes(),
            shard.len(),
            field.size_bytes() as f64 / shard.len() as f64,
            eb
        );
        raw += field.size_bytes();
        stored += shard.len() as u64;
        ebs.push(eb);
    }
    println!(
        "\narchived {} fields: {:.1} MB -> {:.1} MB ({:.2}x) in {}",
        fields.len(),
        raw as f64 / 1e6,
        stored as f64 / 1e6,
        raw as f64 / stored as f64,
        dir.display()
    );

    // Reload and verify every field against its own bound.
    let registry = CodecRegistry::with_defaults();
    let mut scratch = StoreScratch::new();
    for (field, &eb) in fields.iter().zip(&ebs) {
        let shard =
            Shard::open_path(&dir.join(format!("{}.czp", field.name))).expect("open shard file");
        let mut restored = vec![0f32; shard.num_elements()];
        shard
            .read_all(&registry, &mut scratch, &mut restored)
            .expect("read shard");
        assert!(
            cuszp_core::verify::check_bound(&field.data, &restored, eb),
            "{} violated its bound after the disk round trip",
            field.name
        );
    }
    println!(
        "all {} fields verified within bound after reload",
        fields.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}
