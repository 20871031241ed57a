//! `compx` — a clone of the CLI from the paper's artifact appendix.
//!
//! ```text
//! cargo run --release --example compx_cli -- <file.f32> <rel-error-bound>
//! cargo run --release --example compx_cli -- --demo 1e-4
//! ```
//!
//! Reads a raw little-endian `f32` file (SDRBench format), compresses and
//! decompresses it with cuSZp on the simulated A100, writes
//! `<file>.compx.cmp` / `<file>.compx.dec`, and prints the same summary
//! the artifact's `compx temperature.f32 1e-4` produces.

use baselines::cuszp::{compress_kernel, decompress_kernel};
use cuszp_core::{Compressed, Cuszp, ErrorBound};
use cuszp_store::mmap::map_f32_le;
use gpu_sim::{DeviceSpec, Gpu};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (path, rel, demo) = match args.as_slice() {
        [flag, rel] if flag == "--demo" => (PathBuf::from("compx_demo.f32"), rel.clone(), true),
        [path, rel] => (PathBuf::from(path), rel.clone(), false),
        _ => {
            eprintln!("usage: compx <data.f32> <rel-error-bound>   (or --demo <rel>)");
            return ExitCode::from(2);
        }
    };
    let rel: f64 = match rel.parse() {
        Ok(v) if v > 0.0 && v < 1.0 => v,
        _ => {
            eprintln!("relative error bound must be in (0, 1), e.g. 1e-4");
            return ExitCode::from(2);
        }
    };

    if demo {
        // Generate a NYX-temperature-like field so the demo runs without
        // downloading SDRBench.
        let field = datasets::nyx::field("temperature", &[64, 64, 64]);
        datasets::io::write_field(&path, &field).expect("write demo data");
        println!("[demo] wrote {} ({} values)", path.display(), field.len());
    }

    // Zero-copy load: the file is memory-mapped (falling back to a
    // buffered read where mapping is unavailable) and compressed straight
    // out of the page cache — the input-side analogue of the paper's
    // no-intermediate-buffer design.
    let data = match map_f32_le(&path) {
        Ok(d) if !d.is_empty() => d,
        Ok(_) => {
            eprintln!("{}: empty file", path.display());
            return ExitCode::from(1);
        }
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            return ExitCode::from(1);
        }
    };

    let codec = Cuszp::new();
    let eb = codec.resolve_bound(&data, ErrorBound::Rel(rel));

    let mut gpu = Gpu::new(DeviceSpec::a100());
    let input = gpu.h2d(&data);
    gpu.reset_timeline();
    let dc = compress_kernel(&mut gpu, &input, eb, codec.config);
    println!("CompX Compression Kernel finished!");
    let comp_gbps = gpu.end_to_end_throughput_gbps((data.len() * 4) as u64);

    gpu.reset_timeline();
    let out = decompress_kernel(&mut gpu, &dc);
    println!("CompX Decompression Kernel finished!");
    let decomp_gbps = gpu.end_to_end_throughput_gbps((data.len() * 4) as u64);
    let restored = gpu.d2h(&out);

    // Persist artifacts like the reference CLI.
    let host_stream: Compressed = dc.to_host(&mut gpu);
    let cmp_path = path.with_extension("f32.compx.cmp");
    let dec_path = path.with_extension("f32.compx.dec");
    std::fs::write(&cmp_path, host_stream.to_bytes()).expect("write .cmp");
    datasets::io::write_f32_le(&dec_path, &restored).expect("write .dec");

    let ratio = (data.len() * 4) as f64 / host_stream.stream_bytes() as f64;
    println!("CompX finished!");
    println!("CompX Compression   end-to-end speed: {comp_gbps:.6} GB/s (simulated A100)");
    println!("CompX Decompression end-to-end speed: {decomp_gbps:.6} GB/s (simulated A100)");
    println!("CompX Compression ratio: {ratio:.6}");

    if cuszp_core::verify::check_bound(&data, &restored, eb) {
        println!("Pass error check!");
        ExitCode::SUCCESS
    } else {
        println!("FAILED error check!");
        ExitCode::from(1)
    }
}
