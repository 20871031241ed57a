//! `qcat` — the quality-assessment toolbox from the paper's artifact
//! appendix (compareData, calculateSSIM, PlotSliceImage), in one binary.
//!
//! ```text
//! cargo run --release --example qcat -- compareData <orig.f32> <recon.f32>
//! cargo run --release --example qcat -- calculateSSIM <orig.f32> <recon.f32> <d1> [d2 [d3]]
//! cargo run --release --example qcat -- PlotSliceImage <data.f32> <d1> <d2> [d3] <slice> <out.ppm>
//! ```

use cuszp_store::mmap::{map_f32_le, MappedSlice};
use std::path::Path;
use std::process::ExitCode;

// Zero-copy load: qcat inputs are often full-size SDRBench fields, and
// every subcommand only reads them — a memory-mapped view avoids the
// read-to-Vec copy entirely (with a transparent buffered-read fallback).
fn load(path: &str) -> Result<MappedSlice<f32>, String> {
    map_f32_le(Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

fn compare_data(orig: &str, recon: &str) -> Result<(), String> {
    let a = load(orig)?;
    let b = load(recon)?;
    if a.len() != b.len() {
        return Err(format!("length mismatch: {} vs {}", a.len(), b.len()));
    }
    let stats = metrics::ErrorStats::compute(&a, &b);
    let (lo, hi) = a
        .iter()
        .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    println!("This is little-endian system.");
    println!("reading data from {orig}");
    println!("Min = {lo}, Max = {hi}, range = {}", stats.value_range);
    println!("Max absolute error = {:.10}", stats.max_abs_error);
    println!("Max relative error = {:.6}", stats.max_rel_error);
    println!("PSNR = {:.6}, NRMSE = {:.19e}", stats.psnr, stats.nrmse);
    println!("pearson coeff = {:.6}", stats.pearson);
    Ok(())
}

fn calculate_ssim(orig: &str, recon: &str, dims: &[usize]) -> Result<(), String> {
    let a = load(orig)?;
    let b = load(recon)?;
    let n: usize = dims.iter().product();
    if n != a.len() || n != b.len() {
        return Err(format!(
            "dims {:?} = {} values, files have {}",
            dims,
            n,
            a.len()
        ));
    }
    println!("This is little-endian system.");
    println!("reading data from {orig}");
    println!("calcaulting....");
    let s = metrics::ssim::ssim(&a, &b, dims);
    println!("ssim = {s:.6}");
    Ok(())
}

fn plot_slice(data: &str, dims: &[usize], slice: usize, out: &str) -> Result<(), String> {
    let a = load(data)?;
    let n: usize = dims.iter().product();
    if n != a.len() {
        return Err(format!(
            "dims {:?} = {} values, file has {}",
            dims,
            n,
            a.len()
        ));
    }
    let field = datasets::Field::new("plot", dims.to_vec(), a.to_vec());
    let (h, w, plane) = field.slice2d(slice);
    metrics::image::write_ppm(Path::new(out), h, w, &plane).map_err(|e| e.to_string())?;
    println!("Image file is plotted and put here: {out}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parse_dims = |xs: &[String]| -> Result<Vec<usize>, String> {
        xs.iter()
            .map(|s| s.parse::<usize>().map_err(|_| format!("bad dim {s}")))
            .collect()
    };
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "compareData" && rest.len() == 2 => {
            compare_data(&rest[0], &rest[1])
        }
        Some((cmd, rest)) if cmd == "calculateSSIM" && (3..=5).contains(&rest.len()) => {
            match parse_dims(&rest[2..]) {
                Ok(dims) => calculate_ssim(&rest[0], &rest[1], &dims),
                Err(e) => Err(e),
            }
        }
        Some((cmd, rest)) if cmd == "PlotSliceImage" && (4..=6).contains(&rest.len()) => {
            let out = rest.last().expect("arity checked").clone();
            let slice_and_dims = &rest[1..rest.len() - 1];
            match parse_dims(slice_and_dims) {
                Ok(nums) if nums.len() >= 2 => {
                    let (slice, dims) = nums.split_last().expect("len checked");
                    plot_slice(&rest[0], dims, *slice, &out)
                }
                Ok(_) => Err("need at least one dim + slice".into()),
                Err(e) => Err(e),
            }
        }
        _ => Err("usage: qcat compareData|calculateSSIM|PlotSliceImage ...".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
