//! The run record: what ran, on what, and with which samples. Written to
//! `out/` beside this crate and echoed on stderr.

use crate::input::Field;
use crate::stats::{num, quote, Outcome};
use crate::trace::Span;
use crate::Args;
use cuszp_core::DType;
use std::path::PathBuf;

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return id.trim().to_string();
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Unified and data cache sizes of CPU 0 by level, as the kernel reports
/// them (e.g. `"L2": "2048K"`).
fn caches() -> String {
    let mut parts = Vec::new();
    for i in 0..8 {
        let dir = PathBuf::from(format!("/sys/devices/system/cpu/cpu0/cache/index{i}"));
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).map(|s| s.trim().to_string());
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            continue;
        };
        if kind != "Instruction" {
            parts.push(format!("{}: {}", quote(&format!("L{level}")), quote(&size)));
        }
    }
    format!("{{{}}}", parts.join(", "))
}

/// Write the spans of a traced run; returns the file's path.
pub fn write_spans(args: &Args, spans: &[Span]) -> std::io::Result<String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    crate::trace::write_tsv(&path, spans)?;
    Ok(path.display().to_string())
}

/// Add the host and build facts, then write the record and echo it.
pub fn finish(args: &Args, fields: &[Field], out: &mut Outcome) {
    let level = cuszp_core::simd::resolve_level(None);
    let mut facts = vec![
        ("workload".to_string(), quote(&args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), num(args.seconds)),
        ("trace".to_string(), args.trace.to_string()),
        ("commit".to_string(), quote(&commit())),
        ("simd_level".to_string(), quote(level.name())),
        (
            "tile_elems".to_string(),
            format!(
                "{{\"f32\": {}, \"f64\": {}}}",
                cuszp_core::tune::tile_elems(DType::F32, level),
                cuszp_core::tune::tile_elems(DType::F64, level)
            ),
        ),
        ("cpu_model".to_string(), quote(&cpu_model())),
        ("caches".to_string(), caches()),
        (
            "fields".to_string(),
            format!(
                "[{}]",
                fields
                    .iter()
                    .map(|f| format!(
                        "{{\"name\": {}, \"shape\": {:?}, \"eb\": {}}}",
                        quote(&f.name),
                        f.shape,
                        num(f.eb)
                    ))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        (
            "counting_allocator_installed".to_string(),
            alloc_counter::is_installed().to_string(),
        ),
    ];
    facts.append(&mut out.record);
    out.record = facts;
    out.note("correct", out.correct.to_string());
    out.note("attempted", out.attempted.to_string());
    out.note("failed", out.failed.to_string());
    out.note("metrics", out.values_json());
    let json = out.record_json();
    eprintln!("{json}");
    let name = format!(
        "run-{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    );
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|_| std::fs::write(out_dir().join(name), json + "\n"));
    if let Err(e) = written {
        eprintln!("e2ebench: could not write the run record: {e}");
    }
}
