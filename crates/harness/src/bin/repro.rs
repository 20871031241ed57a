//! `repro` — regenerate the cuSZp paper's tables and figures.
//!
//! ```text
//! repro list
//! repro all [--scale tiny|small|medium] [--out DIR] [--fields N]
//! repro fig13 table3 ...
//! ```

use harness::experiments::{registry, Ctx};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = Ctx::default();
    let mut selected: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                ctx.scale = datasets::Scale::parse(args.get(i).map(String::as_str).unwrap_or(""))
                    .unwrap_or_else(|| {
                        eprintln!("unknown scale; use tiny|small|medium");
                        std::process::exit(2);
                    });
            }
            "--out" => {
                i += 1;
                ctx.out_dir = args
                    .get(i)
                    .map(std::path::PathBuf::from)
                    .unwrap_or_else(|| {
                        eprintln!("--out needs a directory");
                        std::process::exit(2);
                    });
            }
            "--fields" => {
                i += 1;
                ctx.max_fields = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--fields needs a number");
                    std::process::exit(2);
                });
            }
            other => selected.push(other.to_string()),
        }
        i += 1;
    }

    let reg = registry();
    if selected.is_empty() || selected.iter().any(|s| s == "list") {
        println!("Available experiments (run `repro all` or name them):");
        for (id, desc, _) in &reg {
            println!("  {id:<10} {desc}");
        }
        return;
    }

    let run_all = selected.iter().any(|s| s == "all");
    let mut ran = 0;
    for (id, _, runner) in &reg {
        if run_all || selected.iter().any(|s| s == id) {
            runner(&ctx);
            ran += 1;
        }
    }
    if ran == 0 {
        eprintln!("no experiment matched {selected:?}; try `repro list`");
        std::process::exit(2);
    }
}
