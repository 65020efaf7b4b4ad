//! Runs one figure or table of the evaluation by name; `figures --list`
//! prints the names.
//!
//! The figure's sweeps write `<out>/<sweep>.jsonl` (default `target/sweeps`),
//! its tables go to stdout and its results to `<out>/<stem>.json`. Exits 2
//! on an unknown or missing name or a malformed option, and 1 on a failed
//! point, an unwritable results file or a failed check of the figure's own.

use dl_bench::figures::FIGURES;
use dl_bench::{sim_cap_of_ms, Args};
use std::process::ExitCode;

const USAGE: &str = "usage: figures <name> [--scale N] [--seed N] [--quick] [--threads N] [--out DIR] [--resume] [--max-sim-ms N]\n       figures --list";

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    if name == "--list" {
        for figure in FIGURES {
            println!("{}", figure.name);
        }
        return ExitCode::SUCCESS;
    }
    let Some(figure) = FIGURES.iter().find(|f| f.name == name) else {
        eprintln!("error: no figure named '{name}' (see `figures --list`)\n{USAGE}");
        return ExitCode::from(2);
    };
    let args = Args::parse(argv);
    let opts = args.sweep_options();

    let mut records = Vec::new();
    for mut sweep in (figure.points)(&args) {
        if let Some(ms) = args.max_sim_ms {
            sweep.cap_sim_time(sim_cap_of_ms(ms));
        }
        // Completed points are journaled first, so a rerun with `--resume`
        // picks up where this one stopped.
        match sweep.run_with(&opts) {
            Ok(out) => records.extend(out.records),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = (figure.report)(&args, &records);
    print!("{}", report.text);
    if let Some((stem, value)) = report.results {
        let dir = opts.dir();
        let path = dir.join(format!("{stem}.json"));
        let json = serde_json::to_string_pretty(&value).unwrap_or_default();
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json + "\n"))
        {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("[saved {}]", path.display());
    }
    match report.verdict {
        Ok(line) => print!("{line}"),
        Err(line) => {
            eprintln!("{line}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
