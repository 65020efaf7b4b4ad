//! Collates `target/results/*.json` (derived per-figure tables) and the
//! `target/sweeps/*.jsonl` sweep artifacts into one markdown report
//! (`target/results/REPORT.md`) — run after the figure binaries.

use std::fmt::Write as _;
use std::path::Path;

/// Summarizes one JSON-lines sweep artifact: record count, total simulated
/// time, and the label range — enough to see at a glance what ran.
fn sweep_summary(path: &Path) -> Option<(usize, f64, String, String)> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut count = 0usize;
    let mut sim_ps = 0.0f64;
    let mut first = String::new();
    let mut last = String::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v: serde_json::Value = serde_json::from_str(line).ok()?;
        count += 1;
        sim_ps += v.get("elapsed_ps").and_then(|e| e.as_f64()).unwrap_or(0.0);
        let label = v
            .get("label")
            .and_then(|l| l.as_str())
            .unwrap_or("")
            .to_string();
        if first.is_empty() {
            first = label.clone();
        }
        last = label;
    }
    Some((count, sim_ps, first, last))
}

fn main() {
    let dir = Path::new("target/results");
    if !dir.exists() {
        eprintln!("no target/results directory — run the figure binaries first");
        std::process::exit(1);
    }
    let mut report = String::from(
        "# DIMM-Link reproduction — collected results\n\n\
         Generated by `cargo run --release -p dl-bench --bin report` from the\n\
         JSON emitted by the figure binaries.\n",
    );

    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("readable results dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();

    if entries.is_empty() {
        eprintln!("no JSON results found — run the figure binaries first");
        std::process::exit(1);
    }

    for path in &entries {
        let name = path
            .file_stem()
            .expect("a read_dir entry has a file name")
            .to_string_lossy()
            .to_string();
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let value: serde_json::Value = match serde_json::from_str(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("skipping {name}: {e}");
                continue;
            }
        };
        let _ = writeln!(report, "\n## {name}\n");
        match &value {
            serde_json::Value::Array(rows) if !rows.is_empty() => {
                // Render an array of flat objects as a markdown table.
                if let Some(serde_json::Value::Object(first)) = rows.first() {
                    let cols: Vec<&String> = first.keys().collect();
                    let _ = writeln!(
                        report,
                        "| {} |",
                        cols.iter()
                            .map(|c| c.as_str())
                            .collect::<Vec<_>>()
                            .join(" | ")
                    );
                    let _ = writeln!(report, "| {} |", vec!["---"; cols.len()].join(" | "));
                    for row in rows {
                        if let serde_json::Value::Object(o) = row {
                            let cells: Vec<String> = cols
                                .iter()
                                .map(|c| match o.get(c) {
                                    Some(serde_json::Value::Number(n)) => {
                                        let f = n.as_f64().unwrap_or(0.0);
                                        if f.fract() == 0.0 && f.abs() < 1e15 {
                                            format!("{f:.0}")
                                        } else {
                                            format!("{f:.3}")
                                        }
                                    }
                                    Some(serde_json::Value::String(s)) => s.clone(),
                                    Some(v) => v.to_string(),
                                    None => String::new(),
                                })
                                .collect();
                            let _ = writeln!(report, "| {} |", cells.join(" | "));
                        }
                    }
                } else {
                    let _ = writeln!(report, "```json\n{text}\n```");
                }
            }
            _ => {
                let _ = writeln!(report, "```json\n{text}\n```");
            }
        }
    }

    // Sweep artifacts (one JSON-lines file per figure sweep).
    let sweep_dir = Path::new("target/sweeps");
    if let Ok(rd) = std::fs::read_dir(sweep_dir) {
        let mut sweeps: Vec<_> = rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .collect();
        sweeps.sort();
        if !sweeps.is_empty() {
            let _ = writeln!(report, "\n## sweep artifacts\n");
            let _ = writeln!(
                report,
                "| sweep | points | simulated time | first point | last point |"
            );
            let _ = writeln!(report, "| --- | --- | --- | --- | --- |");
            for path in &sweeps {
                let name = path
                    .file_stem()
                    .expect("a read_dir entry has a file name")
                    .to_string_lossy()
                    .to_string();
                if let Some((count, sim_ps, first, last)) = sweep_summary(path) {
                    let _ = writeln!(
                        report,
                        "| {name} | {count} | {:.3} ms | {first} | {last} |",
                        sim_ps / 1e9
                    );
                } else {
                    let _ = writeln!(report, "| {name} | ? | unparseable | | |");
                }
            }
        }
    }

    let out = dir.join("REPORT.md");
    std::fs::write(&out, &report).expect("writable report");
    println!("wrote {} ({} experiments)", out.display(), entries.len());
}
