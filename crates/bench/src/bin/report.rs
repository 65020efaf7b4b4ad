//! Collates one output directory (`--out`, default `target/sweeps`) into a
//! markdown report, `REPORT.md` in the same directory: each results file
//! (`*.json`, the derived per-figure tables) and each sweep artifact
//! (`*.jsonl`; a crashed run's `*.journal.jsonl` is not an artifact and is
//! skipped). Run it after `figures`.

use dl_bench::Args;
use serde_json::Value;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The stems and paths of the files in `dir` named `*<ext>`, sorted.
fn files(dir: &Path, ext: &str) -> Vec<(String, PathBuf)> {
    let mut files: Vec<(String, PathBuf)> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            Some((name.strip_suffix(ext)?.to_string(), e.path()))
        })
        .collect();
    files.sort();
    files
}

/// One table cell: a whole number without decimals, any other number to
/// three places.
fn cell(v: Option<&Value>) -> String {
    match v {
        Some(Value::Number(n)) => {
            let f = n.as_f64().unwrap_or(0.0);
            if f.fract() == 0.0 && f.abs() < 1e15 {
                format!("{f:.0}")
            } else {
                format!("{f:.3}")
            }
        }
        Some(Value::String(s)) => s.clone(),
        Some(v) => v.to_string(),
        None => String::new(),
    }
}

/// Appends a results file: an array of flat objects as a markdown table,
/// anything else as its JSON `text`.
fn write_results(report: &mut String, text: &str, value: &Value) {
    let rows = match value {
        Value::Array(rows) => rows.as_slice(),
        _ => &[],
    };
    let Some(Value::Object(first)) = rows.first() else {
        let _ = writeln!(report, "```json\n{text}\n```");
        return;
    };
    let cols: Vec<&String> = first.keys().collect();
    let line = |cells: Vec<String>| format!("| {} |\n", cells.join(" | "));
    report.push_str(&line(cols.iter().map(|c| c.to_string()).collect()));
    report.push_str(&line(vec!["---".into(); cols.len()]));
    for row in rows {
        if let Value::Object(o) = row {
            report.push_str(&line(cols.iter().map(|c| cell(o.get(c))).collect()));
        }
    }
}

/// One sweep artifact's row: record count, total simulated time, and the
/// first and last labels — enough to see at a glance what ran.
fn sweep_row(name: &str, path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let records: Option<Vec<Value>> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).ok())
        .collect();
    let Some(records) = records else {
        return format!("| {name} | ? | unparseable | | |");
    };
    let sim_ps: f64 = records
        .iter()
        .map(|r| r.get("elapsed_ps").and_then(Value::as_f64).unwrap_or(0.0))
        .sum();
    let label = |r: Option<&Value>| cell(r.and_then(|r| r.get("label")));
    format!(
        "| {name} | {} | {:.3} ms | {} | {} |",
        records.len(),
        sim_ps / 1e9,
        label(records.first()),
        label(records.last())
    )
}

fn main() {
    let dir = Args::parse(std::env::args().skip(1)).sweep_options().dir();
    let results = files(&dir, ".json");
    if results.is_empty() {
        eprintln!(
            "no JSON results in {} — run the figures first",
            dir.display()
        );
        std::process::exit(1);
    }
    let mut report = String::from(
        "# DIMM-Link reproduction — collected results\n\n\
         Generated by `cargo run --release -p dl-bench --bin report` from the\n\
         JSON emitted by the figures.\n",
    );
    for (name, path) in &results {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        match serde_json::from_str::<Value>(&text) {
            Ok(value) => {
                let _ = writeln!(report, "\n## {name}\n");
                write_results(&mut report, &text, &value);
            }
            Err(e) => eprintln!("skipping {name}: {e}"),
        }
    }

    let sweeps = files(&dir, ".jsonl");
    let artifacts = sweeps
        .iter()
        .filter(|(name, _)| !name.ends_with(".journal"));
    for (i, (name, path)) in artifacts.enumerate() {
        if i == 0 {
            report.push_str(
                "\n## sweep artifacts\n\n\
                 | sweep | points | simulated time | first point | last point |\n\
                 | --- | --- | --- | --- | --- |\n",
            );
        }
        let _ = writeln!(report, "{}", sweep_row(name, path));
    }

    let out = dir.join("REPORT.md");
    std::fs::write(&out, &report).expect("writable report");
    println!("wrote {} ({} experiments)", out.display(), results.len());
}
