//! The `figures` driver: names, exit statuses and where a run's files go;
//! and `report`, which collates one such output directory.

use dl_bench::figures::FIGURES;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh scratch directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dl-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    dir
}

fn run(bin: &str, cwd: &Path, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("run the binary")
}

#[test]
fn list_prints_each_registered_name_once_and_unknown_names_exit_2() {
    let dir = scratch("figures-list");
    let figures = env!("CARGO_BIN_EXE_figures");
    let list = run(figures, &dir, &["--list"]);
    assert_eq!(list.status.code(), Some(0));
    let printed = String::from_utf8_lossy(&list.stdout).into_owned();
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    assert_eq!(printed.lines().collect::<Vec<_>>(), names);
    for name in &names {
        assert_eq!(printed.lines().filter(|l| l == name).count(), 1, "{name}");
    }

    for args in [&["no_such_figure", "--quick"][..], &[]] {
        let out = run(figures, &dir, args);
        assert_eq!(out.status.code(), Some(2), "figures {args:?}");
        assert!(out.stdout.is_empty(), "figures {args:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn runs_at_different_seeds_keep_their_own_results_beside_their_sweeps() {
    let dir = scratch("figures-out");
    let figures = env!("CARGO_BIN_EXE_figures");
    for (out, seed) in [("a", "1"), ("b", "2")] {
        let args = [
            "fig01_motivation",
            "--quick",
            "--threads",
            "1",
            "--out",
            out,
            "--seed",
            seed,
        ];
        let run = run(figures, &dir, &args);
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert_eq!(run.status.code(), Some(0), "{stdout}");
        assert!(
            stdout.contains(&format!("[saved {out}/fig01_motivation.json]")),
            "{stdout}"
        );
    }
    for out in ["a", "b"] {
        for file in ["fig01_motivation.json", "fig01_motivation.jsonl"] {
            assert!(dir.join(out).join(file).is_file(), "{out}/{file}");
        }
    }
    assert!(
        !dir.join("target").exists(),
        "nothing is written outside --out"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_collates_the_out_directory_and_skips_journals() {
    let dir = scratch("report");
    std::fs::write(
        dir.join("fig99.json"),
        "[{\"workload\":\"pr\",\"speedup\":1.5}]\n",
    )
    .expect("write a results file");
    let record = "{\"label\":\"pr / DL\",\"elapsed_ps\":2000000000}\n";
    std::fs::write(dir.join("fig99.jsonl"), record).expect("write a sweep artifact");
    // What a killed run leaves behind: a journal, not an artifact.
    std::fs::write(dir.join("fig99.journal.jsonl"), "{\"key\":\"0\"}\n").expect("write a journal");

    let out = run(env!("CARGO_BIN_EXE_report"), &dir, &["--out", "."]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read_to_string(dir.join("REPORT.md")).expect("REPORT.md is written");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(report.contains("| 1.500 | pr |"), "{report}");
    assert!(
        report.contains("| fig99 | 1 | 2.000 ms | pr / DL | pr / DL |"),
        "{report}"
    );
    assert!(!report.contains("journal"), "{report}");
}
