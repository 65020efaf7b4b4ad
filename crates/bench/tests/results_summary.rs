//! A figure that cannot write its results file beside its sweep fails.

use std::process::Command;

#[test]
fn an_unwritable_summary_exits_1_and_names_the_file() {
    // A directory where the results file should be.
    let dir = std::env::temp_dir().join(format!("dl-results-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("sweeps/fig01_motivation.json"))
        .expect("create the blocking directory");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args([
            "fig01_motivation",
            "--quick",
            "--threads",
            "1",
            "--out",
            "sweeps",
        ])
        .current_dir(&dir)
        .output()
        .expect("run figures fig01_motivation");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("error: sweeps/fig01_motivation.json"),
        "stderr: {stderr}"
    );
}
