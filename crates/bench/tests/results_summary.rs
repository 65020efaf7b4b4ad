//! A figure binary that cannot write its `target/results` summary fails.

use std::process::Command;

#[test]
fn an_unwritable_summary_exits_1_and_names_the_file() {
    // A regular file where the results directory should be.
    let dir = std::env::temp_dir().join(format!("dl-results-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("target")).expect("create the scratch directory");
    std::fs::write(dir.join("target/results"), "").expect("create the blocking file");
    let out = Command::new(env!("CARGO_BIN_EXE_fig01_motivation"))
        .args(["--quick", "--threads", "1", "--out", "sweeps"])
        .current_dir(&dir)
        .output()
        .expect("run fig01_motivation");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("error: target/results/fig01_motivation.json"),
        "stderr: {stderr}"
    );
}
