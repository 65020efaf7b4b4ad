//! End-to-end smoke tests of the `dlsim` binary.

use std::process::Command;

fn dlsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dlsim"))
}

#[test]
fn help_and_list_exit_zero() {
    let out = dlsim().arg("help").output().expect("spawn dlsim");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));

    let out = dlsim().arg("list").output().expect("spawn dlsim");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("workloads:"));
}

#[test]
fn bad_flags_exit_nonzero_with_usage() {
    let out = dlsim()
        .args(["run", "--workload", "nonsense"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}

#[test]
fn run_emits_valid_json() {
    let out = dlsim()
        .args([
            "run",
            "--workload",
            "km",
            "--dimms",
            "4",
            "--channels",
            "2",
            "--scale",
            "7",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("stdout must be valid JSON");
    assert!(v["elapsed_ns"].as_f64().unwrap() > 0.0);
    assert!(v["stats"]["barriers"].as_f64().unwrap() > 0.0);
}

#[test]
fn run_reports_a_simulated_time_cut() {
    let line = [
        "run",
        "--workload",
        "km",
        "--dimms",
        "4",
        "--channels",
        "2",
        "--scale",
        "7",
        "--max-sim-ms",
        "0",
    ];
    let out = dlsim().args(line).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("status           : exceeded the simulated-time budget"),
        "{text}"
    );

    let out = dlsim().args(line).arg("--json").output().unwrap();
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(v["status"]["BudgetExceeded"].as_str(), Some("SimTime"));

    // A completed run prints no status line and reports "Completed".
    let full = &line[..line.len() - 2];
    let out = dlsim().args(full).output().unwrap();
    assert!(!String::from_utf8_lossy(&out.stdout).contains("status"));
    let out = dlsim().args(full).arg("--json").output().unwrap();
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(v["status"].as_str(), Some("Completed"));
}

#[test]
fn sweep_prints_every_value() {
    let out = dlsim()
        .args([
            "sweep",
            "--workload",
            "hs",
            "--param",
            "dimms",
            "--values",
            "4,8",
            "--scale",
            "7",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains('4') && text.contains('8'));
}
