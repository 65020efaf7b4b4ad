//! # dl-bench
//!
//! The experiment harness: each table and figure of the paper's evaluation
//! (Section V) plus the ablations is a [`figures::Figure`], and the
//! `figures` binary runs one by name. A run prints the rows or series the
//! paper reports and writes its sweep artifacts and its results JSON to
//! one directory (`--out`, default `target/sweeps`); `report` collates
//! that directory into `REPORT.md`.
//!
//! Run, e.g.:
//!
//! ```text
//! cargo run --release -p dl-bench --bin figures -- --list
//! cargo run --release -p dl-bench --bin figures -- fig10_p2p
//! cargo run --release -p dl-bench --bin figures -- fig10_p2p --quick   # small inputs
//! cargo run --release -p dl-bench --bin figures -- fig10_p2p --scale 14
//! ```

pub mod fidelity;
pub mod figures;
pub mod sweep;

use dl_engine::stats::geomean;
use dl_engine::Ps;
use dl_workloads::WorkloadParams;
use sweep::SweepOptions;

/// The command-line arguments of a figure run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload scale (R-MAT log2 vertices etc.); default 13, `--quick` = 10.
    pub scale: u32,
    /// Input-generation seed.
    pub seed: u64,
    /// Quick mode for smoke-testing.
    pub quick: bool,
    /// Sweep worker threads (`--threads`; falls back to `DL_THREADS`).
    pub threads: Option<usize>,
    /// Directory of the sweep artifacts and the results JSON (`--out`;
    /// default `target/sweeps`).
    pub out: Option<std::path::PathBuf>,
    /// Reuse journaled points from an interrupted run (`--resume`).
    pub resume: bool,
    /// Simulated-time cap per run, milliseconds (`--max-sim-ms N`).
    pub max_sim_ms: Option<u64>,
}

const USAGE: &str =
    "usage: [--scale N] [--seed N] [--quick] [--threads N] [--out DIR] [--resume] [--max-sim-ms N]";

/// Takes the value following `flag` and parses it, naming the flag and the
/// offending text on failure.
fn flag_value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let v = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
    v.parse()
        .map_err(|_| format!("{flag}: '{v}' is not a valid number"))
}

impl Args {
    /// Parses `argv` (see [`Args::parse_from`]); on a malformed line prints
    /// the error and the usage and exits with status 2.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Self {
        Self::parse_from(argv).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        })
    }

    /// Parses `--scale N`, `--seed N`, `--quick`, `--threads N`, `--out DIR`,
    /// `--resume`, `--max-sim-ms N` (arguments without the program name).
    /// `--help` prints the usage and exits.
    ///
    /// # Errors
    /// A valued flag with a missing value, a numeric flag with an
    /// unparsable value, `--threads 0`, a `--scale` past
    /// [`MAX_SCALE`](dl_workloads::MAX_SCALE), and an unknown argument —
    /// each would otherwise silently run a different experiment or write
    /// elsewhere.
    pub fn parse_from(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            scale: 0,
            seed: 42,
            quick: false,
            threads: None,
            out: None,
            resume: false,
            max_sim_ms: None,
        };
        let mut scale = None;
        let mut it = argv.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => scale = Some(flag_value(&mut it, "--scale")?),
                "--seed" => args.seed = flag_value(&mut it, "--seed")?,
                "--quick" => args.quick = true,
                "--threads" => {
                    let n: usize = flag_value(&mut it, "--threads")?;
                    if n == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                    args.threads = Some(n);
                }
                "--out" => args.out = Some(flag_value(&mut it, "--out")?),
                "--resume" => args.resume = true,
                "--max-sim-ms" => args.max_sim_ms = Some(flag_value(&mut it, "--max-sim-ms")?),
                "--help" | "-h" => {
                    eprintln!("{USAGE}");
                    std::process::exit(0);
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        args.scale = scale.unwrap_or(if args.quick { 10 } else { 13 });
        if args.scale > dl_workloads::MAX_SCALE {
            return Err(format!(
                "--scale {} exceeds the maximum {}",
                args.scale,
                dl_workloads::MAX_SCALE
            ));
        }
        Ok(args)
    }

    /// The workload parameters of a point on `dimms` DIMMs: `--scale` and
    /// `--seed` on top of [`WorkloadParams::small`].
    pub fn params(&self, dimms: usize) -> WorkloadParams {
        WorkloadParams {
            scale: self.scale,
            seed: self.seed,
            ..WorkloadParams::small(dimms)
        }
    }

    /// The sweep options these arguments describe.
    pub fn sweep_options(&self) -> SweepOptions {
        SweepOptions {
            threads: self.threads,
            out_dir: self.out.clone(),
            quiet: false,
            resume: self.resume,
            halt_after: None,
        }
    }
}

/// Converts a `--max-sim-ms` value to a simulated-time cap (saturating, so
/// a huge value means "effectively unlimited" rather than a wrapped cap).
pub fn sim_cap_of_ms(ms: u64) -> Ps {
    Ps::from_ps(ms.saturating_mul(1_000_000_000))
}

/// Formats a speedup.
pub fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a percentage.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Geometric mean over a slice.
pub fn geo(values: &[f64]) -> f64 {
    geomean(values.iter().copied())
}

/// Bandwidth in GB/s from bytes moved over a span.
pub fn gbps(bytes: u64, span: Ps) -> f64 {
    if span == Ps::ZERO {
        0.0
    } else {
        bytes as f64 / span.as_secs_f64() / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_and_format_helpers() {
        assert!((geo(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(fmt_x(1.5), "1.50x");
        assert_eq!(fmt_pct(0.305), "30.5%");
    }

    fn parse(line: &[&str]) -> Result<Args, String> {
        Args::parse_from(line.iter().map(|s| s.to_string()))
    }

    #[test]
    fn numeric_flags_reject_non_numbers() {
        for flag in ["--scale", "--seed", "--threads", "--max-sim-ms"] {
            let err = parse(&[flag, "7x"]).expect_err(flag);
            assert!(err.contains(flag) && err.contains("7x"), "{err}");
            assert!(parse(&[flag]).is_err(), "{flag} without a value");
        }
        // The integer cap does not accept float notation.
        assert!(parse(&["--max-sim-ms", "1e3"]).is_err());
    }

    #[test]
    fn zero_threads_and_unknown_arguments_are_rejected() {
        assert!(parse(&["--threads", "0"]).is_err());
        // An unknown flag is an error, not a warning: `--bogus 1000` must
        // not run an experiment other than the one asked for.
        let err = parse(&["--quick", "--bogus", "1000"]).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        assert!(parse(&["1000"]).is_err());
        // A trailing `--out` must not fall back to the default directory.
        let err = parse(&["--quick", "--out"]).unwrap_err();
        assert!(err.contains("--out"), "{err}");
    }

    #[test]
    fn scales_past_the_maximum_are_rejected() {
        // `--scale 32` once wrapped to the scale-0 experiment.
        assert_eq!(parse(&["--scale", "31"]).unwrap().scale, 31);
        let err = parse(&["--scale", "32"]).unwrap_err();
        assert!(err.contains("--scale 32"), "{err}");
    }

    #[test]
    fn valid_line_round_trips() {
        let a = parse(&[
            "--scale",
            "11",
            "--seed",
            "7",
            "--threads",
            "3",
            "--out",
            "dir",
            "--resume",
            "--max-sim-ms",
            "4",
        ])
        .unwrap();
        assert_eq!(a.scale, 11);
        assert_eq!(a.seed, 7);
        assert!(!a.quick);
        assert_eq!(a.threads, Some(3));
        assert_eq!(a.out, Some(std::path::PathBuf::from("dir")));
        assert!(a.resume);
        assert_eq!(a.max_sim_ms, Some(4));
        assert_eq!(sim_cap_of_ms(4), Ps::from_ms(4));

        let d = parse(&["--quick"]).unwrap();
        assert_eq!((d.scale, d.seed, d.threads), (10, 42, None));
        assert_eq!(parse(&[]).unwrap().scale, 13);
    }

    #[test]
    fn gbps_math() {
        let v = gbps(19_200_000_000, Ps::from_ms(1000));
        assert!((v - 19.2).abs() < 1e-9);
        assert_eq!(gbps(100, Ps::ZERO), 0.0);
    }
}
