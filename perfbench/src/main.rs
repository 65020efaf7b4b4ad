//! `perfbench` — host-time benchmark of the DIMM-Link simulator.
//!
//! ```text
//! perfbench --workload <pr-dl|km-dl> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Builds one workload from `--seed`, then runs its simulation calls one at
//! a time on this thread (closed loop, sequential engine) for `--seconds`
//! of host time. With `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` it makes the same calls through the layers the runner uses,
//! with a span around each, and prints the per-layer metrics. The last line
//! of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.
//! Every run is checked: it must complete, every repetition must produce
//! the same fingerprint of its simulated statistics, and the traffic
//! fractions must sum to 1. The command exits non-zero if any check fails.

mod alloc;
mod replay;
mod trace;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use trace::{secs, Tracer};
use workload::{Bench, Inputs, Outcome};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;
/// Repetitions made even when `--seconds` runs out sooner.
const MIN_REPS: usize = 3;

struct Args {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        bench: Bench::PrDl,
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut bench = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                bench = Some(Bench::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad(&"must be in (0, 3600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.bench = bench.ok_or("--workload is required")?;
    Ok(args)
}

/// Outcome counts of every simulation call made, checked against the
/// fingerprint of the first good one.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    fingerprint: Option<u64>,
    /// The first good outcome, whose simulated statistics the per-layer
    /// metrics read.
    first: Option<Outcome>,
}

impl Tally {
    /// Makes one call, times it, checks it; returns its host seconds if it
    /// passed.
    fn call(&mut self, run: impl FnOnce() -> Outcome) -> Option<f64> {
        self.attempted += 1;
        let started = secs();
        let outcome = catch_unwind(AssertUnwindSafe(run));
        let took = secs() - started;
        let verdict = outcome
            .map_err(|_| "simulation panicked".to_string())
            .and_then(|o| o.check().map(|()| o))
            .and_then(|o| {
                let fp = o.fingerprint();
                match self.fingerprint {
                    Some(want) if want != fp => {
                        Err(format!("fingerprint {fp:016x} != {want:016x}"))
                    }
                    _ => Ok((fp, o)),
                }
            });
        eprintln!("perfbench: call {} took {took:.6} s", self.attempted);
        match verdict {
            Ok((fp, o)) => {
                self.fingerprint = Some(fp);
                self.first.get_or_insert(o);
                Some(took)
            }
            Err(e) => {
                eprintln!("perfbench: call {} failed: {e}", self.attempted);
                self.failed += 1;
                None
            }
        }
    }

    /// Calls `run` until `seconds` have passed and at least [`MIN_REPS`]
    /// calls were made; returns the host seconds of the calls that passed.
    fn repeat(&mut self, seconds: f64, mut run: impl FnMut() -> Outcome) -> Vec<f64> {
        let deadline = secs() + seconds;
        let mut times = Vec::new();
        let mut made = 0;
        while made < MIN_REPS || secs() < deadline {
            times.extend(self.call(&mut run));
            made += 1;
        }
        times
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn new(tally: &Tally, extra_ok: bool) -> Report {
        Report {
            correct: extra_ok && tally.failed == 0 && tally.attempted > 0,
            attempted: tally.attempted,
            failed: tally.failed,
            metrics: Vec::new(),
        }
    }

    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; a metric that could not be
                // measured reads 0 and the run is already marked incorrect.
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The median of `v`, the lower middle value when the count is even, so
/// that a median time is always one actual repetition's.
fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or(f64::NAN)
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Builds the inputs [`SETUPS`] times, timing each build plus one system
/// construction. Returns the first build, the set-up times, and whether
/// every build produced the same inputs.
fn set_up(args: &Args, tr: &mut Tracer) -> (Inputs, Vec<f64>, bool) {
    let mut times = Vec::new();
    let mut kept: Option<Inputs> = None;
    let mut same = true;
    for _ in 0..SETUPS {
        let started = secs();
        let inputs = Inputs::build(args.bench, args.seed, tr);
        inputs.construct(tr);
        times.push(secs() - started);
        match &kept {
            Some(first) => same &= first.same_as(&inputs),
            None => kept = Some(inputs),
        }
    }
    (kept.expect("SETUPS > 0"), times, same)
}

/// `--trace 0`: the end-to-end metrics.
fn end_to_end(args: &Args) -> (Report, Option<u64>) {
    let (inputs, setups, same) = set_up(args, &mut Tracer::default());
    if !same {
        eprintln!("perfbench: the same seed built different inputs");
    }
    let mut tally = Tally::default();
    let times = tally.repeat(args.seconds, || inputs.run());
    // The mean repetition, not the fastest or the median: on a shared host
    // the interference comes in stretches of seconds to minutes, and the
    // fastest call of a run depends on whether a quiet moment happened to
    // fall into it. Over the same series of calls, the mean spread least
    // from run to run (see README.md).
    let run_s = mean(&times);
    let mut r = Report::new(&tally, same && !times.is_empty());
    r.add("run_s", run_s, "s");
    r.add("ops_per_s", inputs.trace_ops() as f64 / run_s, "ops/s");
    r.add("setup_s", median(&setups), "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    let passed = times.len() as f64 / tally.attempted as f64;
    r.add("completed_frac", if same { passed } else { 0.0 }, "ratio");
    (r, tally.fingerprint)
}

/// `--trace 1`: the per-layer metrics.
fn per_layer(args: &Args) -> (Report, Option<u64>) {
    let mut tr = Tracer::default();
    let setup = tr.enter("bench.setup");
    let inputs = Inputs::build(args.bench, args.seed, &mut tr);
    let lookahead = inputs.construct(&mut tr);
    tr.exit(setup);

    // Half the time untraced, half traced: the difference in the mean
    // repetition is the tracing overhead.
    let mut tally = Tally::default();
    let plain = tally.repeat(args.seconds / 2.0, || inputs.run());
    let mut roots = Vec::new();
    let traced = tally.repeat(args.seconds / 2.0, || {
        let root = tr.enter("bench.rep");
        let out = inputs.run_layered(&mut tr);
        tr.exit(root);
        roots.push(root);
        out
    });
    let durations: Vec<f64> = roots.iter().map(|&r| tr.get(r).secs()).collect();
    let median_rep = durations
        .iter()
        .position(|&d| d == median(&durations))
        .map(|i| roots[i])
        .expect("at least one traced repetition");

    // The host baseline and the DIMM-Link-opt placement are not part of the
    // measured call; they are run aside on the same workload, so that every
    // workload reports every layer.
    let aside = tr.enter("bench.aside");
    let host = inputs.host_baseline_aside(&mut tr);
    inputs.place_optimized(&mut tr);
    tr.exit(aside);

    let Some(first) = tally.first.take() else {
        return (Report::new(&tally, false), None);
    };
    let costs = replay::replay_layers(&inputs, &first);

    // The traced pipeline: set-up, the median traced repetition, and the
    // layers measured aside.
    let setup_spans = tr.subtree(setup);
    let rep_spans = tr.subtree(median_rep);
    let spans: Vec<usize> = [setup_spans.as_slice(), &rep_spans, &tr.subtree(aside)].concat();
    let secs_of = |name: &str| tr.find(&spans, name).map_or(f64::NAN, |s| s.secs());
    let build: Vec<&trace::Span> = setup_spans
        .iter()
        .map(|&i| tr.get(i))
        .filter(|s| s.layer() == "workloads")
        .collect();
    let stat = |k: &str| first.stats.get(k).unwrap_or(f64::NAN);

    let mut r = Report::new(&tally, true);
    r.add(
        "workloads.build_s",
        build.iter().map(|s| s.secs()).sum(),
        "s",
    );
    let build_bytes: u64 = build.iter().map(|s| s.alloc_bytes).sum();
    r.add("workloads.alloc_mb", build_bytes as f64 / 1e6, "MB");
    r.add("workloads.trace_ops", inputs.trace_ops() as f64, "count");

    // The measured simulation's own construction and run.
    let rep_span = |name: &str| tr.find(&rep_spans, name).expect("traced repetition spans");
    let (new, run) = (rep_span("system.new"), rep_span("system.run"));
    r.add("system.new_s", new.secs(), "s");
    r.add("system.run_s", run.secs(), "s");
    r.add(
        "system.ns_per_event",
        run.secs() * 1e9 / stat("events_scheduled"),
        "ns",
    );
    r.add("system.allocs", (new.allocs + run.allocs) as f64, "count");
    r.add(
        "system.alloc_mb",
        (new.alloc_bytes + run.alloc_bytes) as f64 / 1e6,
        "MB",
    );

    r.add(
        "engine.resource.reserve_ns",
        costs.resource_reserve_ns,
        "ns",
    );
    r.add(
        "engine.event_queue.push_pop_ns",
        costs.event_queue_push_pop_ns,
        "ns",
    );
    r.add("engine.lookahead_ns", lookahead.as_ns_f64(), "sim_ns");
    r.add("idc.unicast_ns", costs.unicast_ns, "ns");
    r.add("host.discover_ns", costs.discover_ns, "ns");
    r.add(
        "mem.controller.service_ns",
        costs.controller_service_ns,
        "ns",
    );
    r.add("mem.cache.access_ns", costs.cache_access_ns, "ns");
    r.add("noc.packetnet.send_ns", costs.packetnet_send_ns, "ns");
    r.add(
        "placement.profile_run_s",
        secs_of("placement.profile_run"),
        "s",
    );
    r.add("placement.solve_s", secs_of("placement.solve"), "s");
    r.add("host_sim.run_s", secs_of("host_sim.run"), "s");

    r.add("system.events", stat("events_scheduled"), "count");
    r.add("system.events_wake", stat("events.wake"), "count");
    r.add("system.events_mem", stat("events.mem"), "count");
    r.add("system.events_net", stat("events.net"), "count");
    r.add("system.sim_us", first.elapsed.as_us_f64(), "sim_us");
    r.add("mem.dram_reads", stat("dram.reads"), "count");
    let accesses = stat("dram.reads") + stat("dram.writes");
    r.add(
        "mem.dram_activates_per_access",
        stat("dram.activates") / accesses,
        "ratio",
    );
    r.add("mem.l1_hit_rate", stat("cache.l1_hit_rate_mean"), "ratio");
    r.add("noc.link_bytes", stat("traffic.link_bytes"), "bytes");
    r.add("host.fwd_packets", stat("host.fwd_packets"), "count");
    r.add("host.polls", stat("host.polls"), "count");
    r.add("host.bus_occupancy", stat("host.bus_occupancy"), "ratio");
    r.add("idc.remote_reads", stat("remote_reads"), "count");
    r.add(
        "idc.remote_rtt_mean_ns",
        stat("remote_read_rtt_mean_ns"),
        "sim_ns",
    );
    r.add("idc.stall_frac", stat("idc_stall_frac"), "ratio");
    // The serial coordinator makes one unicast per remote write and two per
    // remote read (request and reply): an outside estimate of its share of
    // the run, from the replayed cost per call.
    let unicasts = 2.0 * stat("remote_reads") + stat("remote_writes");
    r.add(
        "idc.coordinator_share_est",
        unicasts * costs.unicast_ns * 1e-9 / run.secs(),
        "ratio",
    );
    r.add(
        "host_sim.sim_us",
        host.elapsed.as_us_f64(),
        "sim_us",
    );

    for layer in ["bench", "workloads", "system", "placement", "host_sim"] {
        let self_s: f64 = spans
            .iter()
            .filter(|&&i| tr.get(i).layer() == layer)
            .map(|&i| tr.self_secs(i))
            .sum();
        r.add(format!("self.{layer}_s"), self_s, "s");
    }
    r.add(
        "trace.overhead_frac",
        mean(&traced) / mean(&plain) - 1.0,
        "ratio",
    );

    let path = format!(
        "perfbench/out/spans-{}-seed{}.json",
        args.bench.name(),
        args.seed
    );
    let written =
        std::fs::create_dir_all("perfbench/out").and_then(|()| std::fs::write(&path, tr.to_json()));
    match written {
        Ok(()) => eprintln!("perfbench: spans written to {path}"),
        Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
    }
    (r, tally.fingerprint)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <pr-dl|km-dl> [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let (report, fingerprint) = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    // A speed-only change to the simulator must print the same line.
    match fingerprint {
        Some(fp) => println!(
            "fingerprint {} seed {} {fp:016x}",
            args.bench.name(),
            args.seed
        ),
        None => println!("fingerprint {} seed {} none", args.bench.name(), args.seed),
    }
    for m in &report.metrics {
        eprintln!("  {:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
