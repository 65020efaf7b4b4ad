//! `dlsim` binary: see [`dl_cli`] for the command grammar.

use dl_cli::{execute_compare, execute_run, execute_sweep, listing, parse_args, usage, Command};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            std::process::exit(2);
        }
    };
    let code = match dispatch(cmd) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn dispatch(cmd: Command) -> Result<(), dl_cli::CliError> {
    match cmd {
        Command::Help => println!("{}", usage()),
        Command::List => println!("{}", listing()),
        Command::Run(spec) => {
            let r = execute_run(&spec)?;
            if spec.json {
                #[derive(serde::Serialize)]
                struct Out<'a> {
                    elapsed_ns: f64,
                    profiling_ns: f64,
                    idc_stall_frac: f64,
                    bus_occupancy: f64,
                    energy_j: f64,
                    status: dl_engine::RunStatus,
                    stats: &'a dl_engine::stats::StatSet,
                }
                let out = Out {
                    elapsed_ns: r.elapsed.as_ns_f64(),
                    profiling_ns: r.profiling.as_ns_f64(),
                    idc_stall_frac: r.idc_stall_frac(),
                    bus_occupancy: r.bus_occupancy(),
                    energy_j: r.energy.total(),
                    status: r.status,
                    stats: &r.stats,
                };
                println!(
                    "{}",
                    serde_json::to_string_pretty(&out).expect("serializable")
                );
            } else {
                println!("elapsed          : {}", r.elapsed);
                if !r.status.is_complete() {
                    println!("status           : {}", r.status);
                }
                if r.profiling > dl_engine::Ps::ZERO {
                    println!("  profiling phase: {}", r.profiling);
                }
                println!("IDC stall        : {:.1}%", r.idc_stall_frac() * 100.0);
                println!("bus occupancy    : {:.1}%", r.bus_occupancy() * 100.0);
                let (local, link, fwd, bus) = r.traffic_breakdown();
                println!(
                    "traffic          : {:.0}% local / {:.0}% links / {:.0}% host / {:.0}% bus",
                    local * 100.0,
                    link * 100.0,
                    fwd * 100.0,
                    bus * 100.0
                );
                println!("energy           : {:.3} mJ", r.energy.total() * 1e3);
            }
        }
        Command::Compare(spec) => {
            let rows = execute_compare(&spec)?;
            if spec.json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&rows).expect("serializable")
                );
            } else {
                println!(
                    "{:<16} {:>14} {:>10} {:>10}",
                    "system", "elapsed", "speedup", "idc-stall"
                );
                for r in rows {
                    let cut = if r.status.is_complete() {
                        String::new()
                    } else {
                        format!("  ({})", r.status)
                    };
                    println!(
                        "{:<16} {:>12.1}us {:>9.2}x {:>9.1}%{cut}",
                        r.system,
                        r.elapsed_ns / 1e3,
                        r.speedup_vs_host,
                        r.idc_stall_frac * 100.0
                    );
                }
            }
        }
        Command::Sweep {
            spec,
            param,
            values,
        } => {
            let out = execute_sweep(&spec, param, &values)?;
            if spec.json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&out).expect("serializable")
                );
            } else {
                println!("{:<12} {:>14} {:>10}", "value", "elapsed", "speedup");
                let base = out.first().map(|&(_, ns)| ns).unwrap_or(1.0);
                for (v, ns) in out {
                    println!("{v:<12} {:>12.1}us {:>9.2}x", ns / 1e3, base / ns);
                }
            }
        }
    }
    Ok(())
}
