//! `ledger` — the benchmark's one binary. See `README.md` for the
//! commands; the driver's contract is the flag form.

use std::io::Write;
use vericlick_ledger::compare::{compare, read_set};
use vericlick_ledger::layers::run_traced;
use vericlick_ledger::metrics::WORKLOADS;
use vericlick_ledger::run::{run_untraced, RunResult};
use vericlick_ledger::workloads::{
    fleet_roundtrip::{FleetRoundtrip, CLI_ARG},
    packet_conform::PacketConform,
    reverify_warm::ReverifyWarm,
    verify_cold::VerifyCold,
};

const USAGE: &str = "usage:
  ledger --workload W --seed N --seconds S --trace 0|1 [--record FILE] [--trace-out FILE]
  ledger trace --workload W --seed N [--seconds S] [--record FILE] [--trace-out FILE]
  ledger compare A.jsonl B.jsonl
  ledger benchmark-json                     (renders BENCHMARK.json from the metric tables)
workloads: verify_cold reverify_warm fleet_roundtrip packet_conform";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<String>,
    trace_out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(vericlick_ledger::metrics::RUN_SECONDS),
        trace: false,
        record: None,
        trace_out: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--record" => parsed.record = Some(value()?.clone()),
            "--trace-out" => parsed.trace_out = Some(value()?.clone()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == parsed.workload) {
        return Err(format!("unknown workload '{}'", parsed.workload));
    }
    Ok(parsed)
}

fn run(args: &Args) -> Result<RunResult, String> {
    if args.trace {
        let (result, trace) = run_traced(&args.workload, args.seed, args.seconds)?;
        let path = match &args.trace_out {
            Some(path) => path.clone(),
            // Beside the executable, inside the (ignored) build directory.
            None => vericlick_ledger::build_dir()?
                .join(format!("ledger-trace-{}-{}.json", args.workload, args.seed))
                .to_string_lossy()
                .into_owned(),
        };
        std::fs::write(&path, trace.chrome_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("  {} spans written to {path}", trace.spans.len());
        return Ok(result);
    }
    match args.workload.as_str() {
        "verify_cold" => run_untraced::<VerifyCold>(args.seed, args.seconds),
        "reverify_warm" => run_untraced::<ReverifyWarm>(args.seed, args.seconds),
        "fleet_roundtrip" => run_untraced::<FleetRoundtrip>(args.seed, args.seconds),
        _ => run_untraced::<PacketConform>(args.seed, args.seconds),
    }
}

fn record(path: &str, args: &Args, line: &str) -> Result<(), String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    writeln!(
        file,
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"result\": {line}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
    .map_err(|e| format!("{path}: {e}"))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        // Daemon and worker of `fleet_roundtrip` are this binary.
        Some(CLI_ARG) => std::process::exit(vericlick::cli::main(args[1..].to_vec())),
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                eprintln!("{USAGE}");
                std::process::exit(2);
            };
            let read = |path: &String| {
                std::fs::read_to_string(path)
                    .map_err(|e| e.to_string())
                    .and_then(|text| read_set(&text))
                    .unwrap_or_else(|why| {
                        eprintln!("error: {path}: {why}");
                        std::process::exit(2);
                    })
            };
            let (table, worse) = compare(&read(a), &read(b));
            print!("{table}");
            std::process::exit(i32::from(worse));
        }
        Some("benchmark-json") => {
            print!("{}", vericlick_ledger::metrics::benchmark_json());
            return;
        }
        Some("trace") => {
            args.remove(0);
            args.extend(["--trace".to_string(), "1".to_string()]);
        }
        _ => {}
    }
    let args = parse_args(&args).unwrap_or_else(|why| {
        eprintln!("error: {why}\n{USAGE}");
        std::process::exit(2);
    });
    // The result line is the last thing on stdout, and only a run that
    // measured something prints one.
    match run(&args) {
        Ok(result) => {
            let line = result.to_line();
            if let Some(path) = &args.record {
                if let Err(why) = record(path, &args, &line) {
                    eprintln!("error: {why}");
                    std::process::exit(2);
                }
            }
            println!("{line}");
        }
        Err(why) => {
            eprintln!("error: {why}");
            std::process::exit(2);
        }
    }
}
