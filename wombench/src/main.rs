//! `wombench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload once and prints, as the last line of standard
//! output, `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 when any operation failed or any output
//! differs from the digest table, 2 on bad arguments.

use std::io::BufWriter;
use std::path::Path;
use std::process::ExitCode;

use wombench::host::HostStamp;
use wombench::{digest, service, sim, Workload};

const USAGE: &str = "usage: wombench --workload sweep-idle|verified-busy|service-skewed \
                     --seed N --seconds S --trace 0|1";

/// Longest run accepted; work is sized from `--seconds`, so this bounds
/// memory and record counts.
const MAX_SECONDS: u64 = 3_600;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=MAX_SECONDS).contains(s))
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wombench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let host = HostStamp::collect(package.parent().unwrap_or(package));
    let table_seed = digest::table_seed(args.seed);
    let run = match args.workload {
        Workload::ServiceSkewed => service::run(args.seconds, table_seed, args.trace),
        w => sim::run(w, args.seconds, table_seed, args.trace),
    };
    let (report, tracer) = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("wombench: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "wombench {} seed={} (trace set {table_seed}) seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: {{{}}}", host.json_fields());
    for note in &report.notes {
        println!("{note}");
    }
    for problem in &report.outcome.problems {
        eprintln!("FAILED: {problem}");
    }
    let metrics = match (&report.layers, args.trace) {
        (Some(layers), true) => layers.metrics(),
        _ => report.end_to_end.clone(),
    };
    for m in &metrics {
        println!("  {:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    if let Some(tracer) = tracer {
        let dir = package.join("out");
        let path = dir.join(format!("spans-{}.jsonl", args.workload.name()));
        let header = format!(
            "\"workload\":\"{}\",\"seed\":{},\"seconds\":{},{}",
            args.workload.name(),
            args.seed,
            args.seconds,
            host.json_fields()
        );
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| tracer.write_jsonl(&mut BufWriter::new(f), &header));
        match written {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("wombench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", report.result_line(&metrics));
    if report.outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
