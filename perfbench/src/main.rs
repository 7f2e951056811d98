//! Command-line entry point; see the library docs.

use darwin_perfbench::inputs::{Sizes, Workload};
use darwin_perfbench::report::{result_line, END_TO_END, PER_LAYER};
use darwin_perfbench::run::run;
use serde_json::Value;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <wire_saturate|paced_durable|inproc_darwin> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args { workload: workload.ok_or("--workload is required")?, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spans = args.trace.then(|| {
        PathBuf::from(format!("perfbench/out/spans-{}-{}.jsonl", args.workload.name(), args.seed))
    });
    let out = run(args.workload, args.seed, args.seconds, args.trace, Sizes::full(args.workload), spans);
    for p in &out.problems {
        eprintln!("perfbench: {p}");
    }
    println!(
        "{}",
        serde_json::to_string(&Value::Object(vec![("context".into(), Value::Object(out.context))]))
            .expect("context serializes")
    );
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", result_line(out.correct, out.attempted, out.failed, out.metrics.to_json(table)));
    ExitCode::SUCCESS
}
