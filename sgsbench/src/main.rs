//! `sgsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the served SGS path and prints, as the last line
//! of standard output, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! Exits non-zero, printing no result, if the run cannot complete.

use aqp_serving::ServerConfig;
use sgsbench::{run, Options, Report, Scale, Workload};
use std::path::Path;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: sgsbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value:?}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::paper(),
        server: ServerConfig::default(),
        // Beside the benchmark's package, inside the checkout.
        work_dir: Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(".sgsbench"),
    })
}

fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(",")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sgsbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sgsbench: {} seed {}: {e}", opts.workload.name(), opts.seed);
            std::process::exit(1);
        }
    };
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("sgsbench: {} is not a finite number", m.name);
        std::process::exit(1);
    }
    for f in &report.failures {
        eprintln!("sgsbench: check failed: {f}");
    }
    for m in &report.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("provenance {}", report.provenance);
    println!("{}", result_line(&report));
}
