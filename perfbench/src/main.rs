//! `prs-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints the host fingerprint, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

use prs_perfbench::probe::Fingerprint;
use prs_perfbench::record::{json_num, json_str, Metric};
use prs_perfbench::{run_workload, RunConfig, Scale, WORKLOADS};
use std::time::Duration;

const USAGE: &str = "usage: prs-perfbench --workload NAME --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    cfg: RunConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=3600).contains(&s) {
                    return Err("--seconds must be between 1 and 3600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        cfg: RunConfig {
            seed: seed.ok_or("missing --seed")?,
            budget: Duration::from_secs(seconds.ok_or("missing --seconds")?),
            trace: trace.ok_or("missing --trace")?,
            scale: Scale::Full,
        },
    })
}

/// `{"name": {"value": v, "unit": u}, ...}`
fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match run_workload(&args.workload, &args.cfg) {
        Some(Ok(r)) => r,
        Some(Err(e)) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        None => unreachable!("workload name validated by parse_args"),
    };
    for e in &result.errors {
        eprintln!("failed: {e}");
    }
    let host = Fingerprint::probe();
    println!(
        "{{\"host\": {{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}, \"workload\": {}, \"seed\": {}, \"trace\": {}, \"wall\": {}}}",
        host.nproc,
        json_str(&host.cpu),
        json_str(host.rustc),
        json_str(&host.commit),
        json_str(&args.workload),
        args.cfg.seed,
        u8::from(args.cfg.trace),
        json_metrics(&result.wall),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        json_metrics(&result.metrics),
    );
}
