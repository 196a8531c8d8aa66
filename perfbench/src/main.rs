//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics by name with their units,
//! then, as the last line, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones, with `--trace 1` the per-layer ones (spans go to
//! `perfbench/out/`). Exits non-zero when a correctness check fails.

use airphant_perfbench::{run, CountingAlloc, RunConfig, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse() -> Result<(String, RunConfig), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
        small: false,
        out_dir: Some(PathBuf::from("perfbench/out")),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    if !(cfg.seconds.is_finite() && cfg.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok((workload, cfg))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut out = match run(&workload, &cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.metric("host.threads_available", threads as f64);

    let declared: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    for note in &out.notes {
        println!("{note}");
    }
    println!(
        "workload {workload}, seed {}, {} metrics:",
        cfg.seed,
        if cfg.trace { "per-layer" } else { "end-to-end" }
    );
    let mut json = Vec::new();
    let mut table = String::new();
    for (name, unit) in declared {
        // A layer not on this workload's path reports 0.
        let value = out.get(name).unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        println!("  {name:<36} {value:>16.4} {unit}");
        table.push_str(&format!("{name}\t{value:?}\t{unit}\n"));
        json.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let (true, Some(dir)) = (cfg.trace, &cfg.out_dir) {
        let path = dir.join(format!("{workload}-seed{}.layers.tsv", cfg.seed));
        if let Err(e) = std::fs::write(&path, table) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    for (name, value) in &out.counts {
        println!("  count {name} = {value:?}");
    }
    for f in &out.failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = out.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
