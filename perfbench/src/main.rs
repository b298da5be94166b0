//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, checks every output, and prints one JSON object as
//! the last line of standard output: end-to-end metrics with `--trace 0`,
//! per-layer metrics with `--trace 1`. Exits nonzero after printing if any
//! operation failed, and without printing if the run could not be made.
//! A traced run also writes its spans to
//! `.perfbench_out/trace-<workload>-<seed>.jsonl`.

use perfbench::trace::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        perfbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [cmd, schema, store] = args.as_slice() {
        if cmd == "serve-child" {
            return perfbench::serve::serve_child(schema, store);
        }
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s > 0),
            "--trace" => traced = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        return usage();
    };
    let mut tracer = Tracer::new(traced);
    let outcome = match perfbench::run(&workload, seed, seconds, &mut tracer) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if traced {
        let path = PathBuf::from(".perfbench_out").join(format!("trace-{workload}-{seed}.jsonl"));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    match outcome.to_json(traced) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} operations failed",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}
