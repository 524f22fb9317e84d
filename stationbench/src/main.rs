//! One benchmark for the station serving path.
//!
//! ```text
//! cargo run --release --manifest-path stationbench/Cargo.toml -- \
//!     --workload neuro_live --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Binds an in-process `Station` on loopback TCP and drives it from this
//! process. With `--trace 0` it prints the end-to-end metrics of the
//! workload; with `--trace 1` it prints the per-layer breakdown instead.
//! Either way the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the exit code is
//! non-zero when a correctness check failed.

mod heap;
mod layers;
mod report;
mod stats;
mod wire;
mod workload;

use report::{Outcome, RunRecord};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use wire::Fallible;
use workload::{Bench, References, Shape, Tally, Workload};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!(
                "usage: stationbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1]: {err}",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Segments live under the working directory and go when the run ends.
    let store_root = PathBuf::from(".bench_store").join(std::process::id().to_string());
    let result = run(&args, &store_root);
    let _ = std::fs::remove_dir_all(&store_root);
    let _ = std::fs::remove_dir(".bench_store");
    match result {
        Ok((record, outcome)) => {
            println!("run: {}", record.to_json());
            println!("{}", outcome.to_json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("stationbench: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Times a fixed single-threaded integer loop a few times, in ms. It
/// touches no code of the program, so it shows how fast the host ran this
/// run; the run record carries it beside the results.
fn host_probe() -> Vec<f64> {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15_u64);
            for _ in 0..20_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

fn run(args: &Args, store_root: &std::path::Path) -> Fallible<(RunRecord, Outcome)> {
    let shape = Shape::NEURO;
    let shares = args.workload.shares(args.seconds as f64);
    let inputs = workload::Inputs::new(&shape, args.seed);
    let mut record = RunRecord {
        workload: args.workload.name(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scan_threads: layers::scan_threads(&inputs)?,
        operations: Vec::new(),
        reps: Vec::new(),
    };
    let probe = host_probe();
    if let Some(q) = stats::quartiles(&probe) {
        record.reps.push(("host_probe_ms", q, probe.len()));
    }
    let references = References::record(&inputs, shape.frames)?;
    if args.trace {
        let outcome = layers::run(
            &shares,
            &inputs,
            &references,
            store_root,
            args.seconds as f64,
            &mut record,
        )?;
        return Ok((record, outcome));
    }

    // Set up several times and keep the last station: the median of the
    // set-up times is the metric, so work moved into set-up shows.
    let mut warm = Tally::default();
    let mut setup_s = Vec::with_capacity(workload::SETUP_REPS);
    let mut bench: Option<Bench> = None;
    for _ in 0..workload::SETUP_REPS {
        if let Some(old) = bench.take() {
            old.finish();
        }
        let start = Instant::now();
        bench = Some(Bench::setup(
            shape, &inputs, store_root, &shares, &mut warm,
        )?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut bench = bench.ok_or("no set-up repetitions")?;

    let mut tally = Tally::default();
    bench.run_mix(&shares, &mut tally)?;
    bench.finish();
    references.check(&mut warm);
    references.check(&mut tally);

    let metrics = workload::end_to_end(&tally, shape.frames, &setup_s)?;
    for share in &shares {
        record
            .operations
            .push((share.kind.name(), tally.ops[share.kind.index()]));
    }
    if let Some(q) = stats::quartiles(&setup_s) {
        record.reps.push(("setup_s", q, setup_s.len()));
    }
    let mismatches: Vec<&String> = warm.mismatches.iter().chain(&tally.mismatches).collect();
    for m in &mismatches {
        eprintln!("correctness: {m}");
    }
    Ok((
        record,
        Outcome {
            correct: mismatches.is_empty(),
            attempted: tally.attempted,
            failed: tally.failed,
            metrics,
        },
    ))
}
