//! The repo benchmark: four workloads, six end-to-end metrics, a per-layer
//! ladder traced from outside.  See `README.md` next to this package and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark --list
//! ```
//!
//! One workload per process.  Without `--workload` the binary re-executes
//! itself once per workload.  The last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; the exit code is
//! non-zero if any op failed.

#![forbid(unsafe_code)]

mod metrics;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{Def, WORKLOADS};
use stats::{median, MIN_TAIL_SAMPLES, TAIL_SAMPLES_BEYOND};
use trace::Tracer;
use workloads::{BenchError, Ctx, Outcome, CORPORA, ENGINE_THREADS, SCALE, SETUP_REPS};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Window used when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 25;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    list: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, BenchError> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        list: false,
    };
    let usage = |m: String| BenchError::Usage(m);
    while let Some(flag) = argv.next() {
        if flag == "--list" {
            args.list = true;
            continue;
        }
        let value = argv
            .next()
            .ok_or_else(|| usage(format!("{flag} needs a value")))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| usage(format!("{flag} {value}: not a whole number")))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.iter().any(|(name, _)| *name == value) => {
                args.workload = Some(value)
            }
            "--workload" => return Err(usage(format!("unknown workload {value}"))),
            "--seed" => args.seed = number()?,
            "--seconds" => {
                args.seconds = number()?;
                if !(1..=60).contains(&args.seconds) {
                    return Err(usage("--seconds takes 1 to 60".into()));
                }
            }
            "--trace" if value == "0" || value == "1" => args.trace = value == "1",
            "--trace" => return Err(usage("--trace takes 0 or 1".into())),
            _ => return Err(usage(format!("unknown flag {flag}"))),
        }
    }
    Ok(args)
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> Result<f64, BenchError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| BenchError::Check("no VmHWM line in /proc/self/status".into()))
}

/// The end-to-end metrics of a finished run, by name.
fn end_to_end_values(outcome: &Outcome) -> Result<BTreeMap<String, f64>, BenchError> {
    let samples = &outcome.windows.untraced;
    let (bytes, tokens) = outcome
        .corpora
        .iter()
        .fold((0usize, 0u64), |(b, t), c| (b + c.bytes, t + c.tokens));
    let values = [
        ("setup_s", median(&outcome.setup_s)),
        ("throughput_ops_s", Some(samples.throughput_ops_s())),
        ("key_p50_geomean_ms", samples.key_p50_geomean_ms()),
        ("op_p90_ms", samples.op_p90_ms()),
        ("peak_rss_mib", Some(peak_rss_mib()?)),
        (
            "archive_bytes_per_token",
            Some(bytes as f64 / tokens as f64),
        ),
    ];
    values
        .into_iter()
        .map(|(name, value)| {
            let value = value
                .ok_or_else(|| BenchError::Check(format!("{name}: too few correct samples")))?;
            Ok((name.to_string(), value))
        })
        .collect()
}

/// The result line: exactly the reported metrics, each with its unit.
fn result_line(
    attempted: u64,
    failed: u64,
    defs: &[Def],
    values: &BTreeMap<String, f64>,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            // A layer the workload never enters reports 0.
            let v = values.get(&d.name).copied().unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

fn run_workload(name: &str, args: &Args) -> Result<ExitCode, BenchError> {
    let ctx = Ctx {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        trace: args.trace,
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "benchmark: workload {name}, seed {}, window {} s, {}, nproc {nproc}, scale {SCALE}, \
         engine threads {ENGINE_THREADS}, set-ups {SETUP_REPS}",
        ctx.seed,
        args.seconds,
        if ctx.trace { "traced" } else { "untraced" },
    );
    let mut tracer = Tracer::new(Instant::now(), ctx.trace);
    let outcome = match name {
        "ingest" => workloads::ingest::run(&ctx, &mut tracer),
        "oneshot" => workloads::oneshot::run(&ctx, &mut tracer),
        "session" => workloads::session::run(&ctx, &mut tracer),
        _ => workloads::serve_hot::run(&ctx, &mut tracer),
    }?;

    println!(
        "closed loop: {} caller(s), each waiting for its reply before the next op",
        outcome.callers
    );
    for c in &outcome.corpora {
        println!(
            "corpus {}: {} files, {} tokens, {} rules, {} elements, {} archive bytes",
            CORPORA[c.id], c.files, c.tokens, c.rules, c.elements, c.bytes
        );
    }
    let samples = &outcome.windows.untraced;
    println!(
        "untraced window: {:.3} s, {} ops attempted, {} failed",
        samples.window_s, samples.attempted, samples.failed
    );
    for (label, (p50, lat)) in outcome
        .key_labels
        .iter()
        .zip(samples.key_p50_ms().into_iter().zip(&samples.per_key_ms))
    {
        println!(
            "  key {label}: {} samples, p50 {:.4} ms",
            lat.len(),
            p50.unwrap_or(f64::NAN)
        );
    }
    println!(
        "percentile rule: nearest rank; op_p90_ms needs >= {TAIL_SAMPLES_BEYOND} samples beyond \
         it (>= {MIN_TAIL_SAMPLES} ops); medians over all samples, no repetition is discarded"
    );
    let windows = || std::iter::once(samples).chain(&outcome.windows.traced);
    if let Some(e) = windows().find_map(|w| w.first_error.as_ref()) {
        eprintln!("first failed op: {e}");
    }
    let attempted: u64 = windows().map(|w| w.attempted).sum();
    let failed: u64 = windows().map(|w| w.failed).sum();

    let (defs, values) = if ctx.trace {
        let known = metrics::per_layer();
        if let Some(stray) = outcome
            .layers
            .keys()
            .find(|k| !known.iter().any(|d| &d.name == *k))
        {
            return Err(BenchError::Check(format!(
                "{stray} is not a per-layer metric"
            )));
        }
        let path = std::env::current_exe()?.with_file_name(format!("benchmark-trace-{name}.json"));
        trace::write_json(&path, tracer.spans())?;
        println!(
            "trace: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
        (known, outcome.layers.clone())
    } else {
        (metrics::end_to_end(), end_to_end_values(&outcome)?)
    };
    for d in &defs {
        println!(
            "{} {} {}",
            d.name,
            values.get(&d.name).copied().unwrap_or(0.0),
            d.unit
        );
    }
    println!("{}", result_line(attempted, failed, &defs, &values));
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// No `--workload`: one child process per workload, so each has its own
/// peak memory and no workload warms another's caches.
fn run_every_workload(args: &Args) -> Result<ExitCode, BenchError> {
    let exe = std::env::current_exe()?;
    let mut code = ExitCode::SUCCESS;
    for (name, _) in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()?;
        if !status.success() {
            code = ExitCode::FAILURE;
        }
    }
    Ok(code)
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| {
        if args.list {
            print!("{}", metrics::list());
            return Ok(ExitCode::SUCCESS);
        }
        match &args.workload {
            Some(name) => run_workload(name, &args),
            None => run_every_workload(&args),
        }
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
