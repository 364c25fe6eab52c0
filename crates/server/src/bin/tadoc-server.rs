//! `tadoc-server` — serve one synthetic dataset's compressed archive over
//! TCP until a `Shutdown` frame (or Ctrl-C-less `tadoc-client shutdown`)
//! arrives.
//!
//! ```text
//! tadoc-server [--addr 127.0.0.1:7878] [--dataset A] [--scale 0.3]
//!              [--threads 2] [--handlers 4] [--executors 1]
//!              [--queue-depth 64] [--no-cache]
//! ```
//!
//! Prints `listening on <addr>` once ready (with `--addr 127.0.0.1:0` the
//! printed line carries the ephemeral port, so scripts can scrape it).

use std::process::ExitCode;
use std::time::Duration;

use datagen::{DatasetId, DatasetPreset};
use sequitur::Dag;
use server::server::{Server, ServerConfig};

struct Options {
    addr: String,
    dataset: DatasetId,
    scale: f64,
    config: ServerConfig,
}

fn print_usage() {
    eprintln!(
        "usage: tadoc-server [--addr HOST:PORT] [--dataset A-E] [--scale F]\n\
         \x20                   [--threads N] [--handlers N] [--executors N]\n\
         \x20                   [--queue-depth N] [--no-cache]\n\
         \n\
         Serves the compressed archive of one synthetic dataset over the\n\
         TADOC wire protocol until a Shutdown frame arrives.\n\
         \n\
         --addr HOST:PORT   listen address (default 127.0.0.1:7878; port 0\n\
         \x20                  picks an ephemeral port, printed on stdout)\n\
         --dataset A-E      dataset preset (default A)\n\
         --scale F          dataset scale factor (default 0.3)\n\
         --threads N        engine worker threads (default 2)\n\
         --handlers N       connection handler threads (default 4)\n\
         --executors N      executor threads (default 1)\n\
         --queue-depth N    admission queue capacity (default 64)\n\
         --no-cache         disable the engine's results cache"
    );
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        addr: "127.0.0.1:7878".to_string(),
        dataset: DatasetId::A,
        scale: 0.3,
        config: ServerConfig::default(),
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |what: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{flag} requires {what}"))
        };
        match flag {
            "--addr" => opts.addr = value("a HOST:PORT")?,
            "--dataset" => {
                opts.dataset = match value("a dataset id (A-E)")?.trim() {
                    "A" => DatasetId::A,
                    "B" => DatasetId::B,
                    "C" => DatasetId::C,
                    "D" => DatasetId::D,
                    "E" => DatasetId::E,
                    other => return Err(format!("unknown dataset: {other} (expected A-E)")),
                }
            }
            "--scale" => {
                opts.scale = value("a scale factor")?
                    .parse::<f64>()
                    .map_err(|e| format!("bad --scale: {e}"))?;
                if opts.scale <= 0.0 || !opts.scale.is_finite() {
                    return Err("--scale must be positive".to_string());
                }
            }
            "--threads" => {
                opts.config.engine_threads = parse_count(&value("a thread count")?, flag)?
            }
            "--handlers" => {
                opts.config.handler_threads = parse_count(&value("a thread count")?, flag)?
            }
            "--executors" => {
                opts.config.executor_threads = parse_count(&value("a thread count")?, flag)?
            }
            "--queue-depth" => {
                opts.config.queue_depth = parse_count(&value("a queue capacity")?, flag)?
            }
            "--no-cache" => opts.config.results_cache = false,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    Ok(opts)
}

fn parse_count(s: &str, flag: &str) -> Result<usize, String> {
    let n: usize = s.parse().map_err(|e| format!("bad {flag}: {e}"))?;
    if n == 0 {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_options(&args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            print_usage();
            return ExitCode::from(2);
        }
    };

    eprintln!(
        "generating dataset {} at scale {} ...",
        opts.dataset.label(),
        opts.scale
    );
    let corpus = DatasetPreset::new(opts.dataset).generate_scaled(opts.scale);
    let archive = corpus.compress();
    let dag = Dag::from_grammar(&archive.grammar);

    let server = match Server::bind(opts.addr.as_str(), opts.config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.local_addr());

    match server.run(&archive, &dag) {
        Ok(stats) => {
            eprintln!(
                "shut down: {} queries answered, {} shed, {} refused, max queue depth {} \
                 ({} protocol errors, {} connections)",
                stats.queries_answered,
                stats.shed,
                stats.refused,
                stats.max_queue_depth,
                stats.protocol_errors,
                stats.accepted_connections,
            );
            // Give straggling clients a beat to read their last response.
            std::thread::sleep(Duration::from_millis(10));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
