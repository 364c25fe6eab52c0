//! Command-line experiment driver.
//!
//! Regenerates every table and figure of the G-TADOC evaluation:
//!
//! ```text
//! experiments -- table1                 # Table I   (platforms)
//! experiments -- table2                 # Table II  (dataset statistics)
//! experiments -- fig9                   # Figure 9  (end-to-end speedups)
//! experiments -- fig10                  # Figure 10 (phase speedups)
//! experiments -- summary                # §VI-B headline aggregates
//! experiments -- traversal              # §VI-C top-down vs bottom-up
//! experiments -- uncompressed           # §VI-E vs GPU uncompressed analytics
//! experiments -- ablation               # §IV design-choice ablations
//! experiments -- all                    # everything above
//!
//! Options: --scale <f64>    dataset scale factor (default 0.3)
//! ```
//!
//! Wall-clock performance of the CPU engine and the server is measured by
//! the repository benchmark (`benchmark/`, declared in `BENCHMARK.json`),
//! not here.

use bench::experiments::{self, ExperimentScale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = ExperimentScale::default();
    let mut commands: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let value = args
                    .get(i)
                    .and_then(|s| s.parse::<f64>().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--scale requires a positive number");
                        std::process::exit(2);
                    });
                scale = ExperimentScale(value);
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other => commands.push(other.to_string()),
        }
        i += 1;
    }
    if commands.is_empty() {
        print_usage();
        return;
    }

    for command in commands {
        match command.as_str() {
            "table1" => print!("{}", experiments::table1()),
            "table2" => print!("{}", experiments::table2(scale)),
            "fig9" => print!("{}", experiments::fig9(scale)),
            "fig10" => print!("{}", experiments::fig10(scale)),
            "summary" => print!("{}", experiments::summary(scale)),
            "traversal" => print!("{}", experiments::traversal_comparison(scale)),
            "uncompressed" => print!("{}", experiments::uncompressed_comparison(scale)),
            "ablation" => print!("{}", experiments::ablation(scale)),
            "all" => {
                println!("{}", experiments::table1());
                println!("{}", experiments::table2(scale));
                // Run the grid once and reuse it for fig9, fig10 and summary.
                let cells = experiments::run_grid(scale);
                println!("{}", experiments::fig9_from_cells(&cells));
                println!("{}", experiments::fig10_from_cells(&cells));
                println!("{}", experiments::traversal_comparison(scale));
                println!("{}", experiments::uncompressed_comparison(scale));
                println!("{}", experiments::ablation(scale));
            }
            other => {
                eprintln!("unknown command: {other}");
                print_usage();
                std::process::exit(2);
            }
        }
        println!();
    }
}

fn print_usage() {
    println!(
        "usage: experiments [--scale <f>] \
         <table1|table2|fig9|fig10|summary|traversal|uncompressed|ablation|all>..."
    );
}
