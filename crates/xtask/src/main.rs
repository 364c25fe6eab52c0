//! `cargo run -p xtask -- lint [--root <dir>]`
//! `cargo run -p xtask -- loc [--root <dir>]`
//!
//! Exit status: 0 when the tree is clean (or was counted), 1 when any rule
//! fired (or the workspace could not be read), 2 on usage errors.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut args = args.iter();
    let command = match args.next().map(String::as_str) {
        Some(command @ ("lint" | "loc")) => command,
        other => {
            eprintln!(
                "usage: cargo run -p xtask -- lint|loc [--root <dir>]  (got {other:?})\n\
                 rules: {}",
                xtask::lint::RULES.join(", ")
            );
            return ExitCode::from(2);
        }
    };
    let mut root: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--root needs a directory");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    // Default to the workspace containing this binary's manifest, so the
    // command works from any working directory.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap_or_else(|_| PathBuf::from("."))
    });
    if command == "loc" {
        return match xtask::loc::count_tree(&root) {
            Ok(lines) => {
                println!("Rust lines under {}/:", xtask::loc::DIRS.join("/ "));
                println!(
                    "total {}, test {}, non-test {}",
                    lines.total,
                    lines.test,
                    lines.total - lines.test
                );
                println!(
                    "non-test outside {} (the line budget): {}",
                    xtask::loc::BUDGET_EXCLUDES,
                    lines.budget
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("xtask loc: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match xtask::lint::lint_workspace(&root) {
        Ok(violations) if violations.is_empty() => {
            println!("xtask lint: clean ({} rules)", xtask::lint::RULES.len());
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                println!("{v}");
            }
            println!("xtask lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask lint: {e}");
            ExitCode::FAILURE
        }
    }
}
