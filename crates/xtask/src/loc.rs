//! `cargo run -p xtask -- loc`: every line of every `.rs` file under
//! [`DIRS`] (what `wc -l` counts), split into test lines — a file under a
//! `tests/` directory, or a `#[cfg(test)]` item ([`cfg_test_items`], the
//! ranges the lint rules skip) — and the rest, plus the line budget: the
//! non-test lines outside [`BUDGET_EXCLUDES`].

use crate::lexer::{cfg_test_items, lex};
use crate::workspace;
use std::path::Path;

/// The directories counted, relative to the workspace root.
pub const DIRS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// The directory whose lines the line budget leaves out: the tooling that
/// checks the tree is not the tree.
pub const BUDGET_EXCLUDES: &str = "crates/xtask";

/// The line counts of a tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lines {
    /// Every line.
    pub total: usize,
    /// Test lines.
    pub test: usize,
    /// Non-test lines outside [`BUDGET_EXCLUDES`].
    pub budget: usize,
}

/// `(total, test)` lines of `src`; all of them are test lines when the file
/// sits under a `tests/` directory.
pub fn count_file(src: &str, under_tests_dir: bool) -> (usize, usize) {
    let line_of = |byte: usize| src[..byte].bytes().filter(|&b| b == b'\n').count();
    let total = line_of(src.len());
    if under_tests_dir {
        return (total, total);
    }
    let mut test_lines = vec![false; total + 1];
    for (start, end) in cfg_test_items(src, &lex(src)) {
        test_lines[line_of(start)..=line_of(end - 1)].fill(true);
    }
    (total, test_lines[..total].iter().filter(|&&t| t).count())
}

/// The [`Lines`] of every `.rs` file under [`DIRS`] of `root`.
pub fn count_tree(root: &Path) -> Result<Lines, String> {
    let mut files = Vec::new();
    for dir in DIRS {
        workspace::collect_rs_files(&root.join(dir), &mut files)?;
    }
    let mut lines = Lines::default();
    for path in files {
        let relative = path.strip_prefix(root).unwrap_or(&path);
        let under_tests_dir = relative.components().any(|c| c.as_os_str() == "tests");
        let (total, test) = count_file(&workspace::read(&path)?, under_tests_dir);
        lines.total += total;
        lines.test += test;
        if !relative.starts_with(BUDGET_EXCLUDES) {
            lines.budget += total - test;
        }
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gated_items_are_test_lines_and_the_rest_is_not() {
        let src = "\
fn real() {}
#[cfg(test)]
fn helper() -> u8 {
    1
}
#[cfg(not(test))]
fn only_outside_tests() {}
#[cfg(test)]
use std::fmt;
#[cfg(all(test, feature = \"x\"))]
#[allow(dead_code)]
mod tests {
    fn inner() {}
}
";
        assert_eq!(count_file(src, false), (14, 4 + 2 + 5));
        assert_eq!(count_file(src, true), (14, 14));
    }

    /// The budget is the non-test lines outside `crates/xtask`: a crate's
    /// source counts, its `#[cfg(test)]` item and its `tests/` file do not,
    /// and nothing under `crates/xtask` does.
    #[test]
    fn the_budget_leaves_out_test_lines_and_crates_xtask() {
        let root = std::env::temp_dir().join(format!("xtask-loc-{}", std::process::id()));
        let files = [
            ("crates/a/src/lib.rs", "fn a() {}\n#[cfg(test)]\nmod t {}\n"),
            ("crates/a/tests/it.rs", "fn it() {}\n"),
            ("crates/xtask/src/main.rs", "fn main() {}\nfn more() {}\n"),
            ("src/lib.rs", "fn root() {}\n"),
            ("notes/skipped.rs", "fn not_counted() {}\n"),
        ];
        for (path, text) in files {
            let path = root.join(path);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        }
        let lines = count_tree(&root);
        std::fs::remove_dir_all(&root).unwrap();
        let expected = Lines {
            total: 3 + 1 + 2 + 1,
            test: 2 + 1,
            budget: 1 + 1,
        };
        assert_eq!(lines, Ok(expected));
    }
}
