//! `cargo run -p xtask -- loc`: every line of every `.rs` file under
//! [`DIRS`] (what `wc -l` counts), split into test lines — a file under a
//! `tests/` directory, or a `#[cfg(test)]` item ([`cfg_test_items`], the
//! ranges the lint rules skip) — and the rest.

use crate::lexer::{cfg_test_items, lex};
use crate::workspace;
use std::path::Path;

/// The directories counted, relative to the workspace root.
pub const DIRS: [&str; 4] = ["crates", "src", "tests", "examples"];

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

/// `(total, test)` lines of every `.rs` file under [`DIRS`] of `root`.
pub fn count_tree(root: &Path) -> Result<(usize, usize), String> {
    let mut files = Vec::new();
    for dir in DIRS {
        workspace::collect_rs_files(&root.join(dir), &mut files)?;
    }
    let (mut total, mut test) = (0, 0);
    for path in files {
        let relative = path.strip_prefix(root).unwrap_or(&path);
        let under_tests_dir = relative.components().any(|c| c.as_os_str() == "tests");
        let (file_total, file_test) = count_file(&workspace::read(&path)?, under_tests_dir);
        total += file_total;
        test += file_test;
    }
    Ok((total, test))
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
}
