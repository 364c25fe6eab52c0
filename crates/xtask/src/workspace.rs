//! Workspace discovery and the minimal TOML reading the analyzer needs.
//!
//! The container is offline, so no `toml` crate: manifests and `rules.toml`
//! are read with a purpose-built line scanner that understands exactly the
//! shapes this workspace uses — `[section]` headers, `key = "string"`, and
//! `key = ["array", "of", "strings"]` (single- or multi-line).  That is not
//! a TOML parser, and does not try to be; it is the smallest reader that
//! cannot be confused by the manifests in this repository.

use std::path::{Path, PathBuf};

/// One workspace member (or the root package) as the analyzer sees it.
#[derive(Debug)]
pub struct WorkspaceCrate {
    /// Package name from `[package] name = "…"`.
    pub name: String,
    /// Directory containing the crate's `Cargo.toml`.
    pub dir: PathBuf,
    /// Full manifest text (rules inspect features textually).
    pub manifest: String,
    /// All `.rs` files under the crate's source-bearing directories.
    pub files: Vec<PathBuf>,
    /// The crate root file (`src/lib.rs`, falling back to `src/main.rs`),
    /// where `#![forbid(unsafe_code)]` must live.
    pub lib_root: Option<PathBuf>,
}

/// Reads `path` to a string with a path-qualified error.
pub fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Discovers every crate of the workspace rooted at `root`: all
/// `[workspace] members`, plus the root `[package]` if the root manifest
/// declares one.  A root manifest without a members array is treated as a
/// single-package workspace (which is what the lint fixtures are).
pub fn discover(root: &Path) -> Result<Vec<WorkspaceCrate>, String> {
    let manifest_path = root.join("Cargo.toml");
    let manifest = read(&manifest_path)?;
    let mut dirs: Vec<PathBuf> = Vec::new();
    for member in string_array(&manifest, "workspace", "members") {
        dirs.push(root.join(member));
    }
    if string_value(&manifest, "package", "name").is_some() {
        dirs.push(root.to_path_buf());
    }
    if dirs.is_empty() {
        return Err(format!(
            "{}: neither [workspace] members nor a [package]",
            manifest_path.display()
        ));
    }
    let mut crates = Vec::new();
    for dir in dirs {
        crates.push(load_crate(&dir, root)?);
    }
    Ok(crates)
}

fn load_crate(dir: &Path, root: &Path) -> Result<WorkspaceCrate, String> {
    let manifest = read(&dir.join("Cargo.toml"))?;
    let name = string_value(&manifest, "package", "name")
        .ok_or_else(|| format!("{}: no [package] name", dir.join("Cargo.toml").display()))?;
    let mut files = Vec::new();
    for sub in ["src", "tests", "benches", "examples"] {
        let sub_dir = dir.join(sub);
        // The root package owns the workspace directory itself; its member
        // crates live under `crates/` and are discovered separately, and
        // `src`/`tests`/… are the only directories cargo assigns to it — so
        // scanning just those can never double-visit a member's files.
        collect_rs_files(&sub_dir, &mut files)?;
    }
    files.sort();
    let lib_root = [dir.join("src/lib.rs"), dir.join("src/main.rs")]
        .into_iter()
        .find(|p| p.is_file());
    let _ = root; // reserved for future path-relativization
    Ok(WorkspaceCrate {
        name,
        dir: dir.to_path_buf(),
        manifest,
        files,
        lib_root,
    })
}

/// Appends every `.rs` file under `dir` (recursively; nothing if `dir` is
/// not a directory) to `out`.
pub fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Returns the string assigned to `key` inside `[section]`, if any.
pub fn string_value(toml: &str, section: &str, key: &str) -> Option<String> {
    let body = section_body(toml, section)?;
    for line in body.lines() {
        let line = strip_comment(line).trim();
        if let Some(rest) = key_assignment(line, key) {
            return first_string(rest);
        }
    }
    None
}

/// Returns the string array assigned to `key` inside `[section]` (empty if
/// the section or key is absent).  Handles multi-line arrays.
pub fn string_array(toml: &str, section: &str, key: &str) -> Vec<String> {
    let Some(body) = section_body(toml, section) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut in_array = false;
    for line in body.lines() {
        let line = strip_comment(line);
        let mut rest = line.trim();
        if !in_array {
            match key_assignment(rest, key) {
                Some(after) if after.trim_start().starts_with('[') => {
                    rest = after.trim_start().strip_prefix('[').unwrap_or(after);
                    in_array = true;
                }
                _ => continue,
            }
        }
        let (closed, remainder) = match rest.find(']') {
            Some(i) => (true, &rest[..i]),
            None => (false, rest),
        };
        out.extend(strings_in(remainder));
        if closed {
            break;
        }
    }
    out
}

/// Whether `[section]` defines `key` at all (scalar or array).
pub fn has_key(toml: &str, section: &str, key: &str) -> bool {
    section_body(toml, section).is_some_and(|body| {
        body.lines()
            .any(|l| key_assignment(strip_comment(l).trim(), key).is_some())
    })
}

/// The body of `[section]`: the text between its header line and the next
/// `[…]` header (or end of input).
fn section_body<'t>(toml: &'t str, section: &str) -> Option<&'t str> {
    let mut offset = 0usize;
    let mut start: Option<usize> = None;
    for line in toml.lines() {
        let line_start = offset;
        offset += line.len() + 1;
        let trimmed = strip_comment(line).trim();
        let is_header = trimmed.starts_with('[');
        if let Some(s) = start {
            if is_header {
                return Some(&toml[s..line_start]);
            }
        } else if is_header {
            let header = trimmed.trim_start_matches('[').trim_end_matches(']').trim();
            if header == section {
                start = Some(line_start + line.len() + 1);
            }
        }
    }
    start.map(|s| &toml[s.min(toml.len())..])
}

/// If `line` is `key = rest`, returns `rest`.
fn key_assignment<'l>(line: &'l str, key: &str) -> Option<&'l str> {
    let rest = line.strip_prefix(key)?.trim_start();
    rest.strip_prefix('=')
}

/// First double-quoted string in `s`.
fn first_string(s: &str) -> Option<String> {
    strings_in(s).into_iter().next()
}

/// Every double-quoted string in `s` (no escape handling — manifest values
/// in this workspace never contain escapes).
fn strings_in(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut parts = s.split('"');
    parts.next(); // before the first quote
    while let (Some(inside), Some(_)) = (parts.next(), parts.next()) {
        out.push(inside.to_string());
    }
    out
}

/// Strips a `#` comment (manifest values here never contain `#` inside
/// strings, except array markers of raw strings, which manifests don't use).
fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = r#"
[package]
name = "demo" # trailing comment
version = "0.1.0"

[features]
failpoints = ["failpoints/enabled", "arena/failpoints"]
other = []

[workspace]
members = [
    "crates/a",
    "crates/b", # with comment
]
"#;

    #[test]
    fn reads_scalar_values() {
        assert_eq!(
            string_value(MANIFEST, "package", "name").as_deref(),
            Some("demo")
        );
        assert_eq!(string_value(MANIFEST, "package", "missing"), None);
        assert_eq!(string_value(MANIFEST, "nope", "name"), None);
    }

    #[test]
    fn reads_single_line_arrays() {
        assert_eq!(
            string_array(MANIFEST, "features", "failpoints"),
            vec!["failpoints/enabled", "arena/failpoints"]
        );
        assert!(string_array(MANIFEST, "features", "other").is_empty());
    }

    #[test]
    fn reads_multi_line_arrays() {
        assert_eq!(
            string_array(MANIFEST, "workspace", "members"),
            vec!["crates/a", "crates/b"]
        );
    }

    #[test]
    fn has_key_sees_empty_arrays() {
        assert!(has_key(MANIFEST, "features", "other"));
        assert!(has_key(MANIFEST, "features", "failpoints"));
        assert!(!has_key(MANIFEST, "features", "absent"));
    }
}
