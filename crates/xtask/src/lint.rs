//! The workspace lint rules.
//!
//! Seven rules, each guarding an invariant the engine's correctness or
//! cost argument rests on (see `ARCHITECTURE.md`, *Static analysis & race
//! checking*):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `safety-comments`   | every `unsafe` site carries a written rationale |
//! | `atomic-orderings`  | orderings are explicit; `Relaxed` never touches pool control/epoch state; `SeqCst` never hides a missing argument |
//! | `unwrap-ban`        | the session/arena layers return typed errors, never panic on `None`/`Err` |
//! | `failpoint-gating`  | every `fail_point!` site is feature-gated through the manifest chain, so release builds compile it out |
//! | `forbid-unsafe`     | unsafe stays confined to the allowlisted crates; everyone else carries `#![forbid(unsafe_code)]` |
//! | `no-hash-finalize`  | the fine-grained finalize path stays hash-free: tables grouped by one counting sort concatenate their key-ordered runs into ordered columns, never back into a hash table |
//! | `copy-free-hit-path` | a results-cache hit stays a reference-count bump and a `write_all`: no deep copy of a result table, no re-encoding outside the one site that fills a cache entry's frame |
//!
//! A `rules.toml` path fragment that selects no file is a finding of the
//! rule it configures: a stale entry guards nothing.
//!
//! Any finding can be suppressed at the site with
//! `// xtask-allow(<rule>): <reason>` on the same or the preceding line; an
//! annotation without a reason is itself a finding.  Crate-level findings
//! (manifest gating, the unsafe allowlist) are configured in
//! `crates/xtask/rules.toml`, not suppressed inline — the config file *is*
//! the reviewed suppression record for those.

use crate::lexer::{cfg_test_items, lex, Token, TokenKind};
use crate::workspace::{self, WorkspaceCrate};
use std::fmt;
use std::path::{Path, PathBuf};

/// The rule identifiers accepted by `xtask-allow(...)`.
pub const RULES: &[&str] = &[
    "safety-comments",
    "atomic-orderings",
    "unwrap-ban",
    "failpoint-gating",
    "forbid-unsafe",
    "no-hash-finalize",
    "copy-free-hit-path",
];

/// Hash-table type names banned from the fine-grained finalize path.  The
/// tentpole invariant is *zero hash probes after the traversal phase*: the
/// word-range runs concatenate straight into ordered columns, so any
/// hash map re-appearing on these files is the old finalizer growing back.
const HASH_TYPES: &[&str] = &["FxHashMap", "FxHashSet", "HashMap", "HashSet"];

/// Identifiers that name a result table (`AnalyticsOutput`) on the serving
/// hit path.  A `.clone()` whose receiver expression mentions one is a deep
/// copy of the table — or an `Arc` bump spelled so that it reads like one;
/// `Arc::clone(&…)` is the accepted spelling of the latter.
const TABLE_RECEIVERS: &[&str] = &["output", "table"];

/// Atomic methods that take an `Ordering` argument.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

/// The explicit ordering names an atomic call must contain one of.
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Receiver-name fragments marking the worker pool's control/epoch state:
/// fields whose writes publish an epoch, a shutdown, a poisoning, or a
/// cancellation to other threads.  `Relaxed` on these is a latent ordering
/// bug even when the surrounding mutex happens to save it today.
const CONTROL_WORDS: &[&str] = &[
    "epoch",
    "gen",
    "remaining",
    "shutdown",
    "active",
    "poison",
    "control",
    "barrier",
    "lease",
];

/// How many non-comment tokens `safety-comments` walks backwards over before
/// giving up on finding the rationale comment.  Sized for one wrapped
/// statement head (e.g. `let r = catch_unwind(AssertUnwindSafe(|| {` plus a
/// planted failpoint) between the comment and the `unsafe` keyword.
const SAFETY_LOOKBACK_TOKENS: usize = 48;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// File the finding is in (workspace-relative when possible).
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Rule identifier (one of [`RULES`], or `xtask-allow` for a malformed
    /// suppression annotation).
    pub rule: String,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.msg
        )
    }
}

/// Lint configuration, loaded from `rules.toml` (`<root>/crates/xtask/` or
/// the root itself — the latter is what the violation fixtures use).
#[derive(Debug, Default)]
pub struct Config {
    /// Crates allowed to contain `unsafe` code.
    pub unsafe_allow: Vec<String>,
    /// Path fragments selecting the files under the text-level unwrap ban.
    pub unwrap_paths: Vec<String>,
    /// Path fragments selecting the files under the hash-free finalize ban.
    pub hash_finalize_paths: Vec<String>,
    /// Path fragments selecting the files of the serving hit path.
    pub hit_path_paths: Vec<String>,
    /// The `rules.toml` the config was loaded from, and its text.
    pub source: (PathBuf, String),
}

impl Config {
    /// Loads the config for the workspace rooted at `root`.
    pub fn load(root: &Path) -> Result<Self, String> {
        let candidates = [
            root.join("crates/xtask/rules.toml"),
            root.join("rules.toml"),
        ];
        let path = candidates
            .iter()
            .find(|p| p.is_file())
            .ok_or_else(|| format!("no rules.toml under {}", root.display()))?;
        let text = workspace::read(path)?;
        Ok(Self {
            unsafe_allow: workspace::string_array(&text, "unsafe-crates", "allow"),
            unwrap_paths: workspace::string_array(&text, "unwrap-ban", "paths"),
            hash_finalize_paths: workspace::string_array(&text, "no-hash-finalize", "paths"),
            hit_path_paths: workspace::string_array(&text, "copy-free-hit-path", "paths"),
            source: (path.clone(), text),
        })
    }

    /// Every path fragment, with the rule it selects files for, that
    /// selects none of `files` (slash-separated paths).  Such a fragment —
    /// left behind when its file was deleted or moved — guards nothing,
    /// yet the lint would report the tree clean.
    pub fn unmatched_fragments(&self, files: &[String]) -> Vec<(&'static str, &str)> {
        let lists = [
            ("unwrap-ban", &self.unwrap_paths),
            ("no-hash-finalize", &self.hash_finalize_paths),
            ("copy-free-hit-path", &self.hit_path_paths),
        ];
        lists
            .into_iter()
            .flat_map(|(rule, frags)| frags.iter().map(move |frag| (rule, frag.as_str())))
            .filter(|(_, frag)| !files.iter().any(|file| file.contains(frag)))
            .collect()
    }
}

/// A path with `/` separators, the form the `rules.toml` fragments match.
fn slash_separated(path: &Path) -> String {
    path.to_string_lossy().replace('\\', "/")
}

/// Lints the workspace rooted at `root`; returns every (unsuppressed)
/// finding, sorted by file and line.
pub fn lint_workspace(root: &Path) -> Result<Vec<Violation>, String> {
    let config = Config::load(root)?;
    let crates = workspace::discover(root)?;
    let mut out = Vec::new();
    for krate in &crates {
        lint_crate(krate, &config, root, &mut out)?;
    }
    let files: Vec<String> = crates
        .iter()
        .flat_map(|k| &k.files)
        .map(|p| slash_separated(p))
        .collect();
    let (rules_file, rules_text) = &config.source;
    for (rule, frag) in config.unmatched_fragments(&files) {
        let quoted = format!("\"{frag}\"");
        out.push(Violation {
            file: rel(rules_file, root),
            line: rules_text
                .lines()
                .position(|l| l.contains(&quoted))
                .map_or(1, |i| i + 1),
            rule: rule.into(),
            msg: format!("path fragment `{frag}` selects no file: remove it or fix the path"),
        });
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(out)
}

fn lint_crate(
    krate: &WorkspaceCrate,
    config: &Config,
    root: &Path,
    out: &mut Vec<Violation>,
) -> Result<(), String> {
    let allowlisted = config.unsafe_allow.contains(&krate.name);
    let mut crate_has_unsafe = false;
    for path in &krate.files {
        let src = workspace::read(path)?;
        let file = FileLint::new(&src, rel(path, root));
        file.safety_comments(out);
        file.atomic_orderings(out);
        let slashed = slash_separated(path);
        let selected = |frags: &[String]| frags.iter().any(|frag| slashed.contains(frag.as_str()));
        if selected(&config.unwrap_paths) {
            file.unwrap_ban(out);
        }
        if selected(&config.hash_finalize_paths) {
            file.hash_finalize_ban(out);
        }
        if selected(&config.hit_path_paths) {
            file.copy_free_hit_path(out);
        }
        file.malformed_suppressions(out);
        let sites = file.failpoint_sites();
        if !sites.is_empty() && krate.name != "failpoints" && !manifest_gates_failpoints(krate) {
            for line in sites {
                file.report(
                    out,
                    "failpoint-gating",
                    line,
                    format!(
                        "`fail_point!` site in crate `{}`, whose manifest does not wire the \
                         failpoints feature chain (needs `failpoints = [\"failpoints/enabled\", …]` \
                         or a `<dep>/failpoints` forward under [features])",
                        krate.name
                    ),
                );
            }
        }
        let unsafe_lines = file.unsafe_lines();
        crate_has_unsafe |= !unsafe_lines.is_empty();
        if !allowlisted {
            for line in unsafe_lines {
                file.report(
                    out,
                    "forbid-unsafe",
                    line,
                    format!(
                        "`unsafe` in crate `{}`, which is not in the rules.toml unsafe \
                         allowlist",
                        krate.name
                    ),
                );
            }
        }
    }
    // The attribute check and the stale-allowlist check are crate-level:
    // they anchor to the crate root file.
    if let Some(lib_root) = &krate.lib_root {
        let src = workspace::read(lib_root)?;
        if !allowlisted && !has_forbid_unsafe(&src) {
            out.push(Violation {
                file: rel(lib_root, root),
                line: 1,
                rule: "forbid-unsafe".into(),
                msg: format!(
                    "crate `{}` is declared unsafe-free (not in the rules.toml allowlist) \
                     but its crate root lacks `#![forbid(unsafe_code)]`",
                    krate.name
                ),
            });
        }
        if allowlisted && !crate_has_unsafe {
            out.push(Violation {
                file: rel(lib_root, root),
                line: 1,
                rule: "forbid-unsafe".into(),
                msg: format!(
                    "crate `{}` is in the unsafe allowlist but contains no `unsafe` — \
                     remove it from rules.toml and add `#![forbid(unsafe_code)]`",
                    krate.name
                ),
            });
        }
    }
    Ok(())
}

/// Whether the crate's manifest wires the failpoints feature chain: a
/// `failpoints` feature forwarding to `failpoints/enabled` or to a
/// dependency's own `failpoints` feature.
fn manifest_gates_failpoints(krate: &WorkspaceCrate) -> bool {
    let chain = workspace::string_array(&krate.manifest, "features", "failpoints");
    chain
        .iter()
        .any(|entry| entry == "failpoints/enabled" || entry.ends_with("/failpoints"))
}

/// Whether `src` carries the inner attribute `#![forbid(unsafe_code)]`.
fn has_forbid_unsafe(src: &str) -> bool {
    let toks = lex(src);
    let code: Vec<&Token> = toks.iter().filter(|t| !t.is_comment()).collect();
    code.windows(8).any(|w| {
        let texts: Vec<&str> = w.iter().map(|t| t.text(src)).collect();
        texts == ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"]
    })
}

fn rel(path: &Path, root: &Path) -> PathBuf {
    path.strip_prefix(root).unwrap_or(path).to_path_buf()
}

/// Per-file token analysis shared by the token-level rules.
struct FileLint<'s> {
    src: &'s str,
    file: PathBuf,
    toks: Vec<Token>,
    /// Indices into `toks` of the non-comment tokens.
    code: Vec<usize>,
    /// Byte ranges excluded from `unwrap-ban`: `#[cfg(test)]` items and
    /// `macro_rules!` definitions.
    excluded: Vec<(usize, usize)>,
    /// Well-formed suppressions: (line of the annotation, rule).
    allows: Vec<(usize, String)>,
    /// Annotations with an empty reason: (line, raw text).
    bad_allows: Vec<(usize, String)>,
}

impl<'s> FileLint<'s> {
    fn new(src: &'s str, file: PathBuf) -> Self {
        let toks = lex(src);
        let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
        let mut lint = Self {
            src,
            file,
            toks,
            code,
            excluded: Vec::new(),
            allows: Vec::new(),
            bad_allows: Vec::new(),
        };
        lint.collect_suppressions();
        lint.collect_excluded_regions();
        lint
    }

    fn text(&self, tok: &Token) -> &'s str {
        tok.text(self.src)
    }

    /// Token (by code index) text, or "" out of range.
    fn code_text(&self, ci: isize) -> &'s str {
        if ci < 0 {
            return "";
        }
        match self.code.get(ci as usize) {
            Some(&i) => self.text(&self.toks[i]),
            None => "",
        }
    }

    fn report(&self, out: &mut Vec<Violation>, rule: &str, line: usize, msg: String) {
        let suppressed = self
            .allows
            .iter()
            .any(|(l, r)| r == rule && (*l == line || l + 1 == line));
        if !suppressed {
            out.push(Violation {
                file: self.file.clone(),
                line,
                rule: rule.to_string(),
                msg,
            });
        }
    }

    /// Parses every `xtask-allow(<rule>): <reason>` annotation in comments.
    fn collect_suppressions(&mut self) {
        for tok in &self.toks {
            if !tok.is_comment() {
                continue;
            }
            let text = self.text(tok);
            let mut search = text;
            let mut line = tok.line;
            // Block comments may hold the annotation on a later line.
            while let Some(at) = search.find("xtask-allow(") {
                let before = &search[..at];
                line += before.matches('\n').count();
                let rest = &search[at + "xtask-allow(".len()..];
                let (entry_line, remainder) = (line, rest);
                match remainder.find(')') {
                    Some(close) => {
                        let rule = remainder[..close].trim().to_string();
                        // Prose *about* the annotation (`xtask-allow(<rule>)`,
                        // `xtask-allow(...)`) is not a suppression attempt;
                        // only rule-identifier-shaped content counts.
                        if rule.is_empty()
                            || !rule
                                .bytes()
                                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
                        {
                            search = remainder;
                            continue;
                        }
                        let after = remainder[close + 1..].trim_start();
                        let reason = after.strip_prefix(':').map(str::trim_start).unwrap_or("");
                        let reason_ok = !reason.is_empty()
                            && reason.lines().next().is_some_and(|l| !l.trim().is_empty());
                        if reason_ok && RULES.contains(&rule.as_str()) {
                            self.allows.push((entry_line, rule));
                        } else {
                            self.bad_allows.push((entry_line, rule));
                        }
                    }
                    None => self.bad_allows.push((entry_line, remainder.to_string())),
                }
                search = remainder;
            }
        }
    }

    fn malformed_suppressions(&self, out: &mut Vec<Violation>) {
        for (line, what) in &self.bad_allows {
            out.push(Violation {
                file: self.file.clone(),
                line: *line,
                rule: "xtask-allow".into(),
                msg: format!(
                    "malformed suppression `xtask-allow({what})`: must name a known rule \
                     and give a non-empty reason after `:`"
                ),
            });
        }
    }

    /// Records the byte ranges of `#[cfg(test)]` items (see
    /// [`cfg_test_items`]) and `macro_rules! … { … }` definitions.
    fn collect_excluded_regions(&mut self) {
        let mut ranges = cfg_test_items(self.src, &self.toks);
        for ci in 0..self.code.len() {
            if self.code_text(ci as isize) == "macro_rules"
                && self.code_text(ci as isize + 1) == "!"
            {
                if let Some((start, end)) = self.delimited_body(ci + 3) {
                    ranges.push((start, end));
                }
            }
        }
        self.excluded = ranges;
    }

    /// Byte range of the `{…}` / `(…)` / `[…]` body whose opening delimiter
    /// is at code index `open_at` (or the first delimiter at/after it).
    fn delimited_body(&self, open_at: usize) -> Option<(usize, usize)> {
        let mut j = open_at;
        let (open, close) = loop {
            match self.code_text(j as isize) {
                "{" => break ("{", "}"),
                "(" => break ("(", ")"),
                "[" => break ("[", "]"),
                "" => return None,
                ";" => return None, // `mod name;` — no inline body
                _ => j += 1,
            }
            if j > open_at + 8 {
                return None;
            }
        };
        let start = self.toks[self.code[j]].start;
        let mut depth = 0usize;
        while j < self.code.len() {
            let t = self.code_text(j as isize);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    return Some((start, self.toks[self.code[j]].end));
                }
            }
            j += 1;
        }
        Some((start, self.src.len()))
    }

    fn in_excluded(&self, byte: usize) -> bool {
        self.excluded.iter().any(|&(s, e)| byte >= s && byte < e)
    }

    /// Rule `safety-comments`: every `unsafe` keyword must have a
    /// `// SAFETY:` (or rustdoc `# Safety`) rationale as the nearest
    /// preceding comment block.
    fn safety_comments(&self, out: &mut Vec<Violation>) {
        for (pos, &i) in self.code.iter().enumerate() {
            let tok = &self.toks[i];
            if tok.kind != TokenKind::Ident || self.text(tok) != "unsafe" {
                continue;
            }
            if !self.rationale_precedes(pos) {
                self.report(
                    out,
                    "safety-comments",
                    tok.line,
                    "`unsafe` without an immediately preceding `// SAFETY:` rationale \
                     (or rustdoc `# Safety` section)"
                        .to_string(),
                );
            }
        }
    }

    /// Walks backwards from the code token at position `pos` to the nearest
    /// contiguous comment run (within the lookback budget) and searches it
    /// for a safety rationale.
    fn rationale_precedes(&self, pos: usize) -> bool {
        let full_index = self.code[pos];
        let mut skipped = 0usize;
        let mut j = full_index;
        while j > 0 {
            j -= 1;
            let tok = &self.toks[j];
            if tok.is_comment() {
                // Expand to the contiguous run of comments and search it all:
                // a multi-line `// SAFETY: …` rationale is several tokens.
                let mut first = j;
                while first > 0 && self.toks[first - 1].is_comment() {
                    first -= 1;
                }
                return (first..=j).any(|k| {
                    let text = self.text(&self.toks[k]).to_ascii_lowercase();
                    text.contains("safety:") || text.contains("# safety")
                });
            }
            skipped += 1;
            if skipped > SAFETY_LOOKBACK_TOKENS {
                return false;
            }
        }
        false
    }

    /// Rule `atomic-orderings`.
    fn atomic_orderings(&self, out: &mut Vec<Violation>) {
        for (pos, &i) in self.code.iter().enumerate() {
            let tok = &self.toks[i];
            if tok.kind != TokenKind::Ident || !ATOMIC_METHODS.contains(&self.text(tok)) {
                continue;
            }
            if self.code_text(pos as isize - 1) != "." || self.code_text(pos as isize + 1) != "(" {
                continue;
            }
            let method = self.text(tok);
            let orderings = self.call_orderings(pos + 1);
            if orderings.is_empty() {
                self.report(
                    out,
                    "atomic-orderings",
                    tok.line,
                    format!("`.{method}(…)` without an explicit `Ordering` argument"),
                );
                continue;
            }
            if orderings.contains(&"SeqCst") {
                self.report(
                    out,
                    "atomic-orderings",
                    tok.line,
                    format!(
                        "`.{method}(…, SeqCst)`: SeqCst is an unjustified crutch here — \
                         name the acquire/release pairing the algorithm actually needs"
                    ),
                );
            }
            if orderings.contains(&"Relaxed") {
                let receiver = self.receiver_ident(pos);
                if let Some(word) = control_word(receiver) {
                    self.report(
                        out,
                        "atomic-orderings",
                        tok.line,
                        format!(
                            "`{receiver}.{method}(…, Relaxed)`: `{receiver}` looks like pool \
                             control/epoch state (matches `{word}`), which must publish with \
                             acquire/release ordering"
                        ),
                    );
                }
            }
        }
    }

    /// The ordering idents appearing in the argument list whose `(` is at
    /// code position `open`.
    fn call_orderings(&self, open: usize) -> Vec<&'s str> {
        let mut depth = 0usize;
        let mut found = Vec::new();
        for ci in open..self.code.len() {
            match self.code_text(ci as isize) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                t if ORDERINGS.contains(&t) => found.push(t),
                _ => {}
            }
        }
        found
    }

    /// The field/variable identifier the atomic method is called on:
    /// `self.control.active.load(…)` → `active`.
    fn receiver_ident(&self, method_pos: usize) -> &'s str {
        // method_pos - 1 is `.`; the receiver ident (if simple) precedes it.
        let t = self.code_text(method_pos as isize - 2);
        t
    }

    /// Rule `unwrap-ban` (only called for files under the configured
    /// paths): no `.unwrap()` outside test modules and macro definitions.
    fn unwrap_ban(&self, out: &mut Vec<Violation>) {
        for (pos, &i) in self.code.iter().enumerate() {
            let tok = &self.toks[i];
            if tok.kind != TokenKind::Ident || self.text(tok) != "unwrap" {
                continue;
            }
            if self.code_text(pos as isize - 1) != "." || self.code_text(pos as isize + 1) != "(" {
                continue;
            }
            if self.in_excluded(tok.start) {
                continue;
            }
            self.report(
                out,
                "unwrap-ban",
                tok.line,
                "bare `.unwrap()` in an error-boundary module: return a typed error or \
                 `.expect(…)` with a written unreachability argument"
                    .to_string(),
            );
        }
    }

    /// Rule `no-hash-finalize` (only called for files under the configured
    /// paths): no hash-table type may appear outside test modules and macro
    /// definitions — the finalize path merges sorted runs into ordered
    /// columns instead of folding them back into a map.
    fn hash_finalize_ban(&self, out: &mut Vec<Violation>) {
        for &i in &self.code {
            let tok = &self.toks[i];
            if tok.kind != TokenKind::Ident || !HASH_TYPES.contains(&self.text(tok)) {
                continue;
            }
            if self.in_excluded(tok.start) {
                continue;
            }
            self.report(
                out,
                "no-hash-finalize",
                tok.line,
                format!(
                    "`{}` on the hash-free finalize path: merge the per-shard sorted \
                     runs into ordered columns (`CountTable`/`PostingTable`) instead \
                     of rebuilding a hash table",
                    self.text(tok)
                ),
            );
        }
    }

    /// Rule `copy-free-hit-path` (only called for files under the configured
    /// paths): outside test modules and macro definitions, no `.clone()` of
    /// a result table, no `AnalyticsOutput::clone(…)`, and no call of
    /// `encode_response(…)` — the one site that encodes an uncached answer
    /// or fills a cache entry's frame carries the `xtask-allow`.
    fn copy_free_hit_path(&self, out: &mut Vec<Violation>) {
        for (pos, &i) in self.code.iter().enumerate() {
            let tok = &self.toks[i];
            if tok.kind != TokenKind::Ident || self.in_excluded(tok.start) {
                continue;
            }
            let pos = pos as isize;
            let called = self.code_text(pos + 1) == "(";
            let msg = match self.text(tok) {
                "clone" if called && self.code_text(pos - 1) == "." => {
                    match self.table_in_receiver(pos - 1) {
                        Some(name) => format!(
                            "`.clone()` on `{name}` copies a result table on the hit path: \
                             share it (`Arc::clone(&…)`)"
                        ),
                        None => continue,
                    }
                }
                "clone"
                    if called
                        && self.code_text(pos - 1) == ":"
                        && self.code_text(pos - 3) == "AnalyticsOutput" =>
                {
                    "`AnalyticsOutput::clone` copies a result table on the hit path: share the \
                     `Arc` instead"
                        .to_string()
                }
                "encode_response" if called && self.code_text(pos - 1) != "fn" => {
                    "`encode_response(…)` on the hit path: a cached table's frame comes from \
                     its cache entry; only the one site that fills it encodes"
                        .to_string()
                }
                _ => continue,
            };
            self.report(out, "copy-free-hit-path", tok.line, msg);
        }
    }

    /// Walks the receiver expression that ends at the `.` at code position
    /// `dot` backwards — identifiers, field and path separators, `*`/`&`/`?`
    /// and balanced parentheses — and returns the first
    /// [`TABLE_RECEIVERS`] identifier it mentions.
    fn table_in_receiver(&self, dot: isize) -> Option<&'s str> {
        let mut depth = 0usize;
        // Two identifiers in a row (`return x`, `in list`) are two
        // expressions: the walk ends at the second.
        let mut after_ident = false;
        let mut ci = dot - 1;
        while ci >= 0 {
            let text = self.code_text(ci);
            let is_ident = self.toks[self.code[ci as usize]].kind == TokenKind::Ident;
            match text {
                _ if is_ident && after_ident && depth == 0 => return None,
                _ if is_ident && TABLE_RECEIVERS.contains(&text) => return Some(text),
                ")" => depth += 1,
                "(" if depth > 0 => depth -= 1,
                "." | ":" | "*" | "&" | "?" => {}
                // Anything else inside parentheses is an argument list.
                _ if is_ident || depth > 0 => {}
                _ => return None,
            }
            after_ident = is_ident;
            ci -= 1;
        }
        None
    }

    /// Lines of `fail_point!` invocations (macro definitions excluded).
    fn failpoint_sites(&self) -> Vec<usize> {
        let mut lines = Vec::new();
        for (pos, &i) in self.code.iter().enumerate() {
            let tok = &self.toks[i];
            if tok.kind == TokenKind::Ident
                && self.text(tok) == "fail_point"
                && self.code_text(pos as isize + 1) == "!"
                && !self.in_excluded(tok.start)
            {
                lines.push(tok.line);
            }
        }
        lines
    }

    /// Lines of `unsafe` keywords in code context.
    fn unsafe_lines(&self) -> Vec<usize> {
        self.code
            .iter()
            .map(|&i| &self.toks[i])
            .filter(|t| t.kind == TokenKind::Ident && self.text(t) == "unsafe")
            .map(|t| t.line)
            .collect()
    }
}

/// The control word `ident` matches, if any (case-insensitive substring).
fn control_word(ident: &str) -> Option<&'static str> {
    let lower = ident.to_ascii_lowercase();
    CONTROL_WORDS.iter().copied().find(|w| lower.contains(w))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file_lint(src: &str) -> FileLint<'_> {
        FileLint::new(src, PathBuf::from("test.rs"))
    }

    fn run_rule(
        src: &str,
        rule: impl for<'a> Fn(&FileLint<'a>, &mut Vec<Violation>),
    ) -> Vec<Violation> {
        let lint = file_lint(src);
        let mut out = Vec::new();
        rule(&lint, &mut out);
        out
    }

    #[test]
    fn safety_comment_satisfies_the_rule() {
        let src = "
            // SAFETY: the slice outlives the borrow.
            let x = unsafe_marker();
            // SAFETY: ditto.
            unsafe { go() }
        ";
        assert!(run_rule(src, |l, out| l.safety_comments(out)).is_empty());
    }

    #[test]
    fn missing_safety_comment_is_flagged() {
        let src = "fn f() { unsafe { go() } }";
        let v = run_rule(src, |l, out| l.safety_comments(out));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "safety-comments");
    }

    #[test]
    fn unrelated_comment_does_not_satisfy_the_rule() {
        let src = "
            // just a comment
            unsafe { go() }
        ";
        assert_eq!(run_rule(src, |l, out| l.safety_comments(out)).len(), 1);
    }

    #[test]
    fn rustdoc_safety_section_satisfies_the_rule() {
        let src = "
            /// Does a thing.
            ///
            /// # Safety
            /// Caller must uphold X.
            pub unsafe fn f() {}
        ";
        assert!(run_rule(src, |l, out| l.safety_comments(out)).is_empty());
    }

    #[test]
    fn suppression_silences_a_finding() {
        let src = "
            // xtask-allow(safety-comments): trusted upstream contract.
            unsafe { go() }
        ";
        assert!(run_rule(src, |l, out| l.safety_comments(out)).is_empty());
    }

    #[test]
    fn suppression_without_reason_is_reported() {
        let src = "
            // xtask-allow(safety-comments):
            unsafe { go() }
        ";
        let lint = file_lint(src);
        let mut out = Vec::new();
        lint.safety_comments(&mut out);
        lint.malformed_suppressions(&mut out);
        assert!(out.iter().any(|v| v.rule == "safety-comments"));
        assert!(out.iter().any(|v| v.rule == "xtask-allow"));
    }

    #[test]
    fn atomic_without_ordering_is_flagged() {
        let src = "fn f(a: &A) { a.x.store(1); }";
        let v = run_rule(src, |l, out| l.atomic_orderings(out));
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("explicit"));
    }

    #[test]
    fn seqcst_is_flagged_everywhere() {
        let src = "fn f(a: &A) { a.x.load(Ordering::SeqCst); }";
        let v = run_rule(src, |l, out| l.atomic_orderings(out));
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("SeqCst"));
    }

    #[test]
    fn relaxed_on_control_state_is_flagged() {
        let src = "
            fn f(p: &Pool) {
                p.epoch.store(1, Ordering::Relaxed);
                p.cursor.fetch_add(1, Ordering::Relaxed); // fine: not control
                p.active.load(Ordering::Acquire); // fine: not Relaxed
            }
        ";
        let v = run_rule(src, |l, out| l.atomic_orderings(out));
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("epoch"));
    }

    #[test]
    fn unwrap_outside_tests_is_flagged_inside_tests_is_not() {
        let src = "
            fn f(x: Option<u32>) -> u32 { x.unwrap() }
            #[cfg(test)]
            mod tests {
                fn g(x: Option<u32>) -> u32 { x.unwrap() }
            }
        ";
        let v = run_rule(src, |l, out| l.unwrap_ban(out));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn unwrap_inside_macro_rules_is_excluded() {
        let src = "
            macro_rules! m {
                () => { x.unwrap() };
            }
            fn f(x: Option<u32>) -> u32 { x.unwrap() }
        ";
        let v = run_rule(src, |l, out| l.unwrap_ban(out));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_default() }";
        assert!(run_rule(src, |l, out| l.unwrap_ban(out)).is_empty());
    }

    #[test]
    fn table_copies_on_the_hit_path_are_flagged_sharing_is_not() {
        let src = "
            fn f(exec: &Exec, cache: &Cache) {
                cache.insert(exec.output.clone());
                let copy = (*exec.output).clone();
                let deep = AnalyticsOutput::clone(&exec.output);
                let shared = Arc::clone(&exec.output);
                let token = drain_cancel.clone();
                let listed = names(output, 3).len();
                for output in tables.clone() {}
            }
            #[cfg(test)]
            mod tests { fn g(t: &T) { let _ = t.output.clone(); } }
        ";
        let v = run_rule(src, |l, out| l.copy_free_hit_path(out));
        let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![3, 4, 5], "{v:?}");
    }

    #[test]
    fn encode_response_calls_are_flagged_its_definition_is_not() {
        let src = "
            pub fn encode_response(resp: &Response) -> Vec<u8> { Vec::new() }
            fn answer(resp: &Response) -> Vec<u8> { encode_response(resp) }
            fn miss(resp: &Response) -> Vec<u8> {
                // xtask-allow(copy-free-hit-path): the one encode site.
                encode_response(resp)
            }
        ";
        let v = run_rule(src, |l, out| l.copy_free_hit_path(out));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn failpoint_sites_are_collected_outside_macro_defs() {
        let src = "
            macro_rules! fail_point { ($n:expr) => {}; }
            fn f() { failpoints::fail_point!(\"site\"); }
        ";
        let lint = file_lint(src);
        assert_eq!(lint.failpoint_sites(), vec![3]);
    }

    #[test]
    fn a_path_fragment_that_selects_no_file_is_flagged() {
        let config = Config {
            unwrap_paths: vec!["crates/a/src/".into()],
            hash_finalize_paths: vec!["crates/a/src/gone.rs".into(), "crates/a/src/lib.rs".into()],
            hit_path_paths: vec!["crates/b/".into()],
            ..Config::default()
        };
        let files = [
            "/ws/crates/a/src/lib.rs".to_string(),
            "/ws/crates/a/src/x.rs".to_string(),
        ];
        assert_eq!(
            config.unmatched_fragments(&files),
            vec![
                ("no-hash-finalize", "crates/a/src/gone.rs"),
                ("copy-free-hit-path", "crates/b/")
            ]
        );
        assert!(Config::default().unmatched_fragments(&[]).is_empty());
    }

    #[test]
    fn forbid_attr_is_detected() {
        assert!(has_forbid_unsafe("#![forbid(unsafe_code)]\nfn main() {}"));
        assert!(has_forbid_unsafe(
            "//! docs first\n#![deny(missing_docs)]\n#![forbid(unsafe_code)]"
        ));
        assert!(!has_forbid_unsafe(
            "// #![forbid(unsafe_code)] in a comment"
        ));
        assert!(!has_forbid_unsafe("fn main() {}"));
    }

    #[test]
    fn cfg_all_test_mod_is_excluded_too() {
        let src = "
            #[cfg(all(test, feature = \"x\"))]
            mod tests { fn g(x: Option<u32>) -> u32 { x.unwrap() } }
        ";
        assert!(run_rule(src, |l, out| l.unwrap_ban(out)).is_empty());
    }
}
