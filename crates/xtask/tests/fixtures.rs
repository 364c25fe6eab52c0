//! Proof that every lint rule still *fires*: each fixture under
//! `fixtures/` seeds exactly one rule's violation, and the binary must exit
//! non-zero naming that rule.  A control fixture and the real workspace
//! prove the other direction (exit 0 on clean trees), so the gate cannot
//! rot into either "passes everything" or "fails everything".

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn run_lint(root: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--root"])
        .arg(root)
        .output()
        .expect("failed to run the xtask binary")
}

/// Runs the lint on a fixture and asserts it fails, naming `rule` (and only
/// expected rules) in its report.
fn assert_fixture_trips(name: &str, rule: &str) {
    let out = run_lint(&fixture_dir(name));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "fixture {name} must make the lint exit non-zero; stdout:\n{stdout}"
    );
    assert!(
        stdout.contains(&format!("[{rule}]")),
        "fixture {name} must report rule {rule}; stdout:\n{stdout}"
    );
}

#[test]
fn safety_comments_fixture_fails() {
    assert_fixture_trips("safety-comments", "safety-comments");
}

#[test]
fn atomic_orderings_fixture_fails() {
    let out = run_lint(&fixture_dir("atomic-orderings"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "stdout:\n{stdout}");
    // All three seeded shapes must be caught: implicit ordering, SeqCst,
    // and Relaxed on control state.
    assert!(
        stdout.contains("without an explicit `Ordering`"),
        "{stdout}"
    );
    assert!(stdout.contains("SeqCst"), "{stdout}");
    assert!(stdout.contains("Relaxed"), "{stdout}");
}

#[test]
fn unwrap_ban_fixture_fails() {
    let out = run_lint(&fixture_dir("unwrap-ban"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "stdout:\n{stdout}");
    // Exactly one finding: the test-module unwrap must NOT be flagged.
    let count = stdout.matches("[unwrap-ban]").count();
    assert_eq!(count, 1, "expected exactly one unwrap finding:\n{stdout}");
}

#[test]
fn failpoint_gating_fixture_fails() {
    assert_fixture_trips("failpoint-gating", "failpoint-gating");
}

#[test]
fn forbid_unsafe_fixture_fails() {
    let out = run_lint(&fixture_dir("forbid-unsafe"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "stdout:\n{stdout}");
    // Both halves: the unsafe token outside the allowlist AND the missing
    // crate-root attribute.
    assert!(stdout.contains("not in the rules.toml unsafe"), "{stdout}");
    assert!(stdout.contains("#![forbid(unsafe_code)]"), "{stdout}");
}

#[test]
fn no_hash_finalize_fixture_fails() {
    let out = run_lint(&fixture_dir("no-hash-finalize"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "stdout:\n{stdout}");
    // The test-module HashMap must NOT be flagged; the two production
    // occurrences (return type + constructor) and the `use` must be.
    assert!(stdout.contains("[no-hash-finalize]"), "{stdout}");
    for finding in stdout.lines().filter(|l| l.contains("[no-hash-finalize]")) {
        assert!(
            !finding.contains("mod tests"),
            "test-module use must be excluded:\n{stdout}"
        );
    }
    let count = stdout.matches("[no-hash-finalize]").count();
    assert_eq!(
        count, 3,
        "expected the three production HashMap tokens:\n{stdout}"
    );
}

#[test]
fn copy_free_hit_path_fixture_fails() {
    let out = run_lint(&fixture_dir("copy-free-hit-path"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "stdout:\n{stdout}");
    // The deep copy and the unannotated re-encode, and nothing else: not
    // the definition, the `Arc::clone`, the annotated miss site or the
    // test module.
    let count = stdout.matches("[copy-free-hit-path]").count();
    assert_eq!(count, 2, "expected exactly two findings:\n{stdout}");
    assert!(stdout.contains("copies a result table"), "{stdout}");
    assert!(
        stdout.contains("only the one site that fills it encodes"),
        "{stdout}"
    );
}

#[test]
fn clean_fixture_passes() {
    let out = run_lint(&fixture_dir("clean"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "clean fixture must pass:\n{stdout}");
}

/// The analysis gate itself: the real workspace must lint clean.  This runs
/// in plain `cargo test`, so a violation anywhere in the tree fails the
/// tier-1 suite, not just the dedicated CI job.
#[test]
fn real_workspace_lints_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = run_lint(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "the workspace must be lint-clean:\n{stdout}"
    );
}
