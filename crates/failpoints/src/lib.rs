//! Zero-cost fault-injection points.
//!
//! A *fail point* is a named site in production code where a test can inject
//! a fault.  With the `enabled` feature the [`fail_point!`] macro expands to
//! a registry lookup that, when the site is armed, either panics with a
//! recognizable payload (statement form) or evaluates a caller-supplied
//! fault expression (expression form, used to return typed errors such as a
//! full admission queue).  Without the feature — the default, and the only
//! configuration release builds ship — the macro expands to **nothing**: no
//! branch, no registry, no atomic load.  The selection happens at macro
//! *definition* site via `#[cfg]`, so disabled builds carry zero cost.
//!
//! ```
//! # #[cfg(feature = "enabled")] {
//! failpoints::enable_times("demo-site", 1);
//! assert!(failpoints::is_armed("demo-site"));
//! failpoints::reset();
//! # }
//! ```
//!
//! Sites in this workspace (see `ARCHITECTURE.md`, *Failure model*):
//!
//! | site             | planted at                                    |
//! |------------------|-----------------------------------------------|
//! | `worker-epoch`   | entry of every worker's pool-epoch body       |
//! | `chunk-boundary` | each chunk claimed from a work queue          |
//! | `merge-fold`     | head of each window-fill worker's sort        |

#![forbid(unsafe_code)]

#[cfg(feature = "enabled")]
use std::collections::HashMap;
#[cfg(feature = "enabled")]
use std::sync::{Mutex, OnceLock};

/// How an armed site fires.
#[cfg(feature = "enabled")]
#[derive(Clone)]
enum Arm {
    /// Fire on every hit until [`disable`]d.
    Always,
    /// Fire on the next `n` hits, then disarm automatically.
    Times(u64),
    /// Run a hook on every hit *without* firing — used by tests to perturb
    /// external state (cancel a token, stall past a deadline) at the exact
    /// moment execution crosses the site, deterministically.
    Observe(std::sync::Arc<dyn Fn() + Send + Sync>),
}

#[cfg(feature = "enabled")]
fn registry() -> &'static Mutex<HashMap<String, Arm>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Arm>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Arms `name`: every subsequent hit fires until [`disable`]d.
#[cfg(feature = "enabled")]
pub fn enable(name: &str) {
    registry()
        .lock()
        .unwrap()
        .insert(name.to_string(), Arm::Always);
}

/// Arms `name` for exactly `times` hits, then the site disarms itself.
#[cfg(feature = "enabled")]
pub fn enable_times(name: &str, times: u64) {
    if times == 0 {
        disable(name);
        return;
    }
    registry()
        .lock()
        .unwrap()
        .insert(name.to_string(), Arm::Times(times));
}

/// Arms `name` with an observation hook: every hit runs `hook` and then
/// proceeds normally (the site does not fire).  Lets a test change external
/// state — cancel a token, sleep past a deadline — at the precise moment
/// execution crosses the site, instead of racing a timer against the query.
#[cfg(feature = "enabled")]
pub fn observe(name: &str, hook: impl Fn() + Send + Sync + 'static) {
    registry()
        .lock()
        .unwrap()
        .insert(name.to_string(), Arm::Observe(std::sync::Arc::new(hook)));
}

/// Disarms `name`.
#[cfg(feature = "enabled")]
pub fn disable(name: &str) {
    registry().lock().unwrap().remove(name);
}

/// Disarms every site.  Call between tests sharing a process.
#[cfg(feature = "enabled")]
pub fn reset() {
    registry().lock().unwrap().clear();
}

/// Whether `name` is currently armed (does not consume a hit).
#[cfg(feature = "enabled")]
pub fn is_armed(name: &str) -> bool {
    registry().lock().unwrap().contains_key(name)
}

/// Consumes one hit of `name`; `true` when the site must fire.
/// Called by the [`fail_point!`] expansion, not by user code.
#[cfg(feature = "enabled")]
#[doc(hidden)]
pub fn should_fail(name: &str) -> bool {
    let hook = {
        let mut map = registry().lock().unwrap();
        match map.get_mut(name) {
            None => return false,
            Some(Arm::Always) => return true,
            Some(Arm::Times(n)) => {
                *n -= 1;
                if *n == 0 {
                    map.remove(name);
                }
                return true;
            }
            Some(Arm::Observe(hook)) => hook.clone(),
        }
    };
    // Run outside the registry lock: the hook may arm or disarm sites.
    hook();
    false
}

/// Panics with the canonical injected-fault payload for `name`.
/// Called by the statement-form [`fail_point!`] expansion.
#[cfg(feature = "enabled")]
#[doc(hidden)]
pub fn raise(name: &str) -> ! {
    std::panic::panic_any(format!("injected fault at failpoint '{name}'"))
}

/// Marks a fault-injection site.
///
/// * `fail_point!("site")` — panics with an injected-fault payload when the
///   site is armed.
/// * `fail_point!("site", expr)` — evaluates `expr` when armed; use inside a
///   `Result`-returning function as `fail_point!("site", return Err(...))`
///   to inject a typed error instead of a panic.
///
/// Expands to nothing without the `enabled` feature.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {
        if $crate::should_fail($name) {
            $crate::raise($name);
        }
    };
    ($name:expr, $fault:expr) => {
        if $crate::should_fail($name) {
            $fault
        }
    };
}

/// Marks a fault-injection site.
///
/// This is the disabled expansion (feature `enabled` off): both forms
/// compile to nothing, so planted sites cost literally zero in release
/// builds.
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {};
    ($name:expr, $fault:expr) => {};
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    // Registry tests only; firing behaviour is covered by the workspace-level
    // fault-injection suite.  These share one process-global registry, so
    // each test uses its own site names.

    #[test]
    fn unarmed_site_never_fires() {
        assert!(!crate::should_fail("t-unarmed"));
    }

    #[test]
    fn enable_times_consumes_hits_then_disarms() {
        crate::enable_times("t-twice", 2);
        assert!(crate::should_fail("t-twice"));
        assert!(crate::should_fail("t-twice"));
        assert!(!crate::should_fail("t-twice"));
        assert!(!crate::is_armed("t-twice"));
    }

    #[test]
    fn enable_fires_until_disabled() {
        crate::enable("t-always");
        assert!(crate::should_fail("t-always"));
        assert!(crate::should_fail("t-always"));
        crate::disable("t-always");
        assert!(!crate::should_fail("t-always"));
    }

    #[test]
    fn enable_times_zero_is_disable() {
        crate::enable("t-zero");
        crate::enable_times("t-zero", 0);
        assert!(!crate::is_armed("t-zero"));
    }

    #[test]
    fn statement_form_panics_with_recognizable_payload() {
        crate::enable_times("t-panic", 1);
        let err = std::panic::catch_unwind(|| {
            fail_point!("t-panic");
        })
        .expect_err("armed site must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("injected payload is a String");
        assert!(msg.contains("t-panic"), "payload names the site: {msg}");
    }

    #[test]
    fn observe_hook_runs_without_firing() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let hits = Arc::new(AtomicU32::new(0));
        let h = hits.clone();
        crate::observe("t-observe", move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        assert!(
            !crate::should_fail("t-observe"),
            "observed sites never fire"
        );
        assert!(!crate::should_fail("t-observe"));
        assert_eq!(hits.load(Ordering::Relaxed), 2, "hook runs on every hit");
        crate::disable("t-observe");
        assert!(!crate::should_fail("t-observe"));
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn expression_form_evaluates_fault_expression() {
        fn guarded() -> Result<u32, &'static str> {
            fail_point!("t-expr", return Err("injected"));
            Ok(7)
        }
        assert_eq!(guarded(), Ok(7));
        crate::enable_times("t-expr", 1);
        assert_eq!(guarded(), Err("injected"));
        assert_eq!(guarded(), Ok(7));
    }
}
