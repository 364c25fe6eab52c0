//! Repo-specific static analysis for the G-TADOC workspace.
//!
//! The engine's concurrency rests on one hand-written `unsafe` primitive,
//! the worker pool's lifetime-erased job pointer, plus explicit atomic
//! orderings, typed errors and compiled-out failpoints.  Nothing in the
//! stock toolchain checks the *repo-specific* invariants those depend on,
//! so this crate does: a dependency-free analyzer run as
//!
//! ```text
//! cargo run -p xtask -- lint
//! ```
//!
//! `cargo run -p xtask -- loc` prints the workspace's Rust line count,
//! split into test and non-test lines ([`loc`]).
//!
//! It ships its own minimal Rust [`lexer`] (the container is offline — no
//! `syn`) and applies the [`lint`] rules described in `ARCHITECTURE.md`
//! (*Static analysis*).  The `analysis-gate` CI job runs the
//! lint over the tree and the fixture tests under `tests/` prove each rule
//! still fails on a seeded violation.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod lint;
pub mod loc;
pub mod workspace;
