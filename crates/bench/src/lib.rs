//! # bench
//!
//! The experiment harness that regenerates the **paper's artefacts** — and
//! nothing else: every table and figure of the G-TADOC evaluation (Section
//! VI: Table I/II, Figure 9/10, the §VI-C traversal comparison, the §VI-E
//! uncompressed comparison) plus the ablation studies for the design choices
//! of Section IV.  The README's *Reproducing the experiments* maps each
//! artefact to its command and states the substitutions made (simulated
//! GPUs, synthetic datasets).
//!
//! Performance of the serving stack itself (compression, archive load,
//! engine sessions, the TCP server) is **not** measured here: that is the
//! repository benchmark in `benchmark/`, declared by `BENCHMARK.json`.
//!
//! The `experiments` binary drives everything:
//!
//! ```text
//! cargo run --release -p bench --bin experiments -- all --scale 0.3
//! ```

#![forbid(unsafe_code)]

// The paper artefacts are modelled from the engine the users get; an engine
// with fault injection compiled in is a different engine (registry lookups
// on every chunk claim and merge fold).  Refuse to build rather than quietly
// model the instrumented one.
#[cfg(feature = "failpoints")]
compile_error!(
    "the bench crate must never be built with fault injection armed: \
     drop `--features failpoints` for measurement builds"
);

pub mod experiments;

pub use experiments::{
    ablation, fig10, fig9, prepare_dataset, summary, table1, table2, traversal_comparison,
    uncompressed_comparison, CellResult, ExperimentScale, Platform, PreparedDataset,
};
