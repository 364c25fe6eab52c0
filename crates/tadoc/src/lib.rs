//! # tadoc
//!
//! CPU baseline: **T**ext **A**nalytics **D**irectly **O**n **C**ompression.
//!
//! This crate re-implements the state-of-the-art TADOC system the paper
//! compares against (Zhang et al., PVLDB 2018 / VLDB Journal 2020):
//!
//! * the six CompressDirect analytics tasks (*word count, sort, inverted
//!   index, term vector, sequence count, ranked inverted index*) executed
//!   directly on the compressed grammar, sequentially;
//! * the **fine-grained parallel engine** ([`fine_grained`]): the G-TADOC
//!   scheduling on real CPU threads — level-synchronized DAG traversal,
//!   private per-worker accumulators, window tables grouped by one counting
//!   sort and split lock-free by word range, and rule-local sequence
//!   counting (see the module docs for the paper mapping);
//! * the session facade over that engine: [`Engine`], built with
//!   `Engine::builder(..)`; the free function [`run_task`] stays as the
//!   sequential reference every test and benchmark compares against (and
//!   the fallback a faulted engine query degrades to);
//! * a ground-truth *oracle* that computes every task on the decompressed
//!   token streams (used to validate both TADOC and G-TADOC);
//! * the CPU and 10-node-cluster analytic cost models used by the experiment
//!   harness to reproduce the paper's speedup figures.
//!
//! Every task records [`timing::PhaseTimings`] separating the
//! *initialization* phase (data-structure preparation) from the *DAG
//! traversal* phase, matching the phase breakdown of Figure 10.

pub mod apps;
pub mod cost;
pub mod fine_grained;
pub mod oracle;
pub mod results;
pub mod timing;
pub mod weights;

pub use apps::{run_task, Task, TaskConfig};
pub use fine_grained::{ConfigError, Engine, EngineBuilder};
pub use results::{AnalyticsOutput, CountTable, PostingTable};
pub use timing::{PhaseTimings, WorkStats};
