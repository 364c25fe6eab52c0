//! Helpers shared by the integration tests.

use g_tadoc_repro::prelude::*;
use tadoc::apps::TaskExecution;

/// Runs one **cold** query on a fresh session built from `builder` — the one
/// way the suites reach the fine-grained back end:
/// `run_cold(Engine::builder(&archive, &dag).threads(3), task, cfg)`.
/// A session per call keeps every comparison independent of what earlier
/// queries cached (and creates and drops a worker pool each time).
pub fn run_cold(builder: EngineBuilder<'_>, task: Task, cfg: TaskConfig) -> TaskExecution {
    builder
        .build()
        .expect("valid engine configuration")
        .run(task, cfg)
        .expect("valid task configuration")
}
