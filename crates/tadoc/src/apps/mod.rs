//! The six CompressDirect analytics tasks executed directly on compressed
//! data (CPU baseline).
//!
//! Every task is split into the two phases the paper measures (Figure 10):
//! *initialization* (data-structure preparation and light-weight scanning) and
//! *DAG traversal* (the analytics proper plus result merging).

pub mod inverted_index;
pub mod ranked_inverted_index;
pub mod sequence_count;
pub mod sort;
pub mod term_vector;
pub mod word_count;

use crate::fine_grained::FrameSlot;
use crate::results::AnalyticsOutput;
use crate::timing::PhaseTimings;
use sequitur::{Dag, TadocArchive};
use std::sync::Arc;

/// The six analytics tasks exposed by the CompressDirect interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// Total frequency of every word.
    WordCount,
    /// Words ranked by total frequency.
    Sort,
    /// Word → files containing it.
    InvertedIndex,
    /// Per-file word-frequency vectors.
    TermVector,
    /// Global counts of every `l`-word sequence.
    SequenceCount,
    /// `l`-word sequence → files ranked by in-file frequency.
    RankedInvertedIndex,
}

impl Task {
    /// All six tasks in the order the paper lists them.
    pub const ALL: [Task; 6] = [
        Task::WordCount,
        Task::Sort,
        Task::InvertedIndex,
        Task::TermVector,
        Task::SequenceCount,
        Task::RankedInvertedIndex,
    ];

    /// The task name as it appears in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Task::WordCount => "wordCount",
            Task::Sort => "sort",
            Task::InvertedIndex => "invertedIndex",
            Task::TermVector => "termVector",
            Task::SequenceCount => "sequenceCount",
            Task::RankedInvertedIndex => "rankedInvertedIndex",
        }
    }

    /// Whether the task requires word-sequence (ordering) information.
    pub fn is_sequence_sensitive(self) -> bool {
        matches!(self, Task::SequenceCount | Task::RankedInvertedIndex)
    }

    /// Parses a task from its paper-style name.
    pub fn from_name(name: &str) -> Option<Task> {
        Task::ALL.into_iter().find(|t| t.name() == name)
    }
}

/// Per-task configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskConfig {
    /// Sequence length `l` for sequence-sensitive tasks (3 in the paper's
    /// "counting three continuous word sequences" example).
    pub sequence_length: usize,
}

impl Default for TaskConfig {
    fn default() -> Self {
        Self { sequence_length: 3 }
    }
}

/// Output plus timing of one task execution.
#[derive(Debug, Clone)]
pub struct TaskExecution {
    /// The analytics result, shared: a results-cache hit hands out the
    /// cached table itself (a reference-count bump), never a copy of it.
    pub output: Arc<AnalyticsOutput>,
    /// Phase timings and work accounting.
    pub timings: PhaseTimings,
    /// The frame slot of the results-cache entry that holds `output`: set
    /// on a hit and on the miss that stored the entry, `None` for answers
    /// the cache does not hold (cache off, degraded, sequential).
    pub frame: Option<Arc<FrameSlot>>,
}

/// Runs `task` sequentially on compressed data (the TADOC baseline).
///
/// ```
/// use sequitur::compress::{compress_corpus, CompressOptions};
/// use sequitur::Dag;
/// use tadoc::apps::{run_task, Task, TaskConfig};
/// use tadoc::results::AnalyticsOutput;
///
/// let corpus = vec![
///     ("a.txt".to_string(), "to be or not to be".to_string()),
///     ("b.txt".to_string(), "to be sure".to_string()),
/// ];
/// let archive = compress_corpus(&corpus, CompressOptions::default());
/// let dag = Dag::from_grammar(&archive.grammar);
///
/// // All six tasks run directly on the compressed archive.
/// for task in Task::ALL {
///     let exec = run_task(&archive, &dag, task, TaskConfig::default());
///     assert_eq!(exec.output.task().name(), task.name());
/// }
///
/// let wc = run_task(&archive, &dag, Task::WordCount, TaskConfig::default());
/// if let AnalyticsOutput::WordCount(counts) = &*wc.output {
///     let to = archive.dictionary.get("to").unwrap();
///     assert_eq!(counts.count(&[to]), 3);
/// }
/// ```
pub fn run_task(archive: &TadocArchive, dag: &Dag, task: Task, cfg: TaskConfig) -> TaskExecution {
    let (output, timings) = match task {
        Task::WordCount => {
            let (r, t) = word_count::run(archive, dag);
            (AnalyticsOutput::WordCount(r), t)
        }
        Task::Sort => {
            let (r, t) = sort::run(archive, dag);
            (AnalyticsOutput::Sort(r), t)
        }
        Task::InvertedIndex => {
            let (r, t) = inverted_index::run(archive, dag);
            (AnalyticsOutput::InvertedIndex(r), t)
        }
        Task::TermVector => {
            let (r, t) = term_vector::run(archive, dag);
            (AnalyticsOutput::TermVector(r), t)
        }
        Task::SequenceCount => {
            let (r, t) = sequence_count::run(archive, dag, cfg.sequence_length);
            (AnalyticsOutput::SequenceCount(r), t)
        }
        Task::RankedInvertedIndex => {
            let (r, t) = ranked_inverted_index::run(archive, dag, cfg.sequence_length);
            (AnalyticsOutput::RankedInvertedIndex(r), t)
        }
    };
    TaskExecution {
        output: Arc::new(output),
        timings,
        frame: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::timing::WorkStats;
    use sequitur::compress::{compress_corpus, CompressOptions};

    fn archive() -> (TadocArchive, Dag) {
        let corpus = vec![
            (
                "a".to_string(),
                "the cat sat on the mat the cat sat on the rug".to_string(),
            ),
            ("b".to_string(), "the dog sat on the mat".to_string()),
            (
                "c".to_string(),
                "the cat sat on the mat the cat sat on the rug".to_string(),
            ),
        ];
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        (archive, dag)
    }

    #[test]
    fn task_metadata() {
        assert_eq!(Task::ALL.len(), 6);
        assert!(Task::SequenceCount.is_sequence_sensitive());
        assert!(!Task::WordCount.is_sequence_sensitive());
        assert_eq!(Task::from_name("sort"), Some(Task::Sort));
        assert_eq!(Task::from_name("bogus"), None);
        assert_eq!(Task::RankedInvertedIndex.name(), "rankedInvertedIndex");
    }

    #[test]
    fn default_sequence_length_is_three() {
        assert_eq!(TaskConfig::default().sequence_length, 3);
    }

    #[test]
    fn every_task_matches_the_oracle() {
        let (archive, dag) = archive();
        let files = archive.grammar.expand_files();
        let cfg = TaskConfig::default();
        for task in Task::ALL {
            let exec = run_task(&archive, &dag, task, cfg);
            let expected = oracle::run(&files, task, cfg);
            assert_eq!(
                *exec.output,
                expected,
                "task {} diverges from oracle",
                task.name()
            );
        }
    }

    /// The work each sequential task charges on a three-file corpus, per
    /// phase: elements scanned, table ops, words emitted, bytes moved and
    /// sync ops.  These are the inputs of the cost model, so a change in how
    /// a task walks the grammar must leave them as they are.
    #[test]
    fn sequential_work_stats_are_pinned() {
        let (archive, dag) = archive();
        let pinned = [
            (Task::WordCount, [18, 0, 0, 120, 0], [18, 26, 0, 192, 0]),
            (Task::Sort, [18, 0, 0, 120, 0], [18, 33, 0, 276, 0]),
            (Task::InvertedIndex, [6, 7, 0, 0, 0], [16, 20, 0, 68, 0]),
            (Task::TermVector, [6, 7, 0, 144, 0], [16, 20, 0, 204, 0]),
            (Task::SequenceCount, [4, 0, 0, 24, 0], [41, 30, 30, 0, 0]),
            (
                Task::RankedInvertedIndex,
                [4, 0, 0, 0, 0],
                [41, 9, 30, 216, 0],
            ),
        ];
        let fields = |w: WorkStats| {
            [
                w.elements_scanned,
                w.table_ops,
                w.words_emitted,
                w.bytes_moved,
                w.sync_ops,
            ]
        };
        for (task, init, traversal) in pinned {
            let t = run_task(&archive, &dag, task, TaskConfig::default()).timings;
            assert_eq!(fields(t.init_work), init, "{} init", task.name());
            assert_eq!(
                fields(t.traversal_work),
                traversal,
                "{} traversal",
                task.name()
            );
        }
    }
}
