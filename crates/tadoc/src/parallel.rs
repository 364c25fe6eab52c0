//! Coarse-grained parallel TADOC.
//!
//! The parallel TADOC design the paper contrasts G-TADOC with (its
//! reference \[4\]) splits the input into file partitions, lets each CPU
//! thread process
//! its partition independently, and merges the partial results at the end.
//! This module reproduces that design with `std::thread::scope`.  The paper's
//! point — that such coarse-grained parallelism cannot feed the thousands of
//! threads a GPU offers — is exactly why the fine-grained scheduling in
//! `gtadoc` exists.

use crate::apps::{Task, TaskConfig, TaskExecution};
use crate::results::*;
use crate::timing::{PhaseTimings, Timer, WorkStats};
use crate::weights::{file_segments, file_weights, stream_file_words};
use sequitur::fxhash::{FxHashMap, FxHashSet};
use sequitur::{Dag, Symbol, TadocArchive, WordId};

/// Configuration of the coarse-grained parallel runner.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Number of worker threads (file partitions).
    pub num_threads: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self {
            num_threads: threads,
        }
    }
}

/// Partitions `num_files` file ids into at most `parts` contiguous chunks.
///
/// Never produces an empty partition: the number of chunks is capped at
/// `num_files`, and zero files yield zero partitions.
pub fn partition_files(num_files: usize, parts: usize) -> Vec<Vec<FileId>> {
    let n_parts = parts.max(1).min(num_files);
    let mut out: Vec<Vec<FileId>> = vec![Vec::new(); n_parts];
    for f in 0..num_files {
        out[f * n_parts / num_files].push(f as FileId);
    }
    out
}

/// Runs `task` with coarse-grained (file-partition) parallelism and merges the
/// partial results.  Reached through
/// [`EngineBuilder::coarse_grained`](crate::fine_grained::EngineBuilder::coarse_grained),
/// which validates the thread count first.
pub(crate) fn run_task_parallel(
    archive: &TadocArchive,
    dag: &Dag,
    task: Task,
    cfg: TaskConfig,
    pcfg: ParallelConfig,
) -> TaskExecution {
    let grammar = &archive.grammar;
    let num_files = grammar.num_files();

    // Phase 1: shared initialization (file weights are computed once and
    // shared read-only by all workers, mirroring the shared compressed input).
    let init_timer = Timer::start();
    let mut init_work = WorkStats::default();
    let fw = file_weights(grammar, dag, &mut init_work);
    let segments = file_segments(grammar);
    let partitions = partition_files(num_files, pcfg.num_threads);
    let init = init_timer.elapsed();

    // Phase 2: per-partition processing + merge.
    let trav_timer = Timer::start();
    let partials: Vec<(AnalyticsOutput, WorkStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = partitions
            .iter()
            .map(|files| {
                let fw = &fw;
                let segments = &segments;
                scope.spawn(move || {
                    run_on_file_subset(archive, dag, fw, segments, files, task, cfg)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });

    let mut traversal_work = WorkStats::default();
    for (_, w) in &partials {
        traversal_work.merge(w);
    }
    let output = merge_outputs(
        task,
        cfg,
        num_files,
        partials.into_iter().map(|(o, _)| o).collect(),
    );
    let traversal = trav_timer.elapsed();

    TaskExecution {
        output,
        timings: PhaseTimings {
            init,
            traversal,
            init_work,
            traversal_work,
            ..Default::default()
        },
    }
}

/// Computes `task` restricted to the given files.
fn run_on_file_subset(
    archive: &TadocArchive,
    dag: &Dag,
    fw: &[FxHashMap<FileId, u64>],
    segments: &[(usize, usize)],
    files: &[FileId],
    task: Task,
    cfg: TaskConfig,
) -> (AnalyticsOutput, WorkStats) {
    let grammar = &archive.grammar;
    let mut work = WorkStats::default();
    let file_set: FxHashSet<FileId> = files.iter().copied().collect();

    match task {
        Task::WordCount | Task::Sort => {
            let mut counts: FxHashMap<WordId, u64> = FxHashMap::default();
            // Root words belonging to this partition's files.
            for &f in files {
                if let Some(&(start, end)) = segments.get(f as usize) {
                    for sym in &grammar.root()[start..end] {
                        work.elements_scanned += 1;
                        if let Symbol::Word(w) = *sym {
                            *counts.entry(w).or_insert(0) += 1;
                            work.table_ops += 1;
                        }
                    }
                }
            }
            // Rule-local words scaled by occurrences within this partition.
            for (r, rule_fw) in fw.iter().enumerate().skip(1) {
                let occ: u64 = rule_fw
                    .iter()
                    .filter(|(f, _)| file_set.contains(f))
                    .map(|(_, &c)| c)
                    .sum();
                if occ == 0 {
                    continue;
                }
                for &(w, c) in &dag.local_words[r] {
                    *counts.entry(w).or_insert(0) += c as u64 * occ;
                    work.table_ops += 1;
                }
                work.elements_scanned += dag.rule_lengths[r] as u64;
            }
            let wc = WordCountResult::from_unsorted_pairs(counts.into_iter().collect());
            if task == Task::WordCount {
                (AnalyticsOutput::WordCount(wc), work)
            } else {
                (AnalyticsOutput::Sort(SortResult::from_word_count(&wc)), work)
            }
        }
        Task::InvertedIndex => {
            let mut sets: FxHashMap<WordId, FxHashSet<FileId>> = FxHashMap::default();
            for &f in files {
                if let Some(&(start, end)) = segments.get(f as usize) {
                    for sym in &grammar.root()[start..end] {
                        work.elements_scanned += 1;
                        if let Symbol::Word(w) = *sym {
                            sets.entry(w).or_default().insert(f);
                            work.table_ops += 1;
                        }
                    }
                }
            }
            for (r, rule_fw) in fw.iter().enumerate().skip(1) {
                for (&f, _) in rule_fw.iter().filter(|(f, _)| file_set.contains(f)) {
                    for &(w, _) in &dag.local_words[r] {
                        sets.entry(w).or_default().insert(f);
                        work.table_ops += 1;
                    }
                }
            }
            let rows = sets
                .into_iter()
                .map(|(w, s)| {
                    let mut v: Vec<FileId> = s.into_iter().collect();
                    v.sort_unstable();
                    (w, v)
                })
                .collect();
            (
                AnalyticsOutput::InvertedIndex(InvertedIndexResult::from_unsorted_rows(rows)),
                work,
            )
        }
        Task::TermVector => {
            // Produce full-size vectors with only this partition's files filled
            // in; the merger adds element-wise.
            let num_files = grammar.num_files();
            let mut vectors: Vec<Vec<(WordId, u64)>> = vec![Vec::new(); num_files];
            for &f in files {
                vectors[f as usize] =
                    crate::apps::term_vector::term_vector_for_file(grammar, dag, fw, f);
                work.table_ops += vectors[f as usize].len() as u64;
            }
            (
                AnalyticsOutput::TermVector(TermVectorResult::from_rows(vectors)),
                work,
            )
        }
        Task::SequenceCount => {
            let l = cfg.sequence_length;
            let mut counts: FxHashMap<Sequence, u64> = FxHashMap::default();
            let mut window: Vec<WordId> = Vec::with_capacity(l);
            for &f in files {
                window.clear();
                stream_file_words(grammar, f, &mut work, |w| {
                    if window.len() == l {
                        window.rotate_left(1);
                        window.pop();
                    }
                    window.push(w);
                    if window.len() == l {
                        *counts.entry(window.clone()).or_insert(0) += 1;
                    }
                });
            }
            (
                AnalyticsOutput::SequenceCount(SequenceCountResult::from_unsorted_pairs(
                    l,
                    counts.into_iter().collect(),
                )),
                work,
            )
        }
        Task::RankedInvertedIndex => {
            let l = cfg.sequence_length;
            let mut per_seq: FxHashMap<Sequence, FxHashMap<FileId, u64>> = FxHashMap::default();
            let mut window: Vec<WordId> = Vec::with_capacity(l);
            for &f in files {
                window.clear();
                stream_file_words(grammar, f, &mut work, |w| {
                    if window.len() == l {
                        window.rotate_left(1);
                        window.pop();
                    }
                    window.push(w);
                    if window.len() == l {
                        *per_seq
                            .entry(window.clone())
                            .or_default()
                            .entry(f)
                            .or_insert(0) += 1;
                    }
                });
            }
            let rows = per_seq
                .into_iter()
                .map(|(seq, m)| {
                    let mut v: Vec<(FileId, u64)> = m.into_iter().collect();
                    v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                    (seq, v)
                })
                .collect();
            (
                AnalyticsOutput::RankedInvertedIndex(RankedInvertedIndexResult::from_unsorted_rows(
                    l, rows,
                )),
                work,
            )
        }
    }
}

/// Merges per-partition partial outputs into the final result.
fn merge_outputs(
    task: Task,
    cfg: TaskConfig,
    num_files: usize,
    partials: Vec<AnalyticsOutput>,
) -> AnalyticsOutput {
    match task {
        Task::WordCount => {
            let mut counts: FxHashMap<WordId, u64> = FxHashMap::default();
            for p in partials {
                if let AnalyticsOutput::WordCount(r) = p {
                    for (w, c) in r.iter() {
                        *counts.entry(w).or_insert(0) += c;
                    }
                }
            }
            AnalyticsOutput::WordCount(WordCountResult::from_unsorted_pairs(
                counts.into_iter().collect(),
            ))
        }
        Task::Sort => {
            let mut counts: FxHashMap<WordId, u64> = FxHashMap::default();
            for p in partials {
                if let AnalyticsOutput::Sort(r) = p {
                    for (w, c) in r.ranked {
                        *counts.entry(w).or_insert(0) += c;
                    }
                }
            }
            let wc = WordCountResult::from_unsorted_pairs(counts.into_iter().collect());
            AnalyticsOutput::Sort(SortResult::from_word_count(&wc))
        }
        Task::InvertedIndex => {
            let mut postings: FxHashMap<WordId, Vec<FileId>> = FxHashMap::default();
            for p in &partials {
                if let AnalyticsOutput::InvertedIndex(r) = p {
                    for (w, files) in r.iter() {
                        postings.entry(w).or_default().extend_from_slice(files);
                    }
                }
            }
            for files in postings.values_mut() {
                files.sort_unstable();
                files.dedup();
            }
            AnalyticsOutput::InvertedIndex(InvertedIndexResult::from_unsorted_rows(
                postings.into_iter().collect(),
            ))
        }
        Task::TermVector => {
            let mut vectors: Vec<Vec<(WordId, u64)>> = vec![Vec::new(); num_files];
            for p in &partials {
                if let AnalyticsOutput::TermVector(r) = p {
                    for (f, v) in r.iter().enumerate() {
                        if !v.is_empty() {
                            vectors[f] = v.to_vec();
                        }
                    }
                }
            }
            AnalyticsOutput::TermVector(TermVectorResult::from_rows(vectors))
        }
        Task::SequenceCount => {
            let mut counts: FxHashMap<Sequence, u64> = FxHashMap::default();
            for p in &partials {
                if let AnalyticsOutput::SequenceCount(r) = p {
                    for (s, c) in r.iter() {
                        *counts.entry(s.to_vec()).or_insert(0) += c;
                    }
                }
            }
            AnalyticsOutput::SequenceCount(SequenceCountResult::from_unsorted_pairs(
                cfg.sequence_length,
                counts.into_iter().collect(),
            ))
        }
        Task::RankedInvertedIndex => {
            let mut postings: FxHashMap<Sequence, Vec<(FileId, u64)>> = FxHashMap::default();
            for p in &partials {
                if let AnalyticsOutput::RankedInvertedIndex(r) = p {
                    for (s, v) in r.iter() {
                        postings.entry(s.to_vec()).or_default().extend_from_slice(v);
                    }
                }
            }
            for v in postings.values_mut() {
                v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            }
            AnalyticsOutput::RankedInvertedIndex(RankedInvertedIndexResult::from_unsorted_rows(
                cfg.sequence_length,
                postings.into_iter().collect(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::run_task;
    use sequitur::compress::{compress_corpus, CompressOptions};

    fn build() -> (TadocArchive, Dag) {
        let corpus: Vec<(String, String)> = (0..7)
            .map(|i| {
                (
                    format!("doc{i}"),
                    format!("shared body of text repeated across files plus unique token{i} and shared body of text again"),
                )
            })
            .collect();
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        (archive, dag)
    }

    #[test]
    fn partitioning_covers_all_files_exactly_once() {
        let parts = partition_files(10, 3);
        let mut all: Vec<FileId> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        assert!(parts.iter().all(|p| !p.is_empty()));
    }

    #[test]
    fn partitioning_with_more_threads_than_files() {
        let parts = partition_files(2, 8);
        assert_eq!(parts.len(), 2, "partitions are capped at the file count");
        assert!(parts.iter().all(|p| !p.is_empty()));
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn partitioning_zero_files_yields_no_partitions() {
        assert!(partition_files(0, 4).is_empty());
        assert!(partition_files(0, 0).is_empty());
    }

    #[test]
    fn partitioning_zero_parts_is_clamped_to_one() {
        let parts = partition_files(5, 0);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0], vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn parallel_results_equal_sequential_results() {
        let (archive, dag) = build();
        let cfg = TaskConfig::default();
        let pcfg = ParallelConfig { num_threads: 3 };
        for task in Task::ALL {
            let seq = run_task(&archive, &dag, task, cfg);
            let par = run_task_parallel(&archive, &dag, task, cfg, pcfg);
            assert_eq!(
                par.output,
                seq.output,
                "parallel {} diverges from sequential",
                task.name()
            );
        }
    }

    #[test]
    fn single_thread_parallel_is_also_correct() {
        let (archive, dag) = build();
        let cfg = TaskConfig::default();
        let pcfg = ParallelConfig { num_threads: 1 };
        let seq = run_task(&archive, &dag, Task::WordCount, cfg);
        let par = run_task_parallel(&archive, &dag, Task::WordCount, cfg, pcfg);
        assert_eq!(par.output, seq.output);
    }
}
