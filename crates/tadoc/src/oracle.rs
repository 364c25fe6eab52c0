//! Ground-truth oracle: every analytics task computed directly on the
//! decompressed token streams.
//!
//! The oracle is deliberately the most straightforward possible
//! implementation; it is used (a) to validate both TADOC and G-TADOC in tests
//! and (b) as the CPU *uncompressed* baseline of Section VI-E.
//!
//! Scratch hash maps are fine *during* the scan — the hash-free mandate
//! applies to the fine-grained finalize path — but each result is converted
//! to the ordered columnar form exactly once, at the end.

use crate::apps::{Task, TaskConfig};
use crate::results::*;
use sequitur::fxhash::FxHashMap;
use sequitur::WordId;

/// Runs `task` on the per-file token streams: the one dispatch over the
/// six oracle functions below.
pub fn run(files: &[Vec<WordId>], task: Task, cfg: TaskConfig) -> AnalyticsOutput {
    let l = cfg.sequence_length;
    match task {
        Task::WordCount => AnalyticsOutput::WordCount(word_count(files)),
        Task::Sort => AnalyticsOutput::Sort(sort(files)),
        Task::InvertedIndex => AnalyticsOutput::InvertedIndex(inverted_index(files)),
        Task::TermVector => AnalyticsOutput::TermVector(term_vector(files)),
        Task::SequenceCount => AnalyticsOutput::SequenceCount(sequence_count(files, l)),
        Task::RankedInvertedIndex => {
            AnalyticsOutput::RankedInvertedIndex(ranked_inverted_index(files, l))
        }
    }
}

/// Word count over per-file token streams.
pub fn word_count(files: &[Vec<WordId>]) -> CountTable {
    let mut counts: FxHashMap<WordId, u64> = FxHashMap::default();
    for file in files {
        for &w in file {
            *counts.entry(w).or_insert(0) += 1;
        }
    }
    CountTable::from_unsorted_pairs(1, counts.into_iter().map(|(w, c)| ([w], c)).collect())
}

/// Words ranked by global frequency.
pub fn sort(files: &[Vec<WordId>]) -> Vec<(WordId, u64)> {
    rank(&word_count(files))
}

/// Word → files containing it.
pub fn inverted_index(files: &[Vec<WordId>]) -> PostingTable<FileId> {
    let mut postings: FxHashMap<WordId, Vec<FileId>> = FxHashMap::default();
    for (fid, file) in files.iter().enumerate() {
        let mut seen: Vec<WordId> = file.to_vec();
        seen.sort_unstable();
        seen.dedup();
        for w in seen {
            postings.entry(w).or_default().push(fid as FileId);
        }
    }
    // Files were visited in ascending order, so each posting list is sorted.
    PostingTable::from_unsorted_rows(1, postings.into_iter().map(|(w, fs)| ([w], fs)).collect())
}

/// Per-file word-frequency vectors.
pub fn term_vector(files: &[Vec<WordId>]) -> PostingTable<(WordId, u64)> {
    let vectors = files
        .iter()
        .map(|file| {
            let mut counts: FxHashMap<WordId, u64> = FxHashMap::default();
            for &w in file {
                *counts.entry(w).or_insert(0) += 1;
            }
            let mut v: Vec<(WordId, u64)> = counts.into_iter().collect();
            v.sort_unstable();
            v
        })
        .collect();
    PostingTable::from_rows(vectors)
}

/// Global counts of every `l`-word consecutive sequence.
pub fn sequence_count(files: &[Vec<WordId>], l: usize) -> CountTable {
    assert!(l >= 1, "sequence length must be at least 1");
    let mut counts: FxHashMap<Sequence, u64> = FxHashMap::default();
    for file in files {
        if file.len() < l {
            continue;
        }
        for window in file.windows(l) {
            *counts.entry(window.to_vec()).or_insert(0) += 1;
        }
    }
    CountTable::from_unsorted_pairs(l, counts.into_iter().collect())
}

/// Every `l`-word sequence → files ranked by in-file frequency.
pub fn ranked_inverted_index(files: &[Vec<WordId>], l: usize) -> PostingTable<(FileId, u64)> {
    assert!(l >= 1, "sequence length must be at least 1");
    let mut per_seq: FxHashMap<Sequence, FxHashMap<FileId, u64>> = FxHashMap::default();
    for (fid, file) in files.iter().enumerate() {
        if file.len() < l {
            continue;
        }
        for window in file.windows(l) {
            *per_seq
                .entry(window.to_vec())
                .or_default()
                .entry(fid as FileId)
                .or_insert(0) += 1;
        }
    }
    let rows = per_seq
        .into_iter()
        .map(|(seq, files)| {
            let mut ranked: Vec<(FileId, u64)> = files.into_iter().collect();
            ranked.sort_unstable_by(rank_order);
            (seq, ranked)
        })
        .collect();
    PostingTable::from_unsorted_rows(l, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 1's corpus: fileA = w1 w2 w3 w1 w2 w4 ×2, fileB = w1 w2 w1.
    fn paper_files() -> Vec<Vec<WordId>> {
        vec![vec![1, 2, 3, 1, 2, 4, 1, 2, 3, 1, 2, 4], vec![1, 2, 1]]
    }

    #[test]
    fn run_answers_every_task_with_its_function() {
        let files = paper_files();
        let cfg = TaskConfig::default();
        for task in Task::ALL {
            assert_eq!(run(&files, task, cfg).task(), task);
        }
        assert_eq!(
            run(&files, Task::SequenceCount, cfg),
            AnalyticsOutput::SequenceCount(sequence_count(&files, cfg.sequence_length))
        );
    }

    #[test]
    fn word_count_matches_figure_2() {
        let wc = word_count(&paper_files());
        // Paper Figure 2 final result: <w1,6>, <w2,5>, <w3,2>, <w4,2>
        assert_eq!(wc.count(&[1]), 6);
        assert_eq!(wc.count(&[2]), 5);
        assert_eq!(wc.count(&[3]), 2);
        assert_eq!(wc.count(&[4]), 2);
        assert_eq!(wc.len(), 4);
    }

    #[test]
    fn sort_ranks_w1_first() {
        let s = sort(&paper_files());
        assert_eq!(s[0], (1, 6));
        assert_eq!(s[1], (2, 5));
    }

    #[test]
    fn inverted_index_paper_corpus() {
        let idx = inverted_index(&paper_files());
        assert_eq!(idx.get(&[3]), &[0]);
        assert_eq!(idx.get(&[1]), &[0, 1]);
        assert_eq!(idx.get(&[4]), &[0]);
    }

    #[test]
    fn term_vector_paper_corpus() {
        let tv = term_vector(&paper_files());
        assert_eq!(tv.csr().row(0), &[(1, 4), (2, 4), (3, 2), (4, 2)]);
        assert_eq!(tv.csr().row(1), &[(1, 2), (2, 1)]);
    }

    #[test]
    fn sequence_count_windows() {
        let sc = sequence_count(&paper_files(), 3);
        // fileA has windows: (1,2,3)x2 (2,3,1)x2 ... ; fileB has (1,2,1).
        assert_eq!(sc.count(&[1, 2, 3]), 2);
        assert_eq!(sc.count(&[1, 2, 1]), 1);
        assert_eq!(sc.count(&[1, 2, 4]), 2);
        let total: u64 = sc.counts().iter().sum();
        assert_eq!(total, (12 - 2) + (3 - 2));
    }

    #[test]
    fn sequence_count_short_files_are_skipped() {
        let sc = sequence_count(&[vec![1, 2], vec![5]], 3);
        assert!(sc.is_empty());
    }

    #[test]
    fn ranked_inverted_index_ranks_by_count() {
        let files = vec![vec![1, 2, 1, 2], vec![1, 2, 9, 1, 2, 9, 1, 2]];
        let rii = ranked_inverted_index(&files, 2);
        // (1,2) occurs 2x in file0 and 3x in file1 → file1 first.
        assert_eq!(rii.get(&[1, 2]), &[(1, 3), (0, 2)]);
    }

    #[test]
    fn ranked_inverted_index_tie_breaks_by_file_id() {
        let files = vec![vec![1, 2, 3], vec![1, 2, 3]];
        let rii = ranked_inverted_index(&files, 3);
        assert_eq!(rii.get(&[1, 2, 3]), &[(0, 1), (1, 1)]);
    }

    #[test]
    fn unit_length_sequences_reduce_to_word_count() {
        let files = paper_files();
        let sc = sequence_count(&files, 1);
        let wc = word_count(&files);
        // The same table; only the task it answers differs.
        assert_eq!(sc, wc);
    }
}
