//! Rule weights and per-file weights.
//!
//! * The *weight* of a rule is the number of times it occurs in the fully
//!   expanded corpus (what Algorithm 1 of the paper accumulates into
//!   `rule.weight` during the top-down traversal).
//! * The *file weight* of a rule is its number of occurrences inside each
//!   individual file, which file-sensitive tasks (inverted index, term
//!   vector, ranked inverted index) propagate from the root downward.

use crate::results::FileId;
use crate::timing::WorkStats;
use sequitur::fxhash::FxHashMap;
use sequitur::{Dag, Grammar, RuleId, Symbol};

/// Computes the total occurrence count of every rule in the expanded corpus.
///
/// The root has weight 1; every other rule accumulates
/// `freq(parent, child) * weight(parent)` over its parents, processed in a
/// parents-before-children order.
pub fn rule_weights(dag: &Dag, work: &mut WorkStats) -> Vec<u64> {
    let mut weights = vec![0u64; dag.num_rules];
    if dag.num_rules == 0 {
        return weights;
    }
    weights[0] = 1;
    for &r in dag.topo_children_first.iter().rev() {
        let w = weights[r as usize];
        if w == 0 {
            continue;
        }
        for &(c, freq) in dag.children(r as usize) {
            weights[c as usize] += freq as u64 * w;
            work.elements_scanned += 1;
        }
    }
    weights
}

/// The half-open element ranges of the root body belonging to each file.
///
/// File `i` covers root elements `segments[i].0 .. segments[i].1`; splitter
/// elements themselves belong to no file.
pub fn file_segments(grammar: &Grammar) -> Vec<(usize, usize)> {
    let root = grammar.root();
    let mut segments = Vec::new();
    let mut start = 0usize;
    for (i, sym) in root.iter().enumerate() {
        if sym.is_splitter() {
            segments.push((start, i));
            start = i + 1;
        }
    }
    segments.push((start, root.len()));
    segments
}

/// Per-rule, per-file occurrence counts.
///
/// `file_weights[r]` maps file id → number of occurrences of rule `r` inside
/// that file.  The root is excluded (its elements are attributed directly via
/// [`file_segments`]).
pub fn file_weights(
    grammar: &Grammar,
    dag: &Dag,
    work: &mut WorkStats,
) -> Vec<FxHashMap<FileId, u64>> {
    let n = dag.num_rules;
    let mut fw: Vec<FxHashMap<FileId, u64>> = vec![FxHashMap::default(); n];
    if n == 0 {
        return fw;
    }

    // Seed: direct rule references in the root, attributed to their file.
    let segments = file_segments(grammar);
    let root = grammar.root();
    for (fid, &(start, end)) in segments.iter().enumerate() {
        for sym in &root[start..end] {
            work.elements_scanned += 1;
            if let Symbol::Rule(c) = sym {
                *fw[*c as usize].entry(fid as FileId).or_insert(0) += 1;
                work.table_ops += 1;
            }
        }
    }

    // Propagate downward, parents before children, skipping the root (already
    // handled by the seeding step).
    for &r in dag.topo_children_first.iter().rev() {
        if r == 0 {
            continue;
        }
        if fw[r as usize].is_empty() {
            continue;
        }
        let parent_weights: Vec<(FileId, u64)> =
            fw[r as usize].iter().map(|(&f, &c)| (f, c)).collect();
        for &(c, freq) in dag.children(r as usize) {
            let entry = &mut fw[c as usize];
            for &(f, cnt) in &parent_weights {
                *entry.entry(f).or_insert(0) += cnt * freq as u64;
                work.table_ops += 1;
            }
        }
    }
    fw
}

/// Streams the fully expanded word sequence of one file — its root segment
/// `(start, end)` from [`file_segments`] — invoking `emit` for every word in
/// order.  Used by the sequence-sensitive CPU baselines (which, as the paper
/// notes, behave close to uncompressed processing).
pub fn stream_file_words<F: FnMut(sequitur::WordId)>(
    grammar: &Grammar,
    (start, end): (usize, usize),
    work: &mut WorkStats,
    mut emit: F,
) {
    // Explicit stack of (rule, position) to avoid recursion depth limits.
    for sym in &grammar.root()[start..end] {
        work.elements_scanned += 1;
        match *sym {
            Symbol::Word(w) => {
                work.words_emitted += 1;
                emit(w);
            }
            Symbol::Rule(r) => {
                stream_rule_words(grammar, r, work, &mut emit);
            }
            Symbol::Splitter(_) => {}
        }
    }
}

fn stream_rule_words<F: FnMut(sequitur::WordId)>(
    grammar: &Grammar,
    rule: RuleId,
    work: &mut WorkStats,
    emit: &mut F,
) {
    let mut stack: Vec<(RuleId, usize)> = vec![(rule, 0)];
    while let Some((r, idx)) = stack.pop() {
        let body = grammar.rule(r as usize);
        let mut i = idx;
        while i < body.len() {
            work.elements_scanned += 1;
            match body[i] {
                Symbol::Word(w) => {
                    work.words_emitted += 1;
                    emit(w);
                    i += 1;
                }
                Symbol::Rule(c) => {
                    stack.push((r, i + 1));
                    stack.push((c, 0));
                    break;
                }
                Symbol::Splitter(_) => {
                    i += 1;
                }
            }
        }
        if i >= body.len() {
            continue;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 1's grammar.
    fn paper_grammar() -> Grammar {
        Grammar::new(vec![
            vec![
                Symbol::Rule(1),
                Symbol::Rule(1),
                Symbol::Splitter(0),
                Symbol::Rule(2),
                Symbol::Word(1),
            ],
            vec![
                Symbol::Rule(2),
                Symbol::Word(3),
                Symbol::Rule(2),
                Symbol::Word(4),
            ],
            vec![Symbol::Word(1), Symbol::Word(2)],
        ])
    }

    #[test]
    fn rule_weights_match_expansion_counts() {
        let g = paper_grammar();
        let dag = Dag::from_grammar(&g);
        let mut work = WorkStats::default();
        let w = rule_weights(&dag, &mut work);
        assert_eq!(w, vec![1, 2, 5]); // R1 twice; R2 = 2*2 (via R1) + 1 (root)
        assert!(work.elements_scanned > 0);
    }

    #[test]
    fn file_segments_split_on_splitters() {
        let g = paper_grammar();
        let segs = file_segments(&g);
        assert_eq!(segs, vec![(0, 2), (3, 5)]);
    }

    #[test]
    fn file_weights_attribute_rules_to_files() {
        let g = paper_grammar();
        let dag = Dag::from_grammar(&g);
        let mut work = WorkStats::default();
        let fw = file_weights(&g, &dag, &mut work);
        // R1 appears twice, only in file 0.
        assert_eq!(fw[1].get(&0), Some(&2));
        assert_eq!(fw[1].get(&1), None);
        // R2 appears 4 times in file 0 (via R1) and once in file 1.
        assert_eq!(fw[2].get(&0), Some(&4));
        assert_eq!(fw[2].get(&1), Some(&1));
    }

    /// `Σ_f file_weight[r][f] == weight[r]` for every rule.
    #[test]
    fn file_weights_sum_to_rule_weights() {
        let g = paper_grammar();
        let dag = Dag::from_grammar(&g);
        let mut work = WorkStats::default();
        let w = rule_weights(&dag, &mut work);
        let fw = file_weights(&g, &dag, &mut work);
        for r in 1..dag.num_rules {
            assert_eq!(fw[r].values().sum::<u64>(), w[r], "rule {r}");
        }
    }

    #[test]
    fn stream_file_words_reconstructs_each_file() {
        let g = paper_grammar();
        let segments = file_segments(&g);
        let mut work = WorkStats::default();
        let mut f0 = Vec::new();
        stream_file_words(&g, segments[0], &mut work, |w| f0.push(w));
        assert_eq!(f0, vec![1, 2, 3, 1, 2, 4, 1, 2, 3, 1, 2, 4]);
        let mut f1 = Vec::new();
        stream_file_words(&g, segments[1], &mut work, |w| f1.push(w));
        assert_eq!(f1, vec![1, 2, 1]);
        assert_eq!(work.words_emitted, 15);
    }

    #[test]
    fn deep_nesting_streams_without_recursion_overflow() {
        // R0 -> R1 -> R2 -> ... -> R_depth, each rule = [Rule(next), Word(i)].
        let depth = 4000u32;
        let mut rules: Vec<Vec<Symbol>> = Vec::new();
        for i in 0..depth {
            rules.push(vec![Symbol::Rule(i + 1), Symbol::Word(i)]);
        }
        rules.push(vec![Symbol::Word(depth)]);
        let g = Grammar::new(rules);
        let mut work = WorkStats::default();
        let mut out = Vec::new();
        stream_file_words(&g, (0, 2), &mut work, |w| out.push(w));
        assert_eq!(out.len(), depth as usize + 1);
        assert_eq!(out[0], depth); // deepest word comes first
    }
}
