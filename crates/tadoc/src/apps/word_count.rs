//! *word count* on compressed data: bottom-up propagation of local word
//! tables through the DAG, exactly the information flow of Figure 2 in the
//! paper (children transmit accumulated word frequencies to their parents,
//! weighted by how often the child occurs in the parent).

use crate::results::CountTable;
use crate::timing::{PhaseTimings, Timer, WorkStats};
use sequitur::fxhash::FxHashMap;
use sequitur::{Dag, TadocArchive, WordId};

/// Runs word count sequentially on compressed data.
pub fn run(archive: &TadocArchive, dag: &Dag) -> (CountTable, PhaseTimings) {
    // Phase 1: initialization — allocate the per-rule frequency tables.
    let init_timer = Timer::start();
    let mut init_work = WorkStats::default();
    let n = dag.num_rules;
    let mut tables: Vec<FxHashMap<WordId, u64>> = Vec::with_capacity(n);
    for r in 0..n {
        let capacity = dag.local_words(r).len();
        tables.push(FxHashMap::with_capacity_and_hasher(
            capacity,
            Default::default(),
        ));
        init_work.elements_scanned += archive.grammar.rule(r).len() as u64;
        init_work.bytes_moved += capacity as u64 * 12;
    }
    let init = init_timer.elapsed();

    // Phase 2: DAG traversal — merge child tables into parents, children first.
    let trav_timer = Timer::start();
    let mut trav_work = WorkStats::default();
    for &r in &dag.topo_children_first {
        let ri = r as usize;
        let mut table = std::mem::take(&mut tables[ri]);
        for &(w, c) in dag.local_words(ri) {
            *table.entry(w).or_insert(0) += c as u64;
            trav_work.table_ops += 1;
        }
        for &(child, freq) in dag.children(ri) {
            // Transmit the child's accumulated frequencies to this parent.
            for (&w, &cnt) in &tables[child as usize] {
                *table.entry(w).or_insert(0) += cnt * freq as u64;
                trav_work.table_ops += 1;
                trav_work.bytes_moved += 12;
            }
        }
        tables[ri] = table;
        trav_work.elements_scanned += archive.grammar.rule(ri).len() as u64;
    }
    let counts = std::mem::take(&mut tables[0]);
    let traversal = trav_timer.elapsed();

    // Against the grammar's own expansion, not `files[].token_count`: the
    // metadata of a decoded archive is outside input and may disagree.
    debug_assert_eq!(
        counts.values().sum::<u64>(),
        archive.grammar.rule_expanded_lengths()[0],
        "word count total must equal the corpus token count"
    );

    (
        CountTable::from_unsorted_pairs(1, counts.into_iter().map(|(w, c)| ([w], c)).collect()),
        PhaseTimings {
            init,
            traversal,
            init_work,
            traversal_work: trav_work,
            ..Default::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use sequitur::compress::{compress_corpus, CompressOptions};

    #[test]
    fn matches_paper_figure_2() {
        // Build the exact corpus of Figure 1 and expect the final counts of
        // Figure 2: <w1,6>, <w2,5>, <w3,2>, <w4,2>.
        let corpus = vec![
            (
                "fileA".to_string(),
                "w1 w2 w3 w1 w2 w4 w1 w2 w3 w1 w2 w4".to_string(),
            ),
            ("fileB".to_string(), "w1 w2 w1".to_string()),
        ];
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let (result, _) = run(&archive, &dag);
        let w1 = archive.dictionary.get("w1").unwrap();
        let w2 = archive.dictionary.get("w2").unwrap();
        let w3 = archive.dictionary.get("w3").unwrap();
        let w4 = archive.dictionary.get("w4").unwrap();
        assert_eq!(result.count(&[w1]), 6);
        assert_eq!(result.count(&[w2]), 5);
        assert_eq!(result.count(&[w3]), 2);
        assert_eq!(result.count(&[w4]), 2);
    }

    #[test]
    fn matches_oracle_on_redundant_corpus() {
        let body = "lorem ipsum dolor sit amet consectetur adipiscing elit ".repeat(20);
        let corpus: Vec<(String, String)> = (0..6)
            .map(|i| (format!("f{i}"), format!("{body} unique{i}")))
            .collect();
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let (result, timings) = run(&archive, &dag);
        let expected = oracle::word_count(&archive.grammar.expand_files());
        assert_eq!(result, expected);
        assert!(timings.traversal_work.table_ops > 0);
        assert!(timings.init_work.elements_scanned > 0);
    }

    #[test]
    fn traversal_work_is_sublinear_in_corpus_size_for_redundant_data() {
        // The same paragraph repeated many times: TADOC's table operations
        // must not grow linearly with repetitions (this is the computation
        // reuse the paper exploits).
        let paragraph = "alpha beta gamma delta epsilon zeta ";
        let small: Vec<(String, String)> = vec![("s".to_string(), paragraph.repeat(50))];
        let large: Vec<(String, String)> = vec![("l".to_string(), paragraph.repeat(800))];
        let run_ops = |corpus: &[(String, String)]| {
            let archive = compress_corpus(corpus, CompressOptions::default());
            let dag = Dag::from_grammar(&archive.grammar);
            let (_, t) = run(&archive, &dag);
            t.traversal_work.table_ops
        };
        let ops_small = run_ops(&small);
        let ops_large = run_ops(&large);
        assert!(
            (ops_large as f64) < (ops_small as f64) * 8.0,
            "16x more input should need far less than 16x more table work \
             (small={ops_small}, large={ops_large})"
        );
    }
}
