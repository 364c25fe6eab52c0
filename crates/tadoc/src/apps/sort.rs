//! *sort*: words ranked by total frequency.  Reuses the word-count traversal
//! and adds a ranking step to the traversal phase, as in CompressDirect.

use super::word_count;
use crate::results::rank;
use crate::timing::{PhaseTimings, Timer};
use sequitur::{Dag, TadocArchive, WordId};

/// Runs sort sequentially on compressed data.
pub fn run(archive: &TadocArchive, dag: &Dag) -> (Vec<(WordId, u64)>, PhaseTimings) {
    let (wc, mut timings) = word_count::run(archive, dag);
    let rank_timer = Timer::start();
    let ranked = rank(&wc);
    timings.traversal += rank_timer.elapsed();
    timings.traversal_work.table_ops += ranked.len() as u64;
    timings.traversal_work.bytes_moved += ranked.len() as u64 * 12;
    (ranked, timings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use sequitur::compress::{compress_corpus, CompressOptions};

    #[test]
    fn ranking_matches_oracle() {
        let corpus = vec![
            (
                "a".to_string(),
                "x x x y y z common common common common".to_string(),
            ),
            ("b".to_string(), "y z z common common".to_string()),
        ];
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let (result, _) = run(&archive, &dag);
        let expected = oracle::sort(&archive.grammar.expand_files());
        assert_eq!(result, expected);
        // "common" (6 occurrences) must rank first.
        let common = archive.dictionary.get("common").unwrap();
        assert_eq!(result[0], (common, 6));
    }

    #[test]
    fn ranking_is_strictly_non_increasing() {
        let corpus = vec![("a".to_string(), "p q r p q p s t u v w".to_string())];
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let (result, _) = run(&archive, &dag);
        for pair in result.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }
}
