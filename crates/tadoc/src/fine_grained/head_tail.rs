//! Per-rule head/tail buffers on real CPU threads (Figures 6 and 7).
//!
//! For sequence length `l`, every rule keeps a *record* of
//! `min(expanded, 2(l − 1))` words: a rule whose expansion is shorter than
//! that keeps the whole expansion, so a sliding window can never silently
//! skip over it; any other rule keeps its first `l − 1` words (its head)
//! followed by its last `l − 1` (its tail).  Every record length is known
//! before the pass, so all records live in one flat `Vec<u32>`.
//!
//! The GPU fills these buffers with the mask/stop-flag loop of Figure 7; the
//! CPU engine gets the same dependency order from the DAG layers: a rule's
//! record depends only on its sub-rules' records, and every sub-rule lives
//! in a strictly deeper layer.  So the records are laid out deepest level
//! first and built one level per round: `split_at_mut` separates the
//! finished records below the level (read) from the level's own region
//! (written), and the region is cut at rule boundaries into one contiguous
//! part of ≈ equal words per worker ([`split`] over the level's record
//! ends) — safe Rust, with the round's barrier ([`WorkerPool::map_workers`])
//! the only synchronization.

use super::exec::{split, WorkerPool, INLINE_THRESHOLD};
use sequitur::{Dag, Grammar, Symbol};

/// Per-rule head/tail records for one sequence length (CPU twin of the
/// simulator's `HeadTail`).
#[derive(Debug, Clone)]
pub struct HeadTail {
    /// Sequence length `l` the records were built for.
    pub l: usize,
    /// Every rule's record, deepest DAG level first.
    words: Vec<u32>,
    /// Rule `r`'s record is `words[spans[r].0..spans[r].1]`.
    spans: Vec<(usize, usize)>,
}

impl HeadTail {
    /// Rule `r`'s record: its whole expansion if that is shorter than
    /// `2(l − 1)` words, else its head followed by its tail.
    pub fn record(&self, r: usize) -> &[u32] {
        let (start, end) = self.spans[r];
        &self.words[start..end]
    }

    /// Rule `r`'s whole expansion, if it is shorter than `2(l − 1)` words.
    /// A rule of exactly `2(l − 1)` words reads as head and tail: together
    /// they are its whole expansion, and a window across their seam lies
    /// inside the one occurrence, which no rule counts as its own.
    pub fn short_expansion(&self, r: usize) -> Option<&[u32]> {
        let record = self.record(r);
        (record.len() < 2 * (self.l - 1)).then_some(record)
    }

    /// The first `min(expanded, l − 1)` words of rule `r`.
    pub fn head(&self, r: usize) -> &[u32] {
        let record = self.record(r);
        &record[..record.len().min(self.l - 1)]
    }

    /// The last `min(expanded, l − 1)` words of rule `r`.
    pub fn tail(&self, r: usize) -> &[u32] {
        let record = self.record(r);
        &record[record.len() - record.len().min(self.l - 1)..]
    }
}

/// Groups rule ids by DAG layer, root layer first (the top-down level
/// schedule: all of a rule's parents precede it; reversed, all of its
/// children do).
pub fn levels_top_down(dag: &Dag) -> Vec<Vec<u32>> {
    let mut levels: Vec<Vec<u32>> = vec![Vec::new(); dag.num_layers];
    for r in 0..dag.num_rules {
        levels[dag.layers[r] as usize].push(r as u32);
    }
    levels.retain(|l| !l.is_empty());
    levels
}

/// Writes one rule's record into `out` — the body of `initHeadTailKernel`.
/// `out` is `min(expanded, 2 keep)` words long; its first `keep` words (all
/// of it, for a short rule) are read off `body` left to right, the rest
/// right to left, taking a prefix or suffix of each sub-rule's finished
/// record (`record(c)`).  A prefix of at most `keep` words of a record is
/// the rule's head, and a suffix of at most `keep` its tail.
fn assemble_rule<'a>(
    body: &[Symbol],
    keep: usize,
    out: &mut [u32],
    record: impl Fn(u32) -> &'a [u32],
) {
    let front = if out.len() < 2 * keep {
        out.len()
    } else {
        keep
    };
    let (head, tail) = out.split_at_mut(front);
    let mut at = 0;
    for sym in body {
        if at == head.len() {
            break;
        }
        match *sym {
            Symbol::Word(w) => {
                head[at] = w;
                at += 1;
            }
            Symbol::Rule(c) => {
                let source = record(c);
                let take = source.len().min(head.len() - at);
                head[at..at + take].copy_from_slice(&source[..take]);
                at += take;
            }
            Symbol::Splitter(_) => {}
        }
    }
    let mut end = tail.len();
    for sym in body.iter().rev() {
        if end == 0 {
            break;
        }
        match *sym {
            Symbol::Word(w) => {
                end -= 1;
                tail[end] = w;
            }
            Symbol::Rule(c) => {
                let source = record(c);
                let take = source.len().min(end);
                tail[end - take..end].copy_from_slice(&source[source.len() - take..]);
                end -= take;
            }
            Symbol::Splitter(_) => {}
        }
    }
}

/// Builds the head/tail records with level-synchronized bottom-up
/// parallelism, one round per DAG level.
///
/// `levels` must be the top-down level schedule of `dag`
/// ([`levels_top_down`]); it is walked in reverse.  Sessions pass their
/// cached copy so repeated fills do not regroup the rules.
pub fn build_head_tail(
    grammar: &Grammar,
    dag: &Dag,
    levels: &[Vec<u32>],
    l: usize,
    pool: &WorkerPool,
) -> HeadTail {
    // Precondition assert for direct callers only: both Engine entry points
    // reject `l == 0` with `ConfigError::ZeroSequenceLength` before reaching
    // here.
    assert!(l >= 1, "sequence length must be at least 1");
    let keep = l - 1;
    let expanded = grammar.rule_expanded_lengths();
    let mut spans = vec![(0, 0); dag.num_rules];
    let mut len = 0;
    for &r in levels.iter().rev().flatten() {
        let r = r as usize;
        let end = len + expanded[r].min(2 * keep as u64) as usize;
        spans[r] = (len, end);
        len = end;
    }
    let mut words = vec![0u32; len];
    let mut done = 0;
    for level in levels.iter().rev() {
        pool.checkpoint(); // cancel/deadline, once per DAG level
        let Some(&last) = level.last() else { continue };
        let (finished, rest) = words.split_at_mut(done);
        let region = &mut rest[..spans[last as usize].1 - done];
        let (finished, spans) = (&*finished, &spans);
        // Every sub-rule sits in a deeper level, so its record is finished.
        let record = move |c: u32| {
            let (start, end) = spans[c as usize];
            &finished[start..end]
        };
        // Builds the rules `rules`, whose records fill `region` in order.
        let build = move |rules: &[u32], mut region: &mut [u32]| {
            for &r in rules {
                let (start, end) = spans[r as usize];
                let (out, rest) = std::mem::take(&mut region).split_at_mut(end - start);
                assemble_rule(grammar.rule(r as usize), keep, out, record);
                region = rest;
            }
        };
        if pool.threads() == 1 || level.len() <= INLINE_THRESHOLD {
            build(level, region);
        } else {
            // The level's running record ends, cut into ≈ equal word counts.
            let ends: Vec<usize> = [0]
                .into_iter()
                .chain(level.iter().map(|&r| spans[r as usize].1 - done))
                .collect();
            let mut region = region;
            let parts: Vec<_> = split(&ends, pool.threads())
                .into_iter()
                .map(|rules| {
                    let words = ends[rules.end] - ends[rules.start];
                    let (part, rest) = std::mem::take(&mut region).split_at_mut(words);
                    region = rest;
                    (&level[rules], part)
                })
                .collect();
            pool.map_workers(parts, |_, (rules, part)| build(rules, part));
        }
        done = spans[last as usize].1;
    }
    HeadTail { l, words, spans }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequitur::compress::{compress_corpus, CompressOptions};

    fn sample_corpus() -> Vec<(String, String)> {
        let shared = "w1 w2 w3 w4 w5 w6 w7 w8 ".repeat(12);
        vec![
            ("a".to_string(), format!("{shared} x1 x2 x3")),
            ("b".to_string(), shared.clone()),
            ("c".to_string(), format!("y0 {shared}")),
        ]
    }

    #[test]
    fn levels_cover_every_rule_once_in_dependency_order() {
        let archive = compress_corpus(&sample_corpus(), CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let levels = levels_top_down(&dag);
        assert_eq!(levels[0], vec![0], "the root is the first level alone");
        let mut seen = vec![false; dag.num_rules];
        for level in levels.iter().rev() {
            for &r in level {
                // All children must already be seen (they are in deeper layers).
                for &(c, _) in dag.children(r as usize) {
                    assert!(seen[c as usize], "child {c} of {r} not yet processed");
                }
            }
            for &r in level {
                seen[r as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn heads_and_tails_match_true_expansions() {
        let sample = compress_corpus(&sample_corpus(), CompressOptions::default());
        let sample_dag = Dag::from_grammar(&sample.grammar);
        let corpora = [
            (sample, sample_dag),
            crate::fine_grained::tests::build_wide(),
        ];
        for (archive, dag) in &corpora {
            let levels = levels_top_down(dag);
            for threads in [1, 2, 4, 8] {
                let pool = WorkerPool::new(threads);
                for l in 1usize..=5 {
                    let ht = build_head_tail(&archive.grammar, dag, &levels, l, &pool);
                    let keep = l - 1;
                    let label =
                        format!("{} files, {threads} threads, l = {l}", archive.num_files());
                    for r in 1..dag.num_rules {
                        let full = archive.grammar.expand_rule_words(r as u32);
                        let want_head: Vec<u32> = full.iter().copied().take(keep).collect();
                        let want_tail: Vec<u32> = full[full.len().saturating_sub(keep)..].to_vec();
                        assert_eq!(ht.head(r), want_head, "head of {r}, {label}");
                        assert_eq!(ht.tail(r), want_tail, "tail of {r}, {label}");
                        if full.len() <= 2 * keep {
                            assert_eq!(ht.record(r), full, "record of {r}, {label}");
                        } else {
                            let ends = [want_head, want_tail].concat();
                            assert_eq!(ht.record(r), ends, "record of {r}, {label}");
                        }
                        let short = (full.len() < 2 * keep).then_some(full.as_slice());
                        assert_eq!(ht.short_expansion(r), short, "{r}, {label}");
                    }
                }
            }
        }
    }

    /// A level wider than [`INLINE_THRESHOLD`] is split across the pool, and
    /// the split build equals the inline one.
    #[test]
    fn wide_levels_are_built_on_the_pool() {
        let (archive, dag) = crate::fine_grained::tests::build_wide();
        let levels = levels_top_down(&dag);
        let inline = build_head_tail(&archive.grammar, &dag, &levels, 4, &WorkerPool::new(1));
        let pool = WorkerPool::new(4);
        let split = build_head_tail(&archive.grammar, &dag, &levels, 4, &pool);
        assert!(pool.epochs() > 0, "no level was dispatched");
        assert_eq!((split.words, split.spans), (inline.words, inline.spans));
    }
}
