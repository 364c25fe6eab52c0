//! Per-rule head/tail buffers on real CPU threads (Figures 6 and 7).
//!
//! For sequence length `l`, every rule stores the first and last `l-1` words
//! of its expansion; rules expanding to at most `2(l-1)` words keep the whole
//! expansion instead, so a sliding window can never silently skip over them.
//! The GPU fills these buffers with the mask/stop-flag loop of Figure 7; the
//! CPU engine gets the same dependency order for free from the DAG layers:
//! a rule's buffers only depend on its sub-rules', and every sub-rule lives
//! in a strictly deeper layer, so processing layers deepest-first with a
//! barrier between layers (the epoch barrier of
//! [`WorkerPool::for_range`](super::exec::WorkerPool::for_range)) is exactly
//! the level-synchronized schedule of the paper.
//!
//! Assembly is **lock-free**: each worker writes its rules' buffers straight
//! into the per-rule slots (`DisjointSlots` in `exec`) — within a level every worker
//! owns disjoint rule ids, and the child buffers it reads were finished in an
//! earlier epoch, so no synchronization beyond the level barrier is needed.
//! (Earlier revisions collected per-level results through a `Mutex<Vec<_>>`,
//! which serialized the assembly tail of every level.)

use super::exec::{DisjointSlots, WorkerPool};
use sequitur::{Dag, Grammar, Symbol};

/// Per-rule head/tail buffers (CPU twin of the simulator's `HeadTail`).
#[derive(Debug, Clone)]
pub struct HeadTail {
    /// Sequence length `l` the buffers were built for.
    pub l: usize,
    /// First `min(expanded_len, l-1)` words of each rule.
    pub head: Vec<Vec<u32>>,
    /// Last `min(expanded_len, l-1)` words of each rule.
    pub tail: Vec<Vec<u32>>,
    /// Full expansion for rules spanning at most `2(l-1)` words.
    pub short_expansion: Vec<Option<Vec<u32>>>,
}

/// Groups rule ids by DAG layer, deepest layer first (the bottom-up level
/// schedule: all of a rule's children precede it).
pub fn levels_bottom_up(dag: &Dag) -> Vec<Vec<u32>> {
    let mut levels: Vec<Vec<u32>> = vec![Vec::new(); dag.num_layers];
    for r in 0..dag.num_rules {
        levels[dag.layers[r] as usize].push(r as u32);
    }
    levels.reverse();
    levels.retain(|l| !l.is_empty());
    levels
}

/// Groups rule ids by DAG layer, root layer first (the top-down level
/// schedule: all of a rule's parents precede it).
pub fn levels_top_down(dag: &Dag) -> Vec<Vec<u32>> {
    let mut levels = levels_bottom_up(dag);
    levels.reverse();
    levels
}

/// One rule's buffers, assembled from its own words and its (already
/// finished) sub-rules' buffers — the body of `initHeadTailKernel`.
///
/// # Safety
/// Every `Symbol::Rule(c)` in `body` must refer to a slot finished in an
/// earlier epoch (guaranteed by the bottom-up level schedule: children live
/// in strictly deeper layers), and no worker may be writing those slots in
/// the current epoch.
unsafe fn assemble_rule(
    body: &[Symbol],
    expanded: u64,
    keep: usize,
    head: &DisjointSlots<'_, Vec<u32>>,
    tail: &DisjointSlots<'_, Vec<u32>>,
    short_expansion: &DisjointSlots<'_, Option<Vec<u32>>>,
) -> (Vec<u32>, Vec<u32>, Option<Vec<u32>>) {
    let is_short = expanded <= 2 * keep as u64;
    let want = if is_short { expanded as usize } else { keep };

    // Head: walk elements left to right collecting words.
    let mut h: Vec<u32> = Vec::with_capacity(want);
    'head: for sym in body {
        if h.len() >= want {
            break;
        }
        match *sym {
            Symbol::Word(w) => h.push(w),
            Symbol::Rule(c) => {
                // SAFETY: `c` is a child, finished in an earlier epoch (see
                // the function-level contract).
                let source: &[u32] = match short_expansion.get(c as usize) {
                    Some(full) => full,
                    None => head.get(c as usize),
                };
                for &w in source {
                    h.push(w);
                    if h.len() >= want {
                        continue 'head;
                    }
                }
            }
            Symbol::Splitter(_) => {}
        }
    }

    // Tail: walk elements right to left collecting words.
    let mut t_rev: Vec<u32> = Vec::with_capacity(want);
    'tail: for sym in body.iter().rev() {
        if t_rev.len() >= want {
            break;
        }
        match *sym {
            Symbol::Word(w) => t_rev.push(w),
            Symbol::Rule(c) => {
                // SAFETY: as above — `c`'s buffers are final.
                let source: &[u32] = match short_expansion.get(c as usize) {
                    Some(full) => full,
                    None => tail.get(c as usize),
                };
                for &w in source.iter().rev() {
                    t_rev.push(w);
                    if t_rev.len() >= want {
                        continue 'tail;
                    }
                }
            }
            Symbol::Splitter(_) => {}
        }
    }
    t_rev.reverse();

    if is_short {
        let full = h;
        let head_part = full.iter().copied().take(keep).collect();
        let tail_part = full[full.len().saturating_sub(keep)..].to_vec();
        (head_part, tail_part, Some(full))
    } else {
        (h, t_rev, None)
    }
}

/// Builds the head/tail buffers with level-synchronized bottom-up
/// parallelism, each level one epoch of the persistent worker pool.
///
/// `levels` must be the bottom-up level schedule of `dag`
/// ([`levels_bottom_up`]); sessions pass their cached copy so repeated
/// queries do not regroup the rules.
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
    let n = dag.num_rules;
    let keep = l - 1;
    let expanded = grammar.rule_expanded_lengths();
    let mut head: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut tail: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut short_expansion: Vec<Option<Vec<u32>>> = vec![None; n];

    {
        let head_slots = DisjointSlots::new(&mut head);
        let tail_slots = DisjointSlots::new(&mut tail);
        let short_slots = DisjointSlots::new(&mut short_expansion);
        for level in levels {
            pool.checkpoint(); // cancel/deadline, once per DAG level
            // Lock-free assembly: every worker writes only its own rules'
            // slots; everything it reads (children's buffers) was written in
            // a previous epoch, whose barrier ordered the writes.
            pool.for_range(level.len(), |i| {
                let r = level[i] as usize;
                // SAFETY: rule ids within a level are unique, so slot `r` has
                // exactly one writer this epoch; children live in strictly
                // deeper layers, so every slot read was finished in an
                // earlier epoch and has no writer now.
                unsafe {
                    let (h, t, s) = assemble_rule(
                        grammar.rule(r),
                        expanded[r],
                        keep,
                        &head_slots,
                        &tail_slots,
                        &short_slots,
                    );
                    head_slots.set(r, h);
                    tail_slots.set(r, t);
                    short_slots.set(r, s);
                }
            });
        }
    }

    HeadTail {
        l,
        head,
        tail,
        short_expansion,
    }
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
        let levels = levels_bottom_up(&dag);
        let mut seen = vec![false; dag.num_rules];
        for level in &levels {
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
        let td = levels_top_down(&dag);
        assert_eq!(td.first().unwrap(), levels.last().unwrap());
    }

    #[test]
    fn heads_and_tails_match_true_expansions() {
        for threads in [1, 4] {
            let pool = WorkerPool::new(threads);
            for l in [1usize, 2, 3] {
                let archive = compress_corpus(&sample_corpus(), CompressOptions::default());
                let dag = Dag::from_grammar(&archive.grammar);
                let levels = levels_bottom_up(&dag);
                let ht = build_head_tail(&archive.grammar, &dag, &levels, l, &pool);
                let keep = l - 1;
                for r in 1..dag.num_rules as u32 {
                    let full = archive.grammar.expand_rule_words(r);
                    let want_head: Vec<u32> = full.iter().copied().take(keep).collect();
                    let want_tail: Vec<u32> = full[full.len().saturating_sub(keep)..].to_vec();
                    assert_eq!(ht.head[r as usize], want_head, "head of {r}, l={l}");
                    assert_eq!(ht.tail[r as usize], want_tail, "tail of {r}, l={l}");
                    if full.len() <= 2 * keep {
                        assert_eq!(
                            ht.short_expansion[r as usize].as_deref(),
                            Some(full.as_slice()),
                            "short expansion of {r}, l={l}"
                        );
                    } else {
                        assert!(ht.short_expansion[r as usize].is_none());
                    }
                }
            }
        }
    }
}
