//! Head and tail buffers for sequence support (Figures 6 and 7).
//!
//! For sequence length `l`, every rule stores the first `l-1` and last `l-1`
//! words of its expansion; rules whose expansion is at most `2(l-1)` words
//! keep the whole expansion instead, so a window can never silently skip over
//! them.  The buffers are filled by a light-weight bottom-up scan: a rule's
//! head/tail can be assembled as soon as all of its sub-rules' buffers are
//! ready, which the host drives with the same mask/stop-flag loop as the
//! other traversals (Figure 7).

use crate::layout::{decode_elem, DecodedElem, GpuLayout};
use gpu_sim::{Device, Kernel, LaunchConfig, ThreadCtx};

/// Per-rule head/tail buffers.
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
    /// Rounds the initialization scan needed.
    pub rounds: u32,
}

impl HeadTail {
    /// Upper limit (in words) of the head+tail memory of one rule, matching
    /// Equation 1 of the paper: the buffers never exceed the rule's word
    /// count, and otherwise need `(l-1)` words per boundary.
    pub fn upper_limit(word_size: usize, l: usize, sub_rule_size: usize) -> usize {
        word_size + (l - 1) * sub_rule_size.saturating_sub(1).max(1)
    }

    /// Total words stored across all buffers (memory-pool accounting).
    pub fn total_words(&self) -> usize {
        self.head.iter().map(|h| h.len()).sum::<usize>()
            + self.tail.iter().map(|t| t.len()).sum::<usize>()
            + self
                .short_expansion
                .iter()
                .flatten()
                .map(|e| e.len())
                .sum::<usize>()
    }
}

/// One round of head/tail generation: every ready rule (all sub-rules filled)
/// assembles its buffers from its own words and its sub-rules' buffers.
struct HeadTailKernel<'a> {
    layout: &'a GpuLayout,
    l: usize,
    head: &'a mut [Vec<u32>],
    tail: &'a mut [Vec<u32>],
    short_expansion: &'a mut [Option<Vec<u32>>],
    done: &'a mut [u8],
    masks: &'a [u8],
    next_masks: &'a mut [u8],
    cur_out: &'a mut [u32],
    stop_flag: &'a mut bool,
}

impl Kernel for HeadTailKernel<'_> {
    fn name(&self) -> &'static str {
        "initHeadTailKernel"
    }
    fn thread(&mut self, ctx: &mut ThreadCtx) {
        let r = ctx.tid as usize;
        if r >= self.layout.num_rules {
            return;
        }
        ctx.global_read(1);
        if self.masks[r] == 0 || self.done[r] != 0 {
            return;
        }
        let keep = self.l.saturating_sub(1);
        let expanded = self.layout.expanded_lengths[r] as usize;
        let is_short = expanded <= 2 * keep;

        // Verify every sub-rule is ready (Figure 7: if a sub-rule's mask is not
        // set the calculation fails and is retried in the next round).
        for (sub, _freq) in self.layout.children(r as u32) {
            ctx.global_read(1);
            if self.done[sub as usize] == 0 {
                *self.stop_flag = false;
                return;
            }
        }

        // Head: walk elements left to right collecting words.
        let mut head: Vec<u32> = Vec::with_capacity(keep);
        let want_head = if is_short { expanded } else { keep };
        'head: for raw in self.layout.elements(r as u32) {
            if head.len() >= want_head {
                break 'head;
            }
            ctx.global_read(4);
            match decode_elem(*raw) {
                DecodedElem::Word(w) => {
                    head.push(w);
                    ctx.compute(1);
                    if head.len() >= want_head {
                        break 'head;
                    }
                }
                DecodedElem::Rule(c) => {
                    let source: &[u32] = match &self.short_expansion[c as usize] {
                        Some(full) => full,
                        None => &self.head[c as usize],
                    };
                    for &w in source {
                        head.push(w);
                        ctx.global_read(4);
                        if head.len() >= want_head {
                            break 'head;
                        }
                    }
                }
                DecodedElem::Splitter(_) => {}
            }
        }

        // Tail: walk elements right to left collecting words.
        let want_tail = if is_short { expanded } else { keep };
        let mut tail_rev: Vec<u32> = Vec::with_capacity(want_tail);
        'tail: for raw in self.layout.elements(r as u32).iter().rev() {
            if tail_rev.len() >= want_tail {
                break 'tail;
            }
            ctx.global_read(4);
            match decode_elem(*raw) {
                DecodedElem::Word(w) => {
                    tail_rev.push(w);
                    ctx.compute(1);
                    if tail_rev.len() >= want_tail {
                        break 'tail;
                    }
                }
                DecodedElem::Rule(c) => {
                    let source: &[u32] = match &self.short_expansion[c as usize] {
                        Some(full) => full,
                        None => &self.tail[c as usize],
                    };
                    for &w in source.iter().rev() {
                        tail_rev.push(w);
                        ctx.global_read(4);
                        if tail_rev.len() >= want_tail {
                            break 'tail;
                        }
                    }
                }
                DecodedElem::Splitter(_) => {}
            }
        }
        tail_rev.reverse();

        if is_short {
            // `head` already holds the complete expansion.
            self.short_expansion[r] = Some(head.clone());
        }
        ctx.global_write((head.len() + tail_rev.len()) as u64 * 4);
        self.head[r] = if is_short {
            head.iter().copied().take(keep).collect()
        } else {
            head
        };
        self.tail[r] = if is_short {
            let full = self.short_expansion[r].as_ref().expect("just set");
            full[full.len().saturating_sub(keep)..].to_vec()
        } else {
            tail_rev
        };
        self.done[r] = 1;

        // Notify parents exactly like the bottom-up traversal.
        for (parent, _freq) in self.layout.parents(r as u32) {
            self.cur_out[parent as usize] += 1;
            ctx.atomic_rmw(0x70_0000_0000 | parent as u64);
            if self.cur_out[parent as usize] == self.layout.num_out_edges[parent as usize] {
                self.next_masks[parent as usize] = 1;
                *self.stop_flag = false;
            }
        }
        self.next_masks[r] = 0;
        ctx.global_write(2);
    }
}

/// Runs the head/tail initialization phase (the CPU-side while-loop of
/// Figure 7).
pub fn init_head_tail(device: &mut Device, layout: &GpuLayout, l: usize) -> HeadTail {
    assert!(l >= 1, "sequence length must be at least 1");
    let n = layout.num_rules;
    let mut head: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut tail: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut short_expansion: Vec<Option<Vec<u32>>> = vec![None; n];
    let mut done = vec![0u8; n];
    let mut cur_out = vec![0u32; n];
    // Leaves start ready; the root is computed last (its buffers are unused
    // but filling them is harmless and keeps the loop uniform).
    let mut masks: Vec<u8> = (0..n)
        .map(|r| u8::from(layout.num_out_edges[r] == 0))
        .collect();

    let mut rounds = 0u32;
    loop {
        let mut stop_flag = true;
        let mut next_masks = masks.clone();
        device.launch(
            LaunchConfig::with_threads(n as u64),
            &mut HeadTailKernel {
                layout,
                l,
                head: &mut head,
                tail: &mut tail,
                short_expansion: &mut short_expansion,
                done: &mut done,
                masks: &masks,
                next_masks: &mut next_masks,
                cur_out: &mut cur_out,
                stop_flag: &mut stop_flag,
            },
        );
        rounds += 1;
        masks = next_masks;
        if stop_flag {
            break;
        }
        if rounds > n as u32 + 2 {
            panic!("head/tail initialization failed to converge");
        }
    }

    HeadTail {
        l,
        head,
        tail,
        short_expansion,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::layout_from_archive;
    use gpu_sim::GpuSpec;
    use sequitur::compress::{compress_corpus, CompressOptions};

    fn build(
        corpus: &[(String, String)],
        l: usize,
    ) -> (sequitur::TadocArchive, GpuLayout, HeadTail) {
        let archive = compress_corpus(corpus, CompressOptions::default());
        let (_dag, layout) = layout_from_archive(&archive);
        let mut device = Device::new(GpuSpec::gtx_1080());
        let ht = init_head_tail(&mut device, &layout, l);
        (archive, layout, ht)
    }

    fn sample_corpus() -> Vec<(String, String)> {
        let shared = "w1 w2 w3 w4 w5 w6 w7 w8 ".repeat(12);
        vec![
            ("a".to_string(), format!("{shared} x1 x2 x3")),
            ("b".to_string(), shared.clone()),
            ("c".to_string(), format!("y0 {shared}")),
        ]
    }

    #[test]
    fn heads_and_tails_match_true_expansions() {
        let (archive, layout, ht) = build(&sample_corpus(), 3);
        let keep = 2;
        for r in 1..layout.num_rules as u32 {
            let full = archive.grammar.expand_rule_words(r);
            let want_head: Vec<u32> = full.iter().copied().take(keep).collect();
            let want_tail: Vec<u32> = full[full.len().saturating_sub(keep)..].to_vec();
            assert_eq!(ht.head[r as usize], want_head, "head of rule {r}");
            assert_eq!(ht.tail[r as usize], want_tail, "tail of rule {r}");
        }
    }

    #[test]
    fn short_rules_store_their_full_expansion() {
        let (archive, layout, ht) = build(&sample_corpus(), 3);
        for r in 1..layout.num_rules as u32 {
            let full = archive.grammar.expand_rule_words(r);
            if full.len() <= 4 {
                assert_eq!(
                    ht.short_expansion[r as usize].as_deref(),
                    Some(full.as_slice()),
                    "short expansion of rule {r}"
                );
            } else {
                assert!(ht.short_expansion[r as usize].is_none());
            }
        }
    }

    #[test]
    fn rounds_bounded_by_dag_depth() {
        let (_a, layout, ht) = build(&sample_corpus(), 3);
        assert!(ht.rounds as usize <= layout.num_layers + 1);
        assert!(ht.total_words() > 0);
    }

    #[test]
    fn works_for_various_sequence_lengths() {
        for l in [1usize, 2, 3] {
            let (archive, layout, ht) = build(&sample_corpus(), l);
            let keep = l - 1;
            for r in 1..layout.num_rules as u32 {
                let full = archive.grammar.expand_rule_words(r);
                assert_eq!(
                    ht.head[r as usize],
                    full.iter().copied().take(keep).collect::<Vec<_>>(),
                    "l={l}, rule {r}"
                );
            }
            assert_eq!(ht.l, l);
            let _ = layout;
        }
    }

    #[test]
    fn upper_limit_formula() {
        // Equation 1 sanity: a rule with 10 word elements, l = 3, 4 sub-rules.
        assert_eq!(HeadTail::upper_limit(10, 3, 4), 10 + 2 * 3);
    }
}
