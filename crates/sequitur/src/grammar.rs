//! The context-free grammar produced by TADOC compression.
//!
//! Rule 0 is always the root (`R0` in the paper).  The root's body is the
//! concatenation of all input files with a unique [`Symbol::Splitter`] between
//! consecutive files.  Every other rule is a repeated fragment referenced at
//! least twice.

use crate::symbol::{RuleId, Symbol, WordId};
use crate::{Error, Result};

/// A TADOC context-free grammar (Figure 1 (d) of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grammar {
    /// Rule bodies; index 0 is the root.
    pub rules: Vec<Vec<Symbol>>,
}

impl Grammar {
    /// Creates a grammar from rule bodies. Rule 0 must be the root.
    pub fn new(rules: Vec<Vec<Symbol>>) -> Self {
        Self { rules }
    }

    /// The root rule body.
    pub fn root(&self) -> &[Symbol] {
        &self.rules[0]
    }

    /// Number of rules including the root.
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    /// Total number of elements across all rule bodies (the compressed size in
    /// symbols).
    pub fn total_elements(&self) -> usize {
        self.rules.iter().map(|r| r.len()).sum()
    }

    /// Number of files encoded in the root (= splitter count + 1, or 0 for an
    /// empty grammar).
    pub fn num_files(&self) -> usize {
        if self.rules.is_empty() || self.root().is_empty() {
            return 0;
        }
        1 + self.root().iter().filter(|s| s.is_splitter()).count()
    }

    /// Expands the root into the flat terminal stream (words and splitters, in
    /// original order).  Used for round-trip verification.
    pub fn expand_root_tokens(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        self.expand_into(0, &mut out);
        out
    }

    fn expand_into(&self, rule: RuleId, out: &mut Vec<Symbol>) {
        for &sym in &self.rules[rule as usize] {
            match sym {
                Symbol::Rule(r) => self.expand_into(r, out),
                other => out.push(other),
            }
        }
    }

    /// Fully expands a single rule into the word ids it covers (splitters never
    /// occur below the root by construction, and are skipped if present).
    pub fn expand_rule_words(&self, rule: RuleId) -> Vec<WordId> {
        let mut out = Vec::new();
        self.expand_rule_words_into(rule, &mut out);
        out
    }

    fn expand_rule_words_into(&self, rule: RuleId, out: &mut Vec<WordId>) {
        for &sym in &self.rules[rule as usize] {
            match sym {
                Symbol::Word(w) => out.push(w),
                Symbol::Rule(r) => self.expand_rule_words_into(r, out),
                Symbol::Splitter(_) => {}
            }
        }
    }

    /// Expands the grammar into per-file word-id streams (the decompressed
    /// corpus).
    pub fn expand_files(&self) -> Vec<Vec<WordId>> {
        let flat = self.expand_root_tokens();
        let mut files = Vec::new();
        let mut cur = Vec::new();
        for sym in flat {
            match sym {
                Symbol::Word(w) => cur.push(w),
                Symbol::Splitter(_) => {
                    files.push(std::mem::take(&mut cur));
                }
                Symbol::Rule(_) => unreachable!("expand_root_tokens yields terminals only"),
            }
        }
        files.push(cur);
        files
    }

    /// Counts how many times each rule is referenced (root gets 0).
    pub fn rule_use_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.rules.len()];
        for body in &self.rules {
            for sym in body {
                if let Symbol::Rule(r) = sym {
                    counts[*r as usize] += 1;
                }
            }
        }
        counts
    }

    /// The number of expanded words each rule covers (memoized bottom-up, no
    /// recursion on the expanded text).
    pub fn rule_expanded_lengths(&self) -> Vec<u64> {
        let order = self.topological_order_children_first();
        let mut len = vec![0u64; self.rules.len()];
        for r in order {
            let mut total = 0u64;
            for sym in &self.rules[r as usize] {
                match sym {
                    Symbol::Word(_) => total += 1,
                    Symbol::Rule(c) => total += len[*c as usize],
                    Symbol::Splitter(_) => {}
                }
            }
            len[r as usize] = total;
        }
        len
    }

    /// Topological order of rules with children before parents (leaves first).
    ///
    /// Defined for acyclic rule graphs, which is what [`Grammar::validate`]
    /// admits; on a cyclic graph the back edges are skipped.
    pub fn topological_order_children_first(&self) -> Vec<RuleId> {
        self.children_first_dfs().0
    }

    /// One depth-first search over every rule: the children-first finishing
    /// order, plus the first *back edge* met — a reference `(from, to)` to a
    /// rule still on the DFS stack.  A DFS that starts from every unvisited
    /// rule meets a back edge exactly when the rule graph has a cycle,
    /// reachable from the root or not.  Iterative (a 100k-deep chain must not
    /// overflow the call stack) and linear: every rule is pushed once and
    /// every body element scanned once.
    fn children_first_dfs(&self) -> (Vec<RuleId>, Option<(RuleId, RuleId)>) {
        let n = self.rules.len();
        let mut state = vec![0u8; n]; // 0 = unvisited, 1 = on the stack, 2 = done
        let mut order = Vec::with_capacity(n);
        let mut back_edge = None;
        for start in 0..n as u32 {
            if state[start as usize] != 0 {
                continue;
            }
            let mut stack: Vec<(u32, usize)> = vec![(start, 0)];
            state[start as usize] = 1;
            while let Some(&(rule, idx)) = stack.last() {
                let body = &self.rules[rule as usize];
                let mut next_child = None;
                let mut new_idx = idx;
                while new_idx < body.len() {
                    let sym = body[new_idx];
                    new_idx += 1;
                    if let Symbol::Rule(c) = sym {
                        match state[c as usize] {
                            0 => {
                                next_child = Some(c);
                                break;
                            }
                            1 => back_edge = back_edge.or(Some((rule, c))),
                            _ => {}
                        }
                    }
                }
                stack.last_mut().expect("stack is non-empty").1 = new_idx;
                if let Some(c) = next_child {
                    state[c as usize] = 1;
                    stack.push((c, 0));
                } else {
                    state[rule as usize] = 2;
                    order.push(rule);
                    stack.pop();
                }
            }
        }
        (order, back_edge)
    }

    /// Validates structural well-formedness: every referenced rule exists,
    /// splitters only occur in the root, and the rule graph is acyclic.
    /// Linear in the grammar size.
    pub fn validate(&self) -> Result<()> {
        if self.rules.is_empty() {
            return Err(Error::Corrupt("grammar has no rules".into()));
        }
        let n = self.rules.len() as u32;
        for (i, body) in self.rules.iter().enumerate() {
            for sym in body {
                match *sym {
                    Symbol::Rule(r) if r >= n => {
                        return Err(Error::InvalidReference(format!(
                            "rule {i} references nonexistent rule {r}"
                        )));
                    }
                    Symbol::Splitter(_) if i != 0 => {
                        return Err(Error::InvalidReference(format!(
                            "splitter occurs in non-root rule {i}"
                        )));
                    }
                    _ => {}
                }
            }
        }
        // Only now is every reference in range, which the DFS indexes by.
        if let (_, Some((from, to))) = self.children_first_dfs() {
            return Err(Error::Corrupt(format!(
                "rule {from} references rule {to}, which closes a cycle"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The grammar of Figure 1 in the paper:
    /// R0: R1 R1 spt1 R2 w1, R1: R2 w3 R2 w4, R2: w1 w2
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
    fn paper_example_expansion() {
        let g = paper_grammar();
        let files = g.expand_files();
        assert_eq!(files.len(), 2);
        // fileA: w1 w2 w3 w1 w2 w4 w1 w2 w3 w1 w2 w4
        assert_eq!(files[0], vec![1, 2, 3, 1, 2, 4, 1, 2, 3, 1, 2, 4]);
        // fileB: w1 w2 w1
        assert_eq!(files[1], vec![1, 2, 1]);
    }

    #[test]
    fn paper_example_counts() {
        let g = paper_grammar();
        assert_eq!(g.num_rules(), 3);
        assert_eq!(g.num_files(), 2);
        assert_eq!(g.total_elements(), 11);
        let counts = g.rule_use_counts();
        assert_eq!(counts, vec![0, 2, 3]);
    }

    #[test]
    fn expanded_lengths() {
        let g = paper_grammar();
        let lens = g.rule_expanded_lengths();
        assert_eq!(lens[2], 2); // R2 = w1 w2
        assert_eq!(lens[1], 6); // R1 = R2 w3 R2 w4
        assert_eq!(lens[0], 15); // 12 + 3 words, splitter not counted
    }

    #[test]
    fn topological_order_children_first() {
        let g = paper_grammar();
        let order = g.topological_order_children_first();
        let pos = |r: u32| order.iter().position(|&x| x == r).unwrap();
        assert!(pos(2) < pos(1));
        assert!(pos(1) < pos(0));
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn validate_accepts_paper_grammar() {
        assert!(paper_grammar().validate().is_ok());
    }

    #[test]
    fn validate_rejects_dangling_rule() {
        let g = Grammar::new(vec![vec![Symbol::Rule(5)]]);
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_splitter_below_root() {
        let g = Grammar::new(vec![vec![Symbol::Rule(1)], vec![Symbol::Splitter(0)]]);
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_cycle() {
        let g = Grammar::new(vec![
            vec![Symbol::Rule(1)],
            vec![Symbol::Rule(2)],
            vec![Symbol::Rule(1)],
        ]);
        assert!(g.validate().is_err());
    }

    #[test]
    fn expand_rule_words_matches_manual_expansion() {
        let g = paper_grammar();
        assert_eq!(g.expand_rule_words(2), vec![1, 2]);
        assert_eq!(g.expand_rule_words(1), vec![1, 2, 3, 1, 2, 4]);
    }

    #[test]
    fn single_file_has_no_splitter() {
        let g = Grammar::new(vec![vec![Symbol::Word(0), Symbol::Word(1)]]);
        assert_eq!(g.num_files(), 1);
        assert_eq!(g.expand_files(), vec![vec![0, 1]]);
    }
}
