//! The rule DAG (Figure 1 (e) of the paper) and the per-rule metadata every
//! traversal needs: deduplicated child/parent edges with frequencies, local
//! word tables, DAG layers, and topological orders.
//!
//! Both the CPU baseline (`tadoc`) and the GPU implementation (`gtadoc`) build
//! their working structures from this representation, so the two systems are
//! guaranteed to interpret the compressed data identically.

use crate::csr::Csr;
use crate::grammar::Grammar;
use crate::symbol::{RuleId, Symbol, WordId};

/// A directed acyclic graph over grammar rules.
///
/// The edge and local-word tables are [`Csr`] columns indexed by rule id.
/// Every row is ordered: children and local words by ascending id, parents
/// by ascending parent id.
#[derive(Debug, Clone)]
pub struct Dag {
    /// Number of rules (nodes), root included.
    pub num_rules: usize,
    /// Row `r`: the distinct sub-rules of `r` with occurrence frequencies
    /// (`rule.subRules` in Algorithm 1).
    children: Csr<(RuleId, u32)>,
    /// Row `r`: the distinct parents of `r` with the frequency of `r` in each.
    parents: Csr<(RuleId, u32)>,
    /// Row `r`: the distinct terminal words that appear directly in the body
    /// of `r`, with their in-body frequencies.
    local_words: Csr<(WordId, u32)>,
    /// DAG layer of each rule (root = 0, children of root = 1, ...), taking the
    /// longest path from the root so dependencies always span layers upward.
    pub layers: Vec<u32>,
    /// Number of layers `k` in the DAG (max layer + 1).
    pub num_layers: usize,
    /// Rules ordered children-first (leaves before parents).
    pub topo_children_first: Vec<RuleId>,
}

/// Sorts `ids` and appends each run to the row under construction as an
/// `(id, run length)` pair.
fn push_sorted_counts(ids: &mut [u32], table: &mut Csr<(u32, u32)>) {
    ids.sort_unstable();
    for run in ids.chunk_by(|a, b| a == b) {
        table.push((run[0], run.len() as u32));
    }
    table.end_row();
}

/// Appends every nonzero entry of the dense count array `counts` to the row
/// under construction as an `(index, count)` pair, and zeroes it.
fn drain_dense_counts(counts: &mut [u32], table: &mut Csr<(u32, u32)>) {
    for (id, count) in counts.iter_mut().enumerate() {
        if *count > 0 {
            table.push((id as u32, std::mem::take(count)));
        }
    }
    table.end_row();
}

impl Dag {
    /// Builds the DAG and all per-rule metadata from a grammar.
    ///
    /// Each body's children and local words are sorted and counted — or,
    /// for a body at least an eighth as long as the rule and word id spaces
    /// together (the root, typically), counted into dense arrays read back
    /// in id order, which is linear where the sort is not.  Parents come
    /// from counting every rule's in-degree and scattering the child rows in
    /// rule order.  The children-first order is the grammar's own (computed
    /// once per grammar).
    ///
    /// # Panics
    /// Panics if a body references a rule that does not exist
    /// ([`Grammar::validate`] rejects such a grammar).
    pub fn from_grammar(grammar: &Grammar) -> Self {
        let n = grammar.num_rules();
        let word_ids = grammar.max_word().map_or(0, |(w, _)| w as usize + 1);
        let elements = grammar.total_elements();
        let mut children = Csr::with_capacity(n, elements);
        let mut local_words = Csr::with_capacity(n, elements);
        let (mut kids, mut words): (Vec<RuleId>, Vec<WordId>) = (Vec::new(), Vec::new());
        let (mut kid_counts, mut word_counts) = (Vec::new(), Vec::new());
        for body in grammar.rules() {
            if body.len() * 8 >= n + word_ids {
                kid_counts.resize(n, 0u32);
                word_counts.resize(word_ids, 0u32);
                for &sym in body {
                    match sym {
                        Symbol::Rule(r) => kid_counts[r as usize] += 1,
                        Symbol::Word(w) => word_counts[w as usize] += 1,
                        Symbol::Splitter(_) => {}
                    }
                }
                drain_dense_counts(&mut kid_counts, &mut children);
                drain_dense_counts(&mut word_counts, &mut local_words);
            } else {
                kids.clear();
                words.clear();
                for &sym in body {
                    match sym {
                        Symbol::Rule(r) => kids.push(r),
                        Symbol::Word(w) => words.push(w),
                        Symbol::Splitter(_) => {}
                    }
                }
                push_sorted_counts(&mut kids, &mut children);
                push_sorted_counts(&mut words, &mut local_words);
            }
        }

        // Parents: in-degree counts become offsets; scattering the child rows
        // in ascending rule order leaves every parent row ascending.
        let mut parent_offsets = vec![0u32; n + 1];
        for &(c, _) in children.data() {
            parent_offsets[c as usize + 1] += 1;
        }
        for r in 0..n {
            parent_offsets[r + 1] += parent_offsets[r];
        }
        let mut cursor = parent_offsets.clone();
        let mut parent_data = vec![(0, 0); children.data().len()];
        for (r, row) in children.rows().enumerate() {
            for &(c, f) in row {
                let slot = &mut cursor[c as usize];
                parent_data[*slot as usize] = (r as RuleId, f);
                *slot += 1;
            }
        }
        let parents = Csr::from_parts(parent_offsets, parent_data);

        // Layers: longest path from root, computed over a parents-first order.
        let topo_children_first = grammar.topological_order_children_first().to_vec();
        let mut layers = vec![0u32; n];
        for &r in topo_children_first.iter().rev() {
            let layer = layers[r as usize];
            for &(c, _) in children.row(r as usize) {
                if layers[c as usize] < layer + 1 {
                    layers[c as usize] = layer + 1;
                }
            }
        }
        let num_layers = layers.iter().copied().max().unwrap_or(0) as usize + 1;

        Self {
            num_rules: n,
            children,
            parents,
            local_words,
            layers,
            num_layers,
            topo_children_first,
        }
    }

    /// The distinct sub-rules of rule `r` with their occurrence frequencies,
    /// ascending by rule id.
    #[inline]
    pub fn children(&self, r: usize) -> &[(RuleId, u32)] {
        self.children.row(r)
    }

    /// The distinct parents of rule `r` with the frequency of `r` in each,
    /// ascending by parent id.
    #[inline]
    pub fn parents(&self, r: usize) -> &[(RuleId, u32)] {
        self.parents.row(r)
    }

    /// The local word table of rule `r`: the distinct words in its body with
    /// their in-body frequencies, ascending by word id.
    #[inline]
    pub fn local_words(&self, r: usize) -> &[(WordId, u32)] {
        self.local_words.row(r)
    }

    /// Every rule's [`children`](Self::children) as one column.
    pub fn children_csr(&self) -> &Csr<(RuleId, u32)> {
        &self.children
    }

    /// Every rule's [`parents`](Self::parents) as one column.
    pub fn parents_csr(&self) -> &Csr<(RuleId, u32)> {
        &self.parents
    }

    /// Every rule's [`local_words`](Self::local_words) as one column.
    pub fn local_words_csr(&self) -> &Csr<(WordId, u32)> {
        &self.local_words
    }

    /// Leaves: rules with no sub-rules.
    pub fn leaves(&self) -> Vec<RuleId> {
        (0..self.num_rules as u32)
            .filter(|&r| self.children(r as usize).is_empty())
            .collect()
    }

    /// Total number of (deduplicated) edges in the DAG.
    pub fn num_edges(&self) -> usize {
        self.children.data().len()
    }

    /// Number of "dependent middle-layer nodes": rules that are neither the
    /// root nor leaves (the quantity the paper reports averaging 450,704 per
    /// file to motivate the parallelism challenge).
    pub fn middle_layer_nodes(&self) -> usize {
        (1..self.num_rules)
            .filter(|&r| !self.children(r).is_empty())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn children_with_frequencies() {
        let dag = Dag::from_grammar(&paper_grammar());
        assert_eq!(dag.children(0), &[(1, 2), (2, 1)]);
        assert_eq!(dag.children(1), &[(2, 2)]);
        assert!(dag.children(2).is_empty());
    }

    #[test]
    fn parents_mirror_children() {
        let dag = Dag::from_grammar(&paper_grammar());
        assert_eq!(dag.parents(1), &[(0, 2)]);
        assert_eq!(dag.parents(2), &[(0, 1), (1, 2)]);
        let in_edges: Vec<usize> = (0..3).map(|r| dag.parents(r).len()).collect();
        let out_edges: Vec<usize> = (0..3).map(|r| dag.children(r).len()).collect();
        assert_eq!(in_edges, vec![0, 1, 2]);
        assert_eq!(out_edges, vec![2, 1, 0]);
    }

    #[test]
    fn local_word_tables() {
        let dag = Dag::from_grammar(&paper_grammar());
        assert_eq!(dag.local_words(0), &[(1, 1)]);
        assert_eq!(dag.local_words(1), &[(3, 1), (4, 1)]);
        assert_eq!(dag.local_words(2), &[(1, 1), (2, 1)]);
    }

    #[test]
    fn layers_and_level2() {
        let dag = Dag::from_grammar(&paper_grammar());
        assert_eq!(dag.layers[0], 0);
        assert_eq!(dag.layers[1], 1);
        assert_eq!(dag.layers[2], 2, "R2 is reachable through R1, so layer 2");
        assert_eq!(dag.num_layers, 3);
    }

    #[test]
    fn leaves_and_root_only() {
        let dag = Dag::from_grammar(&paper_grammar());
        assert_eq!(dag.leaves(), vec![2]);
        assert_eq!(dag.middle_layer_nodes(), 1);
    }

    #[test]
    fn edge_and_length_statistics() {
        let grammar = paper_grammar();
        let dag = Dag::from_grammar(&grammar);
        assert_eq!(dag.num_edges(), 3);
        assert_eq!(dag.children_csr().offsets(), &[0, 2, 3, 3]);
        assert_eq!(dag.parents_csr().offsets(), &[0, 0, 1, 3]);
        // Body lengths 5, 4, 2 are the grammar's own offsets.
        assert_eq!(grammar.bodies().offsets(), &[0, 5, 9, 11]);
    }

    #[test]
    fn single_rule_grammar() {
        let g = Grammar::new(vec![vec![Symbol::Word(0), Symbol::Word(0)]]);
        let dag = Dag::from_grammar(&g);
        assert_eq!(dag.num_rules, 1);
        assert_eq!(dag.num_layers, 1);
        assert_eq!(dag.leaves(), vec![0]);
        assert_eq!(dag.local_words(0), &[(0, 2)]);
    }
}
