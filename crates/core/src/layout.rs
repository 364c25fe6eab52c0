//! Flattened device layout of the compressed data.
//!
//! GPU kernels cannot chase `Vec<Vec<…>>` pointers; G-TADOC therefore loads
//! the grammar into flat arrays indexed by rule id with offset tables — the
//! standard CSR-style layout.  The same layout also records the quantities the
//! traversal kernels need (in-/out-edge counts, per-rule element counts, root
//! file segments).

use sequitur::{Csr, Dag, RuleId, Symbol, TadocArchive, WordId};

/// Flattened, GPU-friendly view of a [`TadocArchive`].
#[derive(Debug, Clone)]
pub struct GpuLayout {
    /// Number of rules (rule 0 is the root).
    pub num_rules: usize,
    /// Number of files.
    pub num_files: usize,
    /// Vocabulary size.
    pub vocab_size: usize,

    /// Encoded symbols of all rule bodies, concatenated.
    pub elem_data: Vec<u32>,
    /// `elem_offsets[r] .. elem_offsets[r+1]` is rule `r`'s slice of `elem_data`.
    pub elem_offsets: Vec<u32>,

    /// Row `r`: rule `r`'s deduplicated `(child, frequency)` pairs.
    pub children: Csr<(RuleId, u32)>,
    /// Row `r`: rule `r`'s deduplicated `(parent, frequency of r in it)` pairs.
    pub parents: Csr<(RuleId, u32)>,
    /// Row `r`: the `(word, in-rule frequency)` pairs of rule `r`'s body.
    pub local_words: Csr<(WordId, u32)>,

    /// `rule.numInEdge` counting all distinct parents.
    pub num_in_edges: Vec<u32>,
    /// Distinct parents excluding the root (the quantity Algorithm 1's mask
    /// initialization uses: rules whose only in-edges come from the root can
    /// start immediately).
    pub num_in_edges_excl_root: Vec<u32>,
    /// Distinct children per rule (`numOutEdge`, used by Algorithm 2).
    pub num_out_edges: Vec<u32>,
    /// Number of elements in each rule body.
    pub rule_lengths: Vec<u32>,
    /// Number of expanded words each rule covers.
    pub expanded_lengths: Vec<u64>,
    /// Frequency of each rule directly inside the root body.
    pub freq_in_root: Vec<u32>,

    /// Root body ranges per file: `(begin, end, file_id)` element indices into
    /// the root's slice of `elem_data`.
    pub root_segments: Vec<(u32, u32, u32)>,
    /// Number of DAG layers (k in the complexity analysis).
    pub num_layers: usize,
}

/// The length of every row of a CSR offset column.
fn row_lengths(offsets: &[u32]) -> Vec<u32> {
    offsets.windows(2).map(|w| w[1] - w[0]).collect()
}

impl GpuLayout {
    /// Builds the layout from an archive and its DAG: the grammar's body
    /// column is encoded, the DAG's columns are copied as they are.
    pub fn build(archive: &TadocArchive, dag: &Dag) -> Self {
        let grammar = &archive.grammar;
        let n = dag.num_rules;
        let bodies = grammar.bodies();

        let num_in_edges_excl_root = (0..n)
            .map(|r| dag.parents(r).iter().filter(|&&(p, _)| p != 0).count() as u32)
            .collect();
        let mut freq_in_root = vec![0u32; n];
        for &(c, f) in dag.children(0) {
            freq_in_root[c as usize] = f;
        }

        // Root segments per file (element index ranges inside the root body).
        let root = grammar.root();
        let mut root_segments = Vec::new();
        let mut start = 0u32;
        let mut file = 0u32;
        for (i, sym) in root.iter().enumerate() {
            if sym.is_splitter() {
                root_segments.push((start, i as u32, file));
                start = i as u32 + 1;
                file += 1;
            }
        }
        root_segments.push((start, root.len() as u32, file));

        Self {
            num_rules: n,
            num_files: root_segments.len(),
            vocab_size: archive.vocabulary_size(),
            elem_data: bodies.data().iter().map(|sym| sym.encode()).collect(),
            elem_offsets: bodies.offsets().to_vec(),
            children: dag.children_csr().clone(),
            parents: dag.parents_csr().clone(),
            local_words: dag.local_words_csr().clone(),
            num_in_edges: row_lengths(dag.parents_csr().offsets()),
            num_in_edges_excl_root,
            num_out_edges: row_lengths(dag.children_csr().offsets()),
            rule_lengths: row_lengths(bodies.offsets()),
            expanded_lengths: grammar.rule_expanded_lengths(),
            freq_in_root,
            root_segments,
            num_layers: dag.num_layers,
        }
    }

    /// Rule `r`'s encoded element slice.
    #[inline]
    pub fn elements(&self, r: RuleId) -> &[u32] {
        let a = self.elem_offsets[r as usize] as usize;
        let b = self.elem_offsets[r as usize + 1] as usize;
        &self.elem_data[a..b]
    }

    /// Rule `r`'s `(child, freq)` pairs.
    #[inline]
    pub fn children(&self, r: RuleId) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.children.row(r as usize).iter().copied()
    }

    /// Rule `r`'s `(parent, freq)` pairs.
    #[inline]
    pub fn parents(&self, r: RuleId) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.parents.row(r as usize).iter().copied()
    }

    /// Rule `r`'s `(word, freq)` local word pairs.
    #[inline]
    pub fn local_word_pairs(&self, r: RuleId) -> impl Iterator<Item = (WordId, u32)> + '_ {
        self.local_words.row(r as usize).iter().copied()
    }

    /// Decoded symbols of rule `r` (convenience for host-side code and tests).
    pub fn decoded_elements(&self, r: RuleId) -> Vec<Symbol> {
        self.elements(r)
            .iter()
            .map(|&e| Symbol::decode(e))
            .collect()
    }

    /// Total size in bytes of the flattened arrays (what would be shipped over
    /// PCIe when the compressed data does not already reside on the device).
    pub fn device_bytes(&self) -> u64 {
        // Each `(id, frequency)` pair is two `u32` words.
        let u32_len = self.elem_data.len()
            + self.elem_offsets.len()
            + [&self.children, &self.parents, &self.local_words]
                .iter()
                .map(|t| 2 * t.data().len() + t.offsets().len())
                .sum::<usize>()
            + self.num_in_edges.len()
            + self.num_in_edges_excl_root.len()
            + self.num_out_edges.len()
            + self.rule_lengths.len()
            + self.freq_in_root.len();
        (u32_len * 4 + self.expanded_lengths.len() * 8 + self.root_segments.len() * 12) as u64
    }

    /// Average number of elements per rule.
    pub fn avg_rule_length(&self) -> f64 {
        if self.num_rules == 0 {
            return 0.0;
        }
        self.elem_data.len() as f64 / self.num_rules as f64
    }

    /// Consistency checks between the flattened arrays (used by tests and the
    /// engine's debug assertions).
    pub fn validate(&self) -> Result<(), String> {
        if self.elem_offsets.len() != self.num_rules + 1 {
            return Err("elem_offsets length mismatch".into());
        }
        if *self.elem_offsets.last().unwrap() as usize != self.elem_data.len() {
            return Err("elem_offsets do not cover elem_data".into());
        }
        for r in 0..self.num_rules {
            if self.children.row(r).len() != self.num_out_edges[r] as usize {
                return Err(format!("rule {r}: child count != numOutEdge"));
            }
            if self.parents.row(r).len() != self.num_in_edges[r] as usize {
                return Err(format!("rule {r}: parent count != numInEdge"));
            }
        }
        Ok(())
    }
}

/// Convenience: build both the DAG and the layout from an archive.
pub fn layout_from_archive(archive: &TadocArchive) -> (Dag, GpuLayout) {
    let dag = Dag::from_grammar(&archive.grammar);
    let layout = GpuLayout::build(archive, &dag);
    (dag, layout)
}

/// Re-export used by kernels when decoding elements.
pub use sequitur::symbol::Symbol as ElemSymbol;

/// Helper used throughout the kernels: decode an element, returning either a
/// word id, a rule id, or `None` for splitters.
#[inline]
pub fn decode_elem(raw: u32) -> DecodedElem {
    match Symbol::decode(raw) {
        Symbol::Word(w) => DecodedElem::Word(w),
        Symbol::Rule(r) => DecodedElem::Rule(r),
        Symbol::Splitter(s) => DecodedElem::Splitter(s),
    }
}

/// A decoded element (mirror of [`Symbol`] with plain integers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodedElem {
    /// Terminal word.
    Word(u32),
    /// Sub-rule reference.
    Rule(u32),
    /// File splitter.
    Splitter(u32),
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequitur::compress::{compress_corpus, CompressOptions};

    fn build() -> (TadocArchive, Dag, GpuLayout) {
        let corpus = vec![
            (
                "fileA".to_string(),
                "w1 w2 w3 w1 w2 w4 w1 w2 w3 w1 w2 w4".to_string(),
            ),
            ("fileB".to_string(), "w1 w2 w1".to_string()),
        ];
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let layout = GpuLayout::build(&archive, &dag);
        (archive, dag, layout)
    }

    #[test]
    fn layout_matches_dag_shapes() {
        let (archive, dag, layout) = build();
        assert_eq!(layout.num_rules, dag.num_rules);
        assert_eq!(layout.num_files, 2);
        assert_eq!(layout.vocab_size, archive.vocabulary_size());
        layout.validate().expect("layout must be self-consistent");
        assert_eq!(layout.elem_data.len(), archive.grammar.total_elements());
    }

    #[test]
    fn element_decoding_roundtrips() {
        let (archive, _dag, layout) = build();
        for r in 0..layout.num_rules as u32 {
            assert_eq!(layout.decoded_elements(r), archive.grammar.rule(r as usize));
        }
    }

    #[test]
    fn children_and_parents_are_consistent() {
        let (_archive, dag, layout) = build();
        for r in 0..layout.num_rules as u32 {
            let kids: Vec<(u32, u32)> = layout.children(r).collect();
            assert_eq!(kids, dag.children(r as usize));
            let parents: Vec<(u32, u32)> = layout.parents(r).collect();
            assert_eq!(parents, dag.parents(r as usize));
            let words: Vec<(u32, u32)> = layout.local_word_pairs(r).collect();
            assert_eq!(words, dag.local_words(r as usize));
        }
    }

    #[test]
    fn root_segments_cover_files() {
        let (_archive, _dag, layout) = build();
        assert_eq!(layout.root_segments.len(), 2);
        assert_eq!(layout.root_segments[0].2, 0);
        assert_eq!(layout.root_segments[1].2, 1);
        // Segments must be disjoint and ordered.
        assert!(layout.root_segments[0].1 <= layout.root_segments[1].0);
    }

    #[test]
    fn in_edges_excluding_root() {
        let (_archive, dag, layout) = build();
        for r in 0..layout.num_rules {
            let excl: u32 = dag.parents(r).iter().filter(|&&(p, _)| p != 0).count() as u32;
            assert_eq!(layout.num_in_edges_excl_root[r], excl);
        }
    }

    #[test]
    fn device_bytes_and_avg_length_are_positive() {
        let (_archive, _dag, layout) = build();
        assert!(layout.device_bytes() > 0);
        assert!(layout.avg_rule_length() > 0.0);
    }

    #[test]
    fn decode_elem_helper() {
        assert_eq!(decode_elem(Symbol::Word(3).encode()), DecodedElem::Word(3));
        assert_eq!(decode_elem(Symbol::Rule(5).encode()), DecodedElem::Rule(5));
        assert_eq!(
            decode_elem(Symbol::Splitter(1).encode()),
            DecodedElem::Splitter(1)
        );
    }
}
