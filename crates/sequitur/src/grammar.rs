//! The context-free grammar produced by TADOC compression.
//!
//! Rule 0 is always the root (`R0` in the paper).  The root's body is the
//! concatenation of all input files with a unique [`Symbol::Splitter`] between
//! consecutive files.  Every other rule is a repeated fragment referenced at
//! least twice.
//!
//! The bodies live in one [`Csr`] column.  A body never changes after
//! construction, so what a load needs to know about its structure — the
//! validation verdict, the children-first rule order and the largest word
//! id — is computed once per grammar and cached beside it.

use std::sync::OnceLock;

use crate::csr::Csr;
use crate::symbol::{RuleId, Symbol, WordId, KIND_RULE, KIND_SPLITTER, KIND_WORD};
use crate::{Error, Result};

/// A TADOC context-free grammar (Figure 1 (d) of the paper).
#[derive(Debug, Clone)]
pub struct Grammar {
    /// Rule bodies; row 0 is the root.
    bodies: Csr<Symbol>,
    /// Derived from `bodies` on first use (or by the decoder that built
    /// them), never invalidated: the bodies are immutable.
    facts: OnceLock<Facts>,
}

/// Equal grammars have equal bodies; whether the cache is filled yet is not
/// part of the value.
impl PartialEq for Grammar {
    fn eq(&self, other: &Self) -> bool {
        self.bodies == other.bodies
    }
}

impl Eq for Grammar {}

/// What one pass over the bodies plus one DFS establish about a grammar.
#[derive(Debug, Clone)]
struct Facts {
    /// The first structural defect, if any (what [`Grammar::validate`]
    /// reports).
    flaw: Option<Flaw>,
    /// Children-first finishing order of a DFS from every rule; back edges
    /// and out-of-range references are skipped, so it is defined (and lists
    /// every rule once) for any grammar.
    order: Vec<RuleId>,
    /// The largest word id and the first rule that holds it.
    max_word: Option<(WordId, RuleId)>,
}

/// A structural defect, in a form the cache can clone.
#[derive(Debug, Clone)]
enum Flaw {
    /// Reported as [`Error::InvalidReference`].
    Reference(String),
    /// Reported as [`Error::Corrupt`].
    Corrupt(String),
}

/// The per-symbol half of [`Facts`], fed one body at a time as `(kind,
/// payload)` pairs ([`Symbol::parts`]) — by [`Grammar`] itself, or by a
/// decoder straight from the encoded words while it decodes.  The loop over
/// a body does not branch on the kind: a root body interleaves words and
/// rule references unpredictably.
#[derive(Debug, Default)]
pub(crate) struct SymbolScan {
    flaw: Option<Flaw>,
    /// The largest word id + 1 seen so far; 0 before any word.
    words_below: u64,
    /// The first rule holding that word.
    max_word_rule: RuleId,
}

impl SymbolScan {
    /// Records the body of `rule`, in a grammar with `num_rules` rules.
    #[inline]
    pub(crate) fn visit(
        &mut self,
        rule: usize,
        mut body: impl Iterator<Item = (u32, u32)> + Clone,
        num_rules: usize,
    ) {
        let misplaced = |(kind, payload): (u32, u32)| {
            (kind == KIND_RULE) & (payload as usize >= num_rules)
                | (kind == KIND_SPLITTER) & (rule != 0)
        };
        let mut words_below = self.words_below;
        let mut any_misplaced = false;
        for (kind, payload) in body.clone() {
            words_below = words_below.max(if kind == KIND_WORD {
                payload as u64 + 1
            } else {
                0
            });
            any_misplaced |= misplaced((kind, payload));
        }
        if words_below > self.words_below {
            self.words_below = words_below;
            self.max_word_rule = rule as RuleId;
        }
        if any_misplaced && self.flaw.is_none() {
            let (kind, payload) = body.find(|&p| misplaced(p)).expect("found above");
            self.flaw = Some(Flaw::Reference(if kind == KIND_RULE {
                format!("rule {rule} references nonexistent rule {payload}")
            } else {
                format!("splitter occurs in non-root rule {rule}")
            }));
        }
    }
}

impl Facts {
    fn of(bodies: &Csr<Symbol>) -> Self {
        let n = bodies.num_rows();
        let mut scan = SymbolScan::default();
        for (rule, body) in bodies.rows().enumerate() {
            scan.visit(rule, body.iter().map(|sym| sym.parts()), n);
        }
        Self::finish(scan, bodies)
    }

    /// Completes a scan of every symbol of `bodies` with the DFS.
    fn finish(scan: SymbolScan, bodies: &Csr<Symbol>) -> Self {
        let (order, back_edge) = children_first_dfs(bodies);
        let flaw = if bodies.num_rows() == 0 {
            Some(Flaw::Corrupt("grammar has no rules".into()))
        } else {
            scan.flaw.or_else(|| {
                back_edge.map(|(from, to)| {
                    Flaw::Corrupt(format!(
                        "rule {from} references rule {to}, which closes a cycle"
                    ))
                })
            })
        };
        let max_word = scan
            .words_below
            .checked_sub(1)
            .map(|w| (w as WordId, scan.max_word_rule));
        Self {
            flaw,
            order,
            max_word,
        }
    }
}

impl Grammar {
    /// Creates a grammar from rule bodies. Rule 0 must be the root.
    pub fn new(rules: Vec<Vec<Symbol>>) -> Self {
        Self::from_bodies(Csr::from_rows(rules))
    }

    /// A grammar over `bodies`, its facts computed on first use.
    pub(crate) fn from_bodies(bodies: Csr<Symbol>) -> Self {
        Self {
            bodies,
            facts: OnceLock::new(),
        }
    }

    /// A grammar over `bodies` whose every symbol `scan` has visited, its
    /// facts completed now.
    pub(crate) fn from_scanned(bodies: Csr<Symbol>, scan: SymbolScan) -> Self {
        let facts = Facts::finish(scan, &bodies);
        Self {
            bodies,
            facts: OnceLock::from(facts),
        }
    }

    fn facts(&self) -> &Facts {
        self.facts.get_or_init(|| Facts::of(&self.bodies))
    }

    /// The body of rule `r`.
    ///
    /// # Panics
    /// Panics if `r >= num_rules()`.
    #[inline]
    pub fn rule(&self, r: usize) -> &[Symbol] {
        self.bodies.row(r)
    }

    /// Every rule body, root first.
    pub fn rules(&self) -> impl ExactSizeIterator<Item = &[Symbol]> + '_ {
        self.bodies.rows()
    }

    /// The bodies as one column: row `r` is rule `r`.
    pub fn bodies(&self) -> &Csr<Symbol> {
        &self.bodies
    }

    /// The root rule body.
    pub fn root(&self) -> &[Symbol] {
        self.rule(0)
    }

    /// Number of rules including the root.
    pub fn num_rules(&self) -> usize {
        self.bodies.num_rows()
    }

    /// Total number of elements across all rule bodies (the compressed size in
    /// symbols).
    pub fn total_elements(&self) -> usize {
        self.bodies.data().len()
    }

    /// Expands the root into the flat terminal stream (words and splitters, in
    /// original order).  Used for round-trip verification.
    pub fn expand_root_tokens(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        self.expand_with(0, |sym| out.push(sym));
        out
    }

    /// Calls `emit` with every terminal of rule `rule`'s expansion, in order.
    /// Iterative — an explicit stack of `(next, end)` positions in the body
    /// column — so a valid grammar of any depth expands without exhausting
    /// the call stack.
    fn expand_with(&self, rule: RuleId, mut emit: impl FnMut(Symbol)) {
        let offsets = self.bodies.offsets();
        let symbols = self.bodies.data();
        let span = |r: RuleId| {
            (
                offsets[r as usize] as usize,
                offsets[r as usize + 1] as usize,
            )
        };
        let mut stack = vec![span(rule)];
        while let Some((next, end)) = stack.last_mut() {
            if next == end {
                stack.pop();
                continue;
            }
            let sym = symbols[*next];
            *next += 1;
            match sym {
                Symbol::Rule(r) => stack.push(span(r)),
                terminal => emit(terminal),
            }
        }
    }

    /// Fully expands a single rule into the word ids it covers (splitters never
    /// occur below the root by construction, and are skipped if present).
    pub fn expand_rule_words(&self, rule: RuleId) -> Vec<WordId> {
        let mut out = Vec::new();
        self.expand_with(rule, |sym| out.extend(sym.as_word()));
        out
    }

    /// Expands the grammar into per-file word-id streams (the decompressed
    /// corpus).
    pub fn expand_files(&self) -> Vec<Vec<WordId>> {
        let mut files = Vec::new();
        let mut cur = Vec::new();
        self.expand_with(0, |sym| match sym {
            Symbol::Word(w) => cur.push(w),
            _ => files.push(std::mem::take(&mut cur)),
        });
        files.push(cur);
        files
    }

    /// Counts how many times each rule is referenced (root gets 0).
    pub fn rule_use_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.num_rules()];
        for sym in self.bodies.data() {
            if let Symbol::Rule(r) = sym {
                counts[*r as usize] += 1;
            }
        }
        counts
    }

    /// The number of expanded words each rule covers (memoized bottom-up, no
    /// recursion on the expanded text).
    pub fn rule_expanded_lengths(&self) -> Vec<u64> {
        let mut len = vec![0u64; self.num_rules()];
        for &r in self.topological_order_children_first() {
            let mut total = 0u64;
            for sym in self.rule(r as usize) {
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
    /// admits; on a cyclic graph the back edges are skipped.  Computed once
    /// per grammar.
    pub fn topological_order_children_first(&self) -> &[RuleId] {
        &self.facts().order
    }

    /// Validates structural well-formedness: every referenced rule exists,
    /// splitters only occur in the root, and the rule graph is acyclic.
    /// Linear in the grammar size the first time; a cache read after.
    pub fn validate(&self) -> Result<()> {
        match &self.facts().flaw {
            None => Ok(()),
            Some(Flaw::Reference(msg)) => Err(Error::InvalidReference(msg.clone())),
            Some(Flaw::Corrupt(msg)) => Err(Error::Corrupt(msg.clone())),
        }
    }

    /// The largest word id the bodies hold and the first rule holding it, or
    /// `None` if no body holds a word.
    pub(crate) fn max_word(&self) -> Option<(WordId, RuleId)> {
        self.facts().max_word
    }
}

/// One depth-first search over every rule: the children-first finishing
/// order, plus the first *back edge* met — a reference `(from, to)` to a
/// rule still on the DFS stack.  A DFS that starts from every unvisited
/// rule meets a back edge exactly when the rule graph has a cycle,
/// reachable from the root or not.  References to rules that do not exist
/// are skipped.  Iterative (a 100k-deep chain must not overflow the call
/// stack) and linear: every rule is pushed once and every body element
/// scanned once.
fn children_first_dfs(bodies: &Csr<Symbol>) -> (Vec<RuleId>, Option<(RuleId, RuleId)>) {
    const UNVISITED: u8 = 0;
    const ON_STACK: u8 = 1;
    const DONE: u8 = 2;
    let n = bodies.num_rows();
    let (offsets, symbols) = (bodies.offsets(), bodies.data());
    // Slot `n` is a rule that is always done: words, splitters and dangling
    // references all look it up, so the scan does not branch on the kind.
    let mut state = vec![UNVISITED; n + 1];
    state[n] = DONE;
    let mut order = Vec::with_capacity(n);
    let mut back_edge = None;
    // (rule, next element, end of its body) in the symbol column.
    let mut stack: Vec<(RuleId, usize, usize)> = Vec::new();
    let frame = |r: usize| (r as RuleId, offsets[r] as usize, offsets[r + 1] as usize);
    for start in 0..n {
        if state[start] != UNVISITED {
            continue;
        }
        state[start] = ON_STACK;
        stack.push(frame(start));
        'frames: while let Some(top) = stack.last_mut() {
            let (rule, end) = (top.0, top.2);
            while top.1 < end {
                let sym = symbols[top.1];
                top.1 += 1;
                let c = match sym {
                    Symbol::Rule(c) => (c as usize).min(n),
                    _ => n,
                };
                match state[c] {
                    UNVISITED => {
                        state[c] = ON_STACK;
                        stack.push(frame(c));
                        continue 'frames;
                    }
                    ON_STACK => {
                        back_edge.get_or_insert((rule, c as RuleId));
                    }
                    _ => {}
                }
            }
            state[rule as usize] = DONE;
            order.push(rule);
            stack.pop();
        }
    }
    (order, back_edge)
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
        assert_eq!(g.expand_files().len(), 2);
        assert_eq!(g.total_elements(), 11);
        let counts = g.rule_use_counts();
        assert_eq!(counts, vec![0, 2, 3]);
        assert_eq!(g.max_word(), Some((4, 1)));
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
        // The cached verdict is replayed, not lost.
        assert!(matches!(g.validate(), Err(Error::InvalidReference(_))));
        assert_eq!(g.topological_order_children_first(), &[0]);
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
    fn validate_rejects_an_empty_grammar() {
        let g = Grammar::new(Vec::new());
        assert!(matches!(g.validate(), Err(Error::Corrupt(_))));
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
        assert_eq!(g.expand_files(), vec![vec![0, 1]]);
    }

    #[test]
    fn equality_ignores_the_cache() {
        let a = paper_grammar();
        let b = paper_grammar();
        a.validate().expect("valid");
        assert_eq!(a, b);
        assert_ne!(a, Grammar::new(vec![vec![Symbol::Word(1)]]));
    }
}
