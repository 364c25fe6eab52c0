//! The Sequitur grammar-inference algorithm.
//!
//! Sequitur reads a token stream one symbol at a time and maintains a
//! context-free grammar obeying two invariants:
//!
//! * **digram uniqueness** — no pair of adjacent symbols appears more than
//!   once in the grammar; a repeated digram is replaced by a non-terminal;
//! * **rule utility** — every rule (other than the root) is referenced at
//!   least twice; a rule whose reference count drops to one is inlined.
//!
//! The implementation uses an index-based doubly-linked arena of symbol nodes
//! with one *guard* node per rule (the circular-list trick of the reference
//! implementation), and routes **every** `next`-pointer update through
//! `Sequitur::link`, which first un-registers the digram starting at the
//! left node.  That single discipline keeps the digram index consistent under
//! all splicing operations.

use crate::csr::Csr;
use crate::digram::{Digram, DigramIndex, Sym};
use crate::grammar::Grammar;
use crate::symbol::Symbol;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    sym: Sym,
    prev: u32,
    next: u32,
    is_guard: bool,
}

#[derive(Debug, Clone, Copy)]
struct RuleSlot {
    guard: u32,
    refcount: u32,
    alive: bool,
}

/// Incremental Sequitur grammar builder over `u32` terminal tokens.
///
/// Word ids and splitter ids share one terminal space here; the caller maps
/// them back to [`Symbol`]s via the `vocab_size` argument of
/// [`Sequitur::into_grammar`].
pub struct Sequitur {
    nodes: Vec<Node>,
    free_nodes: Vec<u32>,
    rules: Vec<RuleSlot>,
    digrams: DigramIndex,
    tokens_pushed: u64,
}

impl Default for Sequitur {
    fn default() -> Self {
        Self::new()
    }
}

impl Sequitur {
    /// Creates a builder containing only the empty root rule.
    pub fn new() -> Self {
        let mut s = Self {
            nodes: Vec::with_capacity(1024),
            free_nodes: Vec::new(),
            rules: Vec::new(),
            digrams: DigramIndex::with_capacity(1024),
            tokens_pushed: 0,
        };
        s.new_rule(); // rule 0: root
        s
    }

    /// Creates a builder with node capacity pre-sized for `n` input tokens.
    pub fn with_capacity(n: usize) -> Self {
        let mut s = Self {
            nodes: Vec::with_capacity(n + 16),
            free_nodes: Vec::new(),
            rules: Vec::with_capacity(n / 8 + 4),
            digrams: DigramIndex::with_capacity(n),
            tokens_pushed: 0,
        };
        s.new_rule();
        s
    }

    /// Number of terminal tokens pushed so far.
    pub fn tokens_pushed(&self) -> u64 {
        self.tokens_pushed
    }

    /// Number of live rules (including the root).
    pub fn live_rules(&self) -> usize {
        self.rules.iter().filter(|r| r.alive).count()
    }

    // ------------------------------------------------------------------
    // arena helpers
    // ------------------------------------------------------------------

    fn new_node(&mut self, sym: Sym, is_guard: bool) -> u32 {
        let node = Node {
            sym,
            prev: NIL,
            next: NIL,
            is_guard,
        };
        if let Some(id) = self.free_nodes.pop() {
            self.nodes[id as usize] = node;
            id
        } else {
            let id = self.nodes.len() as u32;
            self.nodes.push(node);
            id
        }
    }

    fn free_node(&mut self, id: u32) {
        self.nodes[id as usize].prev = NIL;
        self.nodes[id as usize].next = NIL;
        self.free_nodes.push(id);
    }

    fn new_rule(&mut self) -> u32 {
        let id = self.rules.len() as u32;
        let guard = self.new_node(Sym::NonTerm(id), true);
        // Circular: an empty rule's guard points at itself.
        self.nodes[guard as usize].prev = guard;
        self.nodes[guard as usize].next = guard;
        self.rules.push(RuleSlot {
            guard,
            refcount: 0,
            alive: true,
        });
        id
    }

    #[inline]
    fn sym(&self, n: u32) -> Sym {
        self.nodes[n as usize].sym
    }

    #[inline]
    fn next(&self, n: u32) -> u32 {
        self.nodes[n as usize].next
    }

    #[inline]
    fn prev(&self, n: u32) -> u32 {
        self.nodes[n as usize].prev
    }

    #[inline]
    fn is_guard(&self, n: u32) -> bool {
        self.nodes[n as usize].is_guard
    }

    /// The digram starting at `n`, or `None` if it would span a guard.
    fn digram_at(&self, n: u32) -> Option<Digram> {
        if self.is_guard(n) {
            return None;
        }
        let m = self.next(n);
        if m == NIL || self.is_guard(m) {
            return None;
        }
        Some((self.sym(n), self.sym(m)))
    }

    /// Removes the digram-index record starting at `n` (if it points at `n`).
    fn unindex(&mut self, n: u32) {
        if let Some(d) = self.digram_at(n) {
            self.digrams.remove_if_at(&d, n);
        }
    }

    /// Links `right` directly after `left`, first un-registering the digram
    /// that used to start at `left`.
    fn link(&mut self, left: u32, right: u32) {
        if self.nodes[left as usize].next != NIL {
            self.unindex(left);
        }
        self.nodes[left as usize].next = right;
        self.nodes[right as usize].prev = left;
    }

    // ------------------------------------------------------------------
    // main algorithm
    // ------------------------------------------------------------------

    /// Appends one terminal token to the root rule, restoring both Sequitur
    /// invariants.
    pub fn push(&mut self, token: u32) {
        self.tokens_pushed += 1;
        let node = self.new_node(Sym::Term(token), false);
        let guard = self.rules[0].guard;
        let last = self.prev(guard);
        self.link(node, guard);
        self.link(last, node);
        if !self.is_guard(last) {
            self.check(last);
        }
    }

    /// Appends every token of `tokens`.
    pub fn push_all(&mut self, tokens: &[u32]) {
        for &t in tokens {
            self.push(t);
        }
    }

    /// Checks the digram starting at `n`; returns `true` if a substitution
    /// happened (meaning `n` may no longer be in the grammar).
    fn check(&mut self, n: u32) -> bool {
        let Some(d) = self.digram_at(n) else {
            return false;
        };
        match self.digrams.get(&d) {
            None => {
                self.digrams.insert(d, n);
                false
            }
            Some(m) if m == n => false,
            Some(m) => {
                // Overlapping occurrences (e.g. "aaa") are not replaced.
                if self.next(m) == n || self.next(n) == m {
                    return false;
                }
                self.handle_match(n, m, d);
                true
            }
        }
    }

    /// Handles a repeated digram `d` occurring at `n` (new) and `m` (indexed).
    fn handle_match(&mut self, n: u32, m: u32, d: Digram) {
        let m_prev = self.prev(m);
        let m_next = self.next(m);
        let existing_rule = if self.is_guard(m_prev) && self.is_guard(self.next(m_next)) {
            // `m` is the complete body of a rule: reuse that rule.
            match self.sym(m_prev) {
                Sym::NonTerm(r) => Some(r),
                Sym::Term(_) => unreachable!("guard nodes always carry a rule reference"),
            }
        } else {
            None
        };

        let r = match existing_rule {
            Some(r) => {
                self.substitute(n, r);
                r
            }
            None => {
                // Create a new rule whose body is the digram, then replace
                // both occurrences with it.
                let r = self.new_rule();
                let guard = self.rules[r as usize].guard;
                let a = self.new_node(d.0, false);
                let b = self.new_node(d.1, false);
                self.link(guard, a);
                self.link(a, b);
                self.link(b, guard);
                if let Sym::NonTerm(q) = d.0 {
                    self.rules[q as usize].refcount += 1;
                }
                if let Sym::NonTerm(q) = d.1 {
                    self.rules[q as usize].refcount += 1;
                }
                self.substitute(m, r);
                self.substitute(n, r);
                self.digrams.insert(d, a);
                r
            }
        };

        // Rule utility: if either body symbol of `r` is a rule now referenced
        // only once, inline it.
        let guard = self.rules[r as usize].guard;
        let first = self.next(guard);
        let second = if first != guard { self.next(first) } else { guard };
        for s in [first, second] {
            if s == guard || self.is_guard(s) {
                continue;
            }
            if let Sym::NonTerm(q) = self.sym(s) {
                if self.rules[q as usize].alive && self.rules[q as usize].refcount == 1 {
                    self.expand(s, q);
                }
            }
        }
    }

    /// Replaces the two-node digram starting at `n` with a single reference to
    /// rule `r`.
    fn substitute(&mut self, n: u32, r: u32) {
        let prev = self.prev(n);
        let second = self.next(n);
        let after = self.next(second);

        // Un-register every digram that involves the nodes being rewritten.
        self.unindex(prev);
        self.unindex(n);
        self.unindex(second);

        // Release references held by the replaced symbols.
        for id in [n, second] {
            if let Sym::NonTerm(q) = self.sym(id) {
                self.rules[q as usize].refcount -= 1;
            }
        }

        // Reuse node `n` as the non-terminal reference; drop node `second`.
        self.nodes[n as usize].sym = Sym::NonTerm(r);
        self.rules[r as usize].refcount += 1;
        self.link(n, after);
        self.free_node(second);

        // Newly adjacent digrams must be re-checked.  Mirroring the reference
        // implementation: if checking (prev, n) triggered a substitution, node
        // `n` no longer exists in its old position and the second check is the
        // responsibility of that substitution.
        if !self.check(prev) {
            self.check(n);
        }
    }

    /// Inlines rule `q` at its sole remaining use site `use_site`.
    fn expand(&mut self, use_site: u32, q: u32) {
        let prev = self.prev(use_site);
        let next = self.next(use_site);
        let guard = self.rules[q as usize].guard;
        let first = self.next(guard);
        let last = self.prev(guard);

        self.unindex(use_site);

        // Splice the body of `q` in place of the use site.
        self.link(prev, first);
        self.link(last, next);
        self.free_node(use_site);

        // Retire the rule.
        self.rules[q as usize].alive = false;
        self.rules[q as usize].refcount = 0;
        self.free_node(guard);

        // Register the digram formed at the right splice point so it is not
        // forgotten (the left splice point is re-discovered on later matches).
        if let Some(d) = self.digram_at(last) {
            if self.digrams.get(&d).is_none() {
                self.digrams.insert(d, last);
            }
        }
    }

    // ------------------------------------------------------------------
    // extraction
    // ------------------------------------------------------------------

    /// Extracts the grammar, mapping terminals below `vocab_size` to
    /// [`Symbol::Word`] and terminals at or above it to [`Symbol::Splitter`]
    /// (`token - vocab_size`).  Live internal rules are renumbered densely
    /// with the root as rule 0.
    pub fn into_grammar(self, vocab_size: u32) -> Grammar {
        let mut remap = vec![u32::MAX; self.rules.len()];
        let mut next_id = 0u32;
        for (i, slot) in self.rules.iter().enumerate() {
            if slot.alive {
                remap[i] = next_id;
                next_id += 1;
            }
        }

        // Every live node that is not a guard is one body element.
        let elements = (self.nodes.len() - self.free_nodes.len()).saturating_sub(next_id as usize);
        let mut bodies = Csr::with_capacity(next_id as usize, elements);
        for (i, slot) in self.rules.iter().enumerate() {
            if !slot.alive {
                continue;
            }
            let guard = slot.guard;
            let mut cur = self.nodes[guard as usize].next;
            while cur != guard {
                let node = &self.nodes[cur as usize];
                let sym = match node.sym {
                    Sym::Term(t) if t < vocab_size => Symbol::Word(t),
                    Sym::Term(t) => Symbol::Splitter(t - vocab_size),
                    Sym::NonTerm(r) => {
                        debug_assert!(self.rules[r as usize].alive, "reference to dead rule");
                        Symbol::Rule(remap[r as usize])
                    }
                };
                bodies.push(sym);
                cur = node.next;
            }
            debug_assert_eq!(remap[i] as usize, bodies.num_rows());
            bodies.end_row();
        }
        debug_assert_eq!(bodies.data().len(), elements);
        Grammar::from_bodies(bodies)
    }

    // ------------------------------------------------------------------
    // invariant inspection (used by tests)
    // ------------------------------------------------------------------

    /// Counts how many times each digram appears across all live rules.
    /// Under digram uniqueness every non-overlapping digram appears at most
    /// twice transiently and at most once at rest.
    pub fn digram_occurrence_histogram(&self) -> std::collections::HashMap<Digram, usize> {
        let mut hist = std::collections::HashMap::new();
        for slot in &self.rules {
            if !slot.alive {
                continue;
            }
            let guard = slot.guard;
            let mut cur = self.nodes[guard as usize].next;
            while cur != guard {
                if let Some(d) = self.digram_at(cur) {
                    *hist.entry(d).or_insert(0) += 1;
                }
                cur = self.next(cur);
            }
        }
        hist
    }

    /// Returns the reference count of every live non-root rule.
    pub fn non_root_refcounts(&self) -> Vec<u32> {
        self.rules
            .iter()
            .enumerate()
            .filter(|(i, s)| *i != 0 && s.alive)
            .map(|(_, s)| s.refcount)
            .collect()
    }
}

/// Runs Sequitur over a complete token stream and extracts the grammar.
pub fn build_grammar(tokens: &[u32], vocab_size: u32) -> Grammar {
    let mut s = Sequitur::with_capacity(tokens.len());
    s.push_all(tokens);
    s.into_grammar(vocab_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(tokens: &[u32]) -> Grammar {
        let vocab = tokens.iter().copied().max().map_or(1, |m| m + 1);
        let g = build_grammar(tokens, vocab);
        let expanded = g.expand_root_tokens();
        let expected: Vec<Symbol> = tokens.iter().map(|&t| Symbol::Word(t)).collect();
        assert_eq!(expanded, expected, "grammar must expand back to the input");
        g
    }

    #[test]
    fn empty_input() {
        let g = build_grammar(&[], 0);
        assert_eq!(g.num_rules(), 1);
        assert!(g.rule(0).is_empty());
    }

    #[test]
    fn single_token() {
        let g = roundtrip(&[7]);
        assert_eq!(g.num_rules(), 1);
    }

    #[test]
    fn paper_example_structure() {
        // fileA: w1 w2 w3 w1 w2 w4 w1 w2 w3 w1 w2 w4 (as in Figure 1, one file)
        let tokens = [1, 2, 3, 1, 2, 4, 1, 2, 3, 1, 2, 4];
        let g = roundtrip(&tokens);
        // Sequitur must find the repeated structure: at least one shared rule.
        assert!(g.num_rules() >= 2, "repetition should create rules");
    }

    #[test]
    fn repeated_pair_creates_rule() {
        let g = roundtrip(&[1, 2, 9, 1, 2]);
        assert_eq!(g.num_rules(), 2);
        assert_eq!(g.rule(1).len(), 2);
    }

    #[test]
    fn run_of_identical_tokens_roundtrips() {
        roundtrip(&[5, 5, 5, 5, 5, 5, 5, 5, 5]);
    }

    #[test]
    fn nested_repetition() {
        // abab abab -> hierarchy of rules
        let g = roundtrip(&[1, 2, 1, 2, 1, 2, 1, 2]);
        assert!(g.num_rules() >= 2);
    }

    #[test]
    fn alternating_long_sequence_roundtrips() {
        let tokens: Vec<u32> = (0..200).map(|i| (i % 2) as u32).collect();
        roundtrip(&tokens);
    }

    #[test]
    fn digram_uniqueness_at_rest() {
        let tokens = [1, 2, 3, 4, 1, 2, 3, 4, 5, 6, 1, 2, 5, 6, 3, 4];
        let mut s = Sequitur::new();
        s.push_all(&tokens);
        let hist = s.digram_occurrence_histogram();
        for (d, count) in hist {
            assert!(
                count <= 1,
                "digram {d:?} appears {count} times; uniqueness violated"
            );
        }
    }

    #[test]
    fn rule_utility_at_rest() {
        let tokens = [1, 2, 3, 1, 2, 3, 4, 4, 1, 2, 3, 9, 9, 1, 2];
        let mut s = Sequitur::new();
        s.push_all(&tokens);
        for rc in s.non_root_refcounts() {
            assert!(rc >= 2, "non-root rule with refcount {rc} violates rule utility");
        }
    }

    #[test]
    fn splitters_are_extracted() {
        // vocab = 3; token 3 and 4 are splitters 0 and 1.
        let tokens = [0, 1, 2, 3, 0, 1, 2, 4, 0, 1];
        let g = build_grammar(&tokens, 3);
        let flat = g.expand_root_tokens();
        assert!(flat.contains(&Symbol::Splitter(0)));
        assert!(flat.contains(&Symbol::Splitter(1)));
        assert_eq!(flat.len(), tokens.len());
    }

    #[test]
    fn compresses_redundant_input() {
        // Highly repetitive input must shrink considerably.
        let block: Vec<u32> = (0..32).collect();
        let mut tokens = Vec::new();
        for _ in 0..64 {
            tokens.extend_from_slice(&block);
        }
        let g = build_grammar(&tokens, 32);
        let total = g.total_elements();
        assert!(
            total < tokens.len() / 4,
            "expected at least 4x element reduction, got {total} elements for {} tokens",
            tokens.len()
        );
        let expanded = g.expand_root_tokens();
        assert_eq!(expanded.len(), tokens.len());
    }

    #[test]
    fn tokens_pushed_counter() {
        let mut s = Sequitur::new();
        s.push_all(&[1, 2, 3]);
        assert_eq!(s.tokens_pushed(), 3);
    }
}
