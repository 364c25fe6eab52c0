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
//!
//! A node's symbol is one `u32` in the [`Symbol::encode`] form: words and
//! splitters as they will appear in the grammar, rule references carrying
//! the internal rule slot (renumbered by [`Sequitur::into_grammar`]), and
//! guards carrying the unused tag `0b11` over their rule's slot.  A digram is
//! the two symbols packed into one `u64` key.

use crate::csr::Csr;
use crate::digram::DigramIndex;
use crate::grammar::Grammar;
use crate::symbol::{Symbol, WordId, KIND_RULE, MAX_PAYLOAD, PAYLOAD_BITS};

const NIL: u32 = u32::MAX;

/// Tag bits of a guard node: the tag no [`Symbol::encode`] output carries,
/// so every symbol at or above it is a guard.
const GUARD: u32 = 0b11 << PAYLOAD_BITS;

/// Digrams the index has room for before its first growth.
const INITIAL_DIGRAMS: usize = 1024;

/// One arena node: 12 bytes.
#[derive(Debug, Clone, Copy)]
struct Node {
    sym: u32,
    prev: u32,
    next: u32,
}

#[derive(Debug, Clone, Copy)]
struct RuleSlot {
    guard: u32,
    refcount: u32,
    alive: bool,
}

/// The rule slot an encoded node symbol references, if it is a rule.
#[inline]
fn rule_of(sym: u32) -> Option<u32> {
    match Symbol::encoded_parts(sym) {
        (KIND_RULE, slot) => Some(slot),
        _ => None,
    }
}

/// Incremental Sequitur grammar builder over words and file splitters.
pub struct Sequitur {
    nodes: Vec<Node>,
    free_nodes: Vec<u32>,
    rules: Vec<RuleSlot>,
    digrams: DigramIndex,
}

impl Default for Sequitur {
    fn default() -> Self {
        Self::new()
    }
}

impl Sequitur {
    /// Creates a builder containing only the empty root rule.
    pub fn new() -> Self {
        Self::with_capacity(1024)
    }

    /// Creates a builder with node capacity pre-sized for `n` input symbols.
    /// The digram index starts small and grows with the live digrams.
    pub fn with_capacity(n: usize) -> Self {
        let mut s = Self {
            nodes: Vec::with_capacity(n + 16),
            free_nodes: Vec::new(),
            rules: Vec::with_capacity(n / 8 + 4),
            digrams: DigramIndex::with_capacity(INITIAL_DIGRAMS),
        };
        s.new_rule(); // rule 0: root
        s
    }

    // ------------------------------------------------------------------
    // arena helpers
    // ------------------------------------------------------------------

    fn new_node(&mut self, sym: u32) -> u32 {
        let node = Node {
            sym,
            prev: NIL,
            next: NIL,
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
        assert!(
            id <= MAX_PAYLOAD,
            "rule slot count exceeds the 30-bit symbol payload"
        );
        let guard = self.new_node(GUARD | id);
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
    fn sym(&self, n: u32) -> u32 {
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
        self.sym(n) >= GUARD
    }

    /// The packed digram starting at `n`, or `None` if it would span a guard.
    #[inline]
    fn digram_at(&self, n: u32) -> Option<u64> {
        let a = self.sym(n);
        if a >= GUARD {
            return None;
        }
        let m = self.next(n);
        if m == NIL {
            return None;
        }
        let b = self.sym(m);
        if b >= GUARD {
            return None;
        }
        Some((a as u64) << 32 | b as u64)
    }

    /// Removes the digram-index record starting at `n` (if it points at `n`).
    #[inline]
    fn unindex(&mut self, n: u32) {
        if let Some(d) = self.digram_at(n) {
            self.digrams.remove_if_at(d, n);
        }
    }

    /// Links `right` directly after `left`, first un-registering the digram
    /// that used to start at `left`.
    fn link(&mut self, left: u32, right: u32) {
        if self.nodes[left as usize].next != NIL {
            self.unindex(left);
        }
        self.splice(left, right);
    }

    /// Sets `left.next = right` and `right.prev = left`, touching no index
    /// record: only for a `left` whose digram is already un-registered.
    #[inline]
    fn splice(&mut self, left: u32, right: u32) {
        self.nodes[left as usize].next = right;
        self.nodes[right as usize].prev = left;
    }

    // ------------------------------------------------------------------
    // main algorithm
    // ------------------------------------------------------------------

    /// Appends one word or splitter to the root rule, restoring both
    /// Sequitur invariants.
    ///
    /// # Panics
    /// Panics on a rule reference, or on a payload above
    /// [`MAX_PAYLOAD`].
    pub fn push(&mut self, symbol: Symbol) {
        assert!(!symbol.is_rule(), "only words and splitters are pushed");
        let node = self.new_node(symbol.encode());
        let guard = self.rules[0].guard;
        let last = self.prev(guard);
        self.link(node, guard);
        self.link(last, node);
        if !self.is_guard(last) {
            self.check(last);
        }
    }

    /// Appends every word of `words`.
    pub fn push_words(&mut self, words: &[WordId]) {
        for &w in words {
            self.push(Symbol::Word(w));
        }
    }

    /// Checks the digram starting at `n`; returns `true` if a substitution
    /// happened (meaning `n` may no longer be in the grammar).
    fn check(&mut self, n: u32) -> bool {
        let Some(d) = self.digram_at(n) else {
            return false;
        };
        match self.digrams.get_or_insert(d, n) {
            None => false,
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
    fn handle_match(&mut self, n: u32, m: u32, d: u64) {
        let m_prev = self.prev(m);
        let m_next = self.next(m);
        let r = if self.is_guard(m_prev) && self.is_guard(self.next(m_next)) {
            // `m` is the complete body of a rule: reuse that rule (a guard's
            // payload is its rule slot).
            let r = self.sym(m_prev) & MAX_PAYLOAD;
            self.substitute(n, r);
            r
        } else {
            // Create a new rule whose body is the digram, then replace
            // both occurrences with it.
            let r = self.new_rule();
            let guard = self.rules[r as usize].guard;
            let (first, second) = ((d >> 32) as u32, d as u32);
            let a = self.new_node(first);
            let b = self.new_node(second);
            self.link(guard, a);
            self.link(a, b);
            self.link(b, guard);
            for sym in [first, second] {
                if let Some(q) = rule_of(sym) {
                    self.rules[q as usize].refcount += 1;
                }
            }
            self.substitute(m, r);
            self.substitute(n, r);
            self.digrams.insert(d, a);
            r
        };

        // Rule utility: if either body symbol of `r` is a rule now referenced
        // only once, inline it.  A nested match may already have inlined `r`
        // itself into the rule that took both of its uses; its guard is then
        // freed, and its body lives on in that rule.
        if !self.rules[r as usize].alive {
            return;
        }
        let guard = self.rules[r as usize].guard;
        let first = self.next(guard);
        let second = if first != guard {
            self.next(first)
        } else {
            guard
        };
        for s in [first, second] {
            // A guard's tag is not a rule's, so `s == guard` is skipped.
            if let Some(q) = rule_of(self.sym(s)) {
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
            if let Some(q) = rule_of(self.sym(id)) {
                self.rules[q as usize].refcount -= 1;
            }
        }

        // Reuse node `n` as the non-terminal reference; drop node `second`.
        // `n`'s digram is already un-registered, so no `link` is needed.
        self.nodes[n as usize].sym = Symbol::Rule(r).encode();
        self.rules[r as usize].refcount += 1;
        self.splice(n, after);
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
            self.digrams.get_or_insert(d, last);
        }
    }

    // ------------------------------------------------------------------
    // extraction
    // ------------------------------------------------------------------

    /// Extracts the grammar.  Live internal rules are renumbered densely
    /// with the root as rule 0; words and splitters are taken as pushed.
    pub fn into_grammar(self) -> Grammar {
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
                let sym = match rule_of(node.sym) {
                    Some(r) => {
                        debug_assert!(self.rules[r as usize].alive, "reference to dead rule");
                        Symbol::Rule(remap[r as usize])
                    }
                    None => Symbol::decode(node.sym),
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

    /// Counts how many times each packed digram appears across all live
    /// rules.  Under digram uniqueness every non-overlapping digram appears
    /// at most twice transiently and at most once at rest.
    pub fn digram_occurrence_histogram(&self) -> std::collections::HashMap<u64, usize> {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn build_grammar(words: &[WordId]) -> Grammar {
        let mut s = Sequitur::with_capacity(words.len());
        s.push_words(words);
        s.into_grammar()
    }

    fn roundtrip(tokens: &[u32]) -> Grammar {
        let g = build_grammar(tokens);
        let expanded = g.expand_root_tokens();
        let expected: Vec<Symbol> = tokens.iter().map(|&t| Symbol::Word(t)).collect();
        assert_eq!(expanded, expected, "grammar must expand back to the input");
        g
    }

    #[test]
    fn empty_input() {
        let g = build_grammar(&[]);
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
        s.push_words(&tokens);
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
        s.push_words(&tokens);
        for rc in s.non_root_refcounts() {
            assert!(
                rc >= 2,
                "non-root rule with refcount {rc} violates rule utility"
            );
        }
    }

    #[test]
    fn splitters_are_extracted() {
        let symbols = [
            Symbol::Word(0),
            Symbol::Word(1),
            Symbol::Word(2),
            Symbol::Splitter(0),
            Symbol::Word(0),
            Symbol::Word(1),
            Symbol::Word(2),
            Symbol::Splitter(1),
            Symbol::Word(0),
            Symbol::Word(1),
        ];
        let mut s = Sequitur::new();
        for sym in symbols {
            s.push(sym);
        }
        assert_eq!(s.into_grammar().expand_root_tokens(), symbols);
    }

    #[test]
    fn compresses_redundant_input() {
        // Highly repetitive input must shrink considerably.
        let block: Vec<u32> = (0..32).collect();
        let mut tokens = Vec::new();
        for _ in 0..64 {
            tokens.extend_from_slice(&block);
        }
        let g = build_grammar(&tokens);
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
    fn a_rule_inlined_by_a_nested_match_is_not_revisited() {
        // Replacing the second `0 R1` with the new rule R3 matches `0 R3`,
        // whose new rule R4 takes both uses of R3 and inlines it; R3's
        // match must then stop instead of reading R3's freed guard.
        roundtrip(&[1, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "only words and splitters")]
    fn pushing_a_rule_reference_panics() {
        Sequitur::new().push(Symbol::Rule(1));
    }
}
