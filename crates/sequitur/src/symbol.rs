//! Symbol types shared by the grammar, the DAG, and the GPU layouts.
//!
//! TADOC's dictionary conversion maps every distinct word to an integer, every
//! rule to an integer, and every file-boundary splitter to an integer
//! (Figure 1 (b) of the paper).  Inside this reproduction we keep the three
//! kinds distinct in the type system ([`Symbol`]) and provide a compact 32-bit
//! encoding ([`Symbol::encode`]) for the flattened device arrays used by the
//! GPU layouts.

/// Identifier of a distinct word in the dictionary.
pub type WordId = u32;
/// Identifier of a grammar rule. Rule 0 is always the root.
pub type RuleId = u32;

/// Number of bits reserved for the payload of an encoded symbol.
pub const PAYLOAD_BITS: u32 = 30;
/// Maximum payload value an encoded symbol can carry.
pub const MAX_PAYLOAD: u32 = (1 << PAYLOAD_BITS) - 1;

/// Symbol kinds as [`Symbol::parts`] reports them; also the 2-bit tag of
/// the encoded form.  Tag `0b11` is unused.
pub(crate) const KIND_WORD: u32 = 0b00;
pub(crate) const KIND_RULE: u32 = 0b01;
pub(crate) const KIND_SPLITTER: u32 = 0b10;

const TAG_WORD: u32 = KIND_WORD << PAYLOAD_BITS;
const TAG_RULE: u32 = KIND_RULE << PAYLOAD_BITS;
const TAG_SPLIT: u32 = KIND_SPLITTER << PAYLOAD_BITS;
const TAG_MASK: u32 = 0b11 << PAYLOAD_BITS;

/// One element of a grammar rule body.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Symbol {
    /// A terminal word, identified by its dictionary id.
    Word(WordId),
    /// A non-terminal reference to another rule.
    Rule(RuleId),
    /// A unique file-boundary splitter. `Splitter(i)` terminates file `i`.
    Splitter(u32),
}

impl Symbol {
    /// Returns `true` if the symbol is a non-terminal rule reference.
    #[inline]
    pub fn is_rule(self) -> bool {
        matches!(self, Symbol::Rule(_))
    }

    /// Returns `true` if the symbol is a file splitter.
    #[inline]
    pub fn is_splitter(self) -> bool {
        matches!(self, Symbol::Splitter(_))
    }

    /// The word id, if any.
    #[inline]
    pub fn as_word(self) -> Option<WordId> {
        match self {
            Symbol::Word(w) => Some(w),
            _ => None,
        }
    }

    /// Encodes the symbol into a tagged 32-bit integer suitable for flattened
    /// device arrays (2 tag bits + 30 payload bits).
    ///
    /// # Panics
    /// Panics if the payload exceeds [`MAX_PAYLOAD`].
    #[inline]
    pub fn encode(self) -> u32 {
        match self {
            Symbol::Word(w) => {
                assert!(w <= MAX_PAYLOAD, "word id {w} exceeds encodable payload");
                TAG_WORD | w
            }
            Symbol::Rule(r) => {
                assert!(r <= MAX_PAYLOAD, "rule id {r} exceeds encodable payload");
                TAG_RULE | r
            }
            Symbol::Splitter(s) => {
                assert!(
                    s <= MAX_PAYLOAD,
                    "splitter id {s} exceeds encodable payload"
                );
                TAG_SPLIT | s
            }
        }
    }

    /// The symbol's kind (`KIND_*`) and payload.
    #[inline]
    pub(crate) fn parts(self) -> (u32, u32) {
        match self {
            Symbol::Word(w) => (KIND_WORD, w),
            Symbol::Rule(r) => (KIND_RULE, r),
            Symbol::Splitter(s) => (KIND_SPLITTER, s),
        }
    }

    /// The kind and payload an encoded symbol carries, found without
    /// branching on the kind (an unused tag yields kind `0b11`).
    #[inline]
    pub(crate) fn encoded_parts(raw: u32) -> (u32, u32) {
        (raw >> PAYLOAD_BITS, raw & MAX_PAYLOAD)
    }

    /// Decodes a tagged 32-bit integer produced by [`Symbol::encode`].
    ///
    /// # Panics
    /// Panics on the unused tag `0b11`; decode untrusted input with
    /// [`Symbol::try_decode`].
    #[inline]
    pub fn decode(raw: u32) -> Symbol {
        Symbol::try_decode(raw).unwrap_or_else(|| panic!("invalid symbol tag in 0x{raw:08x}"))
    }

    /// Decodes a tagged 32-bit integer, or `None` if it carries the unused
    /// tag `0b11` (no [`Symbol::encode`] output does).
    #[inline]
    pub fn try_decode(raw: u32) -> Option<Symbol> {
        let payload = raw & MAX_PAYLOAD;
        match raw & TAG_MASK {
            TAG_WORD => Some(Symbol::Word(payload)),
            TAG_RULE => Some(Symbol::Rule(payload)),
            TAG_SPLIT => Some(Symbol::Splitter(payload)),
            _ => None,
        }
    }
}

impl std::fmt::Display for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Symbol::Word(w) => write!(f, "w{w}"),
            Symbol::Rule(r) => write!(f, "R{r}"),
            Symbol::Splitter(s) => write!(f, "spt{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for sym in [
            Symbol::Word(0),
            Symbol::Word(42),
            Symbol::Word(MAX_PAYLOAD),
            Symbol::Rule(0),
            Symbol::Rule(7_000_000),
            Symbol::Splitter(0),
            Symbol::Splitter(134_630),
        ] {
            assert_eq!(Symbol::decode(sym.encode()), sym);
        }
    }

    #[test]
    fn encoding_is_injective_across_kinds() {
        let a = Symbol::Word(5).encode();
        let b = Symbol::Rule(5).encode();
        let c = Symbol::Splitter(5).encode();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn kind_predicates() {
        assert!(!Symbol::Word(1).is_rule());
        assert!(Symbol::Rule(1).is_rule());
        assert!(Symbol::Splitter(1).is_splitter());
        assert_eq!(Symbol::Word(3).as_word(), Some(3));
    }

    #[test]
    #[should_panic]
    fn oversized_payload_panics() {
        let _ = Symbol::Word(MAX_PAYLOAD + 1).encode();
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Symbol::Word(1).to_string(), "w1");
        assert_eq!(Symbol::Rule(2).to_string(), "R2");
        assert_eq!(Symbol::Splitter(1).to_string(), "spt1");
    }
}
