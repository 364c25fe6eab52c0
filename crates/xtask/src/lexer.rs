//! A minimal Rust lexer: just enough token structure for the lint rules.
//!
//! The container is offline, so the analyzer cannot lean on `syn` or
//! `rustc`'s own lexer; this module implements the subset the rules need
//! from scratch.  What matters for linting is *context*: the word `unsafe`
//! inside a string literal, a raw string, a (possibly nested) block comment,
//! or a doc comment is not an unsafe block, and a `// SAFETY:` rationale is
//! only a rationale when it really is a comment.  The lexer therefore
//! classifies, with exact spans and line numbers:
//!
//! * line comments (`//`, `///`, `//!`) and nested block comments
//!   (`/* /* */ */`, `/** */`, `/*! */`),
//! * string, raw-string (`r"…"`, `r#"…"#`, any hash depth), byte-string and
//!   raw-byte-string literals, with escape handling,
//! * char literals vs. lifetimes (`'a'` vs. `'static`),
//! * identifiers / keywords (including raw identifiers `r#type`),
//! * numbers and single-character punctuation.
//!
//! Everything it does not model (generics vs. shifts, float literals,
//! suffixes) deliberately degrades into adjacent `Number`/`Punct` tokens —
//! the rules only care about identifiers, punctuation adjacency, and comment
//! placement.

/// What a token is; the lint rules mostly branch on "identifier",
/// "punctuation", and "comment".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw identifiers `r#ident`).
    Ident,
    /// Single punctuation character (the character is in the token text).
    Punct,
    /// `// …` comment, including doc comments `/// …` and `//! …`.
    LineComment,
    /// `/* … */` comment (nesting handled), including `/** … */`.
    BlockComment,
    /// String-ish literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
    Str,
    /// Char or byte-char literal: `'x'`, `b'\n'`.
    Char,
    /// Lifetime: `'a`, `'static`, `'_`.
    Lifetime,
    /// Number literal (integer-ish; floats split into parts, which is fine).
    Number,
}

/// One token: kind + byte span + 1-based line of its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line number of the first byte.
    pub line: usize,
}

impl Token {
    /// The token's text within `src`.
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        &src[self.start..self.end]
    }

    /// Whether the token is a (line or block) comment.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

/// Tokenizes `src`.  Unterminated constructs (string, block comment) consume
/// the rest of the input as a single token rather than erroring: lint input
/// is expected to be real, compiling source, so recovery precision does not
/// matter — not panicking does.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer::new(src).run()
}

/// Byte ranges of the items of `src` gated on `#[cfg(test)]` (or on any
/// `#[cfg(…)]` naming `test` but not `not`, e.g.
/// `#[cfg(all(test, feature = "…"))]`), given its tokens: each from the
/// attribute's `#` to the item's closing `}` or `;`.  Items nested in a
/// gated item are inside its range.
pub fn cfg_test_items(src: &str, toks: &[Token]) -> Vec<(usize, usize)> {
    let code: Vec<&Token> = toks.iter().filter(|t| !t.is_comment()).collect();
    let text = |i: usize| code.get(i).map_or("", |t| t.text(src));
    // Code index just past the delimiter group opening at `open`.
    let skip_group = |open: usize| {
        let mut depth = 0usize;
        for j in open..code.len() {
            match text(j) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
        }
        code.len()
    };
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if (text(i), text(i + 1), text(i + 2)) != ("#", "[", "cfg") {
            i += 1;
            continue;
        }
        let attr_end = skip_group(i + 1);
        let names = |word| (i + 3..attr_end).any(|j| text(j) == word);
        if !names("test") || names("not") {
            i = attr_end;
            continue;
        }
        // Skipping bracketed groups (further attributes among them), the
        // item runs to its first `;` or to the end of its first `{…}` body.
        let mut j = attr_end;
        while j < code.len() && !matches!(text(j), ";" | "{") {
            j = match text(j) {
                "(" | "[" => skip_group(j),
                _ => j + 1,
            };
        }
        if text(j) == "{" {
            j = skip_group(j) - 1;
        }
        let end = code.get(j).map_or(src.len(), |t| t.end);
        ranges.push((code[i].start, end));
        i = j + 1;
    }
    ranges
}

struct Lexer<'s> {
    bytes: &'s [u8],
    pos: usize,
    line: usize,
    out: Vec<Token>,
}

impl<'s> Lexer<'s> {
    fn new(src: &'s str) -> Self {
        Self {
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            out: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Advances one byte, maintaining the line counter.
    fn bump(&mut self) {
        if self.peek(0) == Some(b'\n') {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn push(&mut self, kind: TokenKind, start: usize, line: usize) {
        self.out.push(Token {
            kind,
            start,
            end: self.pos,
            line,
        });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(b) = self.peek(0) {
            let start = self.pos;
            let line = self.line;
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => self.bump(),
                b'/' if self.peek(1) == Some(b'/') => {
                    while self.peek(0).is_some_and(|c| c != b'\n') {
                        self.bump();
                    }
                    self.push(TokenKind::LineComment, start, line);
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    self.block_comment(start, line);
                }
                b'"' => {
                    self.string_body();
                    self.push(TokenKind::Str, start, line);
                }
                b'r' | b'b' => self.r_or_b_prefixed(start, line),
                b'\'' => self.quote(start, line),
                b'_' | b'a'..=b'z' | b'A'..=b'Z' => {
                    self.ident_body();
                    self.push(TokenKind::Ident, start, line);
                }
                b'0'..=b'9' => {
                    while self
                        .peek(0)
                        .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
                    {
                        self.bump();
                    }
                    self.push(TokenKind::Number, start, line);
                }
                c if c.is_ascii() => {
                    self.bump();
                    self.push(TokenKind::Punct, start, line);
                }
                _ => {
                    // Non-ASCII (only ever inside comments/strings in this
                    // workspace, but stay robust): treat a maximal non-ASCII
                    // run as one identifier-ish token.
                    while self.peek(0).is_some_and(|c| !c.is_ascii()) {
                        self.pos += 1; // non-ASCII bytes are never '\n'
                    }
                    self.push(TokenKind::Ident, start, line);
                }
            }
        }
        self.out
    }

    /// Nested block comment; `pos` is at the opening `/`.
    fn block_comment(&mut self, start: usize, line: usize) {
        let mut depth = 0usize;
        while let Some(b) = self.peek(0) {
            if b == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.bump();
                self.bump();
            } else if b == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                self.bump();
            }
        }
        self.push(TokenKind::BlockComment, start, line);
    }

    /// Body of a `"…"` string; `pos` is at the opening quote.
    fn string_body(&mut self) {
        self.bump(); // opening quote
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' => {
                    self.bump();
                    if self.peek(0).is_some() {
                        self.bump();
                    }
                }
                b'"' => {
                    self.bump();
                    return;
                }
                _ => self.bump(),
            }
        }
    }

    /// Raw string body starting at the `r` (hashes then quote); returns
    /// `false` if this is not actually a raw string (e.g. `r#ident`).
    fn raw_string_body(&mut self) -> bool {
        let mark = (self.pos, self.line);
        self.bump(); // the 'r'
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.bump();
        }
        if self.peek(0) != Some(b'"') {
            (self.pos, self.line) = mark;
            return false;
        }
        self.bump(); // opening quote
        'scan: while let Some(b) = self.peek(0) {
            self.bump();
            if b == b'"' {
                for ahead in 0..hashes {
                    if self.peek(ahead) != Some(b'#') {
                        continue 'scan;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                return true;
            }
        }
        true // unterminated: consumed the rest
    }

    /// A token starting with `r` or `b`: raw string, byte string, raw byte
    /// string, byte char, raw identifier, or a plain identifier.
    fn r_or_b_prefixed(&mut self, start: usize, line: usize) {
        let first = self.peek(0);
        let second = self.peek(1);
        match (first, second) {
            // r"…" or r#"…"# (or raw identifier r#ident, which
            // raw_string_body rejects and we re-lex as an ident).
            (Some(b'r'), Some(b'"') | Some(b'#')) => {
                if self.raw_string_body() {
                    self.push(TokenKind::Str, start, line);
                } else {
                    // r#ident — skip the hash, lex the identifier.
                    self.bump(); // r
                    self.bump(); // #
                    self.ident_body();
                    self.push(TokenKind::Ident, start, line);
                }
            }
            // b"…"
            (Some(b'b'), Some(b'"')) => {
                self.bump(); // b
                self.string_body();
                self.push(TokenKind::Str, start, line);
            }
            // br"…" / br#"…"#
            (Some(b'b'), Some(b'r')) if matches!(self.peek(2), Some(b'"') | Some(b'#')) => {
                self.bump(); // b
                if self.raw_string_body() {
                    self.push(TokenKind::Str, start, line);
                } else {
                    self.ident_body();
                    self.push(TokenKind::Ident, start, line);
                }
            }
            // b'…'
            (Some(b'b'), Some(b'\'')) => {
                self.bump(); // b
                self.char_literal();
                self.push(TokenKind::Char, start, line);
            }
            _ => {
                self.ident_body();
                self.push(TokenKind::Ident, start, line);
            }
        }
    }

    /// `'…` — either a char literal or a lifetime.
    fn quote(&mut self, start: usize, line: usize) {
        // Lifetime iff the quote is followed by an identifier that is NOT
        // immediately closed by another quote: `'a'` is a char, `'a` (then
        // `,`, `>`, space, …) is a lifetime; `'\n'` is always a char.
        let next = self.peek(1);
        let is_lifetime = match next {
            Some(c) if c == b'_' || c.is_ascii_alphabetic() => {
                // Find the end of the identifier run and check for a quote.
                let mut ahead = 2;
                while self
                    .peek(ahead)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
                {
                    ahead += 1;
                }
                self.peek(ahead) != Some(b'\'')
            }
            _ => false,
        };
        if is_lifetime {
            self.bump(); // '
            self.ident_body();
            self.push(TokenKind::Lifetime, start, line);
        } else {
            self.char_literal();
            self.push(TokenKind::Char, start, line);
        }
    }

    /// Char literal body; `pos` at the opening quote.
    fn char_literal(&mut self) {
        self.bump(); // opening '
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' => {
                    self.bump();
                    if self.peek(0).is_some() {
                        self.bump();
                    }
                }
                b'\'' => {
                    self.bump();
                    return;
                }
                // A char literal never spans a line; bail so a stray quote
                // cannot swallow the rest of the file.
                b'\n' => return,
                _ => self.bump(),
            }
        }
    }

    fn ident_body(&mut self) {
        while self
            .peek(0)
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
        {
            self.bump();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src)
            .into_iter()
            .map(|t| (t.kind, t.text(src)))
            .collect()
    }

    /// Identifier tokens only — what the unsafe-detection rules see.
    fn idents(src: &str) -> Vec<&str> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text(src))
            .collect()
    }

    #[test]
    fn unsafe_in_strings_and_comments_is_not_an_ident() {
        let src = r##"
            let a = "unsafe in a string";
            let b = r#"unsafe in a raw string"#;
            // unsafe in a line comment
            /* unsafe in /* a nested */ block comment */
            /// unsafe in a doc comment
            let c = b"unsafe bytes";
        "##;
        assert!(!idents(src).contains(&"unsafe"));
    }

    #[test]
    fn unsafe_in_code_is_an_ident() {
        let src = "fn f() { unsafe { g() } }";
        assert!(idents(src).contains(&"unsafe"));
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let src = "/* outer /* inner */ still outer */ unsafe";
        let toks = kinds(src);
        assert_eq!(toks[0].0, TokenKind::BlockComment);
        assert_eq!(toks[1], (TokenKind::Ident, "unsafe"));
    }

    #[test]
    fn raw_strings_with_hashes_and_escaped_quotes() {
        let src = r####"let x = r##"contains "# and \ freely"## ; unsafe"####;
        let toks = kinds(src);
        assert!(toks.contains(&(TokenKind::Str, r####"r##"contains "# and \ freely"##"####)));
        assert_eq!(toks.last().copied(), Some((TokenKind::Ident, "unsafe")));
    }

    #[test]
    fn escaped_quote_does_not_end_a_string() {
        let src = r#"let x = "tricky \" quote"; y"#;
        let toks = kinds(src);
        assert!(toks.contains(&(TokenKind::Str, r#""tricky \" quote""#)));
        assert_eq!(toks.last().copied(), Some((TokenKind::Ident, "y")));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; let u = '_'; }";
        let toks = kinds(src);
        assert!(toks.contains(&(TokenKind::Lifetime, "'a")));
        assert!(toks.contains(&(TokenKind::Char, "'x'")));
        assert!(toks.contains(&(TokenKind::Char, "'\\n'")));
        assert!(toks.contains(&(TokenKind::Char, "'_'")));
    }

    #[test]
    fn static_lifetime_followed_by_punctuation() {
        let src = "x: &'static str";
        assert!(kinds(src).contains(&(TokenKind::Lifetime, "'static")));
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let src = "let r#type = 1;";
        assert!(kinds(src).contains(&(TokenKind::Ident, "r#type")));
    }

    #[test]
    fn line_numbers_are_one_based_and_track_newlines() {
        let src = "a\nbb\n\nc";
        let toks = lex(src);
        let lines: Vec<usize> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn multiline_block_comment_advances_lines() {
        let src = "/* one\ntwo\nthree */ x";
        let toks = lex(src);
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 3);
        assert_eq!(toks[1].text(src), "x");
    }

    #[test]
    fn unterminated_string_consumes_rest_without_panicking() {
        let src = "let x = \"never closed\nunsafe";
        let toks = lex(src);
        assert_eq!(toks.last().map(|t| t.kind), Some(TokenKind::Str));
    }

    #[test]
    fn cfg_test_items_span_attribute_to_item_end() {
        let src = "#[cfg(test)] const X: [u8; 2] = [1, 2]; fn a() {}\n\
                   #[cfg(test)] // not the item\n#[inline] fn b() { if x { y } } fn c() {}\n\
                   #[cfg(feature = \"x\")] fn d() {}";
        let spans: Vec<&str> = cfg_test_items(src, &lex(src))
            .into_iter()
            .map(|(s, e)| &src[s..e])
            .collect();
        assert_eq!(
            spans,
            [
                "#[cfg(test)] const X: [u8; 2] = [1, 2];",
                "#[cfg(test)] // not the item\n#[inline] fn b() { if x { y } }",
            ]
        );
    }

    #[test]
    fn doc_comments_are_comments() {
        let src = "/// outer doc\n//! inner doc\n/** block doc */\nfn f() {}";
        let toks = kinds(src);
        assert_eq!(toks[0].0, TokenKind::LineComment);
        assert_eq!(toks[1].0, TokenKind::LineComment);
        assert_eq!(toks[2].0, TokenKind::BlockComment);
        assert_eq!(toks[3], (TokenKind::Ident, "fn"));
    }
}
