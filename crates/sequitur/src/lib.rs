//! # sequitur
//!
//! Grammar compression substrate for the G-TADOC reproduction.
//!
//! This crate implements, from scratch:
//!
//! * the [Sequitur](https://en.wikipedia.org/wiki/Sequitur_algorithm) on-line
//!   grammar inference algorithm (digram uniqueness + rule utility), the core
//!   compression algorithm TADOC extends;
//! * dictionary conversion (word ⇄ integer encoding) and whitespace
//!   tokenization;
//! * file-boundary *splitter* symbols so multiple files share one grammar;
//! * the TADOC compressed archive ([`TadocArchive`]): dictionary + context-free
//!   grammar + file metadata, with a self-contained binary serialization;
//! * the rule DAG ([`dag::Dag`]) used by every analytics traversal.
//!
//! The produced [`Grammar`] is exactly the structure described in Figure 1 of
//! the paper: rule `R0` (the root) spells out the file sequence with splitter
//! symbols at file boundaries, and every other rule represents a repeated
//! fragment shared by the files.

#![forbid(unsafe_code)]

pub mod archive;
pub mod compress;
pub mod csr;
pub mod dag;
pub mod dictionary;
pub mod digram;
pub mod fxhash;
pub mod grammar;
pub mod sequitur_impl;
pub mod stats;
pub mod symbol;
pub mod tokenizer;

pub use archive::TadocArchive;
pub use compress::{compress_corpus, CompressOptions};
pub use csr::Csr;
pub use dag::Dag;
pub use dictionary::Dictionary;
pub use grammar::Grammar;
pub use stats::ArchiveStats;
pub use symbol::{RuleId, Symbol, WordId};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while compressing or decoding archives.
#[derive(Debug)]
pub enum Error {
    /// The binary archive is truncated or malformed.
    Corrupt(String),
    /// The grammar references a rule or word id that does not exist.
    InvalidReference(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Corrupt(msg) => write!(f, "corrupt archive: {msg}"),
            Error::InvalidReference(msg) => write!(f, "invalid reference: {msg}"),
        }
    }
}

impl std::error::Error for Error {}
