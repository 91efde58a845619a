//! # cats-text — text substrate for the CATS reproduction
//!
//! CATS (ICDE 2019) derives every detection feature from the *comments* of an
//! e-commerce item. This crate provides the text machinery those features are
//! built on:
//!
//! * [`Vocab`] — an interning vocabulary mapping words to dense `u32` ids,
//!   used by the word2vec trainer and the sentiment model.
//! * [`segment`] — word segmentation. The paper segments Chinese comments
//!   into word sets; the [`segment::Segmenter`] trait has two
//!   implementations: [`WhitespaceSegmenter`] for delimited text and
//!   [`DictSegmenter`] (bidirectional maximum matching) for
//!   delimiter-free, Chinese-style text.
//! * [`stats`] — per-comment statistics (token entropy, punctuation counts,
//!   unique-word ratio, lengths) behind the paper's structural features
//!   (Figs 2–5).
//! * [`ngram`] — 2-gram (bigram) iteration and the positive-bigram predicate
//!   defining the paper's set *G*.
//! * [`lexicon`] — the positive set *P* and negative set *N* (Table I) and
//!   counting helpers for the word-level features.
//! * [`corpus`] — tokenized comment containers shared by the embedding and
//!   sentiment crates.
//! * [`hash`] — the unkeyed word hasher of the comment kernel's read-only
//!   tables.
//!
//! Everything here is deterministic and allocation-conscious: hot paths take
//! `&[...]` slices and avoid intermediate `String`s.

pub mod corpus;
pub mod dictseg;
pub mod hash;
pub mod lexicon;
pub mod ngram;
pub mod segment;
pub mod stats;
pub mod token;

pub use corpus::Corpus;
pub use dictseg::DictSegmenter;
pub use lexicon::Lexicon;
pub use segment::{Segmenter, WhitespaceSegmenter};
pub use token::{TokenId, Vocab};
