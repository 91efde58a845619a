//! # cats-embedding — word2vec substrate
//!
//! The paper's semantic analyzer trains a word2vec model on ~70M Taobao
//! comments and uses it to *expand* a handful of seed words into the
//! positive set *P* and negative set *N* (~200 words each, Table I),
//! including homograph variants human experts would miss. This crate
//! implements that machinery from scratch:
//!
//! * [`word2vec`] — skip-gram with negative sampling (SGNS): unigram^0.75
//!   negative-sampling table, frequency subsampling, linear learning-rate
//!   decay, deterministic under a seed.
//! * [`expand`] — iterative k-nearest-neighbour expansion from seed words
//!   (§II-A2: "search the k-nearest neighbors of the seeds, followed by
//!   iteratively search the k-nearest neighbors of these neighbors").
//! * [`simd`] — branch-lite 8-wide f32 kernels (dot, squared norm, fused
//!   dot+norms) behind the SGNS inner product and cosine similarity, with
//!   a fixed lane-fold order for deterministic reductions.
//!
//! No external ML dependency: the trainer is a few hundred lines of dense
//! `Vec<f32>` arithmetic.

pub mod expand;
pub mod simd;
pub mod word2vec;

pub use expand::{expand_lexicon, ExpansionConfig};
pub use word2vec::{Embedding, Word2VecConfig, Word2VecTrainer};
