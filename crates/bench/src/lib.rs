//! # cats-bench — experiment harness
//!
//! One binary per table/figure of the paper (see `DESIGN.md` §3 for the
//! index). This library holds the shared machinery, one module each:
//!
//! - [`args`]: CLI parsing;
//! - [`setup`]: the standard "train CATS on a D0-shaped platform" setup
//!   and sentiment-corpus generation;
//! - [`render`]: ASCII table rendering.
//!
//! The serving benches start their servers and routers on port 0 with
//! `cats_serve::Server::start` and `cats_serve::Router::start`.
//!
//! Every experiment accepts `--scale <f64>` and `--seed <u64>`; the scale
//! applied to each dataset preset is recorded in `EXPERIMENTS.md`
//! alongside paper-vs-measured numbers.

pub mod args;
pub mod render;
pub mod setup;

pub use args::Args;
