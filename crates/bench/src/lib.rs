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
//! [`percentile`] summarises the latency samples the serving and
//! streaming benches collect. The model files a bench writes go into a
//! `cats_io::ScratchDir`, removed even when the bench fails.
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

/// Exact percentile `q` in `[0, 1]` of an ascending sample, by nearest
/// rank; 0.0 for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentile_is_the_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        let sample: Vec<f64> = (1..=10).map(f64::from).collect();
        for (q, want) in
            [(0.0, 1.0), (0.1, 1.0), (0.5, 5.0), (0.55, 6.0), (0.95, 10.0), (1.0, 10.0)]
        {
            assert_eq!(percentile(&sample, q), want, "q={q}");
        }
    }
}
