//! Branch-lite 8-wide f32 kernels for the embedding hot loops.
//!
//! The word2vec inner loops — the SGNS dot product and the cosine
//! similarity behind lexicon expansion — spend their time in
//! one-element-at-a-time f32 reductions that the compiler cannot
//! profitably vectorize because a single serial accumulator chains every
//! add. These kernels process slices in explicit 8-wide chunks with eight
//! independent accumulators, then combine them with a *fixed* pairwise
//! fold. That breaks the dependency chain (so the autovectorizer can keep
//! 256-bit lanes busy) while keeping the summation order a pure function
//! of the slice length — the same input always reduces in the same order,
//! preserving the crate's bit-identical determinism guarantees.
//!
//! Changing from one serial accumulator to eight changes *which* order
//! floats are added in, so results differ from a naive loop in the last
//! ulps — but deterministically so. All cross-thread reproducibility
//! tests compare runs that share these kernels, and every external
//! consumer of cosine similarity is tolerance-based.

/// Width of a chunk: eight f32 lanes (one AVX2 register).
pub const LANES: usize = 8;

/// Reduces eight lane accumulators with a fixed pairwise tree:
/// `(a0+a4)+(a2+a6)` + `(a1+a5)+(a3+a7)` — the order never depends on
/// data, only on lane position.
#[inline]
fn fold8(acc: [f32; LANES]) -> f32 {
    let b0 = acc[0] + acc[4];
    let b1 = acc[1] + acc[5];
    let b2 = acc[2] + acc[6];
    let b3 = acc[3] + acc[7];
    (b0 + b2) + (b1 + b3)
}

/// Dot product of two equal-length slices, 8-wide chunked.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: mismatched lengths");
    let (ca, cb) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let tail = ca.remainder().iter().zip(cb.remainder()).fold(0.0f32, |t, (x, y)| t + x * y);
    let mut acc = [0.0f32; LANES];
    for (x, y) in ca.zip(cb) {
        for ((s, x), y) in acc.iter_mut().zip(x).zip(y) {
            *s += x * y;
        }
    }
    fold8(acc) + tail
}

/// Squared norm `a·a`, added in the lane order of [`dot_norms`], so it
/// equals either squared norm that kernel returns for `a`, to the bit.
#[inline]
pub fn norm_sq(a: &[f32]) -> f32 {
    dot(a, a)
}

/// Fused dot product and squared norms: `(a·b, a·a, b·b)` in one pass.
/// This is the cosine-similarity kernel — one traversal instead of three.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot_norms(a: &[f32], b: &[f32]) -> (f32, f32, f32) {
    assert_eq!(a.len(), b.len(), "dot_norms: mismatched lengths");
    let (ca, cb) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let (mut td, mut ta, mut tb) = (0.0f32, 0.0f32, 0.0f32);
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        td += x * y;
        ta += x * x;
        tb += y * y;
    }
    let mut dot = [0.0f32; LANES];
    let mut na = [0.0f32; LANES];
    let mut nb = [0.0f32; LANES];
    for (x, y) in ca.zip(cb) {
        for l in 0..LANES {
            let (x, y) = (x[l], y[l]);
            dot[l] += x * y;
            na[l] += x * x;
            nb[l] += y * y;
        }
    }
    (fold8(dot) + td, fold8(na) + ta, fold8(nb) + tb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// `n` draws uniform in `[-1, 1)`.
    fn vec(rng: &mut StdRng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect()
    }

    fn reference_dot(a: &[f32], b: &[f32]) -> f64 {
        a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
    }

    #[test]
    fn dot_matches_reference_within_f32_resummation_error() {
        let mut rng = StdRng::seed_from_u64(7);
        // Cover: empty, sub-chunk, exact multiples of 8, ragged tails.
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 64, 100, 257] {
            let (a, b) = (vec(&mut rng, n), vec(&mut rng, n));
            let got = dot(&a, &b) as f64;
            let want = reference_dot(&a, &b);
            let tol = 1e-4 * (n.max(1) as f64);
            assert!((got - want).abs() < tol, "n={n}: {got} vs {want}");
        }
    }

    #[test]
    fn dot_is_deterministic_across_calls() {
        let mut rng = StdRng::seed_from_u64(11);
        let (a, b) = (vec(&mut rng, 123), vec(&mut rng, 123));
        let first = dot(&a, &b).to_bits();
        for _ in 0..10 {
            assert_eq!(dot(&a, &b).to_bits(), first);
        }
    }

    /// The kernels' reduction order written as a per-index scalar loop:
    /// index `i` of the full chunks adds into lane `i % LANES`, the rest
    /// into one serial tail.
    fn lane_order_dot(a: &[f32], b: &[f32]) -> f32 {
        let full = a.len() / LANES * LANES;
        let mut acc = [0.0f32; LANES];
        let mut tail = 0.0f32;
        for i in 0..a.len() {
            if i < full {
                acc[i % LANES] += a[i] * b[i];
            } else {
                tail += a[i] * b[i];
            }
        }
        fold8(acc) + tail
    }

    #[test]
    fn dot_and_dot_norms_match_the_lane_order_loop_bitwise() {
        // The fused kernel must reduce in exactly the same order as three
        // independent dots, and both in the order of the scalar loop.
        let mut rng = StdRng::seed_from_u64(13);
        for n in 0..=70usize {
            let (a, b) = (vec(&mut rng, n), vec(&mut rng, n));
            let (d, na, nb) = dot_norms(&a, &b);
            assert_eq!(dot(&a, &b).to_bits(), lane_order_dot(&a, &b).to_bits(), "n={n}");
            assert_eq!(d.to_bits(), lane_order_dot(&a, &b).to_bits(), "n={n}");
            assert_eq!(na.to_bits(), lane_order_dot(&a, &a).to_bits(), "n={n}");
            assert_eq!(nb.to_bits(), lane_order_dot(&b, &b).to_bits(), "n={n}");
            assert_eq!(norm_sq(&a).to_bits(), na.to_bits(), "n={n}");
            assert_eq!(norm_sq(&b).to_bits(), nb.to_bits(), "n={n}");
        }
    }

    #[test]
    fn fold_order_is_position_not_value_dependent() {
        // Two inputs with permuted values in the same positions reduce via
        // the same tree; swapping values across lanes may change the result
        // (different order), but the *same* input twice never does.
        let a: Vec<f32> = (0..16).map(|i| (i as f32) * 0.1).collect();
        let b = vec![1.0f32; 16];
        assert_eq!(dot(&a, &b).to_bits(), dot(&a, &b).to_bits());
    }

    #[test]
    #[should_panic(expected = "mismatched lengths")]
    fn mismatched_lengths_panic() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
