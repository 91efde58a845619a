//! Skip-gram word2vec with negative sampling, from scratch.
//!
//! Implements the SGNS objective of Mikolov et al. (the paper's reference 10):
//! for each (center, context) pair inside a dynamic window, maximize
//! `log σ(v·u_ctx) + Σ_k log σ(−v·u_neg)` over `k` negatives drawn from the
//! unigram distribution raised to 0.75. Frequent words are subsampled with
//! the standard `1 − sqrt(t / f)` discard rule. Training is plain SGD with
//! linearly decaying learning rate, deterministic under a seed.
//!
//! # Schedules
//!
//! Two schedules, chosen by corpus size alone:
//!
//! - **Serial** — corpora of fewer than `DET_MIN_SENTENCES` sentences:
//!   the historical reference loop, one RNG stream across all epochs.
//! - **Sharded** — larger corpora: each epoch snapshots the weights,
//!   trains a *fixed* number of contiguous sentence shards
//!   independently (per-shard RNG seeded from `(seed, epoch, shard)`),
//!   then merges each shard's delta against the snapshot back into the
//!   shared weights in shard order behind the epoch barrier. The
//!   schedule is a pure function of corpus and seed, so results are
//!   identical at every thread count — including one;
//!   [`Word2VecConfig::parallelism`] only sets how many shards train at
//!   once.
//!
//! A checkpoint store never changes the vectors. A sharded run saves its
//! weights after every epoch; a serial run saves nothing, because its one
//! RNG stream spans all epochs, so a kill retrains it from epoch zero.
//!
//! Both run one SGNS step, `sgns_update`, on row slices of the weight
//! matrices, and draw negatives from the unigram table stored as runs
//! with a bucket index (`UnigramSampler`), so a draw searches one or two
//! runs, not all of them.
//!
//! The trained [`Embedding`] caches each row's squared norm, so its k-NN
//! queries ([`Embedding::nearest_to_vector`], what seed expansion calls
//! per frontier word) take one dot product per row.

use cats_io::io2::{Dec, Enc};
use cats_par::Parallelism;
use cats_text::{Corpus, TokenId, Vocab};
use rand::{rngs::StdRng, RngExt, SeedableRng};

#[cfg(test)]
mod oracle;

/// Hyperparameters of the trainer.
#[derive(Debug, Clone, Copy)]
pub struct Word2VecConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Maximum window radius (the effective radius is sampled uniformly in
    /// `1..=window` per center, as in the reference implementation).
    pub window: usize,
    /// Negative samples per (center, context) pair.
    pub negative: usize,
    /// Number of passes over the corpus.
    pub epochs: usize,
    /// Initial learning rate (decays linearly to 1e-4 of itself).
    pub initial_lr: f32,
    /// Subsampling threshold `t`; 0 disables subsampling.
    pub subsample: f64,
    /// Words with fewer occurrences are skipped entirely.
    pub min_count: u64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads of the sharded schedule (see the module docs). The
    /// trained vectors do not depend on it.
    pub parallelism: Parallelism,
}

impl Default for Word2VecConfig {
    fn default() -> Self {
        Self {
            dim: 48,
            window: 5,
            negative: 5,
            epochs: 3,
            initial_lr: 0.025,
            subsample: 1e-4,
            min_count: 3,
            seed: 1,
            parallelism: Parallelism::default(),
        }
    }
}

/// Shard count of the sharded schedule. Fixed — rather than derived from
/// the thread count — so the schedule (and therefore the trained vectors)
/// is identical however many workers execute it.
const DET_SHARDS: usize = 8;
/// Minimum corpus size (in sentences) before training shards. Below this
/// the exact historical serial schedule runs: sharding tiny corpora would
/// change results for no wall-clock win.
const DET_MIN_SENTENCES: usize = 4096;

/// Slots of the negative-sampling table (see `UnigramSampler`).
const UNIGRAM_TABLE_SIZE: usize = 1 << 20;
/// Domain bound of the precomputed sigmoid table.
const SIGMOID_BOUND: f32 = 6.0;
const SIGMOID_TABLE_SIZE: usize = 512;

/// A trained embedding: one input vector per vocabulary word.
#[derive(Debug, Clone)]
pub struct Embedding {
    dim: usize,
    vectors: Vec<f32>, // vocab_len × dim, row-major
    vocab_words: Vec<String>,
    trained: Vec<bool>, // false for words below min_count
    /// Squared norm of each row ([`crate::simd::norm_sq`]), computed once
    /// so a neighbour query reads each row for its dot product alone.
    norms_sq: Vec<f32>,
}

impl Embedding {
    fn new(dim: usize, vectors: Vec<f32>, vocab_words: Vec<String>, trained: Vec<bool>) -> Self {
        let norms_sq = vectors.chunks_exact(dim).map(crate::simd::norm_sq).collect();
        Self { dim, vectors, vocab_words, trained, norms_sq }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vocabulary rows (including untrained ones).
    pub fn len(&self) -> usize {
        self.vocab_words.len()
    }

    /// Whether the embedding has no rows.
    pub fn is_empty(&self) -> bool {
        self.vocab_words.is_empty()
    }

    /// The vector of `word`, if the word was in the training vocabulary
    /// *and* met `min_count`.
    pub fn vector(&self, word: &str) -> Option<&[f32]> {
        let idx = self.vocab_words.iter().position(|w| w == word)?;
        if !self.trained[idx] {
            return None;
        }
        Some(&self.vectors[idx * self.dim..(idx + 1) * self.dim])
    }

    /// Cosine similarity between two words, if both are trained.
    pub fn similarity(&self, a: &str, b: &str) -> Option<f32> {
        Some(cosine(self.vector(a)?, self.vector(b)?))
    }

    /// The `k` nearest trained words to `word` by cosine similarity,
    /// excluding `word` itself. Returns `(word, similarity)` pairs, most
    /// similar first. `None` if `word` is untrained/unknown.
    pub fn nearest(&self, word: &str, k: usize) -> Option<Vec<(&str, f32)>> {
        let v = self.vector(word)?;
        Some(self.nearest_to_vector(v, k, Some(word)))
    }

    /// The `k` nearest trained words to an arbitrary query vector, other
    /// than `exclude`: `(word, cosine similarity)` pairs, most similar
    /// first, ties in vocabulary order.
    ///
    /// Each similarity equals [`cosine`]`(query, row)` to the bit: the
    /// row's squared norm is cached and the query's is computed once, in
    /// the same lane order as the fused kernel, so each row costs one
    /// [`crate::simd::dot`]. The best `k` are kept by insertion — a row
    /// goes after every kept row at least as similar — which is the
    /// stable descending sort of all rows cut to `k`.
    pub fn nearest_to_vector(
        &self,
        query: &[f32],
        k: usize,
        exclude: Option<&str>,
    ) -> Vec<(&str, f32)> {
        let mut best: Vec<(&str, f32)> = Vec::with_capacity(k.min(self.len()) + 1);
        if k == 0 {
            return best;
        }
        let nq = crate::simd::norm_sq(query);
        let rows = self.vectors.chunks_exact(self.dim).zip(&self.norms_sq);
        for ((w, &trained), (row, &nr)) in self.vocab_words.iter().zip(&self.trained).zip(rows) {
            if !trained || Some(w.as_str()) == exclude {
                continue;
            }
            let sim = cosine_from(crate::simd::dot(query, row), nq, nr);
            let at = best.partition_point(|&(_, s)| s >= sim);
            if at < k {
                best.insert(at, (w.as_str(), sim));
                best.truncate(k);
            }
        }
        best
    }

    /// Solves the classic analogy query `a − b + c ≈ ?`: returns the `k`
    /// trained words nearest to the offset vector, excluding the three
    /// query words. `None` if any query word is untrained/unknown.
    pub fn analogy(&self, a: &str, b: &str, c: &str, k: usize) -> Option<Vec<(&str, f32)>> {
        let va = self.vector(a)?;
        let vb = self.vector(b)?;
        let vc = self.vector(c)?;
        let query: Vec<f32> = va.iter().zip(vb).zip(vc).map(|((&x, &y), &z)| x - y + z).collect();
        let hits = self
            .nearest_to_vector(&query, k + 3, None)
            .into_iter()
            .filter(|(w, _)| *w != a && *w != b && *w != c)
            .take(k)
            .collect();
        Some(hits)
    }

    /// Iterates `(word, trained)` pairs in vocabulary order.
    pub fn words(&self) -> impl Iterator<Item = (&str, bool)> {
        self.vocab_words.iter().zip(&self.trained).map(|(w, &t)| (w.as_str(), t))
    }
}

/// Cosine similarity of two equal-length vectors (0 when either is zero).
///
/// Computed with the fused 8-wide kernel ([`crate::simd::dot_norms`]):
/// one traversal yields dot product and both squared norms, with a fixed
/// lane-fold reduction order that depends only on the vector length.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let (dot, na, nb) = crate::simd::dot_norms(a, b);
    cosine_from(dot, na, nb)
}

/// Cosine from a dot product and the two squared norms.
#[inline]
fn cosine_from(dot: f32, na: f32, nb: f32) -> f32 {
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na.sqrt() * nb.sqrt())
}

/// The SGNS trainer.
pub struct Word2VecTrainer {
    config: Word2VecConfig,
}

impl Word2VecTrainer {
    /// Creates a trainer with `config`.
    pub fn new(config: Word2VecConfig) -> Self {
        assert!(config.dim > 0, "dim must be positive");
        assert!(config.window > 0, "window must be positive");
        Self { config }
    }

    /// Trains on `corpus` and returns the embedding.
    pub fn train(&self, corpus: &Corpus) -> Embedding {
        self.train_impl(corpus, None)
    }

    /// Trains on `corpus` with crash recovery, returning exactly what
    /// [`Word2VecTrainer::train`] returns. On the sharded schedule the
    /// weights are checkpointed into `store` under `stage` after every
    /// epoch; a rerun after a crash resumes from the last completed epoch
    /// instead of epoch zero, and a completed run clears the slot. A slot
    /// whose config or corpus fingerprint does not match is ignored. The
    /// serial schedule neither reads nor writes `store` (see the module
    /// docs).
    pub fn train_checkpointed(
        &self,
        corpus: &Corpus,
        store: &cats_io::CheckpointStore,
        stage: &str,
    ) -> Embedding {
        self.train_impl(corpus, Some((store, stage)))
    }

    fn train_impl(
        &self,
        corpus: &Corpus,
        ckpt: Option<(&cats_io::CheckpointStore, &str)>,
    ) -> Embedding {
        let _span = cats_obs::span!("cats.embedding.w2v.train", { corpus.len() });
        let cfg = self.config;
        let vocab = corpus.vocab();
        let n = vocab.len();
        if n == 0 {
            return Embedding::new(cfg.dim, Vec::new(), Vec::new(), Vec::new());
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let trained: Vec<bool> =
            (0..n).map(|i| vocab.count(TokenId(i as u32)) >= cfg.min_count).collect();

        // Input (syn0) and output (syn1neg) matrices. syn0 is initialized
        // uniformly in [-0.5, 0.5]/dim as in the reference implementation;
        // syn1neg starts at zero.
        let mut syn0: Vec<f32> =
            (0..n * cfg.dim).map(|_| (rng.random::<f32>() - 0.5) / cfg.dim as f32).collect();
        let mut syn1: Vec<f32> = vec![0.0; n * cfg.dim];

        let unigram = UnigramSampler::new(vocab, &trained);
        let sigmoid = build_sigmoid_table();
        let keep_prob = build_keep_probs(vocab, cfg.subsample);

        let ctx = TrainCtx {
            cfg,
            trained: &trained,
            keep_prob: &keep_prob,
            unigram: &unigram,
            sigmoid: &sigmoid,
            total_tokens: (corpus.token_count() * cfg.epochs).max(1) as f64,
        };
        if corpus.len() >= DET_MIN_SENTENCES {
            train_sharded(&ctx, corpus, &mut syn0, &mut syn1, ckpt);
        } else {
            train_serial(&ctx, corpus, &mut syn0, &mut syn1, &mut rng);
        }

        let vocab_words: Vec<String> =
            (0..n).map(|i| vocab.word(TokenId(i as u32)).unwrap_or_default().to_owned()).collect();
        Embedding::new(cfg.dim, syn0, vocab_words, trained)
    }
}

/// Read-only state shared by every training schedule.
struct TrainCtx<'a> {
    cfg: Word2VecConfig,
    trained: &'a [bool],
    keep_prob: &'a [f64],
    unigram: &'a UnigramSampler,
    sigmoid: &'a [f32],
    /// Denominator of the linear lr decay: tokens across all epochs.
    total_tokens: f64,
}

/// Per-worker scratch buffers, reused across sentences.
struct Scratch {
    kept: Vec<usize>,
    neg_buf: Vec<usize>,
    grad: Vec<f32>,
    /// Sum of `|label − σ(u·v)|` over trained pairs — a per-epoch
    /// training-progress signal surfaced through `cats-obs` (two float
    /// adds per pair; the gradient already computes the residual).
    residual: f64,
    /// Number of (center, context/negative) pairs trained.
    pairs: u64,
}

impl Scratch {
    fn new(cfg: &Word2VecConfig) -> Self {
        Self {
            kept: Vec::new(),
            neg_buf: Vec::with_capacity(cfg.negative),
            grad: vec![0.0f32; cfg.dim],
            residual: 0.0,
            pairs: 0,
        }
    }
}

/// Learning rate after `done` of `total` scheduled tokens (linear decay
/// with the reference implementation's 1e-4 floor). `done` counts *every*
/// token of each visited sentence, kept or not, exactly like the
/// historical serial loop did with its running `f64` counter.
fn lr_at(cfg: &Word2VecConfig, done: u64, total: f64) -> f32 {
    (cfg.initial_lr * (1.0 - (done as f64 / total) as f32)).max(cfg.initial_lr * 1e-4)
}

/// SplitMix64-style hash decorrelating per-shard RNG streams.
fn shard_seed(seed: u64, epoch: usize, shard: usize) -> u64 {
    cats_obs::mix64(
        seed.wrapping_add((epoch as u64).wrapping_mul(cats_obs::GOLDEN_GAMMA))
            .wrapping_add((shard as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)),
    )
}

/// Trains one sentence against the weight matrices. The RNG draw order
/// (subsample per token, window radius per center, negatives per pair)
/// matches the original serial loop exactly, so any schedule that feeds a
/// correctly positioned RNG and token count reproduces its results.
fn train_sentence(
    ctx: &TrainCtx<'_>,
    sentence: &[TokenId],
    syn0: &mut [f32],
    syn1: &mut [f32],
    lr: f32,
    rng: &mut StdRng,
    scratch: &mut Scratch,
) {
    let cfg = &ctx.cfg;
    // Subsample the sentence.
    scratch.kept.clear();
    for &tok in sentence {
        let i = tok.index();
        if !ctx.trained[i] {
            continue;
        }
        if ctx.keep_prob[i] < 1.0 && rng.random::<f64>() > ctx.keep_prob[i] {
            continue;
        }
        scratch.kept.push(i);
    }
    if scratch.kept.len() < 2 {
        return;
    }
    #[allow(clippy::needless_range_loop)] // index math is the clearer form here
    for pos in 0..scratch.kept.len() {
        let center = scratch.kept[pos];
        let radius = 1 + rng.random_range(0..cfg.window);
        let lo = pos.saturating_sub(radius);
        let hi = (pos + radius + 1).min(scratch.kept.len());
        for ctx_pos in lo..hi {
            if ctx_pos == pos {
                continue;
            }
            let context = scratch.kept[ctx_pos];
            // Draw negatives, rejecting the true context. A table that
            // holds only the context would reject every draw.
            let negatives = if ctx.unigram.holds_only(context) { 0 } else { cfg.negative };
            scratch.neg_buf.clear();
            while scratch.neg_buf.len() < negatives {
                let cand = ctx.unigram.draw(rng);
                if cand != context {
                    scratch.neg_buf.push(cand);
                }
            }
            let (residual, pairs) = sgns_update(
                syn0,
                syn1,
                cfg.dim,
                center,
                context,
                &scratch.neg_buf,
                lr,
                ctx.sigmoid,
                &mut scratch.grad,
            );
            scratch.residual += f64::from(residual);
            scratch.pairs += u64::from(pairs);
        }
    }
}

/// The historical serial schedule: one RNG stream drives subsampling,
/// windows and negatives across all epochs. Bit-identical to the
/// pre-parallel implementation.
fn train_serial(
    ctx: &TrainCtx<'_>,
    corpus: &Corpus,
    syn0: &mut [f32],
    syn1: &mut [f32],
    rng: &mut StdRng,
) {
    let cfg = ctx.cfg;
    let mut scratch = Scratch::new(&cfg);
    let mut processed: u64 = 0;
    for _epoch in 0..cfg.epochs {
        let epoch_span = cats_obs::span!("cats.embedding.w2v.epoch");
        let (res0, pairs0) = (scratch.residual, scratch.pairs);
        for sentence in corpus.sentences() {
            processed += sentence.len() as u64;
            let lr = lr_at(&cfg, processed, ctx.total_tokens);
            train_sentence(ctx, sentence, syn0, syn1, lr, rng, &mut scratch);
        }
        record_epoch(scratch.residual - res0, scratch.pairs - pairs0);
        drop(epoch_span);
    }
}

/// Publishes one epoch's pair count and mean absolute residual
/// (`mean |label − σ(u·v)|`, an L1 training-loss signal) to the registry.
fn record_epoch(residual: f64, pairs: u64) {
    cats_obs::counter("cats.embedding.w2v.pairs").add(pairs);
    if pairs > 0 {
        cats_obs::gauge("cats.embedding.w2v.epoch_mean_abs_err").set(residual / pairs as f64);
    }
}

/// A sharded run's end-of-epoch checkpoint slot: the run's
/// [`ckpt_fingerprint`], the epochs completed, then `syn0` and `syn1` as
/// IO2 `f32` arrays. The weights after epoch `e` are a pure function of
/// (corpus, config), so restoring them and continuing from epoch `e + 1`
/// reproduces an uninterrupted run bit for bit.
fn encode_checkpoint(fingerprint: u32, epochs_done: usize, syn0: &[f32], syn1: &[f32]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(fingerprint).u64(epochs_done as u64).f32s(syn0).f32s(syn1);
    e.into_bytes()
}

/// Decodes [`encode_checkpoint`], which must be consumed exactly.
fn decode_checkpoint(bytes: &[u8]) -> Result<(u32, usize, Vec<f32>, Vec<f32>), String> {
    let mut d = Dec::new(bytes);
    let fingerprint = d.u32()?;
    let epochs_done = usize::try_from(d.u64()?).map_err(|e| e.to_string())?;
    let (syn0, syn1) = (d.f32s()?, d.f32s()?);
    if d.remaining() != 0 {
        return Err(format!("{} trailing bytes after w2v checkpoint", d.remaining()));
    }
    Ok((fingerprint, epochs_done, syn0, syn1))
}

/// Fingerprint tying a checkpoint to one (config, corpus) pair. The
/// parallelism knob is deliberately excluded: the sharded schedule's
/// result does not depend on the thread count, so a resume may legally
/// use a different one.
fn ckpt_fingerprint(cfg: &Word2VecConfig, corpus: &Corpus) -> u32 {
    let desc = format!(
        "w2v dim={} window={} negative={} epochs={} lr={} subsample={} min_count={} seed={} \
         sentences={} tokens={}",
        cfg.dim,
        cfg.window,
        cfg.negative,
        cfg.epochs,
        cfg.initial_lr,
        cfg.subsample,
        cfg.min_count,
        cfg.seed,
        corpus.len(),
        corpus.token_count()
    );
    cats_io::crc32(desc.as_bytes())
}

/// Sharded schedule: per epoch, every shard trains a private
/// copy of the epoch snapshot over its contiguous sentence range, then the
/// shard deltas (`trained − snapshot`) merge back in fixed shard order
/// behind the barrier. A pure function of (corpus, config) — the thread
/// count only changes wall-clock time, never the vectors.
///
/// With `ckpt` set, the end-of-epoch weights are persisted after every
/// epoch and a valid checkpoint found at entry skips its completed
/// epochs; the slot is cleared once the final epoch lands.
fn train_sharded(
    ctx: &TrainCtx<'_>,
    corpus: &Corpus,
    syn0: &mut [f32],
    syn1: &mut [f32],
    ckpt: Option<(&cats_io::CheckpointStore, &str)>,
) {
    let cfg = ctx.cfg;
    let sents = corpus.sentences();
    let n_sent = sents.len();
    let epoch_tokens = corpus.token_count() as u64;
    let bounds: Vec<(usize, usize)> =
        (0..DET_SHARDS).map(|s| (s * n_sent / DET_SHARDS, (s + 1) * n_sent / DET_SHARDS)).collect();
    // Token offset of each shard, so per-shard lr decay picks up exactly
    // where a serial pass over the preceding shards would have left it.
    let mut tokens_before = vec![0u64; DET_SHARDS];
    let mut acc = 0u64;
    for (s, &(lo, hi)) in bounds.iter().enumerate() {
        tokens_before[s] = acc;
        acc += sents[lo..hi].iter().map(|t| t.len() as u64).sum::<u64>();
    }

    let fingerprint = ckpt.map(|_| ckpt_fingerprint(&cfg, corpus));
    let mut start_epoch = 0usize;
    if let (Some((store, stage)), Some(fp)) = (ckpt, fingerprint) {
        if let Some(bytes) = store.load(stage) {
            match decode_checkpoint(&bytes) {
                Ok((saved_fp, epochs_done, saved0, saved1))
                    if saved_fp == fp
                        && epochs_done <= cfg.epochs
                        && saved0.len() == syn0.len()
                        && saved1.len() == syn1.len() =>
                {
                    syn0.copy_from_slice(&saved0);
                    syn1.copy_from_slice(&saved1);
                    start_epoch = epochs_done;
                    cats_obs::counter("cats.embedding.w2v.resumed_epochs").add(start_epoch as u64);
                }
                _ => {
                    cats_obs::counter("cats.embedding.w2v.ckpt_rejected").inc();
                    eprintln!("cats-embedding: ignoring mismatched w2v checkpoint ({stage})");
                }
            }
        }
    }

    for epoch in start_epoch..cfg.epochs {
        let epoch_span = cats_obs::span!("cats.embedding.w2v.epoch");
        let snap0 = syn0.to_vec();
        let snap1 = syn1.to_vec();
        let (snap0_ref, snap1_ref) = (&snap0, &snap1);
        let (bounds_ref, tokens_before_ref) = (&bounds, &tokens_before);
        let shards: Vec<(Vec<f32>, Vec<f32>, f64, u64)> =
            cats_par::map_indexed(cfg.parallelism, DET_SHARDS, move |s| {
                let (lo, hi) = bounds_ref[s];
                let mut w0 = snap0_ref.clone();
                let mut w1 = snap1_ref.clone();
                let mut scratch = Scratch::new(&cfg);
                let mut rng = StdRng::seed_from_u64(shard_seed(cfg.seed, epoch, s));
                let mut processed = epoch as u64 * epoch_tokens + tokens_before_ref[s];
                for sentence in &sents[lo..hi] {
                    processed += sentence.len() as u64;
                    let lr = lr_at(&cfg, processed, ctx.total_tokens);
                    train_sentence(ctx, sentence, &mut w0, &mut w1, lr, &mut rng, &mut scratch);
                }
                (w0, w1, scratch.residual, scratch.pairs)
            });
        // Untouched rows contribute an exact 0.0 delta, so no bookkeeping
        // of which rows a shard updated is needed. Residuals fold in
        // fixed shard order, keeping the published gauge deterministic.
        let mut epoch_residual = 0.0f64;
        let mut epoch_pairs = 0u64;
        for (w0, w1, residual, pairs) in &shards {
            for ((dst, &sh), &sn) in syn0.iter_mut().zip(w0).zip(snap0.iter()) {
                *dst += sh - sn;
            }
            for ((dst, &sh), &sn) in syn1.iter_mut().zip(w1).zip(snap1.iter()) {
                *dst += sh - sn;
            }
            epoch_residual += residual;
            epoch_pairs += pairs;
        }
        record_epoch(epoch_residual, epoch_pairs);
        if let (Some((store, stage)), Some(fp)) = (ckpt, fingerprint) {
            // A failed save costs the resume point, not the training run;
            // the next epoch's save retries from scratch.
            if let Err(e) = store.save(stage, &encode_checkpoint(fp, epoch + 1, syn0, syn1)) {
                eprintln!("cats-embedding: w2v checkpoint save failed ({stage}): {e}");
            }
        }
        drop(epoch_span);
    }
    if let Some((store, stage)) = ckpt {
        store.clear(stage);
    }
}

/// One SGNS gradient step for (center, context, negatives) on row slices:
/// `v` is the center's `syn0` row, `u` each target's `syn1` row. The
/// center row takes its accumulated gradient once, after every target.
#[allow(clippy::too_many_arguments)]
fn sgns_update(
    syn0: &mut [f32],
    syn1: &mut [f32],
    dim: usize,
    center: usize,
    context: usize,
    negatives: &[usize],
    lr: f32,
    sigmoid: &[f32],
    grad: &mut [f32],
) -> (f32, u32) {
    grad.fill(0.0);
    let v = &mut syn0[center * dim..(center + 1) * dim];
    let mut residual = 0.0f32;
    // Positive pair (label 1) then negatives (label 0).
    for (&idx, label) in std::iter::once(&context)
        .chain(negatives)
        .zip(std::iter::once(1.0f32).chain(std::iter::repeat(0.0f32)))
    {
        let u = &mut syn1[idx * dim..(idx + 1) * dim];
        let pred = fast_sigmoid(crate::simd::dot(v, u), sigmoid);
        residual += (label - pred).abs();
        let g = (label - pred) * lr;
        for ((gd, ud), &vd) in grad.iter_mut().zip(u.iter_mut()).zip(v.iter()) {
            *gd += g * *ud;
            *ud += g * vd;
        }
    }
    for (vd, &gd) in v.iter_mut().zip(grad.iter()) {
        *vd += gd;
    }
    (residual, 1 + negatives.len() as u32)
}

/// The unigram^0.75 negative-sampling table of the reference
/// implementation, stored as runs. The table maps each of
/// `UNIGRAM_TABLE_SIZE` slots to a word and never decreases along the
/// slots, so it is one run per sampled word: run `r` covers the slots
/// below `ends[r]` not covered by run `r − 1`, and holds `words[r]`.
///
/// A bucket index finds a slot's run without searching them all:
/// `bucket_first[b]` is the run holding slot `b · BUCKET_SLOTS` (the last
/// slot for the final entry), so a slot of bucket `b` lies in one of the
/// runs `bucket_first[b] ..= bucket_first[b + 1]` — usually one or two.
/// Runs plus index take a few KB plus 16 KB instead of an 8 MB table, and
/// a draw reads the same word as the table.
struct UnigramSampler {
    ends: Vec<u32>,
    words: Vec<u32>,
    bucket_first: Vec<u32>,
}

/// log2 of the slots per bucket of `UnigramSampler`'s index.
const BUCKET_BITS: u32 = 8;
const BUCKET_SLOTS: usize = 1 << BUCKET_BITS;

impl UnigramSampler {
    /// Builds the runs over trained words with the table's cumulative
    /// walk, without materialising the table, then the bucket index.
    fn new(vocab: &Vocab, trained: &[bool]) -> Self {
        let count = |i: usize| vocab.count(TokenId(i as u32)) as f64;
        let mut weights: Vec<f64> =
            (0..vocab.len()).map(|i| if trained[i] { count(i).powf(0.75) } else { 0.0 }).collect();
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            // Degenerate corpus: sample uniformly.
            weights.iter_mut().for_each(|w| *w = 1.0);
        }
        let total: f64 = weights.iter().sum();
        let (mut ends, mut words) = (Vec::new(), Vec::new());
        let mut word = 0usize;
        let mut next_cum = weights[0] / total;
        for i in 0..UNIGRAM_TABLE_SIZE {
            // Slot `i` holds `slot_word`; the walk then finds slot i + 1's.
            let slot_word = word;
            let cum = (i + 1) as f64 / UNIGRAM_TABLE_SIZE as f64;
            while cum > next_cum && word + 1 < weights.len() {
                word += 1;
                next_cum += weights[word] / total;
            }
            if word != slot_word || i + 1 == UNIGRAM_TABLE_SIZE {
                ends.push((i + 1) as u32);
                words.push(slot_word as u32);
            }
        }
        let run_of = |slot: usize| ends.partition_point(|&end| end as usize <= slot) as u32;
        let bucket_first = (0..=UNIGRAM_TABLE_SIZE / BUCKET_SLOTS)
            .map(|b| run_of((b * BUCKET_SLOTS).min(UNIGRAM_TABLE_SIZE - 1)))
            .collect();
        Self { ends, words, bucket_first }
    }

    /// The word in table slot `slot < UNIGRAM_TABLE_SIZE`: a binary search
    /// over only the runs that overlap the slot's bucket.
    #[inline]
    fn word_at(&self, slot: usize) -> usize {
        let b = slot >> BUCKET_BITS;
        let (lo, hi) = (self.bucket_first[b] as usize, self.bucket_first[b + 1] as usize);
        let run = lo + self.ends[lo..hi].partition_point(|&end| end as usize <= slot);
        self.words[run] as usize
    }

    /// Whether `word` is the only word in the table.
    fn holds_only(&self, word: usize) -> bool {
        self.words.len() == 1 && self.words[0] as usize == word
    }

    /// One negative draw: a uniform table slot, as in the reference loop.
    #[inline]
    fn draw(&self, rng: &mut StdRng) -> usize {
        self.word_at(rng.random_range(0..UNIGRAM_TABLE_SIZE))
    }
}

/// Precomputed `σ(x)` for `x ∈ [−6, 6]`.
fn build_sigmoid_table() -> Vec<f32> {
    (0..SIGMOID_TABLE_SIZE)
        .map(|i| {
            let x = (i as f32 / SIGMOID_TABLE_SIZE as f32 * 2.0 - 1.0) * SIGMOID_BOUND;
            1.0 / (1.0 + (-x).exp())
        })
        .collect()
}

#[inline]
fn fast_sigmoid(x: f32, table: &[f32]) -> f32 {
    if x >= SIGMOID_BOUND {
        1.0
    } else if x <= -SIGMOID_BOUND {
        0.0
    } else {
        let idx = ((x + SIGMOID_BOUND) / (2.0 * SIGMOID_BOUND) * (table.len() - 1) as f32) as usize;
        table[idx.min(table.len() - 1)]
    }
}

/// Per-word keep probability under the subsampling rule.
fn build_keep_probs(vocab: &Vocab, t: f64) -> Vec<f64> {
    let total = vocab.total_count().max(1) as f64;
    (0..vocab.len())
        .map(|i| {
            if t <= 0.0 {
                return 1.0;
            }
            let f = vocab.count(TokenId(i as u32)) as f64 / total;
            if f <= t {
                1.0
            } else {
                ((t / f).sqrt() + t / f).min(1.0)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cats_text::WhitespaceSegmenter;

    /// A toy corpus with two tight topical clusters: words of cluster A
    /// co-occur with each other, words of cluster B likewise.
    fn clustered_corpus(sentences_per_cluster: usize) -> Corpus {
        let mut corpus = Corpus::new();
        let seg = WhitespaceSegmenter;
        let a = ["apple", "pear", "plum", "grape"];
        let b = ["bolt", "nut", "screw", "washer"];
        let mut rng_state = 12345u64;
        let mut next = |n: usize| {
            // Tiny LCG keeps the fixture dependency-free.
            rng_state =
                rng_state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng_state >> 33) as usize % n
        };
        for _ in 0..sentences_per_cluster {
            let s: Vec<&str> = (0..8).map(|_| a[next(a.len())]).collect();
            corpus.push_text(&s.join(" "), &seg);
            let s: Vec<&str> = (0..8).map(|_| b[next(b.len())]).collect();
            corpus.push_text(&s.join(" "), &seg);
        }
        corpus
    }

    fn small_cfg() -> Word2VecConfig {
        Word2VecConfig {
            dim: 16,
            window: 3,
            negative: 4,
            epochs: 8,
            min_count: 1,
            subsample: 0.0,
            ..Word2VecConfig::default()
        }
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn clusters_separate_in_embedding_space() {
        let corpus = clustered_corpus(400);
        let emb = Word2VecTrainer::new(small_cfg()).train(&corpus);
        let within = emb.similarity("apple", "pear").unwrap();
        let across = emb.similarity("apple", "bolt").unwrap();
        assert!(within > across + 0.2, "within {within} should exceed across {across}");
    }

    #[test]
    fn nearest_neighbors_come_from_same_cluster() {
        let corpus = clustered_corpus(400);
        let emb = Word2VecTrainer::new(small_cfg()).train(&corpus);
        let nn = emb.nearest("bolt", 3).unwrap();
        let cluster_b = ["nut", "screw", "washer"];
        for (w, _) in &nn {
            assert!(cluster_b.contains(w), "unexpected neighbor {w}");
        }
    }

    #[test]
    fn nearest_excludes_self_and_respects_k() {
        let corpus = clustered_corpus(50);
        let emb = Word2VecTrainer::new(small_cfg()).train(&corpus);
        let nn = emb.nearest("apple", 2).unwrap();
        assert_eq!(nn.len(), 2);
        assert!(nn.iter().all(|(w, _)| *w != "apple"));
    }

    #[test]
    fn min_count_excludes_rare_words() {
        let mut corpus = Corpus::new();
        let seg = WhitespaceSegmenter;
        for _ in 0..20 {
            corpus.push_text("common words appear here", &seg);
        }
        corpus.push_text("rareword common", &seg);
        let cfg = Word2VecConfig { min_count: 3, ..small_cfg() };
        let emb = Word2VecTrainer::new(cfg).train(&corpus);
        assert!(emb.vector("rareword").is_none());
        assert!(emb.vector("common").is_some());
        assert!(emb.similarity("rareword", "common").is_none());
    }

    #[test]
    fn unknown_word_yields_none() {
        let corpus = clustered_corpus(10);
        let emb = Word2VecTrainer::new(small_cfg()).train(&corpus);
        assert!(emb.vector("nonexistent").is_none());
        assert!(emb.nearest("nonexistent", 3).is_none());
    }

    #[test]
    fn deterministic_under_seed() {
        let corpus = clustered_corpus(50);
        let a = Word2VecTrainer::new(small_cfg()).train(&corpus);
        let b = Word2VecTrainer::new(small_cfg()).train(&corpus);
        assert_eq!(a.vector("apple").unwrap(), b.vector("apple").unwrap());
    }

    #[test]
    fn vectors_are_finite() {
        let corpus = clustered_corpus(100);
        let emb = Word2VecTrainer::new(small_cfg()).train(&corpus);
        for (w, trained) in emb.words() {
            if trained {
                assert!(emb.vector(w).unwrap().iter().all(|x| x.is_finite()), "{w}");
            }
        }
    }

    #[test]
    fn empty_corpus_trains_empty_embedding() {
        let corpus = Corpus::new();
        let emb = Word2VecTrainer::new(small_cfg()).train(&corpus);
        assert!(emb.is_empty());
    }

    #[test]
    fn single_trained_word_trains_without_negatives() {
        // Every negative draw is the context word itself, so rejection
        // sampling alone would never end.
        let mut corpus = Corpus::new();
        for _ in 0..5 {
            corpus.push_text("solo solo solo", &WhitespaceSegmenter);
        }
        let emb = Word2VecTrainer::new(small_cfg()).train(&corpus);
        assert!(emb.vector("solo").unwrap().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn sigmoid_table_monotone_and_bounded() {
        let t = build_sigmoid_table();
        assert!(t.windows(2).all(|w| w[0] <= w[1]));
        assert!(fast_sigmoid(-100.0, &t) == 0.0);
        assert!(fast_sigmoid(100.0, &t) == 1.0);
        assert!((fast_sigmoid(0.0, &t) - 0.5).abs() < 0.02);
    }

    #[test]
    fn analogy_returns_k_non_query_words() {
        let corpus = clustered_corpus(100);
        let emb = Word2VecTrainer::new(small_cfg()).train(&corpus);
        let hits = emb.analogy("apple", "pear", "bolt", 3).unwrap();
        assert_eq!(hits.len(), 3);
        for (w, s) in &hits {
            assert!(!["apple", "pear", "bolt"].contains(w));
            assert!(s.is_finite());
        }
        assert!(emb.analogy("apple", "nonexistent", "bolt", 3).is_none());
    }

    #[test]
    #[should_panic(expected = "dim must be positive")]
    fn zero_dim_rejected() {
        Word2VecTrainer::new(Word2VecConfig { dim: 0, ..Word2VecConfig::default() });
    }

    /// A checkpoint store in a scratch directory removed when the test
    /// ends, passing or not.
    fn ckpt_store(name: &str) -> (cats_io::ScratchDir, cats_io::CheckpointStore) {
        let dir = cats_io::ScratchDir::new(&format!("cats_w2v_{name}"));
        let store = cats_io::CheckpointStore::open(&*dir).expect("open checkpoint store");
        (dir, store)
    }

    /// A corpus at word2vec's sharding size and a config small enough to
    /// train it quickly in a debug build.
    fn sharded_case() -> (Corpus, Word2VecConfig) {
        let cfg =
            Word2VecConfig { dim: 4, epochs: 2, parallelism: Parallelism::serial(), ..small_cfg() };
        (clustered_corpus(DET_MIN_SENTENCES / 2), cfg)
    }

    fn assert_same_vectors(a: &Embedding, b: &Embedding, what: &str) {
        let bits = |e: &Embedding| e.vectors.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "{what}: vectors differ");
    }

    #[test]
    fn a_store_changes_no_vectors_and_a_serial_run_saves_nothing() {
        let serial = (clustered_corpus(60), small_cfg());
        for (name, (corpus, cfg)) in [("serial", serial), ("sharded", sharded_case())] {
            let trainer = Word2VecTrainer::new(cfg);
            let (_dir, store) = ckpt_store(name);
            if name == "serial" {
                // Any save would fire the kill switch.
                store.kill_after_saves(1);
            }
            let checkpointed = trainer.train_checkpointed(&corpus, &store, "w2v");
            assert_same_vectors(&trainer.train(&corpus), &checkpointed, name);
            assert!(store.load("w2v").is_none(), "{name}: no slot left behind");
            assert!(checkpointed.vector("apple").is_some());
        }
    }

    #[test]
    fn killed_sharded_run_resumes_bit_identical() {
        let (corpus, cfg) = sharded_case();
        let trainer = Word2VecTrainer::new(cfg);
        let (_dir, store) = ckpt_store("kill");
        let uninterrupted = trainer.train(&corpus);

        // Kill the run right after the first epoch checkpoint lands.
        store.kill_after_saves(1);
        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            trainer.train_checkpointed(&corpus, &store, "w2v")
        }));
        assert!(killed.is_err(), "simulated kill fires");
        assert!(store.load("w2v").is_some(), "a valid checkpoint survives the kill");

        let before = cats_obs::counter("cats.embedding.w2v.resumed_epochs").get();
        let resumed = trainer.train_checkpointed(&corpus, &store, "w2v");
        assert!(
            cats_obs::counter("cats.embedding.w2v.resumed_epochs").get() > before,
            "resume actually skipped completed epochs"
        );
        assert_same_vectors(&uninterrupted, &resumed, "resumed");
        assert!(store.load("w2v").is_none(), "checkpoint cleared after resume completes");
    }

    #[test]
    fn mismatched_or_damaged_checkpoint_is_ignored() {
        let (corpus, cfg) = sharded_case();
        let clean = Word2VecTrainer::new(cfg).train(&corpus);
        let (_dir, store) = ckpt_store("mismatch");

        // Leave a checkpoint behind from a run with a different seed.
        let other = Word2VecConfig { seed: 999, ..cfg };
        store.kill_after_saves(1);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Word2VecTrainer::new(other).train_checkpointed(&corpus, &store, "w2v")
        }));
        let foreign = store.load("w2v").expect("foreign slot saved");
        let mut own_fingerprint = foreign.clone();
        own_fingerprint[..4].copy_from_slice(&ckpt_fingerprint(&cfg, &corpus).to_le_bytes());
        let slots = [
            ("foreign", foreign),
            ("truncated", own_fingerprint[..own_fingerprint.len() - 3].to_vec()),
            ("appended", [own_fingerprint.as_slice(), &[0]].concat()),
        ];
        for (name, slot) in slots {
            store.save("w2v", &slot).unwrap();
            let got = Word2VecTrainer::new(cfg).train_checkpointed(&corpus, &store, "w2v");
            assert_same_vectors(&clean, &got, &format!("{name} slot leaked into the run"));
        }
    }
}
