//! Differential test of the trainer against its previous formulation.
//!
//! The oracle is the SGNS step as it was written before the slice kernel
//! and the run-stored sampler: weights read and written one element at a
//! time through `Cell` views, an 8-wide dot over those views, and
//! negatives looked up in the full `UNIGRAM_TABLE_SIZE`-slot table. Its
//! serial and sharded schedules run the same loops as the trainer's. A
//! seeded `StdRng` runner generates corpora and configs and requires
//! every trained vector of the trainer to equal the oracle's bit for bit.
//!
//! Two more oracles keep the lookups that replaced them honest: the full
//! table for the sampler's bucket index, slot by slot, and the
//! collect-and-sort neighbour query for `Embedding::nearest_to_vector`.

use super::*;
use rand::Rng;
use std::cell::Cell;

/// Single-owner weight view: element reads and adds through `Cell`.
struct CellWeights<'a>(&'a [Cell<f32>]);

impl CellWeights<'_> {
    fn get(&self, i: usize) -> f32 {
        self.0[i].get()
    }

    fn add(&self, i: usize, delta: f32) {
        self.0[i].set(self.0[i].get() + delta);
    }
}

fn as_cells(xs: &mut [f32]) -> CellWeights<'_> {
    CellWeights(Cell::from_mut(xs).as_slice_of_cells())
}

/// The unigram^0.75 table over trained words, one word per slot.
fn build_unigram_table(vocab: &Vocab, trained: &[bool]) -> Vec<usize> {
    let mut weights: Vec<f64> = (0..vocab.len())
        .map(|i| if trained[i] { (vocab.count(TokenId(i as u32)) as f64).powf(0.75) } else { 0.0 })
        .collect();
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        weights.iter_mut().for_each(|w| *w = 1.0);
    }
    let total: f64 = weights.iter().sum();
    let mut table = Vec::with_capacity(UNIGRAM_TABLE_SIZE);
    let mut word = 0usize;
    let mut next_cum = weights[0] / total;
    for i in 0..UNIGRAM_TABLE_SIZE {
        table.push(word);
        let cum = (i + 1) as f64 / UNIGRAM_TABLE_SIZE as f64;
        while cum > next_cum && word + 1 < weights.len() {
            word += 1;
            next_cum += weights[word] / total;
        }
    }
    table
}

/// Read-only training state of the oracle.
struct Reference {
    cfg: Word2VecConfig,
    trained: Vec<bool>,
    keep_prob: Vec<f64>,
    table: Vec<usize>,
    /// The table's word when it holds only one, which then draws no
    /// negatives for that context (see `UnigramSampler::holds_only`).
    only_word: Option<usize>,
    sigmoid: Vec<f32>,
    total_tokens: f64,
}

#[allow(clippy::needless_range_loop)] // the oracle keeps the element-wise form
fn train_sentence(
    r: &Reference,
    sentence: &[TokenId],
    syn0: &CellWeights<'_>,
    syn1: &CellWeights<'_>,
    lr: f32,
    rng: &mut StdRng,
    scratch: &mut Scratch,
) {
    let cfg = &r.cfg;
    scratch.kept.clear();
    for &tok in sentence {
        let i = tok.index();
        if !r.trained[i] {
            continue;
        }
        if r.keep_prob[i] < 1.0 && rng.random::<f64>() > r.keep_prob[i] {
            continue;
        }
        scratch.kept.push(i);
    }
    if scratch.kept.len() < 2 {
        return;
    }
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
            scratch.neg_buf.clear();
            let negatives = if r.only_word == Some(context) { 0 } else { cfg.negative };
            while scratch.neg_buf.len() < negatives {
                let cand = r.table[rng.random_range(0..r.table.len())];
                if cand != context {
                    scratch.neg_buf.push(cand);
                }
            }
            let dim = cfg.dim;
            scratch.grad.fill(0.0);
            let v = center * dim;
            let targets = std::iter::once(&context).chain(&scratch.neg_buf);
            let labels = std::iter::once(1.0f32).chain(std::iter::repeat(0.0f32));
            for (&idx, label) in targets.zip(labels) {
                let u = idx * dim;
                let pred = fast_sigmoid(dot_weights(syn0, syn1, v, u, dim), &r.sigmoid);
                let g = (label - pred) * lr;
                for d in 0..dim {
                    scratch.grad[d] += g * syn1.get(u + d);
                    syn1.add(u + d, g * syn0.get(v + d));
                }
            }
            for d in 0..dim {
                syn0.add(v + d, scratch.grad[d]);
            }
        }
    }
}

/// 8-lane chunked dot over `Cell` views with the kernels' fold order.
fn dot_weights(
    syn0: &CellWeights<'_>,
    syn1: &CellWeights<'_>,
    v: usize,
    u: usize,
    dim: usize,
) -> f32 {
    const L: usize = crate::simd::LANES;
    let mut acc = [0.0f32; L];
    let chunks = dim / L;
    for c in 0..chunks {
        let base = c * L;
        for (l, a) in acc.iter_mut().enumerate() {
            *a += syn0.get(v + base + l) * syn1.get(u + base + l);
        }
    }
    let mut tail = 0.0f32;
    for d in chunks * L..dim {
        tail += syn0.get(v + d) * syn1.get(u + d);
    }
    let b0 = acc[0] + acc[4];
    let b1 = acc[1] + acc[5];
    let b2 = acc[2] + acc[6];
    let b3 = acc[3] + acc[7];
    ((b0 + b2) + (b1 + b3)) + tail
}

/// The oracle's `syn0` after training `corpus` under `cfg`: the sharded
/// schedule when the corpus is large enough, else the serial one.
fn train_reference(cfg: Word2VecConfig, corpus: &Corpus) -> Vec<f32> {
    let vocab = corpus.vocab();
    let n = vocab.len();
    if n == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let trained: Vec<bool> =
        (0..n).map(|i| vocab.count(TokenId(i as u32)) >= cfg.min_count).collect();
    let mut syn0: Vec<f32> =
        (0..n * cfg.dim).map(|_| (rng.random::<f32>() - 0.5) / cfg.dim as f32).collect();
    let mut syn1 = vec![0.0f32; n * cfg.dim];
    let table = build_unigram_table(vocab, &trained);
    let r = Reference {
        cfg,
        only_word: table.iter().all(|&w| w == table[0]).then_some(table[0]),
        table,
        keep_prob: build_keep_probs(vocab, cfg.subsample),
        sigmoid: build_sigmoid_table(),
        total_tokens: (corpus.token_count() * cfg.epochs).max(1) as f64,
        trained,
    };
    let sents = corpus.sentences();
    if sents.len() < DET_MIN_SENTENCES {
        let (w0, w1) = (as_cells(&mut syn0), as_cells(&mut syn1));
        let mut scratch = Scratch::new(&cfg);
        let mut processed = 0u64;
        for _ in 0..cfg.epochs {
            for sentence in sents {
                processed += sentence.len() as u64;
                let lr = lr_at(&cfg, processed, r.total_tokens);
                train_sentence(&r, sentence, &w0, &w1, lr, &mut rng, &mut scratch);
            }
        }
        return syn0;
    }
    let n_sent = sents.len();
    for epoch in 0..cfg.epochs {
        let (snap0, snap1) = (syn0.clone(), syn1.clone());
        let mut processed = epoch as u64 * corpus.token_count() as u64;
        for s in 0..DET_SHARDS {
            let (mut s0, mut s1) = (snap0.clone(), snap1.clone());
            let (w0, w1) = (as_cells(&mut s0), as_cells(&mut s1));
            let mut shard_rng = StdRng::seed_from_u64(shard_seed(cfg.seed, epoch, s));
            let mut scratch = Scratch::new(&cfg);
            for sentence in &sents[s * n_sent / DET_SHARDS..(s + 1) * n_sent / DET_SHARDS] {
                processed += sentence.len() as u64;
                let lr = lr_at(&cfg, processed, r.total_tokens);
                train_sentence(&r, sentence, &w0, &w1, lr, &mut shard_rng, &mut scratch);
            }
            for ((dst, &sh), &sn) in syn0.iter_mut().zip(&s0).zip(&snap0) {
                *dst += sh - sn;
            }
            for ((dst, &sh), &sn) in syn1.iter_mut().zip(&s1).zip(&snap1) {
                *dst += sh - sn;
            }
        }
    }
    syn0
}

/// `sentences` sentences of 0..=`max_len` words over a `vocab`-word
/// alphabet, skewed towards low word numbers so counts spread out.
fn gen_corpus(rng: &mut StdRng, sentences: usize, vocab: usize, max_len: usize) -> Corpus {
    let mut corpus = Corpus::new();
    for _ in 0..sentences {
        let len = rng.random_range(0..max_len + 1);
        let toks: Vec<String> = (0..len)
            .map(|_| {
                let top = 1 + rng.random_range(0..vocab);
                format!("w{}", rng.random_range(0..top))
            })
            .collect();
        corpus.push_tokens(&toks);
    }
    corpus
}

/// A generated config: dim 1–70, window 1–6, 0–5 negatives, 1–3
/// epochs, subsampling off or 1e-4, and a `min_count` that leaves some
/// words (one case in ten: every word) untrained.
fn gen_config(rng: &mut StdRng, max_dim: usize) -> Word2VecConfig {
    Word2VecConfig {
        dim: 1 + rng.random_range(0..max_dim),
        window: 1 + rng.random_range(0..6usize),
        negative: rng.random_range(0..6usize),
        epochs: 1 + rng.random_range(0..3usize),
        initial_lr: [0.025, 0.05, 0.2][rng.random_range(0..3usize)],
        subsample: [0.0, 1e-4][rng.random_range(0..2usize)],
        min_count: if rng.random_range(0..10usize) == 0 {
            u64::MAX
        } else {
            1 + rng.random_range(0..6usize) as u64
        },
        seed: rng.next_u64(),
        parallelism: Parallelism::with_threads(1 + rng.random_range(0..2usize)),
    }
}

fn assert_bits_equal(got: &[f32], want: &[f32], case: &str) {
    assert_eq!(got.len(), want.len(), "{case}: vector length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{case}: element {i}: {g} vs {w}");
    }
}

#[test]
fn trainer_matches_the_cell_kernel_oracle_bitwise() {
    let mut rng = StdRng::seed_from_u64(0x05EE_D0F0_AC1E);
    let store_dir = cats_io::ScratchDir::new("cats_w2v_oracle");
    let store = cats_io::CheckpointStore::open(&*store_dir).expect("open checkpoint store");
    let mut compared = 0;
    for case in 0..208 {
        // Every eighth case is big enough to run the sharded schedule
        // (kept to small dims: debug builds run it slowly). Every
        // sixteenth is a checkpointed run killed after some epoch and
        // resumed, and every sixteenth from the second a serial run
        // given a store, which must not change its vectors.
        let (corpus, cfg) = match case % 8 {
            0 => {
                let (n, words) = (
                    DET_MIN_SENTENCES + rng.random_range(0..300usize),
                    2 + rng.random_range(0..40usize),
                );
                (gen_corpus(&mut rng, n, words, 4), gen_config(&mut rng, 20))
            }
            _ => {
                let (n, words) = (rng.random_range(0..200usize), 1 + rng.random_range(0..80usize));
                (gen_corpus(&mut rng, n, words, 12), gen_config(&mut rng, 70))
            }
        };
        // With one trained word other than word 0, the table gives word 0
        // its first slot and that word the rest, so each negative takes
        // ~1M draws in both implementations: too slow for a debug build.
        let vocab = corpus.vocab();
        let mut trained =
            (0..vocab.len()).filter(|&i| vocab.count(TokenId(i as u32)) >= cfg.min_count);
        if matches!((trained.next(), trained.next()), (Some(w), None) if w != 0) {
            continue;
        }
        compared += 1;
        let label = format!("case {case} ({} sentences, {cfg:?})", corpus.len());
        let trainer = Word2VecTrainer::new(cfg);
        let got = match case % 16 {
            0 => {
                if cfg.epochs > 1 {
                    store.kill_after_saves(1 + rng.random_range(0..cfg.epochs - 1) as u64);
                    let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        trainer.train_checkpointed(&corpus, &store, "w2v")
                    }));
                    assert!(killed.is_err(), "{label}: simulated kill fires");
                }
                trainer.train_checkpointed(&corpus, &store, "w2v")
            }
            1 => trainer.train_checkpointed(&corpus, &store, "w2v"),
            _ => trainer.train(&corpus),
        };
        assert_bits_equal(&got.vectors, &train_reference(cfg, &corpus), &label);
    }
    assert!(compared >= 200, "only {compared} cases compared");
}

/// Every slot of `sampler` reads the word the full table holds there.
fn assert_sampler_matches(sampler: &UnigramSampler, table: &[usize], case: &str) {
    assert_eq!(sampler.ends.last().map(|&e| e as usize), Some(UNIGRAM_TABLE_SIZE), "{case}");
    assert_eq!(sampler.bucket_first.len(), UNIGRAM_TABLE_SIZE / BUCKET_SLOTS + 1, "{case}");
    for (slot, &want) in table.iter().enumerate() {
        assert_eq!(sampler.word_at(slot), want, "{case}, slot {slot}");
    }
}

#[test]
fn run_sampler_matches_the_full_table() {
    let mut rng = StdRng::seed_from_u64(0x7AB1E);
    for case in 0..12 {
        let (n, words) = (1 + rng.random_range(0..400usize), 1 + rng.random_range(0..300usize));
        let corpus = gen_corpus(&mut rng, n, words, 10);
        let vocab = corpus.vocab();
        // Case 0 trains nothing (the uniform fallback); the rest leave
        // a random share of the words below `min_count`.
        let min_count = if case == 0 { u64::MAX } else { 1 + rng.random_range(0..5usize) as u64 };
        let trained: Vec<bool> =
            (0..vocab.len()).map(|i| vocab.count(TokenId(i as u32)) >= min_count).collect();
        let table = build_unigram_table(vocab, &trained);
        let sampler = UnigramSampler::new(vocab, &trained);
        assert_sampler_matches(&sampler, &table, &format!("case {case}"));
    }
    // A one-word vocabulary, trained and untrained, and one trained word
    // behind untrained ones: tables of one or two runs.
    let mut corpus = Corpus::new();
    corpus.push_tokens(&["solo".to_string()]);
    for trained in [[true], [false]] {
        let table = build_unigram_table(corpus.vocab(), &trained);
        let sampler = UnigramSampler::new(corpus.vocab(), &trained);
        assert!(sampler.holds_only(0));
        assert_sampler_matches(&sampler, &table, &format!("one word, trained {trained:?}"));
    }
    let corpus = gen_corpus(&mut rng, 50, 20, 10);
    let trained: Vec<bool> = (0..corpus.vocab().len()).map(|i| i == 7).collect();
    let table = build_unigram_table(corpus.vocab(), &trained);
    let sampler = UnigramSampler::new(corpus.vocab(), &trained);
    assert_sampler_matches(&sampler, &table, "one trained word of many");
}

/// `nearest_to_vector` as it was before the cached norms: every kept row
/// scored with the fused `cosine`, then a stable descending sort cut to
/// `k`.
fn nearest_by_sort<'a>(
    emb: &'a Embedding,
    query: &[f32],
    k: usize,
    exclude: Option<&str>,
) -> Vec<(&'a str, f32)> {
    let mut scored: Vec<(&str, f32)> = emb
        .vocab_words
        .iter()
        .enumerate()
        .filter(|(i, w)| emb.trained[*i] && Some(w.as_str()) != exclude)
        .map(|(i, w)| (w.as_str(), cosine(query, &emb.vectors[i * emb.dim..(i + 1) * emb.dim])))
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    scored.truncate(k);
    scored
}

/// A generated embedding of `rows` rows: integer-valued entries in
/// `-2..=2` (so distinct rows tie often) or uniform floats, with some
/// rows zero, some copies of an earlier row and some untrained.
fn gen_embedding(rng: &mut StdRng, rows: usize, dim: usize) -> Embedding {
    let small_ints = rng.random_range(0..2usize) == 0;
    let mut vectors: Vec<f32> = Vec::with_capacity(rows * dim);
    for r in 0..rows {
        match rng.random_range(0..8usize) {
            0 => vectors.resize(vectors.len() + dim, 0.0),
            1 if r > 0 => {
                let src = rng.random_range(0..r) * dim;
                vectors.extend_from_within(src..src + dim);
            }
            _ if small_ints => {
                vectors.extend((0..dim).map(|_| rng.random_range(0..5usize) as f32 - 2.0));
            }
            _ => vectors.extend((0..dim).map(|_| rng.random::<f32>() * 2.0 - 1.0)),
        }
    }
    let words = (0..rows).map(|r| format!("w{r}")).collect();
    let trained = (0..rows).map(|_| rng.random_range(0..6usize) != 0).collect();
    Embedding::new(dim, vectors, words, trained)
}

#[test]
fn nearest_to_vector_matches_the_sorting_oracle_bitwise() {
    let mut rng = StdRng::seed_from_u64(0x04EA_2E57);
    for case in 0..400 {
        let (rows, dim) = (rng.random_range(0..60usize), 1 + rng.random_range(0..40usize));
        let emb = gen_embedding(&mut rng, rows, dim);
        // Queries: a row of the embedding, a zero vector, a fresh vector.
        let mut queries = vec![vec![0.0f32; dim]];
        queries.push((0..dim).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect());
        if rows > 0 {
            let r = rng.random_range(0..rows);
            queries.push(emb.vectors[r * dim..(r + 1) * dim].to_vec());
        }
        for query in &queries {
            for k in [0, 1, 3, 10, rows, rows + 5] {
                let excluded = format!("w{}", rng.random_range(0..rows.max(1)));
                for exclude in [None, Some(excluded.as_str())] {
                    let got = emb.nearest_to_vector(query, k, exclude);
                    let want = nearest_by_sort(&emb, query, k, exclude);
                    let label = format!("case {case}, k {k}, exclude {exclude:?}");
                    assert_eq!(got.len(), want.len(), "{label}");
                    for ((gw, gs), (ww, ws)) in got.iter().zip(&want) {
                        assert_eq!((gw, gs.to_bits()), (ww, ws.to_bits()), "{label}");
                    }
                }
            }
        }
    }
}
