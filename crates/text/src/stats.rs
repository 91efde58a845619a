//! Per-comment statistics behind the paper's structural features.
//!
//! Section II-A4 of the paper observes (Figs 2–5) that fraud-item comments
//! are longer, more chaotically organized (higher token entropy), heavier on
//! punctuation, and more repetitive (lower unique-word ratio) than organic
//! comments. The functions here compute those raw statistics for a single
//! segmented comment; `cats-core` aggregates them per item.

use crate::hash::BuildWordHasher;
use crate::segment::is_punctuation_token;
use std::collections::HashMap;

/// Counts tokens comment by comment: the per-comment count multiset
/// behind entropy, and the distinct tokens across every comment added.
///
/// A token comes in by string ([`TokenCounter::add`]) or, when a model
/// table already gave it a dense id, by that id
/// ([`TokenCounter::add_id`]); a caller uses one key per token, the id
/// whenever there is one. Each token costs one probe of one of two maps:
/// ids go to a `u32`-keyed map with the [`WordHasher`](crate::hash::WordHasher) (its
/// keys are smaller than the table that issued them), strings to a map
/// with the std keyed hasher (they may be anything a request sent). Both
/// maps index one count vector, reused between comments, so entropy sees
/// one count multiset. [`CommentStats::compute`], [`token_entropy`],
/// [`unique_word_ratio`] and the item feature extractor all count through
/// this type. Memory is O(tokens added), whatever the id range.
#[derive(Debug, Default)]
pub struct TokenCounter<'a> {
    /// Every distinct id added: the comment it last appeared in, and its
    /// slot in `counts` within that comment.
    ids: HashMap<u32, Seen, BuildWordHasher>,
    /// The same for every distinct string added.
    words: HashMap<&'a str, Seen>,
    /// Occurrences of each distinct token of the current comment.
    counts: Vec<u32>,
    /// Number of the current comment.
    comment: usize,
}

/// A counted token: `(comment it last appeared in, its slot in counts)`.
type Seen = (usize, usize);

impl<'a> TokenCounter<'a> {
    /// A counter for `tokens` string tokens in total and `longest` tokens
    /// in its longest comment, so counting allocates nothing more.
    pub fn with_capacity(tokens: usize, longest: usize) -> Self {
        Self { words: HashMap::with_capacity(tokens), ..Self::with_id_capacity(0, longest) }
    }

    /// A counter for `tokens` tokens in total, most of them added by id,
    /// and `longest` tokens in its longest comment. The id map is sized
    /// for every token; the string map grows with the strings added.
    pub fn with_id_capacity(tokens: usize, longest: usize) -> Self {
        Self {
            ids: HashMap::with_capacity_and_hasher(tokens, BuildWordHasher::default()),
            words: HashMap::new(),
            counts: Vec::with_capacity(longest),
            comment: 0,
        }
    }

    /// Counts one token of the current comment by its string.
    #[inline]
    pub fn add(&mut self, token: &'a str) {
        let seen = self.words.entry(token).or_insert((usize::MAX, 0));
        Self::count(seen, self.comment, &mut self.counts);
    }

    /// Counts one token of the current comment by the dense id a model
    /// table gave it. Distinct ids are distinct tokens.
    #[inline]
    pub fn add_id(&mut self, id: u32) {
        let seen = self.ids.entry(id).or_insert((usize::MAX, 0));
        Self::count(seen, self.comment, &mut self.counts);
    }

    #[inline]
    fn count((seen_in, slot): &mut Seen, comment: usize, counts: &mut Vec<u32>) {
        if *seen_in != comment {
            *seen_in = comment;
            *slot = counts.len();
            counts.push(0);
        }
        counts[*slot] += 1;
    }

    /// Ends the current comment, whose `n` tokens went through
    /// [`TokenCounter::add`] or [`TokenCounter::add_id`]: returns the
    /// Shannon entropy in bits of its token distribution and its number
    /// of distinct tokens.
    ///
    /// Entropy depends only on the count multiset; summing it in sorted
    /// count order makes the result a function of that multiset alone,
    /// to the bit.
    pub fn end_comment(&mut self, n: usize) -> (f64, usize) {
        let distinct = self.counts.len();
        self.counts.sort_unstable();
        let entropy = if n == 0 { 0.0 } else { entropy_of_counts(&self.counts, n as f64) };
        self.counts.clear();
        self.comment += 1;
        (entropy, distinct)
    }

    /// Distinct tokens over every comment added so far: the distinct ids
    /// plus the distinct strings.
    pub fn distinct(&self) -> usize {
        self.ids.len() + self.words.len()
    }
}

/// Shannon entropy (bits) of the token frequency distribution of a comment.
///
/// This is the paper's measure of "how chaotically a comment is organized":
/// `-Σ p(t) log2 p(t)` where `p(t)` is the within-comment frequency of
/// token `t`. Empty comments have entropy 0.
///
/// ```
/// use cats_text::stats::token_entropy;
/// let toks: Vec<String> = ["a", "b", "a", "b"].iter().map(|s| s.to_string()).collect();
/// assert!((token_entropy(&toks) - 1.0).abs() < 1e-12);
/// ```
pub fn token_entropy(tokens: &[String]) -> f64 {
    let mut counter = TokenCounter::with_capacity(tokens.len(), tokens.len());
    for t in tokens {
        counter.add(t);
    }
    counter.end_comment(tokens.len()).0
}

/// `-Σ p log2 p` over a count multiset, reduced in explicit 8-wide lane
/// accumulators with a fixed pairwise fold. The lane a term lands in is a
/// function of its position alone, so the summation order — and therefore
/// the result, to the bit — depends only on the (sorted) count sequence.
fn entropy_of_counts(counts: &[u32], n: f64) -> f64 {
    let mut acc = [0.0f64; 8];
    for (i, &c) in counts.iter().enumerate() {
        let p = f64::from(c) / n;
        acc[i % 8] -= p * p.log2();
    }
    let b0 = acc[0] + acc[4];
    let b1 = acc[1] + acc[5];
    let b2 = acc[2] + acc[6];
    let b3 = acc[3] + acc[7];
    let h = (b0 + b2) + (b1 + b3);
    // -0.0 can appear when the comment is a single repeated token.
    if h == 0.0 {
        0.0
    } else {
        h
    }
}

/// Number of punctuation tokens in a segmented comment.
pub fn punctuation_count(tokens: &[String]) -> usize {
    tokens.iter().filter(|t| is_punctuation_token(t)).count()
}

/// Fraction of a comment's tokens that are punctuation (0 for empty).
pub fn punctuation_ratio(tokens: &[String]) -> f64 {
    if tokens.is_empty() {
        return 0.0;
    }
    punctuation_count(tokens) as f64 / tokens.len() as f64
}

/// Ratio of distinct tokens to total tokens (1 for empty, by convention —
/// an empty comment has no duplication).
pub fn unique_word_ratio(tokens: &[String]) -> f64 {
    if tokens.is_empty() {
        return 1.0;
    }
    let mut counter = TokenCounter::with_capacity(tokens.len(), 0);
    for t in tokens {
        counter.add(t);
    }
    counter.distinct() as f64 / tokens.len() as f64
}

/// Comment length in characters of the raw (pre-segmentation) text,
/// excluding whitespace. The paper's Fig 4 measures comment length over the
/// raw comment string.
///
/// Counts the bytes that start a char, minus ASCII whitespace, without
/// branching; then decodes only the chars led by 0xC2, 0xE1, 0xE2 or
/// 0xE3, the lead bytes of every non-ASCII whitespace char.
pub fn char_length(text: &str) -> usize {
    let bytes = text.as_bytes();
    let mut n = 0usize;
    for &b in bytes {
        let starts_char = (b as i8) >= -0x40;
        let ascii_space = (b == b' ') | (b.wrapping_sub(b'\t') < 5);
        n += usize::from(starts_char) - usize::from(ascii_space);
    }
    if !text.is_ascii() {
        for (i, &b) in bytes.iter().enumerate() {
            if matches!(b, 0xC2 | 0xE1..=0xE3)
                && text[i..].chars().next().is_some_and(char::is_whitespace)
            {
                n -= 1;
            }
        }
    }
    n
}

/// All single-comment statistics bundled, to avoid re-walking the token
/// slice once per feature in the hot extraction path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommentStats {
    /// Shannon entropy in bits of the token distribution.
    pub entropy: f64,
    /// Count of punctuation tokens.
    pub punctuation: usize,
    /// Punctuation tokens / total tokens.
    pub punctuation_ratio: f64,
    /// Distinct tokens / total tokens.
    pub unique_ratio: f64,
    /// Non-whitespace character count of the raw text.
    pub chars: usize,
    /// Token count.
    pub tokens: usize,
}

impl CommentStats {
    /// Computes every statistic in a single pass over the token slice.
    pub fn compute(text: &str, tokens: &[String]) -> Self {
        let n = tokens.len();
        let mut counter = TokenCounter::with_capacity(n, n);
        let mut punct = 0usize;
        for t in tokens {
            punct += usize::from(is_punctuation_token(t));
            counter.add(t);
        }
        let (entropy, distinct) = counter.end_comment(n);
        Self {
            entropy,
            punctuation: punct,
            punctuation_ratio: if n == 0 { 0.0 } else { punct as f64 / n as f64 },
            unique_ratio: if n == 0 { 1.0 } else { distinct as f64 / n as f64 },
            chars: char_length(text),
            tokens: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn toks(ws: &[&str]) -> Vec<String> {
        ws.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn entropy_of_uniform_distribution() {
        // 4 distinct tokens, each once: entropy = log2(4) = 2 bits.
        assert!((token_entropy(&toks(&["a", "b", "c", "d"])) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_single_repeated_token_is_zero() {
        let e = token_entropy(&toks(&["a", "a", "a"]));
        assert_eq!(e, 0.0);
        assert!(e.is_sign_positive(), "no -0.0");
    }

    #[test]
    fn entropy_of_empty_is_zero() {
        assert_eq!(token_entropy(&[]), 0.0);
    }

    #[test]
    fn entropy_bounded_by_log_len() {
        let t = toks(&["a", "b", "a", "c", "d", "d", "e"]);
        let e = token_entropy(&t);
        assert!(e > 0.0);
        assert!(e <= (t.len() as f64).log2() + 1e-12);
    }

    #[test]
    fn punctuation_counting() {
        let t = toks(&["good", "!", "!", "bad", "?"]);
        assert_eq!(punctuation_count(&t), 3);
        assert!((punctuation_ratio(&t) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn punctuation_ratio_empty_is_zero() {
        assert_eq!(punctuation_ratio(&[]), 0.0);
    }

    #[test]
    fn unique_ratio_all_distinct_is_one() {
        assert_eq!(unique_word_ratio(&toks(&["a", "b", "c"])), 1.0);
    }

    #[test]
    fn unique_ratio_with_duplicates() {
        assert!((unique_word_ratio(&toks(&["a", "a", "b", "b"])) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unique_ratio_empty_is_one() {
        assert_eq!(unique_word_ratio(&[]), 1.0);
    }

    #[test]
    fn char_length_ignores_whitespace() {
        assert_eq!(char_length("ab cd\te"), 5);
        assert_eq!(char_length(""), 0);
        assert_eq!(char_length("很好 的"), 3);
    }

    #[test]
    fn char_length_matches_char_filter_on_every_char() {
        let want = |t: &str| t.chars().filter(|c| !c.is_whitespace()).count();
        for c in (0..=0x10FFFF).filter_map(char::from_u32) {
            let text = format!("a{c}b{c}{c}");
            assert_eq!(char_length(&text), want(&text), "{c:?}");
        }
    }

    #[test]
    fn bundle_matches_individual_functions() {
        let text = "hao ping ! hao";
        let t = toks(&["hao", "ping", "!", "hao"]);
        let s = CommentStats::compute(text, &t);
        assert!((s.entropy - token_entropy(&t)).abs() < 1e-12);
        assert_eq!(s.punctuation, punctuation_count(&t));
        assert!((s.punctuation_ratio - punctuation_ratio(&t)).abs() < 1e-12);
        assert!((s.unique_ratio - unique_word_ratio(&t)).abs() < 1e-12);
        assert_eq!(s.chars, char_length(text));
        assert_eq!(s.tokens, 4);
    }

    /// The statistics as computed before [`TokenCounter`], with a
    /// `HashMap` of counts: the oracle of the differential test below.
    fn hashed_reference(text: &str, tokens: &[String]) -> CommentStats {
        let n = tokens.len();
        let mut freq: std::collections::HashMap<&str, u32> = Default::default();
        for t in tokens {
            *freq.entry(t.as_str()).or_insert(0) += 1;
        }
        let mut counts: Vec<u32> = freq.values().copied().collect();
        counts.sort_unstable();
        let punct = tokens.iter().filter(|t| is_punctuation_token(t)).count();
        CommentStats {
            entropy: if n == 0 { 0.0 } else { entropy_of_counts(&counts, n as f64) },
            punctuation: punct,
            punctuation_ratio: if n == 0 { 0.0 } else { punct as f64 / n as f64 },
            unique_ratio: if n == 0 { 1.0 } else { freq.len() as f64 / n as f64 },
            chars: char_length(text),
            tokens: n,
        }
    }

    #[test]
    fn bundle_matches_hashed_reference_on_seeded_comments() {
        const WORDS: &[&str] =
            &["hao", "ping", "!", "。", "，", "很好", "é", "a\u{1}b", "\u{1}", "🙂", "x", "xx"];
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let mut mismatches = 0;
        for case in 0..3000 {
            // Empty, short, heavily repeated (a small vocabulary slice),
            // and very long comments.
            let len = match case % 5 {
                0 => (rng.next_u64() % 2) as usize,
                4 => 300 + (rng.next_u64() % 500) as usize,
                _ => (rng.next_u64() % 40) as usize,
            };
            let vocab = 1 + (rng.next_u64() % WORDS.len() as u64) as usize;
            let toks: Vec<String> = (0..len)
                .map(|_| WORDS[(rng.next_u64() % vocab as u64) as usize].to_string())
                .collect();
            let text = toks.join(" ");
            let (got, want) = (CommentStats::compute(&text, &toks), hashed_reference(&text, &toks));
            let same = got.entropy.to_bits() == want.entropy.to_bits()
                && got.punctuation == want.punctuation
                && got.punctuation_ratio.to_bits() == want.punctuation_ratio.to_bits()
                && got.unique_ratio.to_bits() == want.unique_ratio.to_bits()
                && got.chars == want.chars
                && got.tokens == want.tokens
                && token_entropy(&toks).to_bits() == want.entropy.to_bits()
                && unique_word_ratio(&toks).to_bits() == want.unique_ratio.to_bits();
            if !same {
                mismatches += 1;
                eprintln!("mismatch on case {case}: {got:?} vs {want:?}");
            }
        }
        assert_eq!(mismatches, 0);
    }

    #[test]
    fn ids_and_strings_count_like_strings_alone() {
        // Half the words carry an id, as a model table's known words do;
        // the rest are counted by string.
        const WORDS: &[&str] = &["hao", "ping", "!", "很好", "x", "xx", "🙂", "a\u{1}b"];
        let id_of = |w: &str| WORDS[..4].iter().position(|&k| k == w).map(|i| i as u32 * 7);
        let mut rng = StdRng::seed_from_u64(0x1D5);
        for case in 0..500 {
            let comments: Vec<Vec<&str>> = (0..1 + case % 6)
                .map(|_| {
                    let len = (rng.next_u64() % 30) as usize;
                    (0..len).map(|_| WORDS[(rng.next_u64() % 8) as usize]).collect()
                })
                .collect();
            let total = comments.iter().map(Vec::len).sum();
            let mut by_string = TokenCounter::with_capacity(total, 0);
            let mut mixed = TokenCounter::with_id_capacity(total, 0);
            for c in &comments {
                for &t in c {
                    by_string.add(t);
                    match id_of(t) {
                        Some(id) => mixed.add_id(id),
                        None => mixed.add(t),
                    }
                }
                let (want, got) = (by_string.end_comment(c.len()), mixed.end_comment(c.len()));
                assert_eq!((got.0.to_bits(), got.1), (want.0.to_bits(), want.1), "case {case}");
            }
            assert_eq!(mixed.distinct(), by_string.distinct(), "case {case}");
        }
    }

    #[test]
    fn bundle_on_empty_comment() {
        let s = CommentStats::compute("", &[]);
        assert_eq!(s.entropy, 0.0);
        assert_eq!(s.punctuation, 0);
        assert_eq!(s.punctuation_ratio, 0.0);
        assert_eq!(s.unique_ratio, 1.0);
        assert_eq!(s.chars, 0);
        assert_eq!(s.tokens, 0);
    }
}
