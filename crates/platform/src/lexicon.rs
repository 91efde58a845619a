//! The synthetic e-commerce language.
//!
//! Real CATS consumes Chinese Taobao comments; we cannot obtain those, so
//! the platform speaks a synthetic language whose vocabulary is organized
//! the way the paper's analysis needs it to be:
//!
//! * **positive words** (the latent ground-truth *P*), including *homograph
//!   variants* of some canonical words — the paper's word2vec expansion
//!   discovers misspelled variants of 好评 ("good reputation"); our
//!   generator emits spelling variants that are used interchangeably in
//!   promotional contexts so the same discovery is possible;
//! * **negative words** (latent *N*);
//! * **neutral domain words** (product nouns, logistics vocabulary);
//! * **function words** (high-frequency glue);
//! * **punctuation**.
//!
//! Words are pronounceable pseudo-Pinyin strings composed from a syllable
//! inventory, generated deterministically from a seed. A handful of
//! canonical words have fixed spellings so that seed lists in examples and
//! tests are stable.

use rand::{rngs::StdRng, Rng, RngExt, SeedableRng};
use std::collections::HashSet;

/// Syllable inventory for pseudo-word composition.
const SYLLABLES: &[&str] = &[
    "ba", "bei", "bi", "bu", "cai", "chang", "chi", "chu", "da", "de", "dian", "ding", "duo", "fa",
    "fan", "fei", "fen", "gao", "gei", "gong", "gu", "hai", "han", "hou", "hu", "hua", "ji", "jia",
    "jian", "jing", "ju", "kan", "ke", "kou", "kuai", "la", "lai", "lei", "li", "lian", "lin",
    "liu", "lu", "ma", "mai", "mao", "mei", "men", "mi", "mian", "min", "mu", "na", "nai", "nan",
    "nei", "ni", "nian", "niu", "nong", "nu", "pai", "pan", "pei", "pen", "pi", "pin", "po", "pu",
    "qi", "qian", "qin", "qu", "ran", "ren", "ri", "rong", "ru", "sai", "san", "sao", "sen",
    "shan", "shen", "shi", "shou", "shu", "si", "song", "su", "sun", "ta", "tan", "tao", "te",
    "ti", "tian", "tie", "tong", "tou", "tu", "wai", "wan", "wei", "wen", "wo", "wu", "xi", "xia",
    "xian", "xiao", "xin", "xiu", "xu", "yan", "yao", "ye", "yin", "ying", "you", "yu", "yuan",
    "yun", "za", "zai", "zao", "zen", "zhan", "zhao", "zhen", "zheng", "zhi", "zhong", "zhou",
    "zhu", "zi", "zong", "zou", "zu", "zui",
];

/// Canonical positive words with stable spellings (seed candidates).
/// Loose glosses mirror the paper's Table I entries.
pub const CANONICAL_POSITIVE: &[&str] = &[
    "haoping",   // good reputation (好评)
    "zhide",     // deserve/worth (值得)
    "huasuan",   // cost-effective (划算)
    "piaoliang", // beautiful (漂亮)
    "manyi",     // satisfied (满意)
    "bucuo",     // not bad / well (不错)
    "xihuan",    // like (喜欢)
    "henhao",    // very good (很好)
    "heshi",     // suitable (合适)
    "jingzhi",   // delicate (精致)
    "shihui",    // good value (实惠)
    "zan",       // like/praise (赞)
];

/// Homograph variants of `haoping`, standing in for the paper's
/// 好坪 / 好平 variants that word2vec uncovers.
pub const HAOPING_VARIANTS: &[&str] = &["haopping", "haopin", "haoqing"];

/// Canonical negative words with stable spellings.
pub const CANONICAL_NEGATIVE: &[&str] = &[
    "chaping", // negative reputation (差评)
    "zaogao",  // terrible (糟糕)
    "zuilan",  // the worst (最烂)
    "tuihuo",  // sales return (退货)
    "keheng",  // hateful (可恨)
    "eyi",     // malevolence (恶意)
    "weixie",  // threat (威胁)
    "yixing",  // one star (一星)
    "buhao",   // bad (不好)
    "meiyong", // useless (没用)
];

/// High-frequency function words (glue).
pub const FUNCTION_WORDS: &[&str] = &[
    "de", "le", "wo", "ni", "ta", "zhe", "na", "hen", "jiu", "dou", "ye", "hai", "zai", "shi",
    "you", "he", "gei", "bei", "ba", "ge",
];

/// Word classes of the synthetic language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WordClass {
    /// Latent ground-truth positive sentiment word.
    Positive,
    /// Latent ground-truth negative sentiment word.
    Negative,
    /// Domain/neutral content word.
    Neutral,
    /// Function word.
    Function,
}

/// The generated vocabulary of the synthetic platform language.
#[derive(Debug, Clone)]
pub struct SyntheticLexicon {
    positive: Vec<String>,
    negative: Vec<String>,
    neutral: Vec<String>,
    function: Vec<String>,
}

/// Size knobs for [`SyntheticLexicon::generate`].
#[derive(Debug, Clone, Copy)]
pub struct LexiconConfig {
    /// Total positive words (canonical + variants + generated). The paper's
    /// expanded *P* holds ~200 words.
    pub n_positive: usize,
    /// Total negative words. The paper's *N* holds ~200 words.
    pub n_negative: usize,
    /// Neutral domain words.
    pub n_neutral: usize,
}

impl Default for LexiconConfig {
    fn default() -> Self {
        Self { n_positive: 200, n_negative: 200, n_neutral: 1500 }
    }
}

impl SyntheticLexicon {
    /// Generates a vocabulary deterministically from `seed`.
    pub fn generate(config: LexiconConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut used: HashSet<String> = HashSet::new();
        let reserve = |w: &str, used: &mut HashSet<String>| {
            used.insert(w.to_owned());
            w.to_owned()
        };

        let mut positive: Vec<String> = CANONICAL_POSITIVE
            .iter()
            .chain(HAOPING_VARIANTS)
            .map(|w| reserve(w, &mut used))
            .collect();
        let mut negative: Vec<String> =
            CANONICAL_NEGATIVE.iter().map(|w| reserve(w, &mut used)).collect();
        let function: Vec<String> = FUNCTION_WORDS.iter().map(|w| reserve(w, &mut used)).collect();

        while positive.len() < config.n_positive {
            let w = Self::fresh_word(&mut rng, &mut used);
            positive.push(w);
        }
        positive.truncate(config.n_positive.max(CANONICAL_POSITIVE.len()));
        while negative.len() < config.n_negative {
            let w = Self::fresh_word(&mut rng, &mut used);
            negative.push(w);
        }
        negative.truncate(config.n_negative.max(CANONICAL_NEGATIVE.len()));

        let mut neutral = Vec::with_capacity(config.n_neutral);
        while neutral.len() < config.n_neutral {
            neutral.push(Self::fresh_word(&mut rng, &mut used));
        }

        Self { positive, negative, neutral, function }
    }

    fn fresh_word(rng: &mut StdRng, used: &mut HashSet<String>) -> String {
        loop {
            let n_syll = if rng.random_bool(0.7) { 2 } else { 3 };
            let mut w = String::new();
            for _ in 0..n_syll {
                w.push_str(SYLLABLES[rng.random_range(0..SYLLABLES.len())]);
            }
            if used.insert(w.clone()) {
                return w;
            }
        }
    }

    /// The latent positive word list (ground truth for lexicon expansion).
    pub fn positive(&self) -> &[String] {
        &self.positive
    }

    /// The latent negative word list.
    pub fn negative(&self) -> &[String] {
        &self.negative
    }

    /// Neutral domain words.
    pub fn neutral(&self) -> &[String] {
        &self.neutral
    }

    /// Function words.
    pub fn function(&self) -> &[String] {
        &self.function
    }

    /// Class of `word`, if it belongs to this vocabulary.
    pub fn class_of(&self, word: &str) -> Option<WordClass> {
        if self.positive.iter().any(|w| w == word) {
            Some(WordClass::Positive)
        } else if self.negative.iter().any(|w| w == word) {
            Some(WordClass::Negative)
        } else if self.neutral.iter().any(|w| w == word) {
            Some(WordClass::Neutral)
        } else if self.function.iter().any(|w| w == word) {
            Some(WordClass::Function)
        } else {
            None
        }
    }

    /// Positive seed words for lexicon expansion (a small canonical subset,
    /// as the paper seeds with a few words like 好评).
    pub fn positive_seeds(&self) -> Vec<String> {
        CANONICAL_POSITIVE[..4].iter().map(|s| s.to_string()).collect()
    }

    /// Negative seed words for lexicon expansion.
    pub fn negative_seeds(&self) -> Vec<String> {
        CANONICAL_NEGATIVE[..4].iter().map(|s| s.to_string()).collect()
    }

    /// Total vocabulary size across all classes.
    pub fn total_words(&self) -> usize {
        self.positive.len() + self.negative.len() + self.neutral.len() + self.function.len()
    }

    /// Mints a fresh homograph variant of `word` — a small spelling
    /// mutation (letter doubling, vowel substitution, or an appended
    /// syllable) that belongs to **no** vocabulary class.
    ///
    /// This is the adversary's move in the drift model: campaign operators
    /// coin obfuscated spellings (the real-world 好评 → 好坪 / 好平 churn)
    /// faster than any fixed lexicon can track, so a detector trained on
    /// yesterday's vocabulary has never embedded today's variants. Retries
    /// until the candidate lands outside the lexicon and differs from
    /// `word` itself.
    pub fn coin_variant(&self, word: &str, rng: &mut impl Rng) -> String {
        const VOWELS: &[char] = &['a', 'e', 'i', 'o', 'u'];
        loop {
            let chars: Vec<char> = word.chars().collect();
            if chars.is_empty() {
                return String::from("x");
            }
            let mut w = String::with_capacity(word.len() + 4);
            match rng.random_range(0..3usize) {
                0 => {
                    // Double one letter: haoping → haopping.
                    let at = rng.random_range(0..chars.len());
                    for (i, c) in chars.iter().enumerate() {
                        w.push(*c);
                        if i == at {
                            w.push(*c);
                        }
                    }
                }
                1 => {
                    // Substitute one vowel: haoping → haopeng.
                    let positions: Vec<usize> = chars
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| VOWELS.contains(c))
                        .map(|(i, _)| i)
                        .collect();
                    if positions.is_empty() {
                        continue;
                    }
                    let at = positions[rng.random_range(0..positions.len())];
                    let mut v = VOWELS[rng.random_range(0..VOWELS.len())];
                    if v == chars[at] {
                        let next =
                            (VOWELS.iter().position(|&x| x == v).unwrap() + 1) % VOWELS.len();
                        v = VOWELS[next];
                    }
                    for (i, c) in chars.iter().enumerate() {
                        w.push(if i == at { v } else { *c });
                    }
                }
                _ => {
                    // Append a syllable: haoping → haopingzhen.
                    w.push_str(word);
                    w.push_str(SYLLABLES[rng.random_range(0..SYLLABLES.len())]);
                }
            }
            if w != word && self.class_of(&w).is_none() {
                return w;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex() -> SyntheticLexicon {
        SyntheticLexicon::generate(LexiconConfig::default(), 1)
    }

    #[test]
    fn generates_requested_sizes() {
        let l = lex();
        assert_eq!(l.positive().len(), 200);
        assert_eq!(l.negative().len(), 200);
        assert_eq!(l.neutral().len(), 1500);
        assert_eq!(l.function().len(), FUNCTION_WORDS.len());
    }

    #[test]
    fn canonical_words_present() {
        let l = lex();
        for w in CANONICAL_POSITIVE {
            assert_eq!(l.class_of(w), Some(WordClass::Positive), "{w}");
        }
        for w in HAOPING_VARIANTS {
            assert_eq!(l.class_of(w), Some(WordClass::Positive), "{w}");
        }
        for w in CANONICAL_NEGATIVE {
            assert_eq!(l.class_of(w), Some(WordClass::Negative), "{w}");
        }
    }

    #[test]
    fn classes_are_disjoint() {
        let l = lex();
        let mut all: Vec<&String> = l
            .positive()
            .iter()
            .chain(l.negative())
            .chain(l.neutral())
            .chain(l.function())
            .collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate word across classes");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = SyntheticLexicon::generate(LexiconConfig::default(), 9);
        let b = SyntheticLexicon::generate(LexiconConfig::default(), 9);
        assert_eq!(a.positive(), b.positive());
        assert_eq!(a.neutral(), b.neutral());
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticLexicon::generate(LexiconConfig::default(), 1);
        let b = SyntheticLexicon::generate(LexiconConfig::default(), 2);
        assert_ne!(a.neutral(), b.neutral());
        // canonical words stay fixed regardless of seed
        assert_eq!(a.positive()[..12], b.positive()[..12]);
    }

    #[test]
    fn seeds_are_positive_and_negative_words() {
        let l = lex();
        for s in l.positive_seeds() {
            assert_eq!(l.class_of(&s), Some(WordClass::Positive));
        }
        for s in l.negative_seeds() {
            assert_eq!(l.class_of(&s), Some(WordClass::Negative));
        }
    }

    #[test]
    fn class_of_unknown_is_none() {
        assert_eq!(lex().class_of("notaword!!"), None);
    }

    #[test]
    fn small_config_still_keeps_canonicals() {
        let l = SyntheticLexicon::generate(
            LexiconConfig { n_positive: 5, n_negative: 5, n_neutral: 10 },
            3,
        );
        // canonical lists are never truncated below their own length
        assert!(l.positive().len() >= CANONICAL_POSITIVE.len());
        assert!(l.negative().len() >= CANONICAL_NEGATIVE.len());
    }
}
