//! Word segmentation.
//!
//! The paper segments each Chinese comment into its word set before any
//! feature is computed. Our synthetic corpus is whitespace-delimited, so the
//! stand-in segmenter splits on whitespace and additionally detaches
//! punctuation marks into their own tokens — the punctuation features
//! (Fig 2, `sumPunctuationNumber`, `averagePunctuationRatio`) need
//! punctuation to survive segmentation as countable tokens.

/// Characters treated as punctuation by the segmenter and by
/// [`is_punctuation_token`]. Includes both ASCII and full-width CJK marks,
/// mirroring the mixed punctuation of real e-commerce comments.
pub const PUNCTUATION: &[char] =
    &[',', '.', '!', '?', ';', ':', '~', '…', '，', '。', '！', '？', '；', '：', '、'];

/// Returns `true` if `c` counts as punctuation for the structural features
/// (`c` is in [`PUNCTUATION`]). A `match`, not a scan of the list: the
/// segmenter asks this of every character.
#[inline]
pub fn is_punctuation_char(c: char) -> bool {
    matches!(
        c,
        ',' | '.'
            | '!'
            | '?'
            | ';'
            | ':'
            | '~'
            | '…'
            | '，'
            | '。'
            | '！'
            | '？'
            | '；'
            | '：'
            | '、'
    )
}

/// Returns `true` if every character of `tok` is punctuation (and `tok` is
/// non-empty).
#[inline]
pub fn is_punctuation_token(tok: &str) -> bool {
    !tok.is_empty() && tok.chars().all(is_punctuation_char)
}

/// A word segmenter: raw comment text → token sequence.
///
/// The paper's pipeline uses a Chinese word segmenter here; swapping the
/// implementation is the only change needed to run CATS on a platform with a
/// different comment language — exactly the cross-platform property the
/// paper claims.
///
/// Every token is a contiguous substring of the text, so a segmenter only
/// scans: [`Segmenter::segment_borrowed`] appends slices of `text`, and the
/// owned forms copy those slices.
pub trait Segmenter {
    /// Segments `text`, appending its tokens to `out` as slices of `text`.
    fn segment_borrowed<'a>(&self, text: &'a str, out: &mut Vec<&'a str>);

    /// Segments `text` into owned tokens, replacing the contents of `out`
    /// (its allocation is reused). The slices are collected in a fresh
    /// scratch `Vec` first, so each call allocates it once.
    fn segment_into(&self, text: &str, out: &mut Vec<String>) {
        let mut tokens = Vec::new();
        self.segment_borrowed(text, &mut tokens);
        out.clear();
        out.extend(tokens.into_iter().map(str::to_owned));
    }

    /// Convenience wrapper returning a fresh `Vec`.
    fn segment(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.segment_into(text, &mut out);
        out
    }
}

/// Splits on Unicode whitespace and detaches punctuation characters into
/// standalone tokens.
///
/// ```
/// use cats_text::segment::{Segmenter, WhitespaceSegmenter};
/// let s = WhitespaceSegmenter::default();
/// assert_eq!(
///     s.segment("hao ping! zhide mai."),
///     vec!["hao", "ping", "!", "zhide", "mai", "."]
/// );
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct WhitespaceSegmenter;

/// Byte class of a word character.
const WORD: u8 = 0;
/// Byte class of a whitespace character: a token boundary.
const SPACE: u8 = 1;
/// Byte class of a punctuation character: a token of its own.
const PUNCT: u8 = 2;

/// The class of every ASCII byte: [`SPACE`] for 0x09–0x0D and 0x20, the
/// ASCII characters `char::is_whitespace` accepts (0x1C–0x1F, which
/// `is_whitespace` rejects, are word bytes); [`PUNCT`] for the ASCII
/// members of [`PUNCTUATION`]; [`WORD`] for the rest.
const ASCII_CLASS: [u8; 128] = {
    let mut class = [WORD; 128];
    let mut b = 0x09;
    while b <= 0x0D {
        class[b] = SPACE;
        b += 1;
    }
    class[b' ' as usize] = SPACE;
    let punct = b",.!?;:~";
    let mut i = 0;
    while i < punct.len() {
        class[punct[i] as usize] = PUNCT;
        i += 1;
    }
    class
};

/// The class of any char; [`ASCII_CLASS`] holds it for the ASCII ones.
#[inline]
fn char_class(c: char) -> u8 {
    if c.is_whitespace() {
        SPACE
    } else if is_punctuation_char(c) {
        PUNCT
    } else {
        WORD
    }
}

impl Segmenter for WhitespaceSegmenter {
    /// Walks the bytes of `text`: an ASCII byte is classed by a 128-entry
    /// table, and a `char` is decoded only at a non-ASCII lead byte. A
    /// token ends at whitespace or punctuation; a punctuation char is
    /// pushed as a token of its own.
    fn segment_borrowed<'a>(&self, text: &'a str, out: &mut Vec<&'a str>) {
        let bytes = text.as_bytes();
        let mut word_start: Option<usize> = None;
        let mut i = 0;
        while i < bytes.len() {
            let b = bytes[i];
            let (class, len) = if b.is_ascii() {
                (ASCII_CLASS[usize::from(b)], 1)
            } else {
                let c = text[i..].chars().next().expect("a char starts at a lead byte");
                (char_class(c), c.len_utf8())
            };
            if class == WORD {
                word_start.get_or_insert(i);
            } else {
                if let Some(start) = word_start.take() {
                    out.push(&text[start..i]);
                }
                if class == PUNCT {
                    out.push(&text[i..i + len]);
                }
            }
            i += len;
        }
        if let Some(start) = word_start {
            out.push(&text[start..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn seg(text: &str) -> Vec<String> {
        WhitespaceSegmenter.segment(text)
    }

    #[test]
    fn splits_on_whitespace() {
        assert_eq!(seg("a b  c\td"), vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn empty_and_whitespace_only() {
        assert!(seg("").is_empty());
        assert!(seg("   \t\n ").is_empty());
    }

    #[test]
    fn detaches_ascii_punctuation() {
        assert_eq!(seg("good!bad?"), vec!["good", "!", "bad", "?"]);
    }

    #[test]
    fn detaches_cjk_punctuation() {
        assert_eq!(seg("hao，ping。"), vec!["hao", "，", "ping", "。"]);
    }

    #[test]
    fn consecutive_punctuation_yields_separate_tokens() {
        assert_eq!(seg("wow!!!"), vec!["wow", "!", "!", "!"]);
    }

    #[test]
    fn punctuation_token_predicate() {
        assert!(is_punctuation_token("!"));
        assert!(is_punctuation_token("。"));
        assert!(!is_punctuation_token("a!"));
        assert!(!is_punctuation_token(""));
        assert!(!is_punctuation_token("word"));
    }

    #[test]
    fn punctuation_predicate_matches_the_list() {
        for c in (0..=0x10FFFF).filter_map(char::from_u32) {
            assert_eq!(is_punctuation_char(c), PUNCTUATION.contains(&c), "{c:?}");
        }
    }

    #[test]
    fn borrowed_scan_appends_slices_of_the_text() {
        let (text, mut out) = ("hao，ping !", vec!["kept"]);
        WhitespaceSegmenter.segment_borrowed(text, &mut out);
        assert_eq!(out, vec!["kept", "hao", "，", "ping", "!"]);
        assert!(out[1..].iter().all(|t| text.as_bytes().as_ptr_range().contains(&t.as_ptr())));
    }

    #[test]
    fn segment_into_reuses_buffer() {
        let s = WhitespaceSegmenter;
        let mut buf = vec!["stale".to_string()];
        s.segment_into("x y", &mut buf);
        assert_eq!(buf, vec!["x", "y"]);
    }

    #[test]
    fn no_whitespace_single_token() {
        assert_eq!(seg("haoping"), vec!["haoping"]);
    }

    /// The char-by-char segmenter the slice-based one replaced: the
    /// oracle of the differential test below.
    fn segment_by_chars(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut word = String::new();
        for c in text.chars() {
            if c.is_whitespace() {
                if !word.is_empty() {
                    out.push(std::mem::take(&mut word));
                }
            } else if is_punctuation_char(c) {
                if !word.is_empty() {
                    out.push(std::mem::take(&mut word));
                }
                out.push(c.to_string());
            } else {
                word.push(c);
            }
        }
        if !word.is_empty() {
            out.push(word);
        }
        out
    }

    /// The alphabet of the seeded differential cases: every ASCII byte
    /// (0x1C–0x1F are not `char::is_whitespace`, the trap of an ASCII
    /// class table), non-ASCII whitespace, the zero-width non-whitespace
    /// U+200B and U+FEFF, CJK punctuation and multi-byte letters.
    fn alphabet() -> Vec<char> {
        let mut chars: Vec<char> = (0u8..0x80).map(char::from).collect();
        chars.extend([
            '\u{85}', '\u{a0}', '\u{1680}', '\u{2028}', '\u{205F}', '\u{3000}', '\u{200B}',
            '\u{FEFF}', '…', '，', '。', '、', '很', '好', 'é', '🙂',
        ]);
        // Letters and spaces again, so texts also hold real words.
        chars.extend(['a', 'b', 'h', 'o', ' ', ' ', 'a', 'o']);
        chars
    }

    /// Texts where the byte-class segmenter and the char-by-char one
    /// disagree, over `cases` seeded texts (the fixed ones first).
    fn segmenter_mismatches(seed: u64, cases: usize) -> usize {
        let alphabet = alphabet();
        let fixed = [
            "",
            " ",
            "!!!",
            "。，、",
            "a\u{1}b",
            "a\u{1c}b\u{1d}c\u{1e}d\u{1f}e",
            "很好 很好！",
            "🙂🙂 !",
            "a\u{a0}b\u{3000}c\u{2028}d\u{85}e\u{1680}f\u{205F}g",
            "a\u{200B}b\u{FEFF}c",
            "\t\n\u{b}\u{c}\r x \u{7f}",
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mismatches = 0;
        for case in 0..cases {
            let text: String = match fixed.get(case) {
                Some(t) => t.to_string(),
                None => {
                    let len = match case % 4 {
                        0 => (rng.next_u64() % 8) as usize,
                        3 => 2000 + (rng.next_u64() % 2000) as usize,
                        _ => (rng.next_u64() % 80) as usize,
                    };
                    (0..len)
                        .map(|_| alphabet[(rng.next_u64() % alphabet.len() as u64) as usize])
                        .collect()
                }
            };
            if seg(&text) != segment_by_chars(&text) {
                mismatches += 1;
                eprintln!("mismatch on case {case}: {text:?}");
            }
        }
        mismatches
    }

    #[test]
    fn matches_char_by_char_segmenter_on_seeded_texts() {
        assert_eq!(segmenter_mismatches(0x5EED, 4000), 0);
    }

    /// 100 times the tier-1 cases, on fresh seeds; run with `--ignored`.
    #[test]
    #[ignore]
    fn matches_char_by_char_segmenter_on_many_seeded_texts() {
        let mismatches: usize =
            (0..100).map(|round| segmenter_mismatches(0x5EED + round, 4000)).sum();
        assert_eq!(mismatches, 0);
    }

    #[test]
    fn ascii_class_table_agrees_with_the_char_predicates() {
        for b in 0u8..0x80 {
            let c = char::from(b);
            assert_eq!(ASCII_CLASS[usize::from(b)], char_class(c), "byte {b:#04x}");
            assert_eq!(ASCII_CLASS[usize::from(b)] == SPACE, c.is_whitespace(), "byte {b:#04x}");
            assert_eq!(
                ASCII_CLASS[usize::from(b)] == PUNCT,
                is_punctuation_char(c),
                "byte {b:#04x}"
            );
        }
    }

    #[test]
    fn matches_char_by_char_segmenter_around_every_char() {
        for c in (0..=0x10FFFF).filter_map(char::from_u32) {
            let text = format!("a{c}b{c}{c} ");
            assert_eq!(seg(&text), segment_by_chars(&text), "{c:?}");
        }
    }
}
