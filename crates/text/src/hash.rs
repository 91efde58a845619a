//! The word hasher of the comment kernel's read-only tables.
//!
//! The std `HashMap` hashes with keyed SipHash (`RandomState`). Its key
//! makes bucket positions unpredictable, which a map needs when it stores
//! strings an outsider chose: without it, crafted keys could pile into
//! one probe sequence. Two maps of the kernel never store such a string:
//!
//! * the analyzer's token table is built from the model alone and only
//!   probed afterwards, so a request token can pick where its probe
//!   starts but cannot lengthen any probe sequence;
//! * the feature counter's id map is keyed by that table's ids, which are
//!   smaller than the table.
//!
//! Those two use [`WordHasher`], an unkeyed multiply–rotate over 8-byte
//! words, several times cheaper than SipHash on comment-sized tokens.
//! Every map that stores request strings keeps `RandomState`.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap`/`HashSet` hasher builder for [`WordHasher`].
pub type BuildWordHasher = BuildHasherDefault<WordHasher>;

/// Odd multiplier (2^64 / φ): multiplying by it is a bijection on `u64`
/// that carries every bit into all the bits above it.
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// State before the first word, so that an all-zero word still moves it.
const SEED: u64 = 0x2D35_8DCC_AA6C_78A5;

/// Unkeyed multiply–rotate hasher: each 8-byte word (the tail zero-padded)
/// is xored into the state, which is multiplied by an odd constant and
/// rotated left by 26, so the well-mixed high bits of one product feed
/// the low bits of the next. `str` keys end with the `0xFF` terminator
/// word of `Hash for str`, so a key's last word also goes through a
/// second round before it reaches the bucket bits.
///
/// For tables whose keys no outsider inserts; see the [module](self) docs.
#[derive(Debug, Clone, Copy)]
pub struct WordHasher(u64);

impl Default for WordHasher {
    fn default() -> Self {
        Self(SEED)
    }
}

impl WordHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(MUL).rotate_left(26);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let mut tail = words.remainder();
        if tail.is_empty() {
            return;
        }
        // The tail as one little-endian word, read in 4-, 2- and 1-byte
        // steps rather than copied into a buffer.
        let (mut word, mut shift) = (0u64, 0);
        if tail.len() >= 4 {
            word = u64::from(u32::from_le_bytes(tail[..4].try_into().expect("4 bytes")));
            (shift, tail) = (32, &tail[4..]);
        }
        if tail.len() >= 2 {
            word |= u64::from(u16::from_le_bytes(tail[..2].try_into().expect("2 bytes"))) << shift;
            shift += 16;
            tail = &tail[2..];
        }
        if let Some(&one) = tail.first() {
            word |= u64::from(one) << shift;
        }
        self.mix(word);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash + ?Sized>(x: &T) -> u64 {
        BuildWordHasher::default().hash_one(x)
    }

    #[test]
    fn tail_word_equals_the_zero_padded_bytes() {
        for len in 0..=24usize {
            let bytes: Vec<u8> = (1..=len as u8).collect();
            let mut by_steps = WordHasher::default();
            by_steps.write(&bytes);
            let mut padded = WordHasher::default();
            for chunk in bytes.chunks(8) {
                let mut w = [0u8; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                padded.mix(u64::from_le_bytes(w));
            }
            assert_eq!(by_steps.finish(), padded.finish(), "len {len}");
        }
    }

    #[test]
    fn one_byte_changes_reach_the_low_bits() {
        // Every single-byte change of strings up to 24 bytes moves the
        // low 16 bits (the bucket of a 65,536-slot table), in all but a
        // chance share of cases.
        let (mut cases, mut same_low) = (0usize, 0usize);
        for len in 1..=24usize {
            let base: String = "hao0zan1cha2lan3很好".chars().cycle().take(len).collect();
            let h0 = hash(base.as_str());
            for pos in 0..base.len() {
                if !base.is_char_boundary(pos) || base.as_bytes()[pos] >= 0x80 {
                    continue;
                }
                for b in (b'!'..=b'~').filter(|&b| b != base.as_bytes()[pos]) {
                    let mut bytes = base.clone().into_bytes();
                    bytes[pos] = b;
                    let h = hash(std::str::from_utf8(&bytes).unwrap());
                    assert_ne!(h, h0, "{base:?} byte {pos} -> {b}");
                    cases += 1;
                    same_low += usize::from(h & 0xFFFF == h0 & 0xFFFF);
                }
            }
        }
        assert!(same_low * 2000 < cases, "{same_low} of {cases} share the low 16 bits");
    }

    #[test]
    fn dense_ids_hash_to_distinct_values() {
        let hashes: HashSet<u64> = (0..1u32 << 16).map(|id| hash(&id)).collect();
        assert_eq!(hashes.len(), 1 << 16);
        // ... and spread over the buckets of a table of their size.
        let buckets: HashSet<u64> = (0..1u32 << 12).map(|id| hash(&id) & 0xFFF).collect();
        assert!(buckets.len() > 2400, "{} of 4096 buckets used", buckets.len());
    }
}
