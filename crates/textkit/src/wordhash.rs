//! A fast hasher for short word and character-n-gram keys.
//!
//! Every scored token is looked up in a handful of fixed sets built from
//! the embedded vocabularies: the hate lexicon, the marker lists and the
//! language identifier's trigram table. Those keys are 2–15 bytes, for
//! which std's SipHash, built to resist hash flooding, is the slower
//! choice; FNV-1a hashes such a key with one multiply per byte.
//!
//! Flooding needs colliding keys *inserted*; these tables hold only the
//! program's own vocabulary, and comment text only looks keys up, so a
//! lookup costs at most the fixed table's longest probe. Nothing
//! iterates these tables in hash order, so the hasher changes no output.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A set of words hashed with [`Fnv1a`].
pub type WordSet = HashSet<String, BuildHasherDefault<Fnv1a>>;

/// A map from words hashed with [`Fnv1a`].
pub type WordMap<V> = HashMap<String, V, BuildHasherDefault<Fnv1a>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_and_maps_behave_like_std() {
        let words = ["the", "der", "^th", "he$", "", "\u{fc}ber"];
        let set: WordSet = words.iter().map(|w| w.to_string()).collect();
        let map: WordMap<usize> = words.iter().enumerate().map(|(i, w)| (w.to_string(), i)).collect();
        for (i, w) in words.iter().enumerate() {
            assert!(set.contains(*w));
            assert_eq!(map.get(*w), Some(&i));
        }
        assert!(!set.contains("thé"));
    }

    #[test]
    fn hashes_known_vectors() {
        let hash = |s: &[u8]| {
            let mut h = Fnv1a::default();
            h.write(s);
            h.finish()
        };
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
