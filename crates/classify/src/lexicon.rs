//! The synthetic hate lexicon.
//!
//! The paper uses a modified Hatebase dictionary of 1,027 hate terms
//! (§3.5.1). Redistributing actual slurs would be harmful and is blocked by
//! Hatebase licensing, so we synthesize a lexicon of the same size from a
//! deterministic syllable generator. The synthetic text generator embeds
//! these same pseudo-terms in generated comments, so the dictionary scorer
//! measures a real lexical signal.
//!
//! Faithfulness details carried over from the paper's discussion:
//! * a small set of **ambiguous** everyday words is included (the paper
//!   cites "queen" and "pig"), which the benign vocabulary also uses —
//!   creating genuine false positives;
//! * tokens may appear with a trailing slang `z` in text ("…z"), which the
//!   stemmer does not strip — creating genuine false negatives;
//! * substring collisions ("paki" inside "Pakistan") are modeled by a
//!   benign word that contains one lexicon term as a prefix.

use std::collections::HashSet;
use textkit::{porter_stem, WordSet};

/// Number of terms in the paper's dictionary.
pub const LEXICON_SIZE: usize = 1_027;

/// Everyday words included in the lexicon despite benign meanings; these
/// also appear in the benign vocabulary (false-positive source, §3.5).
pub const AMBIGUOUS_TERMS: &[&str] = &["queen", "pig", "skank"];

/// A benign word that contains a lexicon term as a substring, modeling the
/// paper's "Pakistan contains 'paki'" example. The generator uses it in
/// benign text; substring-matching scorers would false-positive on it.
pub const SUBSTRING_TRAP: &str = "vorgastan";

/// The lexicon-term prefix of [`SUBSTRING_TRAP`].
pub const SUBSTRING_TRAP_TERM: &str = "vorga";

/// The hate lexicon: term list plus a stemmed lookup set.
#[derive(Debug, Clone)]
pub struct Lexicon {
    terms: Vec<String>,
    stemmed: WordSet,
}

impl Lexicon {
    /// Build the standard 1,027-term synthetic lexicon. Deterministic:
    /// every call yields the identical list.
    pub fn standard() -> Self {
        Self::with_size(LEXICON_SIZE)
    }

    /// Build a lexicon with `size` terms (≥ the ambiguous/trap seeds).
    pub fn with_size(size: usize) -> Self {
        assert!(size > AMBIGUOUS_TERMS.len() + 1, "lexicon too small");
        let mut terms: Vec<String> = Vec::with_capacity(size);
        terms.extend(AMBIGUOUS_TERMS.iter().map(|s| s.to_string()));
        terms.push(SUBSTRING_TRAP_TERM.to_string());
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut seen: HashSet<String> = terms.iter().cloned().collect();
        while terms.len() < size {
            let w = pseudo_word(&mut state);
            // Never collide with common English (the generator's benign
            // vocabulary comes from textkit's seed words).
            if seen.contains(&w) || is_seed_word(&w) {
                continue;
            }
            seen.insert(w.clone());
            terms.push(w);
        }
        let stemmed = terms.iter().map(|t| porter_stem(t)).collect();
        Self { terms, stemmed }
    }

    /// The raw (unstemmed) term list.
    pub fn terms(&self) -> &[String] {
        &self.terms
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the lexicon is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Does a **stemmed** token match the lexicon?
    pub fn contains_stemmed(&self, stemmed_token: &str) -> bool {
        self.stemmed.contains(stemmed_token)
    }

    /// Does a raw token match after stemming?
    pub fn matches_token(&self, token: &str) -> bool {
        self.contains_stemmed(&porter_stem(token))
    }

    /// Deterministic term by index — used by the text generator to embed
    /// hate terms in synthetic comments.
    pub fn term(&self, idx: usize) -> &str {
        &self.terms[idx % self.terms.len()]
    }
}

fn is_seed_word(w: &str) -> bool {
    use textkit::langid::{seed_words, Lang};
    Lang::ALL.iter().any(|&l| seed_words(l).contains(&w))
}

/// Public re-export of the pseudo-word generator for sibling marker lists
/// (the obscenity markers use a different stream seed).
pub fn pseudo_word_public(state: &mut u64) -> String {
    pseudo_word(state)
}

/// Generate a pronounceable pseudo-word from a SplitMix64 stream.
fn pseudo_word(state: &mut u64) -> String {
    const ONSETS: &[&str] = &[
        "b", "bl", "br", "d", "dr", "f", "fl", "g", "gl", "gr", "k", "kr", "m", "n", "p", "pl",
        "pr", "r", "s", "sk", "sl", "sn", "st", "t", "tr", "v", "z", "zr",
    ];
    // Nuclei avoid digraphs characteristic of the non-English profiles
    // ("au", "ei", "io", …) so pseudo-words stay out-of-vocabulary for the
    // language identifier rather than voting for French/Italian.
    const NUCLEI: &[&str] = &["a", "e", "i", "o", "u", "aa", "ee", "oo"];
    const CODAS: &[&str] = &["", "b", "d", "g", "k", "l", "m", "n", "p", "r", "s", "t", "x"];
    let mut next = || {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let syllables = 2 + (next() % 2) as usize; // 2-3 syllables
    let mut w = String::new();
    for _ in 0..syllables {
        let r = next();
        w.push_str(ONSETS[(r % ONSETS.len() as u64) as usize]);
        w.push_str(NUCLEI[((r >> 16) % NUCLEI.len() as u64) as usize]);
        w.push_str(CODAS[((r >> 32) % CODAS.len() as u64) as usize]);
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_has_paper_size() {
        let lex = Lexicon::standard();
        assert_eq!(lex.len(), LEXICON_SIZE);
    }

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(Lexicon::standard().terms(), Lexicon::standard().terms());
    }

    #[test]
    fn terms_are_unique() {
        let lex = Lexicon::standard();
        let set: HashSet<&String> = lex.terms().iter().collect();
        assert_eq!(set.len(), lex.len());
    }

    #[test]
    fn ambiguous_terms_included() {
        let lex = Lexicon::standard();
        for t in AMBIGUOUS_TERMS {
            assert!(lex.matches_token(t), "{t} missing");
        }
    }

    #[test]
    fn matching_is_stem_aware() {
        let lex = Lexicon::standard();
        // "queens" stems to "queen".
        assert!(lex.matches_token("queens"));
        // Slang 'z' suffix defeats the stemmer — a designed false negative.
        assert!(!lex.matches_token("queenz"));
    }

    #[test]
    fn substring_trap_is_not_a_token_match() {
        let lex = Lexicon::standard();
        assert!(lex.matches_token(SUBSTRING_TRAP_TERM));
        assert!(
            !lex.matches_token(SUBSTRING_TRAP),
            "token-level matching must not fire on the containing word"
        );
    }

    #[test]
    fn no_overlap_with_language_seed_vocab() {
        use textkit::langid::{seed_words, Lang};
        let lex = Lexicon::standard();
        for &l in &Lang::ALL {
            for w in seed_words(l) {
                let generated = !AMBIGUOUS_TERMS.contains(w);
                if generated {
                    assert!(
                        !lex.terms().iter().any(|t| t == w),
                        "seed word {w} leaked into lexicon"
                    );
                }
            }
        }
    }

    #[test]
    fn custom_size() {
        let lex = Lexicon::with_size(50);
        assert_eq!(lex.len(), 50);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_size_panics() {
        Lexicon::with_size(2);
    }
}
