//! Shared lexical feature extraction for the Perspective-like models and
//! the SVM's dense auxiliary features.
//!
//! All features are ratios/densities in `[0, 1]`, computed from token-level
//! matches against marker lists. The synthetic text generator embeds the
//! same markers, so these features carry genuine signal.

use crate::lexicon::Lexicon;
use std::collections::HashSet;
use textkit::{porter_stem, tokenize, WordSet};

/// Mild insult markers (real words — intentionally ordinary ones) feeding
/// the `ATTACK_ON_AUTHOR` and `LIKELY_TO_REJECT` models.
pub const INSULTS: &[&str] = &[
    "idiot", "fool", "clown", "liar", "moron", "stupid", "dumb", "pathetic", "loser", "trash",
    "garbage", "coward", "traitor", "shill", "hack", "disgusting", "vile", "corrupt", "fraud",
    "sheep",
];

/// Markers indicating the comment addresses the *author* of the content.
pub const AUTHOR_WORDS: &[&str] = &[
    "author", "writer", "journalist", "reporter", "editor", "wrote", "writes", "columnist",
    "publisher", "hackjob",
];

/// Second-person markers.
pub const SECOND_PERSON: &[&str] = &["you", "your", "yours", "yourself", "u"];

/// Number of synthetic obscenity markers.
pub const OBSCENE_COUNT: usize = 64;

/// Deterministic synthetic obscenity marker list (stand-ins for profanity;
/// same generation scheme as the hate lexicon, different stream).
pub fn obscene_markers() -> Vec<String> {
    let mut state = 0x5851_f42d_4c95_7f2du64;
    let mut out = Vec::with_capacity(OBSCENE_COUNT);
    let mut seen = HashSet::new();
    while out.len() < OBSCENE_COUNT {
        let w = super::lexicon::pseudo_word_public(&mut state);
        if seen.insert(w.clone()) {
            out.push(w);
        }
    }
    out
}

/// Token-level feature vector for one comment.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TextFeatures {
    /// Hate-lexicon token ratio.
    pub hate_ratio: f64,
    /// Obscenity-marker token ratio.
    pub obscene_ratio: f64,
    /// Insult token ratio.
    pub insult_ratio: f64,
    /// Author-word token ratio.
    pub author_ratio: f64,
    /// Second-person token ratio.
    pub second_person_ratio: f64,
    /// `!` characters per character (capped at 1).
    pub exclaim_density: f64,
    /// Uppercase letters per letter in the raw text.
    pub caps_ratio: f64,
    /// Token count.
    pub tokens: usize,
}

/// Extracts [`TextFeatures`]; construction pre-stems all marker lists.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    hate: Lexicon,
    obscene: WordSet,
    insults: WordSet,
    author: WordSet,
    second: WordSet,
}

impl FeatureExtractor {
    /// Extractor over the standard lexicon and marker lists.
    pub fn standard() -> Self {
        Self::new(Lexicon::standard())
    }

    /// Extractor with a custom hate lexicon.
    pub fn new(hate: Lexicon) -> Self {
        let stem_set = |ws: &[&str]| ws.iter().map(|w| porter_stem(w)).collect::<WordSet>();
        Self {
            hate,
            obscene: obscene_markers().iter().map(|w| porter_stem(w)).collect(),
            insults: stem_set(INSULTS),
            author: stem_set(AUTHOR_WORDS),
            second: SECOND_PERSON.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// The hate lexicon in use.
    pub fn lexicon(&self) -> &Lexicon {
        &self.hate
    }

    /// Compute features for raw comment text.
    pub fn extract(&self, text: &str) -> TextFeatures {
        self.extract_from(text, &StemmedTokens::of(text))
    }

    /// Compute features for `text` from its token pass `tokens`.
    /// Second-person tokens count only toward `second_person_ratio`; the
    /// marker channels match the stems of every other token.
    pub fn extract_from(&self, text: &str, tokens: &StemmedTokens) -> TextFeatures {
        let n = tokens.len();
        if n == 0 {
            return TextFeatures::default();
        }
        let mut hate = 0usize;
        let mut obscene = 0usize;
        let mut insult = 0usize;
        let mut author = 0usize;
        let mut second = 0usize;
        for (t, s) in tokens.tokens.iter().zip(&tokens.stems) {
            if self.second.contains(t.as_str()) {
                second += 1;
                continue;
            }
            if self.hate.contains_stemmed(s) {
                hate += 1;
            }
            if self.obscene.contains(s) {
                obscene += 1;
            }
            if self.insults.contains(s) {
                insult += 1;
            }
            if self.author.contains(s) {
                author += 1;
            }
        }
        let chars = text.chars().count().max(1);
        let letters = text.chars().filter(|c| c.is_alphabetic()).count();
        let uppers = text.chars().filter(|c| c.is_uppercase()).count();
        TextFeatures {
            hate_ratio: hate as f64 / n as f64,
            obscene_ratio: obscene as f64 / n as f64,
            insult_ratio: insult as f64 / n as f64,
            author_ratio: author as f64 / n as f64,
            second_person_ratio: second as f64 / n as f64,
            exclaim_density: (text.matches('!').count() as f64 / chars as f64).min(1.0),
            caps_ratio: if letters > 0 { uppers as f64 / letters as f64 } else { 0.0 },
            tokens: n,
        }
    }

    /// The §3.5.1 dictionary ratio from a token pass: hate-lexicon hits
    /// over *every* stemmed token, second-person ones included — what
    /// [`crate::HateDictionary::score`] computes over this lexicon,
    /// unlike `hate_ratio`, which skips second-person tokens.
    pub fn dictionary_ratio(&self, tokens: &StemmedTokens) -> f64 {
        if tokens.is_empty() {
            return 0.0;
        }
        let hits = tokens.stems.iter().filter(|s| self.hate.contains_stemmed(s)).count();
        hits as f64 / tokens.len() as f64
    }
}

/// One comment's tokens and their Porter stems: the single text pass
/// that both lexical scorers (the dictionary ratio and the
/// Perspective-style features) read.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StemmedTokens {
    /// Lowercase word tokens, as [`textkit::tokenize()`] splits them.
    pub tokens: Vec<String>,
    /// The Porter stem of each token, in the same order.
    pub stems: Vec<String>,
}

impl StemmedTokens {
    /// Tokenize `text` once and stem every token once.
    pub fn of(text: &str) -> Self {
        let tokens = tokenize(text);
        let stems = tokens.iter().map(|t| porter_stem(t)).collect();
        Self { tokens, stems }
    }

    /// Token count.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the text had no tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_text_all_zero() {
        let fx = FeatureExtractor::standard();
        assert_eq!(fx.extract(""), TextFeatures::default());
    }

    #[test]
    fn benign_text_near_zero() {
        let fx = FeatureExtractor::standard();
        let f = fx.extract("what a nice day to read the news");
        assert_eq!(f.hate_ratio, 0.0);
        assert_eq!(f.obscene_ratio, 0.0);
        assert_eq!(f.insult_ratio, 0.0);
        assert!(f.tokens > 0);
    }

    #[test]
    fn marker_channels_are_independent() {
        let fx = FeatureExtractor::standard();
        let hate_term = fx.lexicon().term(3).to_owned();
        let obs = obscene_markers()[0].clone();
        let f = fx.extract(&format!("{hate_term} {obs} idiot author you stuff"));
        assert!(f.hate_ratio > 0.0);
        assert!(f.obscene_ratio > 0.0);
        assert!(f.insult_ratio > 0.0);
        assert!(f.author_ratio > 0.0);
        assert!(f.second_person_ratio > 0.0);
    }

    #[test]
    fn caps_and_exclaim() {
        let fx = FeatureExtractor::standard();
        let f = fx.extract("THIS IS WRONG!!!");
        assert!(f.caps_ratio > 0.9);
        assert!(f.exclaim_density > 0.1);
        let g = fx.extract("this is fine.");
        assert_eq!(g.caps_ratio, 0.0);
        assert_eq!(g.exclaim_density, 0.0);
    }

    #[test]
    fn obscene_markers_deterministic_and_disjoint_from_hate() {
        let a = obscene_markers();
        let b = obscene_markers();
        assert_eq!(a, b);
        assert_eq!(a.len(), OBSCENE_COUNT);
        let lex = Lexicon::standard();
        for m in &a {
            assert!(!lex.matches_token(m), "obscene marker {m} collides with hate lexicon");
        }
    }

    #[test]
    fn dictionary_ratio_matches_the_dictionary_scorer_bit_for_bit() {
        let fx = FeatureExtractor::standard();
        let dict = crate::HateDictionary::standard();
        let t = |i: usize| fx.lexicon().term(i).to_owned();
        let texts = [
            String::new(),
            "!!! ... 123".to_owned(),
            format!("you {} you your yours yourself u", t(1)),
            format!("@{} {} https://x.example/{} www.{}.com {}", t(2), t(2), t(3), t(3), t(4)),
            format!("{}s 10 {} 2020 {}ing", t(5), t(6), t(7)),
            format!("{} sooooo haaaaate {}!!! YOU {}", t(8), t(9), t(10).to_uppercase()),
            "a perfectly pleasant remark, don't 'quote' me".to_owned(),
        ];
        for text in &texts {
            let ratio = fx.dictionary_ratio(&StemmedTokens::of(text));
            assert_eq!(ratio.to_bits(), dict.score(text).to_bits(), "text {text:?}");
            assert_eq!(fx.extract(text), fx.extract_from(text, &StemmedTokens::of(text)));
        }
        // Second-person tokens count in both denominators; the feature
        // channels skip their stems.
        let text = format!("you {}", t(11));
        let tokens = StemmedTokens::of(&text);
        assert_eq!(fx.dictionary_ratio(&tokens), 0.5);
        assert_eq!(fx.extract_from(&text, &tokens).hate_ratio, 0.5);
        assert_eq!(fx.extract_from(&text, &tokens).second_person_ratio, 0.5);
    }

    #[test]
    fn ratios_bounded() {
        let fx = FeatureExtractor::standard();
        let term = fx.lexicon().term(0).to_owned();
        let txt = format!("{term} {term} {term}");
        let f = fx.extract(&txt);
        assert!(f.hate_ratio <= 1.0 && f.hate_ratio > 0.9);
    }
}
