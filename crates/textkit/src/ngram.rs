//! Character n-gram extraction.
//!
//! The language identifier trains on character trigrams. (The SVM of
//! §3.5.3 hashes its word 1- and 2-grams straight from the token list;
//! see `classify::svm::Featurizer`.)

/// Character n-grams over the raw text with `^`/`$` boundary padding.
///
/// Operates on `char`s so multi-byte letters (umlauts, accents — the very
/// signal that separates German/French from English) count as one symbol.
pub fn char_ngrams(text: &str, n: usize) -> Vec<String> {
    assert!(n >= 1, "n-gram order must be >= 1");
    let mut chars: Vec<char> = Vec::with_capacity(text.len() + 2);
    chars.push('^');
    chars.extend(text.chars().map(|c| if c.is_whitespace() { ' ' } else { c }));
    chars.push('$');
    if chars.len() < n {
        return Vec::new();
    }
    chars.windows(n).map(|w| w.iter().collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn char_trigrams_have_padding() {
        let g = char_ngrams("ab", 3);
        assert_eq!(g, vec!["^ab", "ab$"]);
    }

    #[test]
    fn char_ngrams_unicode_counts_chars() {
        let g = char_ngrams("\u{fc}b", 3);
        assert_eq!(g, vec!["^\u{fc}b", "\u{fc}b$"]);
    }

    #[test]
    fn char_ngrams_whitespace_normalized() {
        let g = char_ngrams("a\tb", 3);
        assert!(g.contains(&"a b".to_string()));
    }

    #[test]
    #[should_panic(expected = "order")]
    fn zero_order_panics() {
        char_ngrams("", 0);
    }
}
