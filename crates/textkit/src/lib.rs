#![warn(missing_docs)]
//! Text processing primitives for comment classification (§3.5).
//!
//! The paper's classification stack tokenizes each comment, performs
//! stemming, matches against a hate dictionary, builds 1/2-gram features
//! for an SVM, and identifies comment language with `langid.py`. This crate
//! provides those building blocks, implemented from scratch:
//!
//! * [`tokenize()`] — word tokenization with URL/mention/punctuation handling,
//! * [`clean`] — the normalization pipeline applied before featurization,
//! * [`stem`] — a full Porter stemmer,
//! * [`ngram`] — character n-gram extraction,
//! * [`langid`] — a character-trigram naive-Bayes language identifier
//!   (stand-in for `langid.py`), sharing its per-language seed vocabulary
//!   with the synthetic text generator so the classifier genuinely
//!   recognizes generated text rather than being told its label,
//! * [`wordhash`] — the FNV-1a-hashed sets and maps the scorers look
//!   tokens and trigrams up in.

pub mod clean;
pub mod langid;
pub mod ngram;
pub mod stem;
pub mod tokenize;
pub mod wordhash;

pub use clean::clean_text;
pub use langid::{detect, Lang, LangModel};
pub use ngram::char_ngrams;
pub use stem::porter_stem;
pub use tokenize::{tokenize, tokenize_stemmed};
pub use wordhash::{WordMap, WordSet};
