//! Character-trigram naive-Bayes language identification (§4.2.3).
//!
//! The paper classified all 1.68M comments with `langid.py`, finding 94%
//! English, 2% German, and <0.5% each for French, Spanish, and Italian.
//! This module is the stand-in: a multinomial naive-Bayes classifier over
//! character trigrams with Laplace smoothing, trained on the per-language
//! seed vocabularies below.
//!
//! The *same* seed vocabularies are exported (via [`seed_words`]) to the
//! synthetic text generator. That makes the experiment honest: the
//! generator samples words in a language, and the identifier must genuinely
//! recover the language from character statistics — there is no label
//! smuggling, and the classifier can (and occasionally does) misclassify
//! very short comments, just like `langid.py`.
//!
//! The trained model is one fused table: each trigram known to any
//! language maps to its five log-probabilities, one per [`Lang::ALL`]
//! entry (the shared smoothing background where a language never saw the
//! gram). Classifying a comment pads each word into one reused buffer,
//! looks every trigram up once as a `&str` slice of it, and adds the five
//! log-probabilities to five running sums in text order: one hash lookup
//! and no allocation per trigram. A gram outside the table is skipped for
//! every language alike.

use crate::ngram::char_ngrams;
use crate::wordhash::WordMap;
use std::sync::OnceLock;

/// Languages the identifier distinguishes — the five the paper reports,
/// plus `Unknown` for degenerate input (empty / all-punctuation text).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lang {
    /// English
    En,
    /// German
    De,
    /// French
    Fr,
    /// Spanish
    Es,
    /// Italian
    It,
    /// Could not be determined.
    Unknown,
}

impl Lang {
    /// All identifiable languages (excludes `Unknown`).
    pub const ALL: [Lang; 5] = [Lang::En, Lang::De, Lang::Fr, Lang::Es, Lang::It];

    /// ISO-639-1 code.
    pub fn code(&self) -> &'static str {
        match self {
            Lang::En => "en",
            Lang::De => "de",
            Lang::Fr => "fr",
            Lang::Es => "es",
            Lang::It => "it",
            Lang::Unknown => "??",
        }
    }
}

/// English evaluative/addressee vocabulary: heavily used in comment
/// sections (insults, author references). Included in the *language
/// profile* so marker-rich comments are not misattributed to other
/// languages, but excluded from the benign filler vocabulary the text
/// generator draws from (these words carry toxicity-feature signal).
pub const EN_EVALUATIVE: &[&str] = &[
    "idiot", "fool", "clown", "liar", "moron", "stupid", "dumb", "pathetic", "loser", "trash",
    "garbage", "coward", "traitor", "shill", "hack", "disgusting", "vile", "corrupt", "fraud",
    "sheep", "author", "writer", "journalist", "reporter", "editor", "wrote", "writes",
    "columnist", "publisher", "yours", "yourself",
];

/// Benign filler vocabulary per language — what the synthetic comment
/// generator samples between markers. For English this is
/// [`seed_words`] *without* the evaluative terms.
pub fn filler_words(lang: Lang) -> &'static [&'static str] {
    seed_words(lang)
}

/// Training corpus for the language profile: the filler vocabulary plus,
/// for English, the evaluative vocabulary.
fn profile_words(lang: Lang) -> Vec<&'static str> {
    let mut v: Vec<&'static str> = seed_words(lang).to_vec();
    if lang == Lang::En {
        v.extend_from_slice(EN_EVALUATIVE);
    }
    v
}

/// Common-word seed vocabulary for each language. Both the language model
/// and the synthetic comment generator draw from these lists.
pub fn seed_words(lang: Lang) -> &'static [&'static str] {
    match lang {
        Lang::En => &[
            "the", "be", "to", "of", "and", "a", "in", "that", "have", "it", "for", "not", "on",
            "with", "he", "as", "you", "do", "at", "this", "but", "his", "by", "from", "they",
            "we", "say", "her", "she", "or", "an", "will", "my", "one", "all", "would", "there",
            "their", "what", "so", "up", "out", "if", "about", "who", "get", "which", "go", "me",
            "when", "make", "can", "like", "time", "no", "just", "him", "know", "take", "people",
            "into", "year", "your", "good", "some", "could", "them", "see", "other", "than",
            "then", "now", "look", "only", "come", "its", "over", "think", "also", "back",
            "after", "use", "two", "how", "our", "work", "first", "well", "way", "even", "new",
            "want", "because", "any", "these", "give", "day", "most", "us", "news", "media",
            "free", "speech", "comment", "truth", "country", "world", "right", "wrong", "video",
            "watch", "read", "article", "story", "government", "believe", "never", "always",
            "censorship", "platform", "agree", "disagree", "real", "fake",
        ],
        Lang::De => &[
            "der", "die", "das", "und", "sein", "in", "ein", "zu", "haben", "ich", "werden",
            "sie", "von", "nicht", "mit", "es", "sich", "auch", "auf", "f\u{fc}r", "an", "er",
            "so", "dass", "k\u{f6}nnen", "dies", "als", "ihr", "ja", "wie", "bei", "oder", "wir",
            "aber", "dann", "man", "da", "sein", "noch", "nach", "was", "also", "aus", "all",
            "wenn", "nur", "mein", "gegen", "wieder", "schon", "vor", "durch", "geld", "jahr",
            "gut", "wissen", "neu", "sehen", "lassen", "unter", "wahrheit", "freiheit", "medien",
            "meinung", "deutschland", "europa", "menschen", "welt", "zeit", "immer", "nie",
            "viel", "mehr", "doch", "hier", "heute", "sagen", "machen", "geben", "kommen",
            "denken", "glauben", "richtig", "falsch", "nachrichten", "regierung", "zensur",
            "sprechen", "leben", "stark", "gro\u{df}", "klein", "\u{fc}ber", "zwischen",
        ],
        Lang::Fr => &[
            "le", "la", "les", "de", "un", "une", "\u{ea}tre", "et", "\u{e0}", "il", "elle",
            "avoir", "ne", "je", "son", "que", "se", "qui", "ce", "dans", "en", "du", "pas",
            "pour", "par", "sur", "faire", "plus", "dire", "me", "on", "mon", "lui", "nous",
            "comme", "mais", "pouvoir", "avec", "tout", "y", "aller", "voir", "bien", "o\u{f9}",
            "sans", "tu", "ou", "leur", "homme", "si", "deux", "mari", "moi", "vouloir",
            "quelque", "temps", "monde", "libert\u{e9}", "v\u{e9}rit\u{e9}", "m\u{e9}dias",
            "gouvernement", "toujours", "jamais", "beaucoup", "aujourd'hui", "parler", "penser",
            "croire", "vrai", "faux", "nouvelles", "censure", "vie", "grand", "petit", "fran\u{e7}ais",
        ],
        Lang::Es => &[
            "el", "la", "de", "que", "y", "a", "en", "un", "ser", "se", "no", "haber", "por",
            "con", "su", "para", "como", "estar", "tener", "le", "lo", "todo", "pero", "m\u{e1}s",
            "hacer", "o", "poder", "decir", "este", "ir", "otro", "ese", "si", "me", "ya", "ver",
            "porque", "dar", "cuando", "muy", "sin", "vez", "mucho", "saber", "qu\u{e9}", "sobre",
            "mi", "alguno", "mismo", "yo", "tambi\u{e9}n", "hasta", "a\u{f1}o", "dos", "querer",
            "entre", "as\u{ed}", "primero", "desde", "grande", "eso", "ni", "nos", "llegar",
            "pasar", "tiempo", "ella", "s\u{ed}", "d\u{ed}a", "uno", "bien", "poco", "deber",
            "entonces", "poner", "cosa", "tanto", "hombre", "parecer", "nuestro", "tan", "donde",
            "ahora", "parte", "despu\u{e9}s", "vida", "quedar", "siempre", "creer", "hablar",
            "llevar", "dejar", "nada", "cada", "seguir", "menos", "nuevo", "encontrar",
            "verdad", "libertad", "medios", "gobierno", "noticias", "censura", "mundo",
        ],
        Lang::It => &[
            "il", "di", "che", "e", "la", "per", "un", "in", "essere", "mi", "con", "non", "si",
            "ti", "lo", "le", "ci", "avere", "ma", "io", "una", "su", "questo", "qui", "hai",
            "del", "tu", "bene", "tutto", "della", "come", "te", "sono", "cosa", "se", "era",
            "quando", "anche", "ora", "pi\u{f9}", "molto", "grazie", "senza", "cos\u{ec}",
            "gli", "uomo", "gi\u{e0}", "tempo", "vita", "mai", "sempre", "verit\u{e0}",
            "libert\u{e0}", "governo", "notizie", "censura", "mondo", "grande", "piccolo",
            "parlare", "pensare", "credere", "vero", "falso", "giorno", "paese", "popolo",
            "perch\u{e9}", "dopo", "prima", "ancora", "allora", "fare", "dire", "vedere",
            "sapere", "oggi", "contro", "stato", "nostro", "loro",
        ],
        Lang::Unknown => &[],
    }
}

/// A trained trigram naive-Bayes model: one table from each trigram known
/// to any language to its log-probability under each of [`Lang::ALL`].
#[derive(Debug, Clone)]
pub struct LangModel {
    /// `log P(gram | Lang::ALL[k])` at index `k`, interpolated with the
    /// shared background for languages that never saw the gram. Grams
    /// outside the table (slang, handles, the synthetic marker
    /// vocabulary) carry no language signal and are skipped — otherwise
    /// out-of-vocabulary mass would bias classification toward whichever
    /// language has the smallest profile.
    grams: WordMap<[f64; 5]>,
}

impl LangModel {
    /// Train from the embedded seed vocabularies.
    ///
    /// Smoothing is *interpolated with a shared uniform background*
    /// (`p = (1-α)·freq + α/|union|`) rather than per-language Laplace:
    /// with Laplace, a language with a smaller profile has a smaller
    /// denominator, so grams unknown to *every* language — and grams known
    /// only to another language — would systematically vote for the
    /// smallest profile. A shared background makes "unknown here" cost the
    /// same under every language.
    pub fn train() -> Self {
        let mut counts: WordMap<[u32; 5]> = WordMap::default();
        let mut totals = [0u32; 5];
        for (k, &lang) in Lang::ALL.iter().enumerate() {
            for w in profile_words(lang) {
                for g in char_ngrams(w, 3) {
                    counts.entry(g).or_default()[k] += 1;
                    totals[k] += 1;
                }
            }
        }
        const ALPHA: f64 = 1e-3;
        let background = ALPHA / counts.len().max(1) as f64;
        let unseen = background.ln();
        let grams = counts
            .into_iter()
            .map(|(g, c)| {
                let logp = std::array::from_fn(|k| {
                    if c[k] == 0 {
                        return unseen;
                    }
                    let freq = c[k] as f64 / totals[k].max(1) as f64;
                    ((1.0 - ALPHA) * freq + background).ln()
                });
                (g, logp)
            })
            .collect();
        Self { grams }
    }

    /// Classify `text`. Returns `Unknown` for text with no letters.
    pub fn classify(&self, text: &str) -> Lang {
        let lower = text.to_lowercase();
        if !lower.chars().any(|c| c.is_alphabetic()) {
            return Lang::Unknown;
        }
        // Score per word with the same `^word$` padding used in training,
        // so grams spanning spaces never occur. Each trigram is a slice of
        // one reused buffer, and every language's score is summed in text
        // order.
        let mut padded = String::new();
        let mut bounds: Vec<usize> = Vec::new();
        let mut scores = [0.0f64; 5];
        let mut known = 0usize;
        let words = lower.split(|c: char| !c.is_alphabetic() && c != '\'').filter(|w| !w.is_empty());
        for word in words {
            padded.clear();
            padded.push('^');
            padded.push_str(word);
            padded.push('$');
            bounds.clear();
            bounds.extend(padded.char_indices().map(|(i, _)| i));
            bounds.push(padded.len());
            for w in bounds.windows(4) {
                if let Some(logp) = self.grams.get(&padded[w[0]..w[3]]) {
                    known += 1;
                    for (score, p) in scores.iter_mut().zip(logp) {
                        *score += p;
                    }
                }
            }
        }
        if known == 0 {
            return Lang::Unknown;
        }
        let mut best = (Lang::Unknown, f64::NEG_INFINITY);
        for (&lang, &score) in Lang::ALL.iter().zip(&scores) {
            if score > best.1 {
                best = (lang, score);
            }
        }
        best.0
    }
}

static MODEL: OnceLock<LangModel> = OnceLock::new();

/// Classify with a lazily-trained shared model.
pub fn detect(text: &str) -> Lang {
    MODEL.get_or_init(LangModel::train).classify(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn detects_english() {
        assert_eq!(detect("this is just the truth about free speech and the media"), Lang::En);
    }

    #[test]
    fn detects_german() {
        assert_eq!(
            detect("die wahrheit \u{fc}ber die medien und die regierung in deutschland"),
            Lang::De
        );
    }

    #[test]
    fn detects_french() {
        assert_eq!(detect("la v\u{e9}rit\u{e9} sur les m\u{e9}dias et le gouvernement"), Lang::Fr);
    }

    #[test]
    fn detects_spanish() {
        assert_eq!(detect("la verdad sobre los medios y el gobierno de nuestro mundo"), Lang::Es);
    }

    #[test]
    fn detects_italian() {
        assert_eq!(detect("la verit\u{e0} sul governo e sulle notizie del nostro paese"), Lang::It);
    }

    #[test]
    fn degenerate_input_is_unknown() {
        assert_eq!(detect(""), Lang::Unknown);
        assert_eq!(detect("!!! 123 ..."), Lang::Unknown);
    }

    #[test]
    fn seed_vocabularies_nonempty_and_distinct() {
        for &l in &Lang::ALL {
            assert!(seed_words(l).len() >= 70, "{l:?} vocabulary too small");
        }
        assert!(seed_words(Lang::Unknown).is_empty());
    }

    /// The per-language model the fused table replaced: one `known` set
    /// plus one gram table per language, one `String` per trigram.
    struct PerLanguageModel {
        tables: Vec<(Lang, HashMap<String, f64>, f64)>,
        known: std::collections::HashSet<String>,
    }

    impl PerLanguageModel {
        fn train() -> Self {
            let mut raw: Vec<(Lang, HashMap<String, u32>, u32)> = Vec::new();
            let mut union = std::collections::HashSet::new();
            for &lang in &Lang::ALL {
                let mut counts: HashMap<String, u32> = HashMap::new();
                let mut total = 0u32;
                for w in profile_words(lang) {
                    for g in char_ngrams(w, 3) {
                        union.insert(g.clone());
                        *counts.entry(g).or_insert(0) += 1;
                        total += 1;
                    }
                }
                raw.push((lang, counts, total));
            }
            const ALPHA: f64 = 1e-3;
            let background = ALPHA / union.len().max(1) as f64;
            let tables = raw
                .into_iter()
                .map(|(lang, counts, total)| {
                    let logp = counts
                        .into_iter()
                        .map(|(g, c)| {
                            let freq = c as f64 / total.max(1) as f64;
                            (g, ((1.0 - ALPHA) * freq + background).ln())
                        })
                        .collect();
                    (lang, logp, background.ln())
                })
                .collect();
            Self { tables, known: union }
        }

        fn classify(&self, text: &str) -> Lang {
            let lower = text.to_lowercase();
            if !lower.chars().any(|c| c.is_alphabetic()) {
                return Lang::Unknown;
            }
            let grams: Vec<String> = lower
                .split(|c: char| !c.is_alphabetic() && c != '\'')
                .filter(|w| !w.is_empty())
                .flat_map(|w| char_ngrams(w, 3))
                .filter(|g| self.known.contains(g))
                .collect();
            if grams.is_empty() {
                return Lang::Unknown;
            }
            let mut best = (Lang::Unknown, f64::NEG_INFINITY);
            for (lang, table, default) in &self.tables {
                let score: f64 =
                    grams.iter().map(|g| table.get(g).copied().unwrap_or(*default)).sum();
                if score > best.1 {
                    best = (*lang, score);
                }
            }
            best.0
        }
    }

    #[test]
    fn fused_table_classifies_like_the_per_language_tables() {
        let fused = LangModel::train();
        let reference = PerLanguageModel::train();
        let mut texts: Vec<String> = [
            "",
            "   ",
            "12345 678",
            "!!! 123 ...",
            "'",
            "''' 'a' b'",
            "don't won't l'homme aujourd'hui",
            "a i o y e",
            "ab de il la un",
            "\u{fc}ber gro\u{df} \u{e0} o\u{f9} pi\u{f9}",
            "\u{c9}T\u{c9} \u{d1}and\u{fa} \u{3b1}\u{3b2}\u{3b3}",
            "\u{43f}\u{440}\u{438}\u{432}\u{435}\u{442} stra\u{df}e",
            "@user https://example.com/x ok",
            "zzqx vvkw qqq",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        // Synthetic comments in every language: random picks from each
        // profile vocabulary at several lengths, the same words with
        // punctuation, digits and capitals between them, and mixed pairs
        // with a second language.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for &lang in &Lang::ALL {
            let words = profile_words(lang);
            for len in [1, 2, 3, 5, 9] {
                for _ in 0..40 {
                    let picked: Vec<&str> = (0..len).map(|_| words[next(words.len())]).collect();
                    texts.push(picked.join(" "));
                    texts.push(format!("{}! 42, {}?", picked.join("-"), picked[0].to_uppercase()));
                }
            }
            let other = profile_words(Lang::ALL[next(5)]);
            for _ in 0..40 {
                texts.push(format!(
                    "{} {} {}",
                    words[next(words.len())],
                    other[next(other.len())],
                    words[next(words.len())]
                ));
            }
        }
        let mut per_lang = [0usize; 6];
        for t in &texts {
            let got = fused.classify(t);
            assert_eq!(got, reference.classify(t), "text {t:?}");
            per_lang[Lang::ALL.iter().position(|&l| l == got).unwrap_or(5)] += 1;
        }
        assert!(per_lang.iter().all(|&n| n > 0), "every outcome exercised: {per_lang:?}");
    }

    #[test]
    fn bulk_accuracy_on_seed_sentences() {
        // Build sentences from each language's own seed words; the model
        // must get the overwhelming majority right.
        let model = LangModel::train();
        let mut correct = 0;
        let mut total = 0;
        for &lang in &Lang::ALL {
            let words = seed_words(lang);
            for start in (0..words.len().saturating_sub(8)).step_by(8) {
                let sentence = words[start..start + 8].join(" ");
                total += 1;
                if model.classify(&sentence) == lang {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.9, "seed-sentence accuracy {acc}");
    }
}
