#![warn(missing_docs)]
//! The §3.5 comment-classification stack.
//!
//! The paper bounds its toxicity estimates with three independent methods;
//! all three are implemented here:
//!
//! 1. **Dictionary** ([`dictionary`]) — tokenize, stem, and count matches
//!    against a 1,027-term hate lexicon; score = hate tokens / total tokens.
//!    The real study used a Hatebase-derived list; redistributing slurs is
//!    neither possible nor desirable, so [`lexicon`] deterministically
//!    synthesizes a same-sized pseudo-term lexicon (shared with the text
//!    generator) including deliberately ambiguous everyday words to model
//!    the false-positive discussion in §3.5.
//! 2. **Perspective** ([`perspective`]) — local, documented feature-based
//!    models producing the four scores the paper uses
//!    (`SEVERE_TOXICITY`, `LIKELY_TO_REJECT`, `OBSCENE`, `ATTACK_ON_AUTHOR`)
//!    as a stand-in for the closed Google Perspective API.
//! 3. **NLP** ([`svm`]) — a from-scratch linear SVM (Pegasos SGD,
//!    one-vs-rest) over hashed 1–2-gram features with [`adasyn`]
//!    oversampling, [`cv`] k-fold cross-validation and grid search, and
//!    [`metrics`] for F1 — reproducing the paper's hate/offensive/neither
//!    classifier (5-fold F1 ≈ 0.87 on its training corpus).
//!
//! All three scorers (and the synth text generator above) parallelize
//! through the deterministic sharding primitives in [`shard`]; see that
//! module for the worker-count-invariance contract.

pub mod adasyn;
pub mod cv;
pub mod dictionary;
pub mod features;
pub mod lexicon;
pub mod metrics;
pub mod perspective;
pub mod shard;
pub mod svm;

pub use dictionary::HateDictionary;
pub use features::StemmedTokens;
pub use metrics::Confusion;
pub use lexicon::Lexicon;
pub use perspective::{PerspectiveModel, PerspectiveScores, ScorerVersion};
pub use svm::{CommentClass, LinearSvm, SvmConfig};
