#![warn(missing_docs)]
//! Deterministic synthetic-world generation calibrated to the paper.
//!
//! The real corpus (14 months of Dissenter, the Gab user base and follower
//! graph, matched Reddit histories, and the NY Times / Daily Mail baseline
//! crawls) is closed. This crate generates a stand-in world whose *every
//! published statistic* is reproduced by construction or calibration:
//! user growth (77% joining by March 2019), the comment power law (90% of
//! comments from ~14% of active users), Table 2's TLD/domain shares, the
//! 94%-English language mix, NSFW/offensive shadow rates, the Figure-7
//! per-community Perspective score distributions, Figure 8's
//! bias-conditional toxicity, the follower power law, and the planted
//! 42-user hateful core.
//!
//! Honesty property: the generator never writes labels the classifiers
//! read. It samples *latent* score targets per comment, inverts the
//! documented Perspective model weights into marker densities, and emits
//! plain text. Classifiers then re-derive scores from that text; all
//! downstream analyses consume classifier output, not latents.

//! The crate's surface is **streaming-first**: [`WorldSource`] yields
//! seed-deterministic [`WorldBatch`]es (users, URLs, comments with texts
//! synthesized per batch, votes, the Reddit mirror, baselines) without
//! ever materializing the full world; [`generate`] is the one
//! convenience wrapper that drains a source into a [`platform::World`].
//!
//! ```no_run
//! use synth::{WorldBatch, WorldConfig, WorldSource};
//!
//! let mut source = WorldSource::new(&WorldConfig::small(), 2);
//! let truth = source.truth().clone();
//! let mut world = platform::World::new();
//! while let Some(batch) = source.next() {
//!     if let WorldBatch::Comments(cs) = &batch {
//!         // inspect / spill / score the batch before (or instead of)
//!         // applying it
//!         assert!(!cs.is_empty());
//!     }
//!     batch.apply(&mut world);
//! }
//! assert!(!truth.active_indices.is_empty());
//! ```

pub mod baselines;
pub mod config;
pub mod dist;
pub mod labeled;
pub mod longitudinal;
pub mod names;
pub mod social;
pub mod source;
pub mod textgen;
pub mod world;

pub use config::{Scale, WorldConfig};
pub use labeled::{labeled_corpus, labeled_corpus_sharded, LabeledSample};
pub use source::{WorldBatch, WorldSource, DEFAULT_BATCH_SIZE};
pub use textgen::{CommentSpec, TextGen};
pub use longitudinal::{apply_epoch, world_at_epoch};
pub use world::{generate, GroundTruth};
