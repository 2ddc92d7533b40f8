#![warn(missing_docs)]
//! The §4 analyses: everything between the crawl output and the paper's
//! tables and figures.
//!
//! Each module computes one family of results from a
//! [`crawler::CrawlStore`] (never from the in-process ground truth):
//!
//! * [`url`] — URL parsing/normalization and the §4.2.1 anomaly census;
//! * [`domains`] — Table 2 (TLD and domain shares, per-domain comment
//!   volume medians);
//! * [`allsides`] — the media-bias mapping and §4.4.4 conditional
//!   analyses;
//! * [`users`] — §4.1 (growth, activity concentration, Table 1);
//! * [`content`] — §4.2.2 YouTube breakdowns and §4.2.3 languages;
//! * [`toxicity`] — §§4.3–4.4 score distributions (Figs. 4, 7, 8);
//! * [`votes`] — Fig. 5;
//! * [`social`] — §4.5 network analyses (Fig. 9, hateful core);
//! * [`covert`] — §6's covert-channel candidate detector (extension);
//! * [`windowed`] — longitudinal growth curves, per-window toxicity,
//!   crossover timing, and the scorer-drift report;
//! * [`spill`] — bounded external-merge counting, the report's only
//!   path for the Table-2/language tables (byte-identical to the
//!   in-memory references in [`domains`] and [`content`]);
//! * [`export`] — CSV plot series for every figure;
//! * [`report`] — the assembled [`report::StudyReport`].

pub mod allsides;
pub mod content;
pub mod covert;
pub mod domains;
pub mod export;
pub mod report;
pub mod social;
pub mod spill;
pub mod toxicity;
pub mod url;
pub mod users;
pub mod votes;
pub mod windowed;

pub use allsides::{bias_of_domain, Bias};
pub use report::{ReportOptions, StudyReport};
