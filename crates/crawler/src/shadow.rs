//! Phase 4 — shadow-label validation (§4.3.1).
//!
//! The diff labeling itself happens during the spider's four-pass thread
//! crawl ([`crate::spider::crawl_threads`]). This phase reproduces the
//! paper's verification step: select a sample of labeled comments and
//! confirm each one is invisible anonymously (404) yet visible to a
//! session with the matching filter enabled — the automated analogue of
//! the authors' manual 100-comment check.

use crate::resilience::{Phase, PhaseRun};
use crate::store::{CrawlStore, ShadowLabel};
use crate::Crawler;
use ids::ObjectId;

/// Validate a deterministic sample of shadow labels; records
/// `(sampled, confirmed)` into the store.
pub fn shadow_crawl(crawler: &Crawler, store: &mut CrawlStore) {
    let labeled: Vec<(ObjectId, ShadowLabel)> = {
        let mut v: Vec<(ObjectId, ShadowLabel)> = store
            .comments
            .values()
            .filter(|c| c.label != ShadowLabel::Standard)
            .map(|c| (c.id, c.label))
            .collect();
        v.sort_by_key(|(id, _)| *id);
        let step = (v.len() / crawler.config.validation_sample.max(1)).max(1);
        v.into_iter().step_by(step).take(crawler.config.validation_sample).collect()
    };
    let run = PhaseRun::new(crawler, Phase::Shadow);
    let confirmations = crate::parallel::parallel_fetch(
        &run,
        store,
        crawler.endpoints.dissenter,
        &labeled,
        |b| run.setup_client(b),
        |client, &(id, label)| {
            client.clear_cookies();
            // A 404 here is a *delivered* answer (the comment is hidden),
            // not a failure — run.fetch only retries wire faults and 5xx.
            let anon = run.fetch(client, store, &format!("/comment/{id}"))?;
            let session = match label {
                ShadowLabel::Nsfw => "crawler:nsfw",
                ShadowLabel::Offensive => "crawler:offensive",
                ShadowLabel::Both => "crawler:both",
                ShadowLabel::Standard => unreachable!("sample is labeled-only"),
            };
            client.set_cookie("session", session);
            let authed = run.fetch(client, store, &format!("/comment/{id}"))?;
            Some(!anon.status.is_success() && authed.status.is_success())
        },
    );
    let confirmed = confirmations.iter().filter(|&&ok| ok).count();
    store.shadow_validation = (labeled.len(), confirmed);
}
