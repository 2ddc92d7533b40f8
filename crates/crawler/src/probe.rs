//! Phase 2 — Dissenter account probing by response size (§3.1).
//!
//! "Based on the HTTP response sizes, we are able to identify Dissenter
//! accounts, which are at least 10 kB; responses for non-existent users
//! are ∼150 bytes."

use crate::resilience::{Phase, PhaseRun};
use crate::store::CrawlStore;
use crate::Crawler;

/// The size threshold separating real home pages from misses.
pub const SIZE_THRESHOLD: usize = 10 * 1024;

/// Probe every enumerated Gab username for a Dissenter home page.
///
/// With a [`SweepHint`](crate::SweepHint) attached, only accounts
/// created since the previous sweep plus the known positives are
/// probed: a 404-sized miss carries no validator so re-probing it is
/// never `304`-cheap, and the epoch contract guarantees an existing
/// account cannot gain a Dissenter page mid-study (known positives
/// *are* re-probed — bans change their pages).
pub fn probe_dissenter_accounts(crawler: &Crawler, store: &mut CrawlStore) {
    let run = PhaseRun::new(crawler, Phase::Probe);
    let usernames: Vec<String> = match crawler.sweep_hint() {
        Some(hint) => store
            .gab_accounts
            .iter()
            .filter(|a| {
                a.gab_id > hint.max_gab_id || hint.dissenter_usernames.contains(&a.username)
            })
            .map(|a| a.username.clone())
            .collect(),
        None => store.gab_accounts.iter().map(|a| a.username.clone()).collect(),
    };
    let mut hits = crate::parallel::parallel_get(
        &run,
        store,
        crawler.endpoints.dissenter,
        &usernames,
        |b| run.setup_client(b),
        |name| format!("/user/{name}"),
        |name, resp| {
            // Classification is purely by body size — deliberately NOT by
            // status code, mirroring the paper's inference.
            (resp.body.len() >= SIZE_THRESHOLD).then(|| name.clone())
        },
    );
    hits.sort();
    store.dissenter_usernames = hits;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_matches_paper() {
        assert_eq!(SIZE_THRESHOLD, 10_240);
    }
}
