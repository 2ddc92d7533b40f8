//! Phase 5 — YouTube content crawl (§3.3).

use crate::resilience::{Phase, PhaseRun};
use crate::store::{CrawlStore, CrawledYoutube};
use crate::Crawler;
use platform::youtube::is_youtube_url;

/// Fetch the rendered state of every YouTube URL found in the crawl.
pub fn crawl_youtube(crawler: &Crawler, store: &mut CrawlStore) {
    let mut targets: Vec<String> = store
        .urls
        .values()
        .map(|u| u.url.clone())
        .filter(|u| is_youtube_url(u))
        .collect();
    // Sorted work list so the request order (and thus retry/dead-letter
    // accounting) is reproducible run to run.
    targets.sort();
    let run = PhaseRun::new(crawler, Phase::Youtube);
    let results = crate::parallel::parallel_get(
        &run,
        store,
        crawler.endpoints.youtube,
        &targets,
        |c| run.setup_client(c),
        |url| format!("/render?url={}", httpnet::http::percent_encode(url)),
        |url, resp| {
            if !resp.status.is_success() {
                // Never-hosted URL: record as unavailable/unknown.
                return Some(CrawledYoutube {
                    url: url.clone(),
                    kind: "unknown".into(),
                    available: false,
                    reason: Some("not found".into()),
                    owner: None,
                    comments_disabled: false,
                });
            }
            let v = jsonlite::parse(&String::from_utf8_lossy(&resp.body)).ok()?;
            Some(CrawledYoutube {
                url: url.clone(),
                kind: v.get("kind")?.as_str()?.to_owned(),
                available: v.get("available")?.as_bool()?,
                reason: v.get("reason").and_then(|r| r.as_str()).map(str::to_owned),
                owner: v.get("owner").and_then(|o| o.as_str()).map(str::to_owned),
                comments_disabled: v
                    .get("comments_disabled")
                    .and_then(|c| c.as_bool())
                    .unwrap_or(false),
            })
        },
    );
    // Results land in worker-completion order; sort so the stored list is
    // identical for any crawl worker count.
    let mut results = results;
    results.sort_by(|a, b| a.url.cmp(&b.url));
    store.youtube = results;
}
