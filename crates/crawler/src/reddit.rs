//! Phase 7 — Reddit username matching and Pushshift history pulls
//! (§4.4.1).

use crate::resilience::{Phase, PhaseRun};
use crate::store::{CrawlStore, RedditMatch};
use crate::Crawler;

const PAGE_SIZE: usize = 100;

/// Check every Dissenter username on Reddit; for matches, pull the full
/// available comment history.
pub fn crawl_reddit(crawler: &Crawler, store: &mut CrawlStore) {
    let mut names: Vec<String> = store.users.keys().cloned().collect();
    // Sorted work list so the request order (and thus retry/dead-letter
    // accounting) is reproducible run to run.
    names.sort();
    let run = PhaseRun::new(crawler, Phase::Reddit);
    let matches = crate::parallel::parallel_fetch(
        &run,
        store,
        crawler.endpoints.reddit,
        &names,
        |b| run.setup_client(b),
        |client, name| {
            let about = run.fetch(client, store, &format!("/user/{name}/about"))?;
            if !about.status.is_success() {
                return None;
            }
            let total = jsonlite::parse(&about.text())
                .ok()?
                .get("total_comments")
                .and_then(|t| t.as_i64())
                .unwrap_or(0) as u64;
            let mut comments = Vec::new();
            let mut page = 0usize;
            loop {
                let resp =
                    run.fetch(client, store, &format!("/pushshift/comments?author={name}&page={page}"))?;
                let v = jsonlite::parse(&resp.text()).ok()?;
                let data = v.get("data").and_then(|d| d.as_array()).unwrap_or(&[]).to_vec();
                let n = data.len();
                for item in data {
                    if let Some(body) = item.get("body").and_then(|b| b.as_str()) {
                        comments.push(body.to_owned());
                    }
                }
                if n < PAGE_SIZE {
                    break;
                }
                page += 1;
            }
            Some(RedditMatch { username: name.clone(), total_comments: total, comments })
        },
    );
    store.reddit = matches.into_iter().map(|m| (m.username.clone(), m)).collect();
}
