//! Phase 6 — the Gab-proxy social crawl (§3.4).
//!
//! Dissenter exposes no follower data; the paper walks the Gab API's
//! paginated follower/following lists for every Dissenter user, honoring
//! the advertised rate limits, then induces the Dissenter-specific
//! subgraph by dropping non-Dissenter endpoints.

use crate::resilience::{Phase, PhaseRun};
use crate::store::CrawlStore;
use crate::Crawler;
use ids::ObjectId;
use std::collections::{HashMap, HashSet};

const PAGE_SIZE: usize = 80;

/// Crawl followers and following for every Dissenter user and build the
/// induced edge set.
pub fn crawl_social(crawler: &Crawler, store: &mut CrawlStore) {
    // gab_id per crawled username (ghost users have none — their Gab
    // accounts are gone, so the API cannot serve their relationships).
    let gab_id_by_username: HashMap<&str, u64> =
        store.gab_accounts.iter().map(|a| (a.username.as_str(), a.gab_id)).collect();
    let author_by_username: HashMap<&str, ObjectId> =
        store.users.values().map(|u| (u.username.as_str(), u.author_id)).collect();
    let dissenter_names: HashSet<&str> =
        store.users.values().map(|u| u.username.as_str()).collect();

    let mut targets: Vec<(String, u64)> = store
        .users
        .values()
        .filter_map(|u| gab_id_by_username.get(u.username.as_str()).map(|&g| (u.username.clone(), g)))
        .collect();
    // Sorted work list so the request order (and thus retry/dead-letter
    // accounting) is reproducible run to run.
    targets.sort();

    let run = PhaseRun::new(crawler, Phase::Social);
    let edge_lists = crate::parallel::parallel_fetch(
        &run,
        store,
        crawler.endpoints.gab,
        &targets,
        |b| run.setup_client(b),
        |client, (username, gab_id)| {
            let mut edges: Vec<(String, String)> = Vec::new();
            for (endpoint, incoming) in [("followers", true), ("following", false)] {
                let mut page = 0usize;
                loop {
                    let target = format!("/api/v1/accounts/{gab_id}/{endpoint}?page={page}");
                    let Some(resp) = run.fetch(client, store, &target) else {
                        break;
                    };
                    if !resp.status.is_success() {
                        break;
                    }
                    let Ok(v) = jsonlite::parse(&resp.text()) else { break };
                    let items = v.as_array().unwrap_or(&[]).to_vec();
                    let n = items.len();
                    for item in items {
                        if let Some(peer) = item.get("username").and_then(|u| u.as_str()) {
                            if incoming {
                                edges.push((peer.to_owned(), username.clone()));
                            } else {
                                edges.push((username.clone(), peer.to_owned()));
                            }
                        }
                    }
                    if n < PAGE_SIZE {
                        break;
                    }
                    page += 1;
                }
            }
            Some(edges)
        },
    );

    // Induce the Dissenter-only graph; crawling both directions sees each
    // edge up to twice, so dedupe.
    let mut seen: HashSet<(ObjectId, ObjectId)> = HashSet::new();
    let mut edges = Vec::new();
    for (from, to) in edge_lists.into_iter().flatten() {
        if !dissenter_names.contains(from.as_str()) || !dissenter_names.contains(to.as_str()) {
            continue;
        }
        let (Some(&fa), Some(&ta)) =
            (author_by_username.get(from.as_str()), author_by_username.get(to.as_str()))
        else {
            continue;
        };
        if seen.insert((fa, ta)) {
            edges.push((fa, ta));
        }
    }
    // The per-user edge lists are collected in worker-completion order;
    // sort so the stored graph is identical for any crawl worker count.
    edges.sort_unstable();
    store.follow_edges = edges;
}
