//! Phase 3 — home-page and comment spidering (§3.2), including the
//! NSFW/offensive diff passes and ghost-account recovery.
//!
//! The spider visits every known user's home page for metadata and
//! commented-URL lists, then crawls every comment page **four times**:
//! anonymously (the baseline), with the NSFW filter, with the "offensive"
//! filter, and with both — labeling shadow comments by which authenticated
//! crawls reveal them (§2.2's visibility rules make dual-labeled comments
//! invisible to single-filter sessions).
//!
//! Discovery runs to a fixpoint: scraping the hidden `commentAuthor`
//! metadata surfaces "ghost" authors whose Gab accounts were deleted
//! (§4.1.1); their home pages list URLs no live user may have commented
//! on, which are then crawled in the next round, possibly surfacing more
//! ghosts, and so on.

use crate::resilience::{Phase, PhaseRun};
use crate::scrape;
use crate::store::{CrawlStore, CrawledComment, CrawledUrl, CrawledUser, ShadowLabel};
use crate::Crawler;
use ids::ObjectId;
use std::collections::{HashMap, HashSet};

/// Crawl one user home page into a [`CrawledUser`] (no hidden meta yet).
fn parse_user_page(username: &str, html: &str) -> Option<CrawledUser> {
    let author_id: ObjectId = scrape::attr_value(html, "data-author-id")?.parse().ok()?;
    let display_name = html
        .find("<h2>")
        .and_then(|s| html[s + 4..].find("</h2>").map(|e| &html[s + 4..s + 4 + e]))
        .map(scrape::html_unescape)
        .unwrap_or_default();
    let bio = html
        .find("<p class=\"bio\">")
        .and_then(|s| {
            let s = s + "<p class=\"bio\">".len();
            html[s..].find("</p>").map(|e| &html[s..s + e])
        })
        .map(scrape::html_unescape)
        .unwrap_or_default();
    let url_ids: Vec<ObjectId> = scrape::extract_attr_all(html, "data-commenturl-id")
        .into_iter()
        .filter_map(|s| s.parse().ok())
        .collect();
    Some(CrawledUser {
        username: username.to_owned(),
        author_id,
        display_name,
        bio,
        url_ids,
        meta: None,
    })
}

fn crawl_users(
    crawler: &Crawler,
    store: &CrawlStore,
    run: &PhaseRun<'_>,
    names: &[String],
) -> Vec<CrawledUser> {
    crate::parallel::parallel_get(
        run,
        store,
        crawler.endpoints.dissenter,
        names,
        |b| run.setup_client(b),
        |name| format!("/user/{name}"),
        |name, resp| {
            if !resp.status.is_success() {
                return None;
            }
            parse_user_page(name, &String::from_utf8_lossy(&resp.body))
        },
    )
}

/// Parse a comment page body into the thread record plus its comments.
pub fn parse_comment_page(html: &str) -> Option<(CrawledUrl, Vec<scrape::ScrapedComment>)> {
    let id: ObjectId = scrape::attr_value(html, "data-commenturl-id")?.parse().ok()?;
    let url = scrape::html_unescape(scrape::attr_value(html, "data-url")?);
    let title = html
        .find("<title>")
        .and_then(|s| html[s + 7..].find("</title>").map(|e| &html[s + 7..s + 7 + e]))
        .map(scrape::html_unescape)
        .unwrap_or_default();
    let description = html
        .find("<p class=\"description\">")
        .and_then(|s| {
            let s = s + "<p class=\"description\">".len();
            html[s..].find("</p>").map(|e| &html[s..s + e])
        })
        .map(scrape::html_unescape)
        .unwrap_or_default();
    let upvotes = scrape::attr_value(html, "data-upvotes")?.parse().ok()?;
    let downvotes = scrape::attr_value(html, "data-downvotes")?.parse().ok()?;
    let declared_comment_count = scrape::attr_value(html, "data-comment-count")?.parse().ok()?;
    let comments = scrape::scrape_comments(html);
    Some((
        CrawledUrl { id, url, title, description, upvotes, downvotes, declared_comment_count },
        comments,
    ))
}

/// One authenticated (or anonymous) pass over a set of comment pages.
fn crawl_pass(
    crawler: &Crawler,
    store: &CrawlStore,
    run: &PhaseRun<'_>,
    url_ids: &[ObjectId],
    session: Option<&str>,
) -> Vec<(CrawledUrl, Vec<scrape::ScrapedComment>)> {
    crate::parallel::parallel_get(
        run,
        store,
        crawler.endpoints.dissenter,
        url_ids,
        |b| {
            let b = run.setup_client(b);
            match session {
                Some(s) => b.cookie("session", s),
                None => b,
            }
        },
        |id| format!("/url/{id}"),
        |_, resp| {
            if !resp.status.is_success() {
                return None;
            }
            parse_comment_page(&String::from_utf8_lossy(&resp.body))
        },
    )
}

/// Crawl `url_ids` with all four visibility contexts, inserting threads
/// and labeled comments into the store (§3.2's diff inference).
pub fn crawl_threads(
    crawler: &Crawler,
    store: &mut CrawlStore,
    run: &PhaseRun<'_>,
    url_ids: &[ObjectId],
) {
    if url_ids.is_empty() {
        return;
    }
    let anon = crawl_pass(crawler, store, run, url_ids, None);
    let mut baseline: HashSet<ObjectId> = HashSet::new();
    for (url, comments) in anon {
        let url_id = url.id;
        store.urls.insert(url.id, url);
        for c in comments {
            baseline.insert(c.id);
            store.comments.entry(c.id).or_insert(CrawledComment {
                id: c.id,
                url_id,
                author_id: c.author_id,
                parent: c.parent,
                text: c.text,
                created_at: c.created_at,
                label: ShadowLabel::Standard,
            });
        }
    }
    let collect_new = |pass: Vec<(CrawledUrl, Vec<scrape::ScrapedComment>)>| {
        let mut out: Vec<(ObjectId, scrape::ScrapedComment)> = Vec::new();
        for (url, comments) in pass {
            for c in comments {
                if !baseline.contains(&c.id) {
                    out.push((url.id, c));
                }
            }
        }
        out
    };
    let nsfw_new = collect_new(crawl_pass(crawler, store, run, url_ids, Some("crawler:nsfw")));
    let off_new = collect_new(crawl_pass(crawler, store, run, url_ids, Some("crawler:offensive")));
    let both_new = collect_new(crawl_pass(crawler, store, run, url_ids, Some("crawler:both")));
    let nsfw_ids: HashSet<ObjectId> = nsfw_new.iter().map(|(_, c)| c.id).collect();
    let off_ids: HashSet<ObjectId> = off_new.iter().map(|(_, c)| c.id).collect();
    for (url_id, c) in nsfw_new.into_iter().chain(off_new).chain(both_new) {
        let label = match (nsfw_ids.contains(&c.id), off_ids.contains(&c.id)) {
            (true, true) | (false, false) => ShadowLabel::Both,
            (true, false) => ShadowLabel::Nsfw,
            (false, true) => ShadowLabel::Offensive,
        };
        store.comments.entry(c.id).or_insert(CrawledComment {
            id: c.id,
            url_id,
            author_id: c.author_id,
            parent: c.parent,
            text: c.text,
            created_at: c.created_at,
            label,
        });
    }
}

/// Run the spider phase to fixpoint.
pub fn spider(crawler: &Crawler, store: &mut CrawlStore) {
    // One budget and breaker context for the whole phase, fixpoint
    // rounds included.
    let run = PhaseRun::new(crawler, Phase::Spider);

    // 1. Home pages for every probed username.
    let names = store.dissenter_usernames.clone();
    for u in crawl_users(crawler, store, &run, &names) {
        store.users.insert(u.username.clone(), u);
    }

    // 2. Crawl comment pages, discover ghosts, repeat until no new URLs.
    // Each URL is attempted once: a thread whose every fetch attempt
    // failed permanently is recorded in the failure counters rather than
    // retried forever (liveness under pathological fault rates).
    let mut attempted: HashSet<ObjectId> = HashSet::new();
    loop {
        let missing: Vec<ObjectId> = {
            let crawled: HashSet<ObjectId> = store.urls.keys().copied().collect();
            let mut v: Vec<ObjectId> = store
                .users
                .values()
                .flat_map(|u| u.url_ids.iter().copied())
                .filter(|id| !crawled.contains(id) && !attempted.contains(id))
                .collect();
            v.sort();
            v.dedup();
            v
        };
        if missing.is_empty() {
            break;
        }
        attempted.extend(missing.iter().copied());
        crawl_threads(crawler, store, &run, &missing);
        discover_metadata_and_ghosts(crawler, store, &run, Some("crawler:both"));
    }
}

/// Scrape hidden `commentAuthor` metadata for every comment author that
/// does not have it yet, discovering (and home-page-crawling) "ghost"
/// users along the way. `session` matters when the author's only comments
/// are shadow content (their comment pages 404 anonymously).
pub fn discover_metadata_and_ghosts(
    crawler: &Crawler,
    store: &mut CrawlStore,
    run: &PhaseRun<'_>,
    session: Option<&str>,
) {
    let have_meta: HashSet<ObjectId> = store
        .users
        .values()
        .filter(|u| u.meta.is_some())
        .map(|u| u.author_id)
        .collect();
    let by_author: HashMap<ObjectId, ObjectId> = {
        let mut m: HashMap<ObjectId, ObjectId> = HashMap::new();
        for c in store.comments.values() {
            if !have_meta.contains(&c.author_id) {
                // Sample the *lowest* comment id per author, not the first
                // seen: the HashMap walk order varies per instance, and the
                // chosen target must not.
                m.entry(c.author_id).and_modify(|id| *id = (*id).min(c.id)).or_insert(c.id);
            }
        }
        m
    };
    // Sorted so the request order (and thus any fault-injection
    // sequence) is reproducible run-to-run despite the HashMap walk.
    let author_samples: Vec<(ObjectId, ObjectId)> = {
        let mut v: Vec<(ObjectId, ObjectId)> = by_author.iter().map(|(&a, &c)| (a, c)).collect();
        v.sort();
        v
    };
    let metas = crate::parallel::parallel_get(
        run,
        store,
        crawler.endpoints.dissenter,
        &author_samples,
        |b| {
            let b = run.setup_client(b);
            match session {
                Some(s) => b.cookie("session", s),
                None => b,
            }
        },
        |(_, cid)| format!("/comment/{cid}"),
        |&(author, _), resp| {
            if !resp.status.is_success() {
                return None;
            }
            let html = String::from_utf8_lossy(&resp.body);
            let meta = scrape::scrape_hidden_meta(&html)?;
            // The blob also names the author — the hook for ghost-account
            // discovery below.
            let username = html
                .find("\"username\":\"")
                .and_then(|s| {
                    let s = s + "\"username\":\"".len();
                    html[s..].find('"').map(|e| html[s..s + e].to_owned())
                })?;
            Some((author, username, meta))
        },
    );

    let known: HashSet<ObjectId> = store.users.values().map(|u| u.author_id).collect();
    let mut ghost_usernames: Vec<String> = Vec::new();
    let mut meta_by_username: HashMap<String, crate::store::HiddenMeta> = HashMap::new();
    for (author, username, meta) in metas {
        if !known.contains(&author) {
            // Ghost author: commented, but absent from the Gab
            // enumeration — their Gab account was deleted (§4.1.1).
            ghost_usernames.push(username.clone());
        }
        meta_by_username.insert(username, meta);
    }
    ghost_usernames.sort();
    ghost_usernames.dedup();
    let ghosts = crawl_users(crawler, store, run, &ghost_usernames);
    for g in ghosts {
        store.users.insert(g.username.clone(), g);
    }
    // Attach hidden metadata to every user we have it for.
    for user in store.users.values_mut() {
        if let Some(meta) = meta_by_username.get(&user.username) {
            user.meta = Some(meta.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_page_parse() {
        let html = concat!(
            r#"<html><body><div class="profile" data-author-id="5c780b19aabbccddeeff0022">"#,
            r#"<h1>@bob</h1><h2>Bob &amp; Co</h2><p class="bio">free speech fan</p></div>"#,
            r#"<ul><li><a href="/url/x" data-commenturl-id="5c780b19aabbccddeeff0033">u</a></li>"#,
            r#"<li><a href="/url/y" data-commenturl-id="5c780b19aabbccddeeff0044">v</a></li></ul>"#,
            r#"</body></html>"#
        );
        let u = parse_user_page("bob", html).expect("parses");
        assert_eq!(u.display_name, "Bob & Co");
        assert_eq!(u.bio, "free speech fan");
        assert_eq!(u.url_ids.len(), 2);
    }

    #[test]
    fn comment_page_parse() {
        let html = concat!(
            r#"<html><head><title>A &amp; B</title></head><body>"#,
            r#"<div class="thread" data-commenturl-id="5c780b19aabbccddeeff0055" "#,
            r#"data-url="https://example.com/a?x=1" data-upvotes="3" data-downvotes="7" "#,
            r#"data-comment-count="2"><p class="description">desc</p></div>"#,
            r#"<ol><li class="comment" data-comment-id="5c780b19aabbccddeeff0066" "#,
            r#"data-author-id="5c780b19aabbccddeeff0077" data-parent="" data-created="7"><p>hey</p></li></ol>"#,
            r#"</body></html>"#
        );
        let (url, comments) = parse_comment_page(html).expect("parses");
        assert_eq!(url.title, "A & B");
        assert_eq!(url.url, "https://example.com/a?x=1");
        assert_eq!(url.upvotes, 3);
        assert_eq!(url.downvotes, 7);
        assert_eq!(url.declared_comment_count, 2);
        assert_eq!(comments.len(), 1);
    }

    #[test]
    fn garbage_pages_yield_none() {
        assert!(parse_user_page("x", "<html></html>").is_none());
        assert!(parse_comment_page("<html></html>").is_none());
    }
}
