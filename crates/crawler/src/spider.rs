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
use crate::scrape::{self, ScrapedComment, ThreadTag};
use crate::store::{CrawlStore, CrawledComment, CrawledUrl, CrawledUser, ShadowLabel};
use crate::Crawler;
use ids::ObjectId;
use std::collections::{HashMap, HashSet};

/// Crawl one user home page into a [`CrawledUser`] (no hidden meta yet).
fn parse_user_page(username: &str, html: &[u8]) -> Option<CrawledUser> {
    let author_id = scrape::parse(&html[scrape::attr_spans(html, b"data-author-id").next()?])?;
    Some(CrawledUser {
        username: username.to_owned(),
        author_id,
        display_name: scrape::text_between(html, 0, b"<h2>", b"</h2>"),
        bio: scrape::text_between(html, 0, b"<p class=\"bio\">", b"</p>"),
        url_ids: scrape::attr_spans(html, b"data-commenturl-id")
            .filter_map(|r| scrape::parse(&html[r]))
            .collect(),
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
            parse_user_page(name, &resp.body)
        },
    )
}

/// Parse a comment page body into the thread record plus its comments:
/// the thread header, then every comment block, in one scan of the page.
pub fn parse_comment_page(html: &[u8]) -> Option<(CrawledUrl, Vec<ScrapedComment>)> {
    let head = ThreadTag::parse(html)?;
    let url = CrawledUrl {
        id: head.id,
        url: scrape::text(head.url),
        title: scrape::text_between(html, 0, b"<title>", b"</title>"),
        description: scrape::text_between(html, head.end, b"<p class=\"description\">", b"</p>"),
        upvotes: head.upvotes,
        downvotes: head.downvotes,
        declared_comment_count: head.declared_comment_count,
    };
    let comments = scrape::comment_blocks(html, head.end)
        .filter_map(|b| b.scrape(scrape::parse(b.id?)?))
        .collect();
    Some((url, comments))
}

/// An authenticated pass's view of a comment page: the thread id and
/// the comments missing from the anonymous `baseline`. It accepts and
/// rejects exactly the pages [`parse_comment_page`] does; a comment
/// already in the baseline has only its id parsed.
fn new_comments(
    html: &[u8],
    baseline: &HashSet<ObjectId>,
) -> Option<(ObjectId, Vec<ScrapedComment>)> {
    let head = ThreadTag::parse(html)?;
    let new = scrape::comment_blocks(html, head.end)
        .filter_map(|b| {
            let id = scrape::parse(b.id?)?;
            if baseline.contains(&id) {
                return None;
            }
            b.scrape(id)
        })
        .collect();
    Some((head.id, new))
}

/// One pass over a set of comment pages, anonymous or with a session
/// cookie, parsing each delivered page with `parse`.
fn crawl_pass<R: Send>(
    crawler: &Crawler,
    store: &CrawlStore,
    run: &PhaseRun<'_>,
    url_ids: &[ObjectId],
    session: Option<&str>,
    parse: impl Fn(&[u8]) -> Option<R> + Sync,
) -> Vec<R> {
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
            parse(&resp.body)
        },
    )
}

/// Crawl `url_ids` with all four visibility contexts, inserting threads
/// and labeled comments into the store (§3.2's diff inference). The
/// authenticated passes keep only the comments the anonymous baseline
/// lacks, each with its thread id.
pub fn crawl_threads(
    crawler: &Crawler,
    store: &mut CrawlStore,
    run: &PhaseRun<'_>,
    url_ids: &[ObjectId],
) {
    if url_ids.is_empty() {
        return;
    }
    let anon = crawl_pass(crawler, store, run, url_ids, None, parse_comment_page);
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
    let new_in = |session| -> Vec<(ObjectId, ScrapedComment)> {
        let parse = |html: &[u8]| new_comments(html, &baseline);
        crawl_pass(crawler, store, run, url_ids, Some(session), parse)
            .into_iter()
            .flat_map(|(url_id, comments)| comments.into_iter().map(move |c| (url_id, c)))
            .collect()
    };
    let nsfw_new = new_in("crawler:nsfw");
    let off_new = new_in("crawler:offensive");
    let both_new = new_in("crawler:both");
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
        let u = parse_user_page("bob", html.as_bytes()).expect("parses");
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
        let (url, comments) = parse_comment_page(html.as_bytes()).expect("parses");
        assert_eq!(url.title, "A & B");
        assert_eq!(url.url, "https://example.com/a?x=1");
        assert_eq!(url.upvotes, 3);
        assert_eq!(url.downvotes, 7);
        assert_eq!(url.declared_comment_count, 2);
        assert_eq!(comments.len(), 1);
    }

    #[test]
    fn garbage_pages_yield_none() {
        assert!(parse_user_page("x", b"<html></html>").is_none());
        assert!(parse_comment_page(b"<html></html>").is_none());
    }
}

/// The one-pass page parsers against the parsers they replaced, on pages
/// rendered the way the front renders them — every value and text through
/// its escape — with comment counts, parents, entities, quotes, `="`
/// openers and markup lookalikes varied, and attributes missing or
/// malformed.
#[cfg(test)]
mod equivalence {
    use super::*;
    use crate::scrape::equivalence::{pick, tricky_text};
    use crate::scrape::reference;
    use proptest::prelude::*;
    use std::fmt::Write as _;
    use webfront::dissenter::Escaped;

    /// The comment page parse before the one-pass rewrite.
    fn reference_page(html: &str) -> Option<(CrawledUrl, Vec<ScrapedComment>)> {
        let id: ObjectId = reference::attr_value(html, "data-commenturl-id")?.parse().ok()?;
        let url = reference::html_unescape(reference::attr_value(html, "data-url")?);
        let title = html
            .find("<title>")
            .and_then(|s| html[s + 7..].find("</title>").map(|e| &html[s + 7..s + 7 + e]))
            .map(reference::html_unescape)
            .unwrap_or_default();
        let description = html
            .find("<p class=\"description\">")
            .and_then(|s| {
                let s = s + "<p class=\"description\">".len();
                html[s..].find("</p>").map(|e| &html[s..s + e])
            })
            .map(reference::html_unescape)
            .unwrap_or_default();
        let upvotes = reference::attr_value(html, "data-upvotes")?.parse().ok()?;
        let downvotes = reference::attr_value(html, "data-downvotes")?.parse().ok()?;
        let declared_comment_count =
            reference::attr_value(html, "data-comment-count")?.parse().ok()?;
        let comments = reference::scrape_comments(html);
        Some((
            CrawledUrl { id, url, title, description, upvotes, downvotes, declared_comment_count },
            comments,
        ))
    }

    /// What an authenticated pass kept before: the whole page parsed,
    /// then every comment of the baseline dropped (`collect_new`).
    fn reference_new(
        html: &str,
        baseline: &HashSet<ObjectId>,
    ) -> Option<(ObjectId, Vec<ScrapedComment>)> {
        let (url, comments) = reference_page(html)?;
        Some((url.id, comments.into_iter().filter(|c| !baseline.contains(&c.id)).collect()))
    }

    /// The user page parse before the one-pass rewrite.
    fn reference_user_page(username: &str, html: &str) -> Option<CrawledUser> {
        let author_id: ObjectId = reference::attr_value(html, "data-author-id")?.parse().ok()?;
        let display_name = html
            .find("<h2>")
            .and_then(|s| html[s + 4..].find("</h2>").map(|e| &html[s + 4..s + 4 + e]))
            .map(reference::html_unescape)
            .unwrap_or_default();
        let bio = html
            .find("<p class=\"bio\">")
            .and_then(|s| {
                let s = s + "<p class=\"bio\">".len();
                html[s..].find("</p>").map(|e| &html[s..s + e])
            })
            .map(reference::html_unescape)
            .unwrap_or_default();
        let url_ids: Vec<ObjectId> = reference::extract_attr_all(html, "data-commenturl-id")
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

    /// Ids come from a pool of 24 so that pages share them with baselines.
    fn id(i: u64) -> String {
        format!("5c780b19aabbccddeeff{i:04x}")
    }

    /// An attribute value: usually well formed, sometimes absent, and
    /// sometimes malformed (escaped, like every value the front writes).
    fn attr(valid: impl Strategy<Value = String> + 'static) -> BoxedStrategy<Option<String>> {
        let valid = valid.prop_map(Some).boxed();
        let malformed = prop_oneof![
            pick(&["", "nothex", "-1", "5c780b19aabbccddeeff001", "99999999999999999999999", "7x"]),
            tricky_text(),
        ]
        .prop_map(|s| Some(Escaped(&s).to_string()));
        let mut arms = vec![valid; 10];
        arms.push(Just(None).boxed());
        arms.push(malformed.boxed());
        proptest::strategy::Union::new(arms).boxed()
    }

    fn ids() -> BoxedStrategy<Option<String>> {
        attr((0u64..24).prop_map(id))
    }

    /// A count, now and then one past `u32::MAX`.
    fn number() -> BoxedStrategy<Option<String>> {
        let mut arms = vec![(0u64..100_000).prop_map(|n| n.to_string()).boxed(); 7];
        arms.push(Just("4294967296".to_owned()).boxed());
        attr(proptest::strategy::Union::new(arms))
    }

    /// ` name="value"` for every present attribute.
    fn push_attrs(out: &mut String, attrs: &[(&str, &Option<String>)]) {
        for (name, value) in attrs {
            if let Some(value) = value {
                let _ = write!(out, " {name}=\"{value}\"");
            }
        }
    }

    /// `((id, author), (parent, created), text)`.
    type Comment =
        ((Option<String>, Option<String>), (Option<String>, Option<String>), Option<String>);

    fn comment(text: fn() -> BoxedStrategy<String>) -> impl Strategy<Value = Comment> {
        let parent = prop_oneof![ids(), ids(), Just(Some(String::new()))];
        let text = prop_oneof![text().prop_map(Some), text().prop_map(Some), Just(None)];
        ((ids(), ids()), (parent, number()), text)
    }

    type Header = (Option<String>, Option<String>, (Option<String>, Option<String>, Option<String>));

    fn header(text: fn() -> BoxedStrategy<String>) -> impl Strategy<Value = Header> {
        (ids(), attr(text().prop_map(|s| Escaped(&s).to_string())), (number(), number(), number()))
    }

    /// A comment page in the front's markup.
    fn comment_page_html(
        (title, description): &(String, String),
        (id, url, (up, down, count)): &Header,
        comments: &[Comment],
    ) -> String {
        let mut html = format!(
            "<html><head><title>{}</title></head><body><div class=\"thread\"",
            Escaped(title)
        );
        push_attrs(
            &mut html,
            &[
                ("data-commenturl-id", id),
                ("data-url", url),
                ("data-upvotes", up),
                ("data-downvotes", down),
                ("data-comment-count", count),
            ],
        );
        let _ = write!(html, "><p class=\"description\">{}</p></div>", Escaped(description));
        html.push_str("<ol class=\"comments\">");
        for ((id, author), (parent, created), text) in comments {
            html.push_str("<li class=\"comment\"");
            push_attrs(
                &mut html,
                &[
                    ("data-comment-id", id),
                    ("data-author-id", author),
                    ("data-parent", parent),
                    ("data-created", created),
                ],
            );
            match text {
                Some(text) => {
                    let _ = write!(html, "><p>{}</p></li>", Escaped(text));
                }
                None => html.push_str("></li>"),
            }
        }
        html.push_str("</ol></body></html>");
        html
    }

    /// A comment page whose title, description, URL and comment texts
    /// are drawn from `text`.
    fn page_of(text: fn() -> BoxedStrategy<String>) -> impl Strategy<Value = String> {
        ((text(), text()), header(text), prop::collection::vec(comment(text), 0..6))
            .prop_map(|(texts, head, comments)| comment_page_html(&texts, &head, &comments))
    }

    fn page() -> impl Strategy<Value = String> {
        page_of(|| tricky_text().boxed())
    }

    /// Tricky text with a `\u{1}` marking where a test puts bytes that
    /// are not UTF-8.
    fn marked_text() -> BoxedStrategy<String> {
        (tricky_text(), tricky_text()).prop_map(|(a, b)| format!("{a}\u{1}{b}")).boxed()
    }

    fn baseline() -> impl Strategy<Value = HashSet<ObjectId>> {
        prop::collection::vec(0u64..24, 0..24)
            .prop_map(|v| v.into_iter().map(|i| id(i).parse().expect("hex id")).collect())
    }

    proptest! {
        #[test]
        fn comment_pages_parse_as_before(pages in prop::collection::vec(page(), 32..33)) {
            let mut accepted = 0;
            for html in &pages {
                let new = parse_comment_page(html.as_bytes());
                accepted += usize::from(new.is_some());
                prop_assert_eq!(format!("{new:?}"), format!("{:?}", reference_page(html)), "{}", html);
            }
            // The generator must not make the comparison vacuous.
            prop_assert!(accepted > 0, "no page of {} parsed", pages.len());
        }

        #[test]
        fn authenticated_passes_keep_what_collect_new_kept(
            pages in prop::collection::vec((page(), baseline()), 16..17),
        ) {
            for (html, baseline) in &pages {
                let new = new_comments(html.as_bytes(), baseline);
                prop_assert_eq!(
                    format!("{new:?}"),
                    format!("{:?}", reference_new(html, baseline)),
                    "{}",
                    html
                );
                prop_assert_eq!(new.is_some(), parse_comment_page(html.as_bytes()).is_some());
            }
        }

        #[test]
        fn bytes_that_are_not_utf8_parse_as_their_lossy_text(
            pages in prop::collection::vec((page_of(marked_text), 0usize..3), 16..17),
        ) {
            for (html, which) in pages {
                let bad: &[u8] = [&[0xffu8][..], &[0xc3], &[0xe2, 0x82]][which];
                let mut bytes = Vec::new();
                for (i, part) in html.split('\u{1}').enumerate() {
                    if i > 0 {
                        bytes.extend_from_slice(bad);
                    }
                    bytes.extend_from_slice(part.as_bytes());
                }
                prop_assert!(std::str::from_utf8(&bytes).is_err() || !html.contains('\u{1}'));
                let lossy = String::from_utf8_lossy(&bytes);
                prop_assert_eq!(
                    format!("{:?}", parse_comment_page(&bytes)),
                    format!("{:?}", reference_page(&lossy))
                );
            }
        }

        #[test]
        fn user_pages_parse_as_before(
            users in prop::collection::vec(
                (ids(), (tricky_text(), tricky_text()), prop::collection::vec((ids(), tricky_text()), 0..6)),
                16..17,
            ),
        ) {
            for (author, (display, bio), urls) in users {
                let mut html = String::from("<html><head><title>Dissenter</title><style>.c{a:b}</style>");
                html.push_str("</head><body><div class=\"profile\"");
                push_attrs(&mut html, &[("data-author-id", &author)]);
                let _ = write!(
                    html,
                    "><h1>@u</h1><h2>{}</h2><p class=\"bio\">{}</p></div><ul class=\"commented-urls\">",
                    Escaped(&display),
                    Escaped(&bio)
                );
                for (id, url) in &urls {
                    html.push_str("<li><a href=\"/url/x\"");
                    push_attrs(&mut html, &[("data-commenturl-id", id)]);
                    let _ = write!(html, ">{}</a></li>", Escaped(url));
                }
                html.push_str("</ul></body></html>");
                prop_assert_eq!(
                    format!("{:?}", parse_user_page("u", html.as_bytes())),
                    format!("{:?}", reference_user_page("u", &html))
                );
            }
        }
    }

    #[test]
    fn a_url_ending_in_an_attribute_name_no_longer_hides_that_attribute() {
        // The needle search took the `="` that closes this URL for the
        // opener of `data-upvotes` and rejected the page; the tag scan
        // reads the URL as one value.
        let head = (
            Some(id(1)),
            Some("https://a.example/?data-upvotes=".to_owned()),
            (Some("3".to_owned()), Some("4".to_owned()), Some("0".to_owned())),
        );
        let html = comment_page_html(&("t".to_owned(), "d".to_owned()), &head, &[]);
        assert!(reference_page(&html).is_none());
        let (url, _) = parse_comment_page(html.as_bytes()).expect("parses");
        assert_eq!((url.url.as_str(), url.upvotes), ("https://a.example/?data-upvotes=", 3));
    }
}
