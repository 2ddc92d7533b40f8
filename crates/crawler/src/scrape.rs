//! HTML scraping helpers for the simulated Dissenter pages.
//!
//! The real study reverse-engineered undocumented HTML; these helpers do
//! the same against our front-end's markup: attribute extraction from
//! tagged elements, entity unescaping, and the commented-out
//! `commentAuthor` JSON blob.
//!
//! Pages are scanned as bytes, left to right, once: a tag's attributes
//! are read in one pass over the tag (`scan_tag`), a comment page's
//! blocks in one pass over the page (`comment_blocks`), and only the
//! spans a caller keeps are decoded. Every delimiter the scan looks for
//! is ASCII, so decoding a kept span on its own (lossily) gives the same
//! text as decoding the whole page first. The front escapes every value
//! and text it renders, so `"`, `<` and `>` inside them never look like
//! markup.

use crate::store::HiddenMeta;
use ids::ObjectId;
use std::ops::Range;

/// The first `byte` in `hay` at or after `from`.
fn find_byte(hay: &[u8], from: usize, byte: u8) -> Option<usize> {
    hay.get(from..)?.iter().position(|&b| b == byte).map(|i| from + i)
}

/// The first `needle` (non-empty) in `hay` at or after `from`: a byte
/// search for its first byte, then a compare — no searcher to build for
/// these short markers.
fn find(hay: &[u8], mut from: usize, needle: &[u8]) -> Option<usize> {
    loop {
        let at = find_byte(hay, from, needle[0])?;
        if hay[at..].starts_with(needle) {
            return Some(at);
        }
        from = at + 1;
    }
}

/// The text between the first `open` at or after `from` and the first
/// `close` after it, decoded; empty when either is missing.
pub(crate) fn text_between(html: &[u8], from: usize, open: &[u8], close: &[u8]) -> String {
    let Some(start) = find(html, from, open).map(|at| at + open.len()) else {
        return String::new();
    };
    find(html, start, close).map(|end| text(&html[start..end])).unwrap_or_default()
}

/// `bytes` parsed as a `T` (no valid UTF-8, no value).
pub(crate) fn parse<T: std::str::FromStr>(bytes: &[u8]) -> Option<T> {
    std::str::from_utf8(bytes).ok()?.parse().ok()
}

/// A kept span as text: decoded (lossily, as the page would be) and
/// unescaped.
pub(crate) fn text(bytes: &[u8]) -> String {
    html_unescape(&String::from_utf8_lossy(bytes))
}

/// The spans of every `attr="…"` value in `html`, in document order:
/// each `="` opener preceded by `attr`, up to the next `"`. Walking the
/// openers finds the first `attr="` even when `attr` overlaps itself in
/// the text.
pub(crate) fn attr_spans<'a>(
    html: &'a [u8],
    attr: &'a [u8],
) -> impl Iterator<Item = Range<usize>> + 'a {
    let mut from = 0;
    std::iter::from_fn(move || loop {
        let quote = find_byte(html, from, b'"')?;
        from = quote + 1;
        if quote > 0 && html[quote - 1] == b'=' && html[..quote - 1].ends_with(attr) {
            let end = find_byte(html, from, b'"')?;
            from = end + 1;
            return Some(quote + 1..end);
        }
    })
}

/// The entities the front escapes, and what they stand for.
const ENTITIES: [(&str, char); 4] = [("&quot;", '"'), ("&lt;", '<'), ("&gt;", '>'), ("&amp;", '&')];

/// Undo the front-end's HTML escaping in one pass. Decoded text is never
/// decoded again, so `&amp;lt;` becomes `&lt;`.
pub fn html_unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = find_byte(rest.as_bytes(), 0, b'&') {
        out.push_str(&rest[..amp]);
        let tail = &rest[amp..];
        let (ch, len) = ENTITIES
            .iter()
            .find(|(entity, _)| tail.starts_with(entity))
            .map_or(('&', 1), |&(entity, ch)| (ch, entity.len()));
        out.push(ch);
        rest = &tail[len..];
    }
    out.push_str(rest);
    out
}

/// Read the attributes of a tag in one left-to-right scan from `pos`
/// (just past the tag's name): `name="value"` pairs separated by ASCII
/// whitespace, up to the `>` that closes the tag. Calls `each` with every
/// name and value span, and returns the offset just past the tag — or,
/// when a pair is malformed, where the scan stopped.
fn scan_tag(html: &[u8], mut pos: usize, mut each: impl FnMut(&[u8], Range<usize>)) -> usize {
    loop {
        while html.get(pos).is_some_and(u8::is_ascii_whitespace) {
            pos += 1;
        }
        match html.get(pos) {
            None => return pos,
            Some(b'>') => return pos + 1,
            Some(_) => {}
        }
        let name = pos;
        while html
            .get(pos)
            .is_some_and(|&b| !matches!(b, b'=' | b'>' | b'"') && !b.is_ascii_whitespace())
        {
            pos += 1;
        }
        if html.get(pos..pos + 2) != Some(b"=\"") {
            return pos;
        }
        let Some(end) = find_byte(html, pos + 2, b'"') else { return pos };
        each(&html[name..pos], pos + 2..end);
        pos = end + 1;
    }
}

/// The attributes of a comment page's `<div class="thread" …>` header.
pub(crate) struct ThreadTag<'a> {
    /// data-commenturl-id
    pub id: ObjectId,
    /// data-url, still escaped.
    pub url: &'a [u8],
    /// data-upvotes
    pub upvotes: u32,
    /// data-downvotes
    pub downvotes: u32,
    /// data-comment-count
    pub declared_comment_count: usize,
    /// Offset just past the tag.
    pub end: usize,
}

impl<'a> ThreadTag<'a> {
    /// The first thread header in `html`, when every attribute is present
    /// and parses. (The first value of a repeated attribute counts.)
    pub(crate) fn parse(html: &'a [u8]) -> Option<Self> {
        const OPEN: &[u8] = b"<div class=\"thread\"";
        let start = find(html, 0, OPEN)? + OPEN.len();
        let [mut id, mut url, mut up, mut down, mut count] = [None; 5];
        let end = scan_tag(html, start, |name, value| {
            let slot = match name {
                b"data-commenturl-id" => &mut id,
                b"data-url" => &mut url,
                b"data-upvotes" => &mut up,
                b"data-downvotes" => &mut down,
                b"data-comment-count" => &mut count,
                _ => return,
            };
            slot.get_or_insert(&html[value]);
        });
        Some(ThreadTag {
            id: parse(id?)?,
            url: url?,
            upvotes: parse(up?)?,
            downvotes: parse(down?)?,
            declared_comment_count: parse(count?)?,
            end,
        })
    }
}

/// One `<li class="comment" …>` block of a comment page: its tag's
/// attributes and its `<p>` text, borrowed and still escaped.
#[derive(Debug, Default)]
pub(crate) struct CommentBlock<'a> {
    /// data-comment-id
    pub id: Option<&'a [u8]>,
    author_id: Option<&'a [u8]>,
    parent: Option<&'a [u8]>,
    created: Option<&'a [u8]>,
    text: Option<&'a [u8]>,
}

impl CommentBlock<'_> {
    /// The comment this block holds, given its parsed `id`, when the
    /// author id parses too. An empty or unparsable parent is a top-level
    /// comment, an unparsable timestamp is 0, and a block without
    /// `<p>…</p>` has empty text.
    pub(crate) fn scrape(&self, id: ObjectId) -> Option<ScrapedComment> {
        Some(ScrapedComment {
            id,
            author_id: parse(self.author_id?)?,
            parent: self.parent.filter(|p| !p.is_empty()).and_then(parse),
            created_at: self.created.and_then(parse).unwrap_or(0),
            text: self.text.map(text).unwrap_or_default(),
        })
    }
}

/// Every comment block of `html` from `from` on, in one left-to-right
/// scan. A block runs from its opener to the next `</li>` or the next
/// opener, whichever comes first; its text lies between the first `<p>`
/// in it and the next `</p>`.
pub(crate) fn comment_blocks(html: &[u8], from: usize) -> impl Iterator<Item = CommentBlock<'_>> {
    const OPEN: &[u8] = b"<li class=\"comment\"";
    let mut next = find(html, from, OPEN);
    std::iter::from_fn(move || {
        let mut block = CommentBlock::default();
        let mut pos = scan_tag(html, next? + OPEN.len(), |name, value| {
            let slot = match name {
                b"data-comment-id" => &mut block.id,
                b"data-author-id" => &mut block.author_id,
                b"data-parent" => &mut block.parent,
                b"data-created" => &mut block.created,
                _ => return,
            };
            slot.get_or_insert(&html[value]);
        });
        let mut text_start = None;
        next = loop {
            let Some(lt) = find_byte(html, pos, b'<') else { break None };
            let tail = &html[lt..];
            if tail.starts_with(b"</li>") {
                break find(html, lt, OPEN);
            }
            if tail.starts_with(OPEN) {
                break Some(lt);
            }
            match text_start {
                None if tail.starts_with(b"<p>") => text_start = Some(lt + 3),
                Some(start) if block.text.is_none() && tail.starts_with(b"</p>") => {
                    block.text = Some(&html[start..lt]);
                }
                _ => {}
            }
            pos = lt + 1;
        };
        Some(block)
    })
}

/// One `<li class="comment" …>` block parsed from a comment page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrapedComment {
    /// data-comment-id
    pub id: ObjectId,
    /// data-author-id
    pub author_id: ObjectId,
    /// data-parent (empty for top-level comments)
    pub parent: Option<ObjectId>,
    /// data-created
    pub created_at: u64,
    /// Inner text.
    pub text: String,
}

/// Parse the commented-out `commentAuthor` JSON blob into [`HiddenMeta`].
pub fn scrape_hidden_meta(html: &str) -> Option<HiddenMeta> {
    let marker = "// var commentAuthor = [";
    let start = html.find(marker)? + marker.len();
    let rest = &html[start..];
    let end = rest.find("];")?;
    let v = jsonlite::parse(&rest[..end]).ok()?;
    let b = |path: &jsonlite::Value, k: &str| path.get(k).and_then(|x| x.as_bool()).unwrap_or(false);
    let perms = v.get("permissions")?;
    let filters = v.get("viewFilters")?;
    Some(HiddenMeta {
        language: v.get("language")?.as_str()?.to_owned(),
        can_login: b(perms, "canLogin"),
        can_post: b(perms, "canPost"),
        can_report: b(perms, "canReport"),
        can_chat: b(perms, "canChat"),
        can_vote: b(perms, "canVote"),
        is_banned: b(perms, "isBanned"),
        is_admin: b(perms, "isAdmin"),
        is_moderator: b(perms, "isModerator"),
        is_pro: b(perms, "isPro"),
        is_donor: b(perms, "isDonor"),
        is_investor: b(perms, "isInvestor"),
        is_premium: b(perms, "isPremium"),
        is_tippable: b(perms, "isTippable"),
        is_private: b(perms, "isPrivate"),
        verified: b(perms, "verified"),
        filter_pro: b(filters, "pro"),
        filter_verified: b(filters, "verified"),
        filter_standard: b(filters, "standard"),
        filter_nsfw: b(filters, "nsfw"),
        filter_offensive: b(filters, "offensive"),
    })
}

/// The scraper before the one-pass rewrite — needle searches that build
/// a searcher per call and rescan each block, and a four-pass unescape —
/// kept as the oracle the one-pass scraper is checked against.
#[cfg(test)]
pub(crate) mod reference {
    use super::ScrapedComment;

    pub fn extract_attr_all(html: &str, attr: &str) -> Vec<String> {
        let needle = format!("{attr}=\"");
        let mut out = Vec::new();
        let mut rest = html;
        while let Some(pos) = rest.find(&needle) {
            let after = &rest[pos + needle.len()..];
            if let Some(end) = after.find('"') {
                out.push(after[..end].to_owned());
                rest = &after[end..];
            } else {
                break;
            }
        }
        out
    }

    pub fn attr_value<'a>(html: &'a str, attr: &str) -> Option<&'a str> {
        let mut from = 0;
        while let Some(pos) = html[from..].find("=\"") {
            let eq = from + pos;
            let value = &html[eq + 2..];
            if html[..eq].ends_with(attr) {
                return value.find('"').map(|end| &value[..end]);
            }
            from = eq + 2;
        }
        None
    }

    pub fn html_unescape(s: &str) -> String {
        if !s.contains('&') {
            return s.to_owned();
        }
        s.replace("&quot;", "\"").replace("&lt;", "<").replace("&gt;", ">").replace("&amp;", "&")
    }

    pub fn scrape_comments(html: &str) -> Vec<ScrapedComment> {
        let mut out = Vec::new();
        for block in html.split("<li class=\"comment\"").skip(1) {
            let end = block.find("</li>").unwrap_or(block.len());
            let block = &block[..end];
            let Some(id) = attr_value(block, "data-comment-id").and_then(|s| s.parse().ok()) else {
                continue;
            };
            let Some(author_id) =
                attr_value(block, "data-author-id").and_then(|s| s.parse().ok())
            else {
                continue;
            };
            let parent = attr_value(block, "data-parent")
                .filter(|s| !s.is_empty())
                .and_then(|s| s.parse().ok());
            let created_at =
                attr_value(block, "data-created").and_then(|s| s.parse().ok()).unwrap_or(0);
            let text = block
                .find("<p>")
                .and_then(|s| block[s + 3..].find("</p>").map(|e| &block[s + 3..s + 3 + e]))
                .map(html_unescape)
                .unwrap_or_default();
            out.push(ScrapedComment { id, author_id, parent, created_at, text });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `attr="…"` value of `html`, borrowed.
    pub(super) fn extract_attr_all<'a>(html: &'a str, attr: &str) -> Vec<&'a str> {
        attr_spans(html.as_bytes(), attr.as_bytes()).map(|r| &html[r]).collect()
    }

    /// The first `attr="…"` value of `html`, borrowed.
    pub(super) fn attr_value<'a>(html: &'a str, attr: &str) -> Option<&'a str> {
        attr_spans(html.as_bytes(), attr.as_bytes()).next().map(|r| &html[r])
    }

    fn scrape_comments(html: &str) -> Vec<ScrapedComment> {
        comment_blocks(html.as_bytes(), 0).filter_map(|b| b.scrape(parse(b.id?)?)).collect()
    }

    #[test]
    fn attr_extraction() {
        let html = r#"<a data-x="1"></a><b data-x="two"></b>"#;
        assert_eq!(extract_attr_all(html, "data-x"), vec!["1", "two"]);
        assert_eq!(attr_value(html, "data-x"), Some("1"));
        assert!(attr_value(html, "data-y").is_none());
    }

    #[test]
    fn attr_value_is_the_first_match_and_borrows() {
        let html = r#"<a data-x="1" data-x="2"></a>"#;
        let v = attr_value(html, "data-x").expect("present");
        assert_eq!(v, "1");
        assert!(std::ptr::eq(v.as_ptr(), html[html.find('1').unwrap()..].as_ptr()));
        // Like the needle search, a match may start inside a longer name
        // (`xdata-x`) but never end inside one (`data-xy`).
        assert_eq!(attr_value(r#"<a xdata-x="0" data-x="1">"#, "data-x"), Some("0"));
        assert_eq!(attr_value(r#"<a data-xy="0" data-x="1">"#, "data-x"), Some("1"));
        // An unterminated value yields nothing, like the needle search.
        assert_eq!(attr_value(r#"<a data-x="open"#, "data-x"), None);
        assert_eq!(attr_value("", "data-x"), None);
    }

    #[test]
    fn attr_value_finds_a_self_overlapping_prefix() {
        // `data-created` overlaps itself here: a scan that resumed past a
        // failed candidate would miss the real attribute.
        let html = r#"<li data-createdata-created="1">"#;
        assert_eq!(attr_value(html, "data-created"), Some("1"));
        assert_eq!(attr_value(r#"aab="v""#, "ab"), Some("v"));
    }

    #[test]
    fn attr_value_agrees_with_the_first_needle_match() {
        let pages = [
            r#"<a data-x="1"></a><b data-x="two"></b>"#,
            r#"<a data-y="3" data-x=""></a>"#,
            r#"data-x="a"data-x="b""#,
            r#"<x data-x=1 data-x="q">"#,
            r#"<é data-x="ü">"#,
        ];
        for html in pages {
            assert_eq!(
                attr_value(html, "data-x").map(str::to_owned),
                reference::extract_attr_all(html, "data-x").into_iter().next(),
                "{html}"
            );
            assert_eq!(attr_value(html, "data-x"), reference::attr_value(html, "data-x"));
        }
    }

    #[test]
    fn unescape_without_entities_is_unchanged() {
        assert_eq!(html_unescape("plain text <b>"), "plain text <b>");
        assert_eq!(html_unescape(""), "");
    }

    #[test]
    fn unescape_round_trip() {
        assert_eq!(html_unescape("a&amp;b&lt;c&gt;d&quot;e"), "a&b<c>d\"e");
        // Decoded text is not decoded again.
        assert_eq!(html_unescape("&amp;lt;&amp;amp;&&lt;&am;"), "&lt;&amp;&<&am;");
    }

    #[test]
    fn tag_scan_reads_each_pair_once_and_stops_at_the_close() {
        let html = br#"<li class="comment" a="1"  b="" c="x>y">after"#;
        let mut seen = Vec::new();
        let end = scan_tag(html, 19, |name, v| seen.push((name.to_vec(), html[v].to_vec())));
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            [("a", "1"), ("b", ""), ("c", "x>y")].map(|(n, v)| (n.into(), v.into())).into();
        assert_eq!(seen, want);
        assert_eq!(&html[end..], b"after");
        // A malformed pair ends the scan where it stands.
        let html = br#"<li a=1 b="2">"#;
        let mut seen = 0;
        let end = scan_tag(html, 3, |_, _| seen += 1);
        assert_eq!((seen, &html[end..]), (0, &b"=1 b=\"2\">"[..]));
    }

    #[test]
    fn comment_scrape() {
        let html = concat!(
            r#"<ol><li class="comment" data-comment-id="5c780b19aabbccddeeff0011" "#,
            r#"data-author-id="5c780b19aabbccddeeff0022" data-parent="" data-created="1551000000">"#,
            r#"<p>hello &amp; bye</p></li>"#,
            r#"<li class="comment" data-comment-id="5c780b19aabbccddeeff0033" "#,
            r#"data-author-id="5c780b19aabbccddeeff0022" data-parent="5c780b19aabbccddeeff0011" data-created="1551000001">"#,
            r#"<p>reply</p></li></ol>"#
        );
        let comments = scrape_comments(html);
        assert_eq!(comments.len(), 2);
        assert_eq!(comments[0].text, "hello & bye");
        assert!(comments[0].parent.is_none());
        assert_eq!(comments[1].parent, Some(comments[0].id));
        assert_eq!(comments[1].created_at, 1551000001);
    }

    #[test]
    fn malformed_blocks_skipped() {
        let html = r#"<li class="comment" data-comment-id="nothex"><p>x</p></li>"#;
        assert!(scrape_comments(html).is_empty());
    }

    #[test]
    fn hidden_meta_scrape() {
        let html = r#"<script>
// var commentAuthor = [{"author_id":"5c780b19aabbccddeeff0022","username":"a","language":"de","permissions":{"canLogin":true,"isAdmin":true,"isBanned":false,"canPost":true,"canReport":true,"canChat":true,"canVote":true,"isModerator":false,"isPro":true,"isDonor":false,"isInvestor":false,"isPremium":false,"isTippable":false,"isPrivate":false,"verified":true},"viewFilters":{"pro":true,"verified":true,"standard":true,"nsfw":true,"offensive":false}}];
</script>"#;
        let meta = scrape_hidden_meta(html).expect("parses");
        assert_eq!(meta.language, "de");
        assert!(meta.is_admin);
        assert!(meta.filter_nsfw);
        assert!(!meta.filter_offensive);
    }

    #[test]
    fn missing_meta_is_none() {
        assert!(scrape_hidden_meta("<html>no script here</html>").is_none());
    }
}

/// The one-pass scraper against the reference on text built to trip it:
/// entities, quotes, `="` openers and markup lookalikes.
#[cfg(test)]
pub(crate) mod equivalence {
    use super::tests::{attr_value, extract_attr_all};
    use super::*;
    use proptest::prelude::*;
    use webfront::dissenter::Escaped;

    /// One of `options`, uniformly.
    pub(crate) fn pick(options: &'static [&'static str]) -> impl Strategy<Value = String> {
        (0..options.len()).prop_map(move |i| options[i].to_owned())
    }

    /// Text mixing plain words, entities and their lookalikes, quotes,
    /// `="` openers and markup fragments.
    pub(crate) fn tricky_text() -> impl Strategy<Value = String> {
        prop::collection::vec(
            prop_oneof![
                "[a-z ]{0,6}",
                "\\PC{0,3}",
                pick(&[
                    "&", "&amp;", "&amp;amp;", "&lt;", "&gt;", "&quot;", "&am", "&amp", "&&lt;",
                    "\"", "=\"", "data-x=\"", "<li", "<li class=\"comment\"", "</li>", "<p>",
                    "</p>", "<title>", ">", "<",
                ]),
            ],
            0..10,
        )
        .prop_map(|parts| parts.concat())
    }

    proptest! {
        #[test]
        fn unescape_agrees_with_the_four_pass_unescape(
            texts in prop::collection::vec(tricky_text(), 1..32),
        ) {
            for s in texts {
                prop_assert_eq!(html_unescape(&s), reference::html_unescape(&s));
            }
        }

        #[test]
        fn unescape_inverts_the_front_escape(texts in prop::collection::vec(tricky_text(), 1..32)) {
            for s in texts {
                prop_assert_eq!(html_unescape(&Escaped(&s).to_string()), s);
            }
        }

        #[test]
        fn attribute_reads_agree_with_the_needle_search(
            pages in prop::collection::vec(
                prop::collection::vec(
                    prop_oneof![
                        "[a-z =\"<>-]{0,6}",
                        pick(&["data-x", "data-x=\"", "xdata-x=\"", "data-xy=\"", "=\"", "\""]),
                    ],
                    0..12,
                )
                .prop_map(|parts| parts.concat()),
                1..32,
            ),
        ) {
            for html in pages {
                prop_assert_eq!(
                    extract_attr_all(&html, "data-x"),
                    reference::extract_attr_all(&html, "data-x")
                );
                let first = reference::attr_value(&html, "data-x");
                prop_assert_eq!(attr_value(&html, "data-x"), first);
            }
        }
    }
}
