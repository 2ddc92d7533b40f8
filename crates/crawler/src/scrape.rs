//! HTML scraping helpers for the simulated Dissenter pages.
//!
//! The real study reverse-engineered undocumented HTML; these helpers do
//! the same against our front-end's markup: attribute extraction from
//! tagged elements, entity unescaping, and the commented-out
//! `commentAuthor` JSON blob.

use crate::store::HiddenMeta;
use ids::ObjectId;

/// Extract every occurrence of `attr="…"` in `html`, in document order.
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

/// The value of the first occurrence of `attr="…"` in `html`, borrowed.
/// The scan stops at that occurrence: it walks the `="` openers and takes
/// the first one preceded by `attr`, which is exactly where the first
/// `attr="` starts, even when `attr` overlaps itself in the text.
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

/// Undo the front-end's HTML escaping.
pub fn html_unescape(s: &str) -> String {
    if !s.contains('&') {
        return s.to_owned();
    }
    s.replace("&quot;", "\"").replace("&lt;", "<").replace("&gt;", ">").replace("&amp;", "&")
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

/// Parse all comments out of a comment page.
pub fn scrape_comments(html: &str) -> Vec<ScrapedComment> {
    let mut out = Vec::new();
    for block in html.split("<li class=\"comment\"").skip(1) {
        let end = block.find("</li>").unwrap_or(block.len());
        let block = &block[..end];
        let Some(id) = attr_value(block, "data-comment-id").and_then(|s| s.parse().ok()) else {
            continue;
        };
        let Some(author_id) = attr_value(block, "data-author-id").and_then(|s| s.parse().ok())
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

#[cfg(test)]
mod tests {
    use super::*;

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
                extract_attr_all(html, "data-x").into_iter().next(),
                "{html}"
            );
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
