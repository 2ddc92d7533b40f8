//! Crawl-mirror persistence.
//!
//! The paper "effectively mirror\[s\] the Dissenter database"; a mirror you
//! cannot save is not much of a mirror. This module serializes a
//! [`CrawlStore`] to a directory of JSON-Lines files (one entity type per
//! file, one JSON object per line — the archive format Pushshift itself
//! uses) and loads it back, so expensive crawls can be archived and
//! re-analyzed without re-crawling.
//!
//! Each file is written crash-safely (temp file, fsync, rename, fsync
//! parent), so a kill mid-[`save`] leaves either the old archive or the
//! new one — never a torn, unloadable mixture. Load errors carry the
//! file name and 1-based line number of the offending line.
//!
//! The per-entity JSON codecs are shared with [`crate::journal`], which
//! journals the same representations as WAL records and snapshot
//! sections.

use crate::store::{
    CrawlStore, CrawledComment, CrawledUrl, CrawledUser, CrawledYoutube, GabAccount, HiddenMeta,
    RedditMatch, ShadowLabel,
};
use ids::ObjectId;
use jsonlite::Value;
use std::io::{self, Write};
use std::path::Path;

/// File names written by [`save`].
pub const FILES: [&str; 7] = [
    "gab_accounts.jsonl",
    "users.jsonl",
    "urls.jsonl",
    "comments.jsonl",
    "youtube.jsonl",
    "follow_edges.jsonl",
    "reddit.jsonl",
];

fn bad_data(detail: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.into())
}

// ---------------------------------------------------------------------
// Per-entity JSON codecs (shared by save/load and crate::journal).
// ---------------------------------------------------------------------

fn oid(v: &Value, k: &str) -> io::Result<ObjectId> {
    v.get(k)
        .and_then(|x| x.as_str())
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad_data(format!("bad id field {k}")))
}

fn s(v: &Value, k: &str) -> String {
    v.get(k).and_then(|x| x.as_str()).unwrap_or("").to_owned()
}

fn n(v: &Value, k: &str) -> i64 {
    v.get(k).and_then(|x| x.as_i64()).unwrap_or(0)
}

pub(crate) fn gab_to_json(a: &GabAccount) -> Value {
    Value::object()
        .with("gab_id", a.gab_id)
        .with("username", a.username.as_str())
        .with("created_at", a.created_at.as_str())
        .with("created_epoch", a.created_epoch)
        .with("followers_count", a.followers_count)
        .with("following_count", a.following_count)
}

pub(crate) fn gab_from_json(v: &Value) -> io::Result<GabAccount> {
    Ok(GabAccount {
        gab_id: n(v, "gab_id") as u64,
        username: s(v, "username"),
        created_at: s(v, "created_at"),
        created_epoch: n(v, "created_epoch") as u64,
        followers_count: n(v, "followers_count") as u64,
        following_count: n(v, "following_count") as u64,
    })
}

pub(crate) fn user_to_json(u: &CrawledUser) -> Value {
    let mut v = Value::object()
        .with("username", u.username.as_str())
        .with("author_id", u.author_id.to_hex())
        .with("display_name", u.display_name.as_str())
        .with("bio", u.bio.as_str())
        .with(
            "url_ids",
            Value::Array(u.url_ids.iter().map(|i| Value::Str(i.to_hex())).collect()),
        );
    if let Some(m) = &u.meta {
        v = v.with("meta", meta_to_json(m));
    }
    v
}

pub(crate) fn user_from_json(v: &Value) -> io::Result<CrawledUser> {
    Ok(CrawledUser {
        username: s(v, "username"),
        author_id: oid(v, "author_id")?,
        display_name: s(v, "display_name"),
        bio: s(v, "bio"),
        url_ids: v
            .get("url_ids")
            .and_then(|a| a.as_array())
            .map(|items| items.iter().filter_map(|i| i.as_str()?.parse().ok()).collect())
            .unwrap_or_default(),
        meta: v.get("meta").map(meta_from_json),
    })
}

pub(crate) fn url_to_json(u: &CrawledUrl) -> Value {
    Value::object()
        .with("id", u.id.to_hex())
        .with("url", u.url.as_str())
        .with("title", u.title.as_str())
        .with("description", u.description.as_str())
        .with("upvotes", u.upvotes)
        .with("downvotes", u.downvotes)
        .with("declared_comment_count", u.declared_comment_count)
}

pub(crate) fn url_from_json(v: &Value) -> io::Result<CrawledUrl> {
    Ok(CrawledUrl {
        id: oid(v, "id")?,
        url: s(v, "url"),
        title: s(v, "title"),
        description: s(v, "description"),
        upvotes: n(v, "upvotes") as u32,
        downvotes: n(v, "downvotes") as u32,
        declared_comment_count: n(v, "declared_comment_count") as usize,
    })
}

pub(crate) fn comment_to_json(c: &CrawledComment) -> Value {
    Value::object()
        .with("id", c.id.to_hex())
        .with("url_id", c.url_id.to_hex())
        .with("author_id", c.author_id.to_hex())
        .with("parent", c.parent.map(|p| p.to_hex()))
        .with("text", c.text.as_str())
        .with("created_at", c.created_at)
        .with("label", label_str(c.label))
}

pub(crate) fn comment_from_json(v: &Value) -> io::Result<CrawledComment> {
    Ok(CrawledComment {
        id: oid(v, "id")?,
        url_id: oid(v, "url_id")?,
        author_id: oid(v, "author_id")?,
        parent: v.get("parent").and_then(|p| p.as_str()).and_then(|p| p.parse().ok()),
        text: s(v, "text"),
        created_at: n(v, "created_at") as u64,
        label: label_from_str(&s(v, "label")),
    })
}

pub(crate) fn youtube_to_json(y: &CrawledYoutube) -> Value {
    Value::object()
        .with("url", y.url.as_str())
        .with("kind", y.kind.as_str())
        .with("available", y.available)
        .with("reason", y.reason.clone())
        .with("owner", y.owner.clone())
        .with("comments_disabled", y.comments_disabled)
}

pub(crate) fn youtube_from_json(v: &Value) -> io::Result<CrawledYoutube> {
    Ok(CrawledYoutube {
        url: s(v, "url"),
        kind: s(v, "kind"),
        available: v.get("available").and_then(|b| b.as_bool()).unwrap_or(false),
        reason: v.get("reason").and_then(|r| r.as_str()).map(str::to_owned),
        owner: v.get("owner").and_then(|o| o.as_str()).map(str::to_owned),
        comments_disabled: v.get("comments_disabled").and_then(|b| b.as_bool()).unwrap_or(false),
    })
}

pub(crate) fn edge_to_json(edge: &(ObjectId, ObjectId)) -> Value {
    Value::object().with("from", edge.0.to_hex()).with("to", edge.1.to_hex())
}

pub(crate) fn edge_from_json(v: &Value) -> io::Result<(ObjectId, ObjectId)> {
    Ok((oid(v, "from")?, oid(v, "to")?))
}

pub(crate) fn reddit_to_json(m: &RedditMatch) -> Value {
    Value::object()
        .with("username", m.username.as_str())
        .with("total_comments", m.total_comments)
        .with(
            "comments",
            Value::Array(m.comments.iter().map(|c| Value::Str(c.clone())).collect()),
        )
}

pub(crate) fn reddit_from_json(v: &Value) -> io::Result<RedditMatch> {
    Ok(RedditMatch {
        username: s(v, "username"),
        total_comments: n(v, "total_comments") as u64,
        comments: v
            .get("comments")
            .and_then(|a| a.as_array())
            .map(|items| items.iter().filter_map(|i| i.as_str().map(str::to_owned)).collect())
            .unwrap_or_default(),
    })
}

// ---------------------------------------------------------------------
// Whole-file serialization / application.
// ---------------------------------------------------------------------

/// Serialize one archive file's entities (sorted, one JSON object per
/// line) to bytes. `name` must be one of [`FILES`].
pub(crate) fn serialize_file(store: &CrawlStore, name: &str) -> Vec<u8> {
    let lines: Vec<Value> = match name {
        "gab_accounts.jsonl" => {
            let mut gab: Vec<&GabAccount> = store.gab_accounts.iter().collect();
            gab.sort_by_key(|a| a.gab_id);
            gab.iter().map(|a| gab_to_json(a)).collect()
        }
        "users.jsonl" => {
            let mut users: Vec<&CrawledUser> = store.users.values().collect();
            users.sort_by(|a, b| a.username.cmp(&b.username));
            users.iter().map(|u| user_to_json(u)).collect()
        }
        "urls.jsonl" => {
            let mut urls: Vec<&CrawledUrl> = store.urls.values().collect();
            urls.sort_by_key(|u| u.id);
            urls.iter().map(|u| url_to_json(u)).collect()
        }
        "comments.jsonl" => {
            let mut comments: Vec<&CrawledComment> = store.comments.values().collect();
            comments.sort_by_key(|c| c.id);
            comments.iter().map(|c| comment_to_json(c)).collect()
        }
        "youtube.jsonl" => {
            let mut yt: Vec<&CrawledYoutube> = store.youtube.iter().collect();
            yt.sort_by(|a, b| a.url.cmp(&b.url));
            yt.iter().map(|y| youtube_to_json(y)).collect()
        }
        "follow_edges.jsonl" => {
            let mut edges = store.follow_edges.clone();
            edges.sort();
            edges.iter().map(edge_to_json).collect()
        }
        "reddit.jsonl" => {
            let mut reddit: Vec<&RedditMatch> = store.reddit.values().collect();
            reddit.sort_by(|a, b| a.username.cmp(&b.username));
            reddit.iter().map(|m| reddit_to_json(m)).collect()
        }
        other => unreachable!("not an archive file: {other}"),
    };
    let mut buf = Vec::new();
    for v in lines {
        writeln!(buf, "{}", jsonlite::to_string(&v)).expect("Vec write is infallible");
    }
    buf
}

/// Apply one parsed archive line to the store. Does not touch
/// `dissenter_usernames` — [`load`] rebuilds that index afterwards, and
/// the journal restores it from its own records.
pub(crate) fn apply_line(store: &mut CrawlStore, name: &str, v: &Value) -> io::Result<()> {
    match name {
        "gab_accounts.jsonl" => store.gab_accounts.push(gab_from_json(v)?),
        "users.jsonl" => {
            let user = user_from_json(v)?;
            store.users.insert(user.username.clone(), user);
        }
        "urls.jsonl" => {
            let u = url_from_json(v)?;
            store.urls.insert(u.id, u);
        }
        "comments.jsonl" => {
            let c = comment_from_json(v)?;
            store.comments.insert(c.id, c);
        }
        "youtube.jsonl" => store.youtube.push(youtube_from_json(v)?),
        "follow_edges.jsonl" => store.follow_edges.push(edge_from_json(v)?),
        "reddit.jsonl" => {
            let m = reddit_from_json(v)?;
            store.reddit.insert(m.username.clone(), m);
        }
        other => unreachable!("not an archive file: {other}"),
    }
    Ok(())
}

/// Parse and apply a whole JSONL buffer. Errors name the offending
/// `file:line` (1-based) — a truncated or garbage line in a gigabyte
/// archive must be findable, not an opaque parse failure.
pub(crate) fn apply_jsonl(store: &mut CrawlStore, name: &str, bytes: &[u8]) -> io::Result<()> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| bad_data(format!("{name}: not valid UTF-8: {e}")))?;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = jsonlite::parse(line).map_err(|e| bad_data(format!("{name}:{lineno}: {e}")))?;
        apply_line(store, name, &v).map_err(|e| bad_data(format!("{name}:{lineno}: {e}")))?;
    }
    Ok(())
}

/// Save a crawl store into `dir` (created if missing). Each file is
/// written with the temp-file + fsync + rename + fsync-parent
/// discipline: a crash mid-save can never leave a torn archive file.
pub fn save(store: &CrawlStore, dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for name in FILES {
        durable::atomic_write_file(&dir.join(name), &serialize_file(store, name))?;
    }
    Ok(())
}

/// Load a crawl store previously written by [`save`]. Crawl statistics and
/// validation counters are not persisted (they describe the crawl run, not
/// the mirror) and come back zeroed.
pub fn load(dir: &Path) -> io::Result<CrawlStore> {
    let mut store = CrawlStore::default();
    for name in FILES {
        let bytes = std::fs::read(dir.join(name))?;
        apply_jsonl(&mut store, name, &bytes)?;
    }
    store.dissenter_usernames = store.users.keys().cloned().collect();
    store.dissenter_usernames.sort();
    Ok(store)
}

pub(crate) fn label_str(l: ShadowLabel) -> &'static str {
    match l {
        ShadowLabel::Standard => "standard",
        ShadowLabel::Nsfw => "nsfw",
        ShadowLabel::Offensive => "offensive",
        ShadowLabel::Both => "both",
    }
}

pub(crate) fn label_from_str(s: &str) -> ShadowLabel {
    match s {
        "nsfw" => ShadowLabel::Nsfw,
        "offensive" => ShadowLabel::Offensive,
        "both" => ShadowLabel::Both,
        _ => ShadowLabel::Standard,
    }
}

fn meta_to_json(m: &HiddenMeta) -> Value {
    Value::object()
        .with("language", m.language.as_str())
        .with("canLogin", m.can_login)
        .with("canPost", m.can_post)
        .with("canReport", m.can_report)
        .with("canChat", m.can_chat)
        .with("canVote", m.can_vote)
        .with("isBanned", m.is_banned)
        .with("isAdmin", m.is_admin)
        .with("isModerator", m.is_moderator)
        .with("isPro", m.is_pro)
        .with("isDonor", m.is_donor)
        .with("isInvestor", m.is_investor)
        .with("isPremium", m.is_premium)
        .with("isTippable", m.is_tippable)
        .with("isPrivate", m.is_private)
        .with("verified", m.verified)
        .with("filterPro", m.filter_pro)
        .with("filterVerified", m.filter_verified)
        .with("filterStandard", m.filter_standard)
        .with("filterNsfw", m.filter_nsfw)
        .with("filterOffensive", m.filter_offensive)
}

fn meta_from_json(v: &Value) -> HiddenMeta {
    let b = |k: &str| v.get(k).and_then(|x| x.as_bool()).unwrap_or(false);
    HiddenMeta {
        language: v.get("language").and_then(|x| x.as_str()).unwrap_or("").to_owned(),
        can_login: b("canLogin"),
        can_post: b("canPost"),
        can_report: b("canReport"),
        can_chat: b("canChat"),
        can_vote: b("canVote"),
        is_banned: b("isBanned"),
        is_admin: b("isAdmin"),
        is_moderator: b("isModerator"),
        is_pro: b("isPro"),
        is_donor: b("isDonor"),
        is_investor: b("isInvestor"),
        is_premium: b("isPremium"),
        is_tippable: b("isTippable"),
        is_private: b("isPrivate"),
        verified: b("verified"),
        filter_pro: b("filterPro"),
        filter_verified: b("filterVerified"),
        filter_standard: b("filterStandard"),
        filter_nsfw: b("filterNsfw"),
        filter_offensive: b("filterOffensive"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids::{EntityKind, ObjectIdGen};

    fn sample_store() -> CrawlStore {
        let mut store = CrawlStore::default();
        let mut ag = ObjectIdGen::new(EntityKind::Author, 1);
        let mut ug = ObjectIdGen::new(EntityKind::CommentUrl, 2);
        let mut cg = ObjectIdGen::new(EntityKind::Comment, 3);
        store.gab_accounts.push(GabAccount {
            gab_id: 1,
            username: "e".into(),
            created_at: "2016-08-15T00:00:00Z".into(),
            created_epoch: 1_471_219_200,
            followers_count: 10,
            following_count: 2,
        });
        let author = ag.next(100);
        let url = ug.next(200);
        store.users.insert(
            "alice".into(),
            CrawledUser {
                username: "alice".into(),
                author_id: author,
                display_name: "Alice & Co".into(),
                bio: "speaks \"freely\"\nnewline".into(),
                url_ids: vec![url],
                meta: Some(HiddenMeta {
                    language: "de".into(),
                    can_login: true,
                    filter_nsfw: true,
                    ..Default::default()
                }),
            },
        );
        store.dissenter_usernames.push("alice".into());
        store.urls.insert(
            url,
            CrawledUrl {
                id: url,
                url: "https://example.com/a?x=1&y=2".into(),
                title: "T".into(),
                description: String::new(),
                upvotes: 3,
                downvotes: 1,
                declared_comment_count: 2,
            },
        );
        let parent = cg.next(300);
        for (id, p, label) in [
            (parent, None, ShadowLabel::Standard),
            (cg.next(301), Some(parent), ShadowLabel::Both),
        ] {
            store.comments.insert(
                id,
                CrawledComment {
                    id,
                    url_id: url,
                    author_id: author,
                    parent: p,
                    text: "hi \u{1F600} unicode".into(),
                    created_at: 300,
                    label,
                },
            );
        }
        store.youtube.push(CrawledYoutube {
            url: "https://youtube.com/watch?v=x".into(),
            kind: "video".into(),
            available: false,
            reason: Some("This video is private".into()),
            owner: None,
            comments_disabled: false,
        });
        store.follow_edges.push((author, author));
        store.reddit.insert(
            "alice".into(),
            RedditMatch { username: "alice".into(), total_comments: 7, comments: vec!["r1".into()] },
        );
        store
    }

    #[test]
    fn round_trips_everything() {
        let store = sample_store();
        let dir = std::env::temp_dir().join(format!("crawl-persist-{}", std::process::id()));
        save(&store, &dir).expect("save");
        for f in FILES {
            assert!(dir.join(f).exists(), "{f} missing");
        }
        let loaded = load(&dir).expect("load");
        assert_eq!(loaded.gab_accounts.len(), 1);
        assert_eq!(loaded.gab_accounts[0].username, "e");
        let alice = &loaded.users["alice"];
        assert_eq!(alice.bio, "speaks \"freely\"\nnewline");
        assert_eq!(alice.url_ids.len(), 1);
        assert_eq!(alice.meta.as_ref().unwrap().language, "de");
        assert!(alice.meta.as_ref().unwrap().filter_nsfw);
        assert_eq!(loaded.urls.len(), 1);
        assert_eq!(loaded.comments.len(), 2);
        let both = loaded.comments.values().find(|c| c.parent.is_some()).unwrap();
        assert_eq!(both.label, ShadowLabel::Both);
        assert_eq!(both.text, "hi \u{1F600} unicode");
        assert_eq!(loaded.youtube.len(), 1);
        assert_eq!(loaded.follow_edges.len(), 1);
        assert_eq!(loaded.reddit["alice"].total_comments, 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_dir_errors() {
        assert!(load(Path::new("/nonexistent/xyz")).is_err());
    }

    #[test]
    fn save_is_deterministic() {
        let store = sample_store();
        let d1 = std::env::temp_dir().join(format!("crawl-det1-{}", std::process::id()));
        let d2 = std::env::temp_dir().join(format!("crawl-det2-{}", std::process::id()));
        save(&store, &d1).unwrap();
        save(&store, &d2).unwrap();
        for f in FILES {
            let a = std::fs::read(d1.join(f)).unwrap();
            let b = std::fs::read(d2.join(f)).unwrap();
            assert_eq!(a, b, "{f} differs");
        }
        std::fs::remove_dir_all(&d1).ok();
        std::fs::remove_dir_all(&d2).ok();
    }

    #[test]
    fn save_leaves_no_temp_files() {
        let store = sample_store();
        let dir = std::env::temp_dir().join(format!("crawl-notmp-{}", std::process::id()));
        save(&store, &dir).unwrap();
        save(&store, &dir).unwrap(); // overwrite path exercises rename-over
        let stray: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(stray.is_empty(), "temp files left behind: {stray:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_final_line_reports_file_and_line() {
        let store = sample_store();
        let dir = std::env::temp_dir().join(format!("crawl-trunc-{}", std::process::id()));
        save(&store, &dir).unwrap();
        // Chop the last line of comments.jsonl mid-object — the torn
        // state a non-atomic writer would have left after a kill.
        let path = dir.join("comments.jsonl");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 20]).unwrap();

        let err = load(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("comments.jsonl:2:"), "missing file:line context: {msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_line_reports_file_and_line() {
        let store = sample_store();
        let dir = std::env::temp_dir().join(format!("crawl-garbage-{}", std::process::id()));
        save(&store, &dir).unwrap();
        let path = dir.join("users.jsonl");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"this is not json\n");
        std::fs::write(&path, &bytes).unwrap();

        let err = load(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("users.jsonl:2:"), "missing file:line context: {msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_id_field_reports_file_and_line() {
        let dir = std::env::temp_dir().join(format!("crawl-badid-{}", std::process::id()));
        save(&CrawlStore::default(), &dir).unwrap();
        std::fs::write(dir.join("urls.jsonl"), b"{\"id\": \"not-a-hex-oid\"}\n").unwrap();
        let err = load(&dir).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("urls.jsonl:1:"), "{msg}");
        assert!(msg.contains("bad id field id"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
