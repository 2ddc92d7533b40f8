//! Phase 1 — exhaustive Gab ID enumeration (§3.1).
//!
//! Gab IDs are a counter from 1; the API errors on unallocated IDs. The
//! crawler sweeps blocks of IDs in parallel and stops once an entire
//! gap-tolerance window past the highest hit comes back empty. Rate-limit
//! denials (429 + `X-RateLimit-Reset`) are honored by sleeping until the
//! advertised reset, exactly as §3.4 describes.
//!
//! With a [`SweepHint`](crate::SweepHint) attached, the scan is
//! **incremental**: the known ID set is re-fetched (conditional GETs,
//! mostly `304`-cheap; deletions since the last sweep come back 404 and
//! drop out) and the block sweep starts just past the previous maximum,
//! since the monotonic allocator can only have minted new accounts
//! above it. The unallocated-ID probes below the previous maximum — the
//! one part of a re-sweep that revalidation can never make cheap,
//! because a 404 carries no validator — are skipped entirely.

use crate::resilience::{Phase, PhaseRun};
use crate::store::{CrawlStore, GabAccount};
use crate::Crawler;

const BLOCK: u64 = 4_096;

/// Run the enumeration phase into `store.gab_accounts`.
pub fn enumerate(crawler: &Crawler, store: &mut CrawlStore) {
    let run = PhaseRun::new(crawler, Phase::GabEnum);
    let fetch_ids = |ids: &[u64], store: &CrawlStore| -> Vec<GabAccount> {
        crate::parallel::parallel_get(
            &run,
            store,
            crawler.endpoints.gab,
            ids,
            |c| run.setup_client(c),
            |id| format!("/api/v1/accounts/{id}"),
            |&id, resp| {
                if !resp.status.is_success() {
                    return None;
                }
                let v = jsonlite::parse(&String::from_utf8_lossy(&resp.body)).ok()?;
                Some(GabAccount {
                    gab_id: id,
                    username: v.get("username")?.as_str()?.to_owned(),
                    created_at: v.get("created_at")?.as_str()?.to_owned(),
                    created_epoch: parse_iso_epoch(v.get("created_at")?.as_str()?).unwrap_or(0),
                    followers_count: v.get("followers_count").and_then(|x| x.as_i64()).unwrap_or(0)
                        as u64,
                    following_count: v.get("following_count").and_then(|x| x.as_i64()).unwrap_or(0)
                        as u64,
                })
            },
        )
    };

    let mut accounts: Vec<GabAccount> = Vec::new();
    let mut start: u64 = 1;
    let mut last_hit: u64 = 0;
    let mut block = BLOCK;
    if let Some(hint) = crawler.sweep_hint() {
        // Incremental: re-check the known set, then scan only the ID
        // space the allocator could have extended into. `last_hit`
        // seeds from the *surviving* known IDs (the previous maximum
        // may have been deleted since), exactly where a from-scratch
        // scan's high-water mark would stand on crossing it.
        accounts = fetch_ids(&hint.known_gab_ids, store);
        last_hit = accounts.iter().map(|a| a.gab_id).max().unwrap_or(0);
        start = hint.max_gab_id + 1;
        // Blocks sized to the expected tail (block geometry affects
        // only request batching, never the found set — see the
        // termination argument below).
        block = crawler.config.enum_gap_tolerance.clamp(512, BLOCK);
    }
    // Termination: the scan stops once a whole gap-tolerance window past
    // the highest hit is exhausted. Since consecutive allocated IDs
    // never differ by more than the tolerance, `last_hit` reaches the
    // true maximum before any stop, so every visible ID is found
    // regardless of where the blocks start or how wide they are.
    loop {
        let ids: Vec<u64> = (start..start + block).collect();
        let found = fetch_ids(&ids, store);
        if let Some(max_hit) = found.iter().map(|a| a.gab_id).max() {
            last_hit = last_hit.max(max_hit);
        }
        accounts.extend(found);
        start += block;
        if start > last_hit + crawler.config.enum_gap_tolerance {
            break;
        }
    }
    accounts.sort_by_key(|a| a.gab_id);
    store.gab_accounts = accounts;
}

/// Parse `YYYY-MM-DDTHH:MM:SSZ` into epoch seconds.
pub fn parse_iso_epoch(s: &str) -> Option<u64> {
    let bytes = s.as_bytes();
    if bytes.len() < 19 {
        return None;
    }
    let num = |range: std::ops::Range<usize>| -> Option<u64> {
        s.get(range)?.parse().ok()
    };
    let (y, mo, d) = (num(0..4)? as i64, num(5..7)? as u32, num(8..10)? as u32);
    let (h, mi, sec) = (num(11..13)?, num(14..16)?, num(17..19)?);
    if mo == 0 || mo > 12 || d == 0 || d > 31 {
        return None;
    }
    Some(ids::clock::from_ymd(y, mo, d) + h * 3600 + mi * 60 + sec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iso_parse_round_trip() {
        let ts = 1_551_139_200 + 3661;
        let s = ids::clock::format_datetime(ts);
        assert_eq!(parse_iso_epoch(&s), Some(ts));
    }

    #[test]
    fn iso_parse_rejects_garbage() {
        assert_eq!(parse_iso_epoch("not a date"), None);
        assert_eq!(parse_iso_epoch("2019-13-01T00:00:00Z"), None);
        assert_eq!(parse_iso_epoch(""), None);
    }
}
