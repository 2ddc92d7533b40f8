//! Out-of-core table aggregation: external-merge counting with spill
//! files.
//!
//! The Table-2 and §4.2.3 aggregations ([`crate::domains`],
//! [`crate::content::language_table`]) hold a `HashMap` over every
//! distinct key. At paper scale (588k URLs) that is still cheap, but at
//! 10× and beyond the per-domain median table's per-URL value lists grow
//! with the corpus. This module provides the same tables with **bounded
//! resident memory**: keys stream into a small in-memory buffer that
//! spills sorted runs to temp files when full, and a canonical
//! ascending-key merge recombines the runs into exact totals. It is the
//! report's only table path: below its budget a counter writes no run,
//! so small corpora never touch the disk, and the in-memory functions
//! remain only as test and oracle references.
//!
//! Byte-identity contract: integer counting is exact, runs merge by key
//! with counts summed (`u64` addition is associative), and the final
//! row ordering and percentage arithmetic reuse the exact expressions
//! of the in-memory implementations — so the spilled tables are
//! byte-for-byte identical to [`crate::domains::share_table`] /
//! [`crate::domains::domain_comment_medians`] /
//! [`crate::content::language_table`] output at any spill budget,
//! which the `scale.spill` and `scale.merge` simcheck legs enforce.
//!
//! Spill-file format: one `"{key}\t{count}\n"` line per distinct key,
//! keys in ascending byte order (keys must not contain `\t` or `\n`;
//! the aggregators' keys are scheme/host-derived strings and language
//! codes, which cannot). Composite keys order by `(key, value)` via a
//! fixed-width zero-padded decimal value suffix.

use crate::domains::ShareRow;
use crate::url::ParsedUrl;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default number of distinct resident keys before a run is spilled.
pub const DEFAULT_SPILL_BUDGET: usize = 64 * 1024;

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

fn run_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "dissenter-spill-{}-{}-{}.run",
        std::process::id(),
        tag,
        SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Streaming key counter with external-merge spill runs.
///
/// Keys accumulate in an ordered resident map; when the map holds
/// `budget` distinct keys it is written out as a sorted run and
/// cleared. [`ExternalCounter::finish`] merges every run (plus the
/// resident remainder) in ascending key order, summing counts for equal
/// keys, and hands each exact `(key, total)` to the visitor.
pub struct ExternalCounter {
    resident: BTreeMap<String, u64>,
    budget: usize,
    runs: Vec<PathBuf>,
    total: u64,
}

impl ExternalCounter {
    /// Counter spilling after `budget` distinct resident keys.
    pub fn new(budget: usize) -> Self {
        Self { resident: BTreeMap::new(), budget: budget.max(1), runs: Vec::new(), total: 0 }
    }

    /// Count one key occurrence (`weight` occurrences, for callers that
    /// pre-aggregate).
    pub fn add_weighted(&mut self, key: &str, weight: u64) -> io::Result<()> {
        debug_assert!(
            !key.contains('\t') && !key.contains('\n'),
            "spill keys must not contain separators"
        );
        match self.resident.get_mut(key) {
            Some(count) => *count += weight,
            None => {
                self.resident.insert(key.to_owned(), weight);
            }
        }
        self.total += weight;
        if self.resident.len() >= self.budget {
            self.spill_run()?;
        }
        Ok(())
    }

    /// Count one key occurrence.
    pub fn add(&mut self, key: &str) -> io::Result<()> {
        self.add_weighted(key, 1)
    }

    /// Total occurrences counted so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of spill runs written so far (for tests and bench stats).
    pub fn runs(&self) -> usize {
        self.runs.len()
    }

    /// Add [`Self::runs`] to the `analysis.spill.runs` counter.
    fn count_runs(&self, metrics: Option<&obs::Registry>) {
        if let Some(registry) = metrics {
            registry.add("analysis.spill.runs", self.runs.len() as u64);
        }
    }

    fn spill_run(&mut self) -> io::Result<()> {
        let path = run_path("counter");
        let mut w = BufWriter::new(File::create(&path)?);
        for (key, count) in std::mem::take(&mut self.resident) {
            writeln!(w, "{key}\t{count}")?;
        }
        w.flush()?;
        self.runs.push(path);
        Ok(())
    }

    /// Merge all runs and the resident remainder in ascending key order,
    /// invoking `visit(key, total)` once per distinct key. Consumes the
    /// counter and removes its spill files.
    pub fn finish(mut self, mut visit: impl FnMut(&str, u64)) -> io::Result<()> {
        let runs = std::mem::take(&mut self.runs);
        let resident = std::mem::take(&mut self.resident);
        let result = merge_runs(&runs, resident, &mut visit);
        for path in &runs {
            let _ = std::fs::remove_file(path);
        }
        result
    }
}

impl Drop for ExternalCounter {
    fn drop(&mut self) {
        for path in &self.runs {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One sorted run being merged: the next unconsumed `(key, count)`.
struct RunHead {
    key: String,
    count: u64,
    reader: Option<BufReader<File>>,
    resident: std::collections::btree_map::IntoIter<String, u64>,
}

impl RunHead {
    fn advance(&mut self) -> io::Result<bool> {
        if let Some(reader) = &mut self.reader {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                return Ok(false);
            }
            let line = line.trim_end_matches('\n');
            let (key, count) = line
                .rsplit_once('\t')
                .ok_or_else(|| io::Error::other(format!("malformed spill line {line:?}")))?;
            self.key = key.to_owned();
            self.count = count
                .parse()
                .map_err(|e| io::Error::other(format!("bad spill count {count:?}: {e}")))?;
            Ok(true)
        } else if let Some((key, count)) = self.resident.next() {
            self.key = key;
            self.count = count;
            Ok(true)
        } else {
            Ok(false)
        }
    }
}

fn merge_runs(
    runs: &[PathBuf],
    resident: BTreeMap<String, u64>,
    visit: &mut impl FnMut(&str, u64),
) -> io::Result<()> {
    // Failpoint: lose the first spill run — the silent undercount the
    // `scale.*` simcheck legs exist to catch.
    let runs = if crate::windowed::mutation("drop_spill_run") {
        runs.get(1..).unwrap_or_default()
    } else {
        runs
    };
    let mut heads: Vec<RunHead> = Vec::with_capacity(runs.len() + 1);
    for path in runs {
        heads.push(RunHead {
            key: String::new(),
            count: 0,
            reader: Some(BufReader::new(File::open(path)?)),
            resident: BTreeMap::new().into_iter(),
        });
    }
    heads.push(RunHead {
        key: String::new(),
        count: 0,
        reader: None,
        resident: resident.into_iter(),
    });
    let mut live: Vec<RunHead> = Vec::with_capacity(heads.len());
    for mut h in heads {
        if h.advance()? {
            live.push(h);
        }
    }
    // K is the number of runs (small); a linear scan per step keeps the
    // merge simple and the output identical to any merge strategy —
    // counts for equal keys sum associatively.
    let mut current_key: Option<String> = None;
    let mut current_total = 0u64;
    while !live.is_empty() {
        let min_idx = live
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.key.cmp(&b.key))
            .map(|(i, _)| i)
            .expect("non-empty");
        let (key_matches, count) = {
            let h = &live[min_idx];
            (current_key.as_deref() == Some(h.key.as_str()), h.count)
        };
        if key_matches {
            current_total += count;
        } else {
            if let Some(k) = current_key.take() {
                visit(&k, current_total);
            }
            current_key = Some(live[min_idx].key.clone());
            current_total = count;
        }
        if !live[min_idx].advance()? {
            live.swap_remove(min_idx);
        }
    }
    if let Some(k) = current_key {
        visit(&k, current_total);
    }
    Ok(())
}

/// Top-`k` selection under [`crate::domains::share_table`]'s ordering
/// (count descending, then key ascending) with O(k) resident rows.
struct TopK {
    k: usize,
    rows: Vec<(String, u64)>,
}

impl TopK {
    fn new(k: usize) -> Self {
        Self { k, rows: Vec::with_capacity(k + 1) }
    }

    /// `true` if `a` outranks `b` in the table ordering.
    fn better(a: &(String, u64), b: &(String, u64)) -> bool {
        a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)) == std::cmp::Ordering::Greater
    }

    fn push(&mut self, key: &str, count: u64) {
        if self.k == 0 {
            return;
        }
        let row = (key.to_owned(), count);
        let pos = self.rows.partition_point(|r| Self::better(r, &row));
        if pos < self.k {
            self.rows.insert(pos, row);
            self.rows.truncate(self.k);
        }
    }

    fn into_rows(self, total: u64) -> Vec<ShareRow> {
        self.rows
            .into_iter()
            .map(|(key, count)| ShareRow {
                key,
                count: count as usize,
                percent: 100.0 * count as f64 / (total as usize).max(1) as f64,
            })
            .collect()
    }
}

/// [`crate::domains::share_table`] with spill runs: identical rows for
/// any `budget`. Every `*_spilled` table adds the runs it wrote to the
/// `analysis.spill.runs` counter in `metrics`.
pub fn share_table_spilled(
    keys: impl Iterator<Item = String>,
    top: usize,
    budget: usize,
    metrics: Option<&obs::Registry>,
) -> io::Result<Vec<ShareRow>> {
    let mut counter = ExternalCounter::new(budget);
    for k in keys {
        counter.add(&k)?;
    }
    counter.count_runs(metrics);
    let total = counter.total();
    let mut topk = TopK::new(top);
    counter.finish(|key, count| topk.push(key, count))?;
    Ok(topk.into_rows(total))
}

/// [`crate::domains::tld_table`] with spill runs.
pub fn tld_table_spilled<'a>(
    urls: impl Iterator<Item = &'a str>,
    top: usize,
    budget: usize,
    metrics: Option<&obs::Registry>,
) -> io::Result<Vec<ShareRow>> {
    share_table_spilled(
        urls.filter_map(|u| {
            let p = ParsedUrl::parse(u)?;
            Some(if p.host.is_empty() || !matches!(p.scheme.as_str(), "http" | "https") {
                format!("{}:", p.scheme)
            } else {
                format!(".{}", p.tld())
            })
        }),
        top,
        budget,
        metrics,
    )
}

/// [`crate::domains::domain_table`] with spill runs.
pub fn domain_table_spilled<'a>(
    urls: impl Iterator<Item = &'a str>,
    top: usize,
    budget: usize,
    metrics: Option<&obs::Registry>,
) -> io::Result<Vec<ShareRow>> {
    share_table_spilled(
        urls.filter_map(|u| {
            let p = ParsedUrl::parse(u)?;
            (!p.host.is_empty()).then(|| p.domain())
        }),
        top,
        budget,
        metrics,
    )
}

/// Composite `(domain, value)` key ordering lexicographically as
/// `(domain asc, value asc)`: fixed-width zero-padded decimal suffix.
fn pair_key(domain: &str, value: usize) -> String {
    format!("{domain}\u{1}{value:020}")
}

fn split_pair_key(key: &str) -> (&str, usize) {
    let (domain, value) = key.rsplit_once('\u{1}').expect("composite spill key");
    (domain, value.parse().expect("zero-padded value"))
}

/// [`crate::domains::domain_comment_medians`] with spill runs: per-URL
/// comment counts stream out as `(domain, count)` pairs; the merged
/// ascending-`(domain, value)` sequence yields each domain's order
/// statistics without ever materializing its value vector. Rows are
/// identical to the in-memory implementation (same median arithmetic on
/// the same order statistics, same `median desc, domain asc` ordering).
pub fn domain_comment_medians_spilled<'a>(
    url_comments: impl Iterator<Item = (&'a str, usize)>,
    min_urls: usize,
    budget: usize,
    metrics: Option<&obs::Registry>,
) -> io::Result<Vec<(String, usize, f64)>> {
    let mut counter = ExternalCounter::new(budget);
    for (url, n) in url_comments {
        if let Some(p) = ParsedUrl::parse(url) {
            if !p.host.is_empty() {
                counter.add(&pair_key(&p.domain(), n))?;
            }
        }
    }
    counter.count_runs(metrics);

    // Per-domain accumulation over the ascending (domain, value) stream:
    // value multiplicities arrive in ascending value order, so the
    // median's order statistics read straight off the running group.
    let mut rows: Vec<(String, usize, f64)> = Vec::new();
    let mut group: Vec<(usize, u64)> = Vec::new(); // (value, multiplicity), ascending
    let mut group_domain = String::new();
    let flush = |domain: &str, group: &mut Vec<(usize, u64)>, rows: &mut Vec<_>| {
        let n: u64 = group.iter().map(|&(_, m)| m).sum();
        let n = n as usize;
        if n >= min_urls && n > 0 {
            let order_stat = |i: usize| {
                let mut cum = 0usize;
                for &(v, m) in group.iter() {
                    cum += m as usize;
                    if cum > i {
                        return v;
                    }
                }
                unreachable!("multiplicities sum to n")
            };
            let median = if n % 2 == 1 {
                order_stat(n / 2) as f64
            } else {
                (order_stat(n / 2 - 1) + order_stat(n / 2)) as f64 / 2.0
            };
            rows.push((domain.to_owned(), n, median));
        }
        group.clear();
    };
    counter.finish(|key, mult| {
        let (domain, value) = split_pair_key(key);
        if domain != group_domain {
            if !group_domain.is_empty() || !group.is_empty() {
                flush(&group_domain, &mut group, &mut rows);
            }
            group_domain = domain.to_owned();
        }
        group.push((value, mult));
    })?;
    if !group.is_empty() {
        flush(&group_domain, &mut group, &mut rows);
    }

    rows.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite medians").then(a.0.cmp(&b.0)));
    Ok(rows)
}

/// [`crate::content::language_table`] with spill runs, from each
/// comment's detected language (the report detects them on its scoring
/// shards): the languages stream into the external counter keyed by ISO
/// code, and rows come back in the same `count desc, code asc` order.
/// Arrival order does not matter: resident maps are ordered, so every
/// spill run is sorted, and totals merge associatively.
pub fn language_table_spilled(
    languages: impl IntoIterator<Item = textkit::langid::Lang>,
    budget: usize,
    metrics: Option<&obs::Registry>,
) -> io::Result<Vec<(textkit::langid::Lang, usize, f64)>> {
    use textkit::langid::Lang;
    let mut counter = ExternalCounter::new(budget);
    for lang in languages {
        counter.add(lang.code())?;
    }
    counter.count_runs(metrics);
    let total = counter.total() as usize;
    let mut rows: Vec<(Lang, usize, f64)> = Vec::new();
    counter.finish(|code, count| {
        let lang = Lang::ALL
            .into_iter()
            .find(|l| l.code() == code)
            .unwrap_or(Lang::Unknown);
        rows.push((lang, count as usize, 100.0 * count as f64 / total.max(1) as f64));
    })?;
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.code().cmp(b.0.code())));
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::{domain_comment_medians, domain_table, share_table, tld_table};

    fn urls() -> Vec<String> {
        let mut v = Vec::new();
        for i in 0..200 {
            v.push(format!("https://site{}.com/page/{i}", i % 17));
            v.push(format!("https://news{}.co.uk/{i}", i % 5));
        }
        v.push("file:///C:/x".to_owned());
        v.push("chrome://settings".to_owned());
        v
    }

    #[test]
    fn share_table_identical_at_any_budget() {
        let keys: Vec<String> = urls();
        let want = share_table(keys.iter().cloned(), 12);
        for budget in [1, 2, 7, 64, 100_000] {
            let have = share_table_spilled(keys.iter().cloned(), 12, budget, None).unwrap();
            assert_eq!(have, want, "budget {budget}");
        }
    }

    #[test]
    fn tld_and_domain_tables_match_in_memory() {
        let u = urls();
        let want_tld = tld_table(u.iter().map(String::as_str), 12);
        let want_dom = domain_table(u.iter().map(String::as_str), 12);
        for budget in [3, 1000] {
            assert_eq!(
                tld_table_spilled(u.iter().map(String::as_str), 12, budget, None).unwrap(),
                want_tld
            );
            assert_eq!(
                domain_table_spilled(u.iter().map(String::as_str), 12, budget, None).unwrap(),
                want_dom
            );
        }
    }

    #[test]
    fn medians_match_in_memory_bitwise() {
        let data: Vec<(String, usize)> = (0..150)
            .map(|i| (format!("https://dom{}.com/{i}", i % 9), (i * 7) % 23))
            .collect();
        let want =
            domain_comment_medians(data.iter().map(|(u, n)| (u.as_str(), *n)), 2);
        for budget in [1, 5, 500] {
            let have = domain_comment_medians_spilled(
                data.iter().map(|(u, n)| (u.as_str(), *n)),
                2,
                budget,
                None,
            )
            .unwrap();
            assert_eq!(have.len(), want.len(), "budget {budget}");
            for (a, b) in have.iter().zip(&want) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1, b.1);
                assert_eq!(a.2.to_bits(), b.2.to_bits(), "median bits for {}", a.0);
            }
        }
    }

    #[test]
    fn counter_spills_and_totals() {
        let mut c = ExternalCounter::new(4);
        for i in 0..100 {
            c.add(&format!("k{}", i % 10)).unwrap();
        }
        assert!(c.runs() > 0, "budget 4 with 10 keys must spill");
        assert_eq!(c.total(), 100);
        let mut seen = Vec::new();
        c.finish(|k, n| seen.push((k.to_owned(), n))).unwrap();
        assert_eq!(seen.len(), 10);
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0), "ascending keys");
        assert!(seen.iter().all(|(_, n)| *n == 10));
    }

    #[test]
    fn tables_count_their_runs_into_the_registry() {
        let keys = urls();
        for (budget, spills) in [(2, true), (100_000, false)] {
            let metrics = obs::Registry::new();
            share_table_spilled(keys.iter().cloned(), 12, budget, Some(&metrics)).unwrap();
            let runs = metrics.counter("analysis.spill.runs").get();
            assert_eq!(runs > 0, spills, "budget {budget}: {runs} runs");
        }
    }

    #[test]
    fn empty_inputs_are_safe() {
        assert!(share_table_spilled(std::iter::empty(), 12, 8, None).unwrap().is_empty());
        assert!(domain_comment_medians_spilled(std::iter::empty(), 1, 8, None)
            .unwrap()
            .is_empty());
    }
}
