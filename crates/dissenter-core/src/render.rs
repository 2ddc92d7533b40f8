//! Plain-text rendering of every table and figure — what the `repro`
//! harness prints. Each function renders one paper artifact from a
//! [`Study`].

use crate::Study;
use analysis::toxicity::Figure7Dataset;
use stats::EcdfSketch;
use std::fmt::Write;

const CDF_THRESHOLDS: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

fn cdf_row(name: &str, e: &EcdfSketch) -> String {
    let mut s = format!("{name:<22} n={:<8}", e.n());
    for t in CDF_THRESHOLDS {
        let _ = write!(s, " P(≥{t:.1})={:.3}", e.survival(t - 1e-12));
    }
    s
}

/// §4.1.1 / headline numbers.
pub fn overview(study: &Study) -> String {
    let o = &study.report.overview;
    let mut s = String::new();
    let _ = writeln!(s, "== Overview (scale factor {:.4}) ==", study.scale_factor);
    let _ = writeln!(s, "Gab accounts enumerated:      {}", o.gab_accounts);
    let _ = writeln!(
        s,
        "Dissenter users:              {} ({} ghosts with deleted Gab accounts)",
        o.dissenter_users, o.ghost_users
    );
    let _ = writeln!(
        s,
        "Active users (≥1 comment):    {} ({:.1}% of Dissenter users)",
        o.active_users,
        100.0 * o.active_users as f64 / o.dissenter_users.max(1) as f64
    );
    let _ = writeln!(s, "Comments + replies:           {}", o.comments);
    let _ = writeln!(s, "Distinct commented URLs:      {}", o.urls);
    let _ = writeln!(
        s,
        "Joined by March 2019:         {:.1}%  (paper: 77%)",
        100.0 * o.joined_by_march_2019
    );
    let _ = writeln!(
        s,
        "NSFW / offensive comments:    {} / {}  ({:.2}% / {:.2}%)",
        o.nsfw_comments,
        o.offensive_comments,
        100.0 * o.nsfw_comments as f64 / o.comments.max(1) as f64,
        100.0 * o.offensive_comments as f64 / o.comments.max(1) as f64
    );
    let _ = writeln!(
        s,
        "Shadow validation:            {}/{} confirmed",
        o.shadow_validation.1, o.shadow_validation.0
    );
    s
}

/// Figure 2.
pub fn fig2(study: &Study) -> String {
    let g = &study.report.gab_growth;
    let mut s = String::new();
    let _ = writeln!(s, "== Figure 2: Gab user IDs vs creation date ==");
    let _ = writeln!(s, "accounts: {}", g.series.len());
    let _ = writeln!(
        s,
        "monotone fraction: {:.4}  (IDs generally sequential; anomaly windows break strictness)",
        g.monotone_fraction
    );
    // Decile summary of the curve.
    if !g.series.is_empty() {
        for dec in 0..=10 {
            let idx = ((g.series.len() - 1) * dec) / 10;
            let (id, t) = g.series[idx];
            let _ = writeln!(s, "  id {:>10} created {}", id, ids::clock::format_date(t));
        }
    }
    s
}

/// Figure 3.
pub fn fig3(study: &Study) -> String {
    let a = &study.report.activity;
    let mut s = String::new();
    let _ = writeln!(s, "== Figure 3: comments per active user (CDF) ==");
    let _ = writeln!(s, "active users: {} of {}", a.active_users, a.total_users);
    let _ = writeln!(
        s,
        "90% of comments come from {:.1}% of active users  (paper: ~14%)",
        100.0 * a.user_fraction_for_90pct
    );
    for &(uf, cf) in a.curve.iter().step_by(10) {
        let _ = writeln!(s, "  top {:>5.1}% of users → {:>5.1}% of comments", 100.0 * uf, 100.0 * cf);
    }
    s
}

/// Table 1.
pub fn table1(study: &Study) -> String {
    let (n, rows) = &study.report.table1;
    let mut s = String::new();
    let _ = writeln!(s, "== Table 1: user flags & view filters (n={n}) ==");
    for r in rows {
        let _ = writeln!(s, "  {:<20} {:>8}  ({:.2}%)", r.name, r.count, r.percent);
    }
    s
}

/// Table 2.
pub fn table2(study: &Study) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== Table 2: most frequently commented TLDs and domains ==");
    let _ = writeln!(s, "-- top-level domains --");
    for r in &study.report.tlds {
        let _ = writeln!(s, "  {:<18} {:>8}  ({:.2}%)", r.key, r.count, r.percent);
    }
    let _ = writeln!(s, "-- domains --");
    for r in &study.report.domains {
        let _ = writeln!(s, "  {:<18} {:>8}  ({:.2}%)", r.key, r.count, r.percent);
    }
    let _ = writeln!(s, "-- highest median comment volume per URL --");
    for (d, urls, median) in study.report.domain_medians.iter().take(6) {
        let _ = writeln!(s, "  {:<22} urls={:<6} median comments/url = {median:.1}", d, urls);
    }
    s
}

/// §4.2.1 URL anomalies.
pub fn urls(study: &Study) -> String {
    let c = &study.report.url_census;
    let mut s = String::new();
    let _ = writeln!(s, "== §4.2.1: URL anomaly census ==");
    let _ = writeln!(s, "total URLs: {}", c.total);
    for (scheme, n) in &c.by_scheme {
        let _ = writeln!(s, "  scheme {:<8} {:>8}  ({:.2}%)", scheme, n, 100.0 * *n as f64 / c.total.max(1) as f64);
    }
    let _ = writeln!(s, "protocol-duplicate pairs:   {}  (paper: ~400)", c.protocol_dup_pairs);
    let _ = writeln!(s, "trailing-slash pairs:       {}  (paper: ~60)", c.trailing_slash_pairs);
    let _ = writeln!(s, "multi-GET-parameter URLs:   {}", c.multi_param_urls);
    let _ = writeln!(s, "file:// URLs:               {}  (paper: 13)", c.file_urls);
    let _ = writeln!(s, "browser-internal URLs:      {}", c.browser_urls);
    s
}

/// §4.2.2 YouTube.
pub fn youtube(study: &Study) -> String {
    let y = &study.report.youtube;
    let mut s = String::new();
    let _ = writeln!(s, "== §4.2.2: YouTube content ==");
    let _ = writeln!(s, "YouTube URLs crawled: {}", y.total);
    for (k, n) in &y.by_kind {
        let _ = writeln!(s, "  kind {:<8} {:>8}", k, n);
    }
    let _ = writeln!(s, "active: {}   unavailable: {}", y.active, y.unavailable);
    for (r, n) in &y.reasons {
        let _ = writeln!(s, "  gone: {:<70} {:>6}", r, n);
    }
    let _ = writeln!(
        s,
        "comments disabled on YouTube: {} ({:.1}% of active; paper: >10%)",
        y.comments_disabled,
        100.0 * y.comments_disabled as f64 / y.active.max(1) as f64
    );
    for (o, n, pct) in y.top_owners.iter().take(6) {
        let _ = writeln!(s, "  owner {:<14} {:>6} videos ({pct:.1}% of active)", o, n);
    }
    s
}

/// §4.2.3 languages.
pub fn languages(study: &Study) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== §4.2.3: comment languages ==");
    for (lang, n, pct) in &study.report.languages {
        let _ = writeln!(s, "  {:<4} {:>9}  ({pct:.2}%)", lang.code(), n);
    }
    s
}

/// Figure 4.
pub fn fig4(study: &Study) -> String {
    let f = &study.report.figure4;
    let mut s = String::new();
    let _ = writeln!(s, "== Figure 4: NSFW / offensive / all comments (Perspective CDFs) ==");
    let _ = writeln!(s, "{}", cdf_row("LTR (all)", &f.all.likely_to_reject));
    let _ = writeln!(s, "{}", cdf_row("LTR (nsfw)", &f.nsfw.likely_to_reject));
    let _ = writeln!(s, "{}", cdf_row("LTR (offensive)", &f.offensive.likely_to_reject));
    let _ = writeln!(s, "{}", cdf_row("OBSCENE (all)", &f.all.obscene));
    let _ = writeln!(s, "{}", cdf_row("OBSCENE (nsfw)", &f.nsfw.obscene));
    let _ = writeln!(s, "{}", cdf_row("OBSCENE (offensive)", &f.offensive.obscene));
    let _ = writeln!(s, "{}", cdf_row("SEVERE (all)", &f.all.severe_toxicity));
    let _ = writeln!(s, "{}", cdf_row("SEVERE (nsfw)", &f.nsfw.severe_toxicity));
    let _ = writeln!(s, "{}", cdf_row("SEVERE (offensive)", &f.offensive.severe_toxicity));
    let _ = writeln!(
        s,
        "offensive comments with LTR > 0.95: {:.1}%  (paper: ~80%)",
        100.0 * f.offensive.likely_to_reject.survival(0.95)
    );
    let _ = writeln!(
        s,
        "nsfw comments with LTR > 0.95:      {:.1}%  (paper: ~25%)",
        100.0 * f.nsfw.likely_to_reject.survival(0.95)
    );
    let _ = writeln!(
        s,
        "all comments with LTR > 0.95:       {:.1}%  (paper: <20%)",
        100.0 * f.all.likely_to_reject.survival(0.95)
    );
    s
}

/// Figure 5.
pub fn fig5(study: &Study) -> String {
    let f = &study.report.figure5;
    let mut s = String::new();
    let _ = writeln!(s, "== Figure 5: SEVERE_TOXICITY vs net vote score ==");
    let _ = writeln!(
        s,
        "URLs: {} positive / {} zero / {} negative net votes; |net|<10 for {:.1}%",
        f.positive,
        f.zero,
        f.negative,
        100.0 * f.within_ten
    );
    let _ = writeln!(s, "mean severe toxicity | zero-vote URLs:      {:.3}", f.mean_severe_zero);
    let _ = writeln!(s, "mean severe toxicity | |net| ≥ 3:           {:.3}", f.mean_severe_voted);
    let _ = writeln!(s, "mean severe toxicity | negative-net URLs:   {:.3}", f.mean_severe_negative);
    let _ = writeln!(s, "mean severe toxicity | positive-net URLs:   {:.3}", f.mean_severe_positive);
    s
}

/// Figure 6 and Table 3.
pub fn fig6_table3(study: &Study) -> String {
    let r = &study.report.comment_ratio;
    let mut s = String::new();
    let _ = writeln!(s, "== Table 3: baseline datasets ==");
    for row in &study.report.table3 {
        let _ = writeln!(
            s,
            "  {:<12} declared={:<10} scored={:<9} dissenter-users={}",
            row.name,
            row.declared_comments,
            row.scored_comments,
            row.dissenter_users.map(|n| n.to_string()).unwrap_or_else(|| "n/a".into())
        );
    }
    let _ = writeln!(s, "== Figure 6: Dissenter/Reddit comment ratio ==");
    let _ = writeln!(
        s,
        "matched usernames: {} ({:.1}% of Dissenter users)",
        r.matched_usernames,
        100.0 * r.matched_usernames as f64 / study.report.overview.dissenter_users.max(1) as f64
    );
    let _ = writeln!(s, "active on ≥1 platform: {}", r.active_either);
    let _ = writeln!(s, "Dissenter-only: {:.1}%  (paper: >33%)", 100.0 * r.dissenter_only);
    let _ = writeln!(s, "Reddit-only:    {:.1}%  (paper: ~20%)", 100.0 * r.reddit_only);
    if !r.ratios.is_empty() {
        let e = EcdfSketch::of(&r.ratios);
        let _ = writeln!(s, "{}", cdf_row("d/(d+r) ratio CDF", &e));
    }
    s
}

/// Figure 7 (a, b, c).
pub fn fig7(study: &Study) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== Figure 7: Perspective score CDFs across communities ==");
    let section = |s: &mut String, title: &str, pick: &dyn Fn(&Figure7Dataset) -> &EcdfSketch| {
        let _ = writeln!(s, "-- {title} --");
        for d in &study.report.figure7 {
            let _ = writeln!(s, "{}", cdf_row(&d.name, pick(d)));
        }
    };
    section(&mut s, "7a LIKELY_TO_REJECT", &|d| &d.likely_to_reject);
    section(&mut s, "7b SEVERE_TOXICITY", &|d| &d.severe_toxicity);
    section(&mut s, "7c ATTACK_ON_AUTHOR", &|d| &d.attack_on_author);
    s
}

/// Figure 8 (a, b).
pub fn fig8(study: &Study) -> String {
    let f = &study.report.figure8;
    let mut s = String::new();
    let _ = writeln!(s, "== Figure 8: Perspective scores by Allsides bias ==");
    let _ = writeln!(
        s,
        "comments on ranked URLs: {}   unranked: {}",
        f.ranked_comments, f.unranked_comments
    );
    let _ = writeln!(s, "-- 8a SEVERE_TOXICITY by bias --");
    for (b, d) in &f.severe_by_bias {
        let _ = writeln!(
            s,
            "  {:<13} n={:<9} mean={:.3} median={:.3}",
            b.label(),
            d.n(),
            d.mean(),
            d.median()
        );
    }
    let _ = writeln!(s, "-- 8b ATTACK_ON_AUTHOR by bias --");
    for (b, e) in &f.attack_by_bias {
        let _ = writeln!(s, "{}", cdf_row(b.label(), e));
    }
    let _ = writeln!(s, "-- pairwise KS on SEVERE_TOXICITY (ranked biases) --");
    for (a, b, ks) in &f.ks_severe {
        let _ = writeln!(
            s,
            "  {:<13} vs {:<13} D={:.4} p={:.2e} {}",
            a.label(),
            b.label(),
            ks.statistic,
            ks.p_value,
            if ks.significant_at(0.01) { "(significant)" } else { "" }
        );
    }
    s
}

/// Figure 9 and §4.5.1.
pub fn fig9_core(study: &Study) -> String {
    let so = &study.report.social;
    let mut s = String::new();
    let _ = writeln!(s, "== Figure 9 / §4.5: social network ==");
    let _ = writeln!(s, "users in network: {}   isolated: {}", so.users, so.isolated);
    if let Some(fit) = &so.in_fit {
        let _ = writeln!(s, "in-degree power law:  α={:.2} (tail n={})", fit.alpha, fit.n_tail);
    }
    if let Some(fit) = &so.out_fit {
        let _ = writeln!(s, "out-degree power law: α={:.2} (tail n={})", fit.alpha, fit.n_tail);
    }
    let _ = writeln!(s, "top follower counts:  {:?}", so.top_in_degrees);
    let _ = writeln!(s, "top following counts: {:?}", so.top_out_degrees);
    if let Some(rho) = so.degree_spearman {
        let _ = writeln!(
            s,
            "Spearman ρ(in-degree, out-degree) = {rho:.3}  (paper: 'following proportional to followers')"
        );
    }
    let _ = writeln!(
        s,
        "overlap(top-10 by followers, top-10 by comments): {}  (paper: 0)",
        so.popular_prolific_overlap
    );
    let _ = writeln!(s, "-- toxicity vs followers (log10 bins) --");
    for (bin, mean, median) in &so.toxicity_by_followers {
        let label = bin.map(|b| format!("10^{b}")).unwrap_or_else(|| "0".into());
        let _ = writeln!(s, "  followers {label:<6} mean={mean:.3} median={median:.3}");
    }
    let _ = writeln!(s, "-- hateful core --");
    let _ = writeln!(
        s,
        "core: {} users in {} components; giant component {}  (paper: 42 / 6 / 32)",
        so.core.size(),
        so.core.components.count(),
        so.core.components.giant()
    );
    s
}

/// §3.5.3 SVM.
pub fn svm(study: &Study) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== §3.5.3: SVM classifier ==");
    match &study.svm {
        None => {
            let _ = writeln!(s, "(skipped)");
        }
        Some(r) => {
            let _ = writeln!(s, "labeled corpus: {} samples (Davidson-shaped imbalance)", r.corpus_size);
            for (lambda, f1) in &r.grid {
                let _ = writeln!(s, "  λ={lambda:<9.0e} 5-fold weighted F1 = {f1:.3}");
            }
            let _ = writeln!(s, "best: λ={:.0e}, F1={:.3}  (paper: 0.87)", r.best_lambda, r.cv_f1);
            let _ = writeln!(
                s,
                "Dissenter mean class probabilities: hate={:.3} offensive={:.3} neither={:.3}",
                r.mean_class_probs[0], r.mean_class_probs[1], r.mean_class_probs[2]
            );
            let _ = writeln!(
                s,
                "Dissenter argmax shares:            hate={:.3} offensive={:.3} neither={:.3}",
                r.class_shares[0], r.class_shares[1], r.class_shares[2]
            );
        }
    }
    s
}

/// Run statistics: stage wall-clocks, crawl coverage, scorer throughput,
/// and per-service request latency.
pub fn runstats(study: &Study) -> String {
    let rs = &study.runstats;
    let mut s = String::new();
    let _ = writeln!(s, "== Run statistics ==");
    let _ = writeln!(s, "-- stage wall-clock --");
    for st in &rs.stages {
        let _ = writeln!(s, "  {:<10} {:>10.1} ms", st.name, st.wall_us as f64 / 1e3);
    }
    let _ = writeln!(s, "-- report stage by table and scoring pass --");
    for st in &rs.report_spans {
        let _ = writeln!(s, "  {:<16} {:>10.1} ms", st.name, st.wall_us as f64 / 1e3);
    }
    let _ = writeln!(s, "-- memory --");
    let _ = writeln!(s, "  peak RSS   {:>10.1} MiB", rs.peak_rss_bytes as f64 / (1u64 << 20) as f64);
    let _ = writeln!(s, "-- crawl coverage (attempted = succeeded + dead-lettered) --");
    for p in &rs.phases {
        let _ = writeln!(
            s,
            "  {:<10} attempted={:<8} succeeded={:<8} retried={:<6} dead-lettered={}",
            p.name, p.attempted, p.succeeded, p.retried, p.dead_lettered
        );
    }
    let _ = writeln!(s, "-- scorer throughput --");
    for sc in &rs.scorers {
        let _ = writeln!(
            s,
            "  {:<12} comments={:<9} {:>10.0} comments/sec",
            sc.name, sc.comments, sc.comments_per_sec
        );
    }
    let _ = writeln!(s, "-- sharded stages (jobs/items worker-invariant) --");
    for sh in &rs.shards {
        let _ = writeln!(
            s,
            "  {:<15} shards={:<6} items={:<9} busy={:>9.1} ms",
            sh.name,
            sh.jobs,
            sh.items,
            sh.busy_us as f64 / 1e3
        );
    }
    let _ = writeln!(s, "-- request latency by service --");
    for (name, h) in &rs.snapshot.histograms {
        let Some(service) = name.strip_prefix("http.").and_then(|n| n.strip_suffix(".latency"))
        else {
            continue;
        };
        let _ = writeln!(
            s,
            "  {:<10} n={:<8} mean={:>7.1}µs p50={:>7.1}µs p95={:>7.1}µs p99={:>7.1}µs max={:>8.1}µs",
            service,
            h.count,
            h.mean_ns() as f64 / 1e3,
            h.p50_ns as f64 / 1e3,
            h.p95_ns as f64 / 1e3,
            h.p99_ns as f64 / 1e3,
            h.max_ns as f64 / 1e3
        );
    }
    s
}

/// The seed-deterministic subset of [`runstats`]: crawl coverage,
/// scorer comment counts, and shard job/item accounting — everything
/// counter-derived, nothing wall-clock. Byte-identical across same-seed
/// runs at any worker count (shard geometry is worker-invariant), so it
/// can be pinned by the golden-file test alongside the report.
pub fn runstats_deterministic(study: &Study) -> String {
    let rs = &study.runstats;
    let mut s = String::new();
    let _ = writeln!(s, "== Run statistics (deterministic subset) ==");
    let _ = writeln!(s, "-- crawl coverage (attempted = succeeded + dead-lettered) --");
    for p in &rs.phases {
        let _ = writeln!(
            s,
            "  {:<10} attempted={:<8} succeeded={:<8} retried={:<6} dead-lettered={}",
            p.name, p.attempted, p.succeeded, p.retried, p.dead_lettered
        );
    }
    let _ = writeln!(s, "-- scorer volume --");
    for sc in &rs.scorers {
        let _ = writeln!(s, "  {:<12} comments={}", sc.name, sc.comments);
    }
    let _ = writeln!(s, "-- sharded stages --");
    for sh in &rs.shards {
        let _ = writeln!(s, "  {:<15} shards={:<6} items={}", sh.name, sh.jobs, sh.items);
    }
    s
}

/// §6 extension: covert-channel candidates.
pub fn covert(study: &Study) -> String {
    let candidates = analysis::covert::detect_covert_channels(
        &study.store,
        analysis::covert::CovertConfig::default(),
    );
    let mut s = String::new();
    let _ = writeln!(s, "== §6 extension: covert-channel candidates ==");
    let _ = writeln!(s, "flagged threads: {}", candidates.len());
    for c in candidates.iter().take(15) {
        let _ = writeln!(
            s,
            "  {:<50} comments={:<5} authors={:<3} replies={:.0}% signals={:?}",
            c.url,
            c.comments,
            c.authors,
            100.0 * c.reply_fraction,
            c.signals
        );
    }
    s
}

/// The longitudinal section: per-window growth and toxicity, crossover
/// timing, the scorer-revision timeline, and the drift verdict.
/// Deterministic — diagnostics (per-sweep 304s, wall-clocks) are
/// deliberately excluded so composed and one-shot artifacts compare
/// byte-for-byte under the sweep≡one-shot oracle.
pub fn longitudinal(ls: &crate::longitudinal::LongitudinalStudy) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== Longitudinal: windowed study ==");
    let _ = writeln!(s, "windows: {}   epochs past base: {}", ls.windows.len(), ls.windows.len().saturating_sub(1));
    let _ = writeln!(s, "-- growth curve --");
    for g in &ls.growth {
        let _ = writeln!(
            s,
            "  w{:<3} {}  users={:<7} (+{:<5}) comments={:<8} (+{:<5}) urls={:<6} (+{})",
            g.window,
            g.until,
            g.total_users,
            g.new_users,
            g.total_comments,
            g.new_comments,
            g.total_urls,
            g.new_urls
        );
    }
    let _ = writeln!(s, "-- per-window toxicity --");
    for w in &ls.windows {
        let _ = writeln!(
            s,
            "  w{:<3} scorer=v{} comments={:<8} severe={:.4} reject={:.4} attack={:.4}",
            w.window, w.scorer_version, w.comments, w.mean_severe, w.mean_reject, w.mean_attack
        );
    }
    match ls.crossover {
        Some(w) => {
            let _ = writeln!(s, "severe-toxicity crossover: window {w}");
        }
        None => {
            let _ = writeln!(s, "severe-toxicity crossover: none");
        }
    }
    let _ = writeln!(s, "-- scorer drift --");
    if ls.drift.boundaries.is_empty() {
        let _ = writeln!(s, "  no version boundaries in study span");
    }
    for b in &ls.drift.boundaries {
        let _ = writeln!(
            s,
            "  w{:<3} v{} -> v{}  sample={} d_severe={:+.6} d_reject={:+.6} max|d|={:.6}  {}",
            b.window,
            b.from_version,
            b.to_version,
            b.calibration_n,
            b.mean_severe_delta,
            b.mean_reject_delta,
            b.max_abs_comment_delta,
            if b.flagged { "FLAGGED: conclusion-changing drift" } else { "within tolerance" }
        );
    }
    s
}

/// Every paper artifact, in paper order — the deterministic half of
/// [`full`]: byte-identical across same-seed runs at **any** worker
/// count (the determinism contract the worker-matrix and golden tests
/// enforce). Excludes only [`runstats`], which reports wall-clock.
pub fn deterministic(study: &Study) -> String {
    [
        overview(study),
        fig2(study),
        fig3(study),
        table1(study),
        table2(study),
        urls(study),
        youtube(study),
        languages(study),
        fig4(study),
        fig5(study),
        fig6_table3(study),
        fig7(study),
        fig8(study),
        fig9_core(study),
        svm(study),
        covert(study),
    ]
    .join("\n")
}

/// Everything, in paper order.
pub fn full(study: &Study) -> String {
    [deterministic(study), runstats(study)].join("\n")
}
