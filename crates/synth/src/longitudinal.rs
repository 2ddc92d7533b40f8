//! Per-epoch world evolution for the longitudinal study engine.
//!
//! The base generator ([`crate::WorldSource`]) produces the
//! paper's 14-month snapshot — every timestamp strictly before
//! `STUDY_END` (window 0). [`apply_epoch`] extends that world by one
//! epoch: new users joining along a compounding adoption curve, new
//! comments and votes on existing threads, a few fresh follow edges,
//! mid-study bans, and Gab account deletions that leave Dissenter
//! ghosts.
//!
//! Three contracts make the sweep≡one-shot differential oracle hold:
//!
//! 1. **Append-only time.** Every entity minted in epoch `e` is
//!    timestamped inside `[epoch_start(e), epoch_end(e))`; nothing is
//!    backdated. Bans flip metadata flags and deletions only hide the
//!    Gab account, so the comments of window `w` in sweep `w`'s world
//!    are byte-identical to the comments of window `w` in the final
//!    world.
//! 2. **Per-epoch seed streams.** Epoch `e`'s randomness derives only
//!    from `(cfg.seed, e)` — `child_seed(cfg.seed, 1000 + e)` — so any
//!    epoch's delta is reproducible in isolation and independent of how
//!    many epochs follow it.
//! 3. **Worker transparency.** Only text synthesis fans out, on the
//!    same per-comment seed streams the base generator uses, so the
//!    evolved world is byte-identical at any worker count.

use crate::baselines::{sample_spec, Community};
use crate::config::WorldConfig;
use crate::dist::{beta, child_seed, coin, geometric, Categorical};
use crate::names;
use crate::textgen::{CommentSpec, TextGen};
use crate::world::{bias_attack_mult, bias_severity_mult, domain_bias, Bias, GroundTruth};
use crate::WorldSource;
use analysis::url::ParsedUrl;
pub use analysis::windowed::{epoch_end, epoch_start, window_of, EPOCH_SECS};
use ids::{EntityKind, ObjectIdGen, Timestamp};
use platform::{Comment, User, UserFlags, ViewFilters, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use textkit::langid::Lang;

/// Fraction of the current population each epoch adds (users and
/// comments alike) — a compounding ~20%/epoch ramp, the steep early
/// part of the paper's Figure-2 adoption curve extrapolated forward.
pub const EPOCH_GROWTH: f64 = 0.2;

/// The world as of the end of epoch `epoch` (0 = the base snapshot).
/// Built by generating the base world and replaying every epoch delta
/// in order; any epoch is reproducible in isolation because epoch `k`'s
/// randomness depends only on `(cfg.seed, k)`.
pub fn world_at_epoch(cfg: &WorldConfig, epoch: u32, workers: usize) -> (World, GroundTruth) {
    let (mut world, mut truth) = WorldSource::new(cfg, workers).collect_world();
    for k in 1..=epoch {
        apply_epoch(&mut world, &mut truth, cfg, k, workers);
    }
    (world, truth)
}

/// Advance `world` by one epoch (`epoch ≥ 1`), in place. Must be called
/// with epochs in ascending order starting from the base snapshot.
pub fn apply_epoch(
    world: &mut World,
    truth: &mut GroundTruth,
    cfg: &WorldConfig,
    epoch: u32,
    workers: usize,
) {
    assert!(epoch >= 1, "epoch 0 is the base snapshot");
    let eseed = child_seed(cfg.seed, 1_000 + epoch as u64);
    let start = epoch_start(epoch);
    let end = epoch_end(epoch);
    let gen = TextGen::standard();

    // ---- 1. New users ----------------------------------------------------
    // All newcomers are Dissenter users (the growth of interest); Gab IDs
    // continue the counter above the enumeration bound, with the same
    // occasional-gap anomaly the base allocator plants.
    let mut rng_u = StdRng::seed_from_u64(child_seed(eseed, 1));
    let mut author_gen = ObjectIdGen::new(EntityKind::Author, child_seed(eseed, 2));
    let lang_table = Categorical::new(&[
        (Lang::En, 0.942),
        (Lang::De, 0.030),
        (Lang::Fr, 0.0040),
        (Lang::Es, 0.0040),
        (Lang::It, 0.0040),
        (Lang::En, 0.016),
    ]);
    let n_new = ((world.dissenter_user_count() as f64 * EPOCH_GROWTH).round() as usize).max(2);
    let serial_base = world.user_count() as u64;
    let mut next_gab = world.gab.max_id();
    for i in 0..n_new {
        next_gab += 1 + if coin(&mut rng_u, 0.02) { rng_u.gen_range(1..4) } else { 0 };
        let join: Timestamp = rng_u.gen_range(start..end);
        let author_id = author_gen.next(join);
        let flags = UserFlags {
            can_login: coin(&mut rng_u, 0.9997),
            can_post: coin(&mut rng_u, 0.9997),
            can_report: coin(&mut rng_u, 0.9999),
            can_chat: coin(&mut rng_u, 0.9997),
            can_vote: coin(&mut rng_u, 0.9997),
            is_banned: false,
            is_admin: false,
            is_moderator: false,
            is_pro: coin(&mut rng_u, 0.0267),
            is_donor: coin(&mut rng_u, 0.0084),
            is_investor: coin(&mut rng_u, 0.0029),
            is_premium: coin(&mut rng_u, 0.0013),
            is_tippable: coin(&mut rng_u, 0.0015),
            is_private: coin(&mut rng_u, 0.039),
            verified: coin(&mut rng_u, 0.0103),
        };
        let filters = ViewFilters {
            pro: coin(&mut rng_u, 0.9985),
            verified: coin(&mut rng_u, 0.9987),
            standard: coin(&mut rng_u, 0.9989),
            nsfw: coin(&mut rng_u, 0.1504),
            offensive: coin(&mut rng_u, 0.0733),
        };
        let lang = *lang_table.sample(&mut rng_u);
        let bio = if coin(&mut rng_u, 0.25) {
            "tired of censorship and cancel culture".to_owned()
        } else if coin(&mut rng_u, 0.3) {
            "speaking freely about the news".to_owned()
        } else {
            String::new()
        };
        let username = names::username(&mut rng_u, serial_base + i as u64);
        let display_name = names::display_name(&username);
        let idx = world.add_user(User {
            author_id: Some(author_id),
            gab_id: next_gab,
            username,
            display_name,
            bio,
            created_at: join,
            flags,
            filters,
            language: lang.code().to_owned(),
            gab_deleted: false,
        });
        truth.dissenter_indices.push(idx);
        truth.active_indices.push(idx);
        truth.user_heat.push(beta(&mut rng_u, 1.3, 8.0));
    }

    // ---- 2. New follow edges --------------------------------------------
    let mut rng_s = StdRng::seed_from_u64(child_seed(eseed, 4));
    let n_active = truth.active_indices.len();
    let n_edges = (n_active / 8).max(4);
    for _ in 0..n_edges {
        let a = truth.active_indices[rng_s.gen_range(0..n_active)];
        let b = truth.active_indices[rng_s.gen_range(0..n_active)];
        world.gab.follow(a, b);
    }

    // ---- 3. New comments on existing threads -----------------------------
    let mut rng_c = StdRng::seed_from_u64(child_seed(eseed, 7));
    let n_c = ((world.dissenter.total_comments() as f64 * EPOCH_GROWTH).round() as usize).max(8);
    let n_urls = world.dissenter.url_count();
    struct Pending {
        author_idx: u32,
        url_pos: usize,
        spec: CommentSpec,
        created: Timestamp,
        text: String,
    }
    let mut pending: Vec<Pending> = Vec::with_capacity(n_c);
    let mut url_severity: std::collections::HashMap<usize, (f64, u32)> =
        std::collections::HashMap::new();
    for _ in 0..n_c {
        let g = rng_c.gen_range(0..n_active);
        let user_idx = truth.active_indices[g];
        let url_pos = rng_c.gen_range(0..n_urls);
        let url = &world.dissenter.urls()[url_pos];
        let bias = ParsedUrl::parse(&url.url)
            .filter(|p| !p.host.is_empty())
            .map(|p| domain_bias(&p.domain()))
            .unwrap_or(Bias::NotRanked);
        let heat = truth.user_heat[g];
        let lang = match world.user(user_idx).language.as_str() {
            "de" => Lang::De,
            "fr" => Lang::Fr,
            "es" => Lang::Es,
            "it" => Lang::It,
            _ => Lang::En,
        };
        let mut spec = sample_spec(&mut rng_c, Community::Dissenter, heat, lang);
        spec.severe = (spec.severe * bias_severity_mult(bias)).min(0.98);
        spec.attack = (spec.attack * bias_attack_mult(bias)).min(0.98);
        let lo = start.max(world.user(user_idx).created_at);
        let created = rng_c.gen_range(lo..end);
        let e = url_severity.entry(url_pos).or_insert((0.0, 0));
        e.0 += spec.severe;
        e.1 += 1;
        pending.push(Pending { author_idx: user_idx, url_pos, spec, created, text: String::new() });
    }
    {
        let specs: Vec<CommentSpec> = pending.iter().map(|p| p.spec).collect();
        let texts = gen.generate_batch(&specs, child_seed(eseed, 13), workers);
        for (p, text) in pending.iter_mut().zip(texts) {
            p.text = text;
        }
    }

    // Shadow labels: offensive = the epoch's top-rejection comments;
    // NSFW = author-chosen from the top quarter, as in the base pass.
    let n_off = (pending.len() / 200).max(1).min(pending.len());
    let n_nsfw = (pending.len() / 150).max(1).min(pending.len());
    let mut by_reject: Vec<usize> = (0..pending.len()).collect();
    by_reject.sort_by(|&a, &b| {
        pending[b].spec.reject.partial_cmp(&pending[a].spec.reject).expect("finite rejects")
    });
    let mut offensive_flags = vec![false; pending.len()];
    for &i in by_reject.iter().take(n_off) {
        offensive_flags[i] = true;
    }
    let mut nsfw_flags = vec![false; pending.len()];
    let mut pool: Vec<usize> = by_reject[..(pending.len() / 4).max(n_nsfw)].to_vec();
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng_c.gen_range(0..=i));
    }
    for &i in pool.iter().take(n_nsfw) {
        nsfw_flags[i] = true;
    }

    let mut comment_gen = ObjectIdGen::new(EntityKind::Comment, child_seed(eseed, 8));
    let mut order: Vec<usize> = (0..pending.len()).collect();
    order.sort_by_key(|&i| pending[i].created);
    let mut last_in_thread: std::collections::HashMap<usize, Vec<ids::ObjectId>> =
        std::collections::HashMap::new();
    for &i in &order {
        let p = &pending[i];
        let id = comment_gen.next(p.created);
        let author_id =
            world.user(p.author_idx).author_id.expect("active users are Dissenter users");
        let url_id = world.dissenter.urls()[p.url_pos].id;
        let thread = last_in_thread.entry(p.url_pos).or_default();
        let parent = if !thread.is_empty() && coin(&mut rng_c, 0.35) {
            Some(thread[rng_c.gen_range(0..thread.len())])
        } else {
            None
        };
        world.dissenter.add_comment(Comment {
            id,
            url_id,
            author_id,
            parent,
            text: p.text.clone(),
            created_at: p.created,
            nsfw: nsfw_flags[i],
            offensive: offensive_flags[i],
        });
        thread.push(id);
        if thread.len() > 64 {
            thread.remove(0);
        }
    }

    // ---- 4. Votes on the epoch's threads ---------------------------------
    let mut rng_v = StdRng::seed_from_u64(child_seed(eseed, 9));
    let mut touched: Vec<usize> = url_severity.keys().copied().collect();
    touched.sort_unstable();
    for url_pos in touched {
        let (sev_sum, n) = url_severity[&url_pos];
        let mean_sev = if n > 0 { sev_sum / n as f64 } else { 0.0 };
        let s_norm = (mean_sev / 0.6).min(1.0);
        if !coin(&mut rng_v, 0.32 * (1.0 - 0.75 * s_norm)) {
            continue;
        }
        let magnitude = geometric(&mut rng_v, (0.40 + 0.45 * s_norm).min(0.95), 40);
        let negative = coin(&mut rng_v, 0.33 + 0.30 * s_norm);
        let url_id = world.dissenter.urls()[url_pos].id;
        for _ in 0..magnitude {
            world
                .dissenter
                .vote(url_id, if negative { platform::Vote::Down } else { platform::Vote::Up });
        }
    }

    // ---- 5. Mid-study bans ------------------------------------------------
    let mut rng_b = StdRng::seed_from_u64(child_seed(eseed, 5));
    let n_ban = if coin(&mut rng_b, 0.5) { 1 } else { 2 };
    let mut banned = 0;
    for _ in 0..64 {
        if banned >= n_ban {
            break;
        }
        let idx = truth.active_indices[rng_b.gen_range(0..n_active)];
        let u = &world.users[idx as usize];
        if u.flags.is_admin || u.flags.is_banned || u.gab_deleted {
            continue;
        }
        let u = &mut world.users[idx as usize];
        u.flags.is_banned = true;
        u.flags.can_login = false;
        u.flags.can_post = false;
        banned += 1;
    }

    // ---- 6. Mid-study Gab account deletions -------------------------------
    // The account vanishes from the Gab API; the Dissenter side keeps the
    // user record and every comment — a fresh §4.1.1 ghost.
    let n_del = if coin(&mut rng_b, 0.5) { 1 } else { 2 };
    let mut deleted = 0;
    for _ in 0..64 {
        if deleted >= n_del {
            break;
        }
        let idx = truth.active_indices[rng_b.gen_range(0..n_active)];
        let u = &world.users[idx as usize];
        if u.flags.is_admin || u.flags.is_banned || u.gab_deleted {
            continue;
        }
        let gab_id = u.gab_id;
        world.users[idx as usize].gab_deleted = true;
        world.gab.unregister(gab_id);
        deleted += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;
    use ids::STUDY_END;

    fn cfg() -> WorldConfig {
        WorldConfig { scale: Scale::Custom(0.003), ..WorldConfig::small() }
    }

    #[test]
    fn epochs_compose_and_reproduce() {
        let (w2a, _) = world_at_epoch(&cfg(), 2, 1);
        let (w2b, _) = world_at_epoch(&cfg(), 2, 1);
        assert_eq!(w2a.content_hash(), w2b.content_hash(), "epoch worlds must reproduce");
        // Applying epoch 2 on top of the epoch-1 world is the same thing.
        let (mut w1, mut t1) = world_at_epoch(&cfg(), 1, 1);
        apply_epoch(&mut w1, &mut t1, &cfg(), 2, 1);
        assert_eq!(w1.content_hash(), w2a.content_hash(), "epochs must compose");
        let (w0, _) = world_at_epoch(&cfg(), 0, 1);
        assert_ne!(w0.content_hash(), w2a.content_hash(), "epochs must change the world");
    }

    #[test]
    fn worker_count_does_not_change_epoch_worlds() {
        let (serial, _) = world_at_epoch(&cfg(), 2, 1);
        let (par, _) = world_at_epoch(&cfg(), 2, 8);
        assert_eq!(serial.content_hash(), par.content_hash());
    }

    #[test]
    fn epochs_append_without_backdating() {
        let (base, _) = world_at_epoch(&cfg(), 0, 1);
        let (evolved, _) = world_at_epoch(&cfg(), 2, 1);
        assert!(evolved.user_count() > base.user_count(), "users must grow");
        assert!(
            evolved.dissenter.total_comments() > base.dissenter.total_comments(),
            "comments must grow"
        );
        // Base comments survive unchanged, in order.
        for (a, b) in base.dissenter.comments().iter().zip(evolved.dissenter.comments()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.text, b.text);
        }
        // Every appended entity is timestamped inside its epoch window.
        for c in &evolved.dissenter.comments()[base.dissenter.total_comments()..] {
            let w = window_of(c.created_at);
            assert!((1..=2).contains(&w), "epoch comment in window {w}");
        }
        for u in &evolved.users[base.user_count()..] {
            assert!(u.created_at >= STUDY_END, "new users join after the study window");
        }
    }

    #[test]
    fn epochs_ban_and_delete_mid_study() {
        let (base, _) = world_at_epoch(&cfg(), 0, 1);
        let (evolved, _) = world_at_epoch(&cfg(), 1, 1);
        let banned = |w: &World| w.users.iter().filter(|u| u.flags.is_banned).count();
        let deleted = |w: &World| w.users.iter().filter(|u| u.gab_deleted).count();
        assert!(banned(&evolved) > banned(&base), "an epoch must ban someone");
        assert!(deleted(&evolved) > deleted(&base), "an epoch must delete an account");
        // Deletions leave ghosts: user record present, Gab API answer gone.
        let ghost = evolved
            .users
            .iter()
            .find(|u| u.gab_deleted && !base.users.iter().any(|b| b.username == u.username && b.gab_deleted));
        if let Some(g) = ghost {
            assert!(g.author_id.is_some());
            assert_eq!(evolved.gab.user_by_gab_id(g.gab_id), None);
        }
    }
}
