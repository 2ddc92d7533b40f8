//! A small scoped parallel-map used by all crawl phases: N workers, each
//! with its own keep-alive HTTP client, draining a shared work index.
//!
//! Phases whose items each need exactly one GET use [`parallel_get`],
//! which pipelines up to [`PIPELINE_DEPTH`] first attempts per write;
//! phases whose items issue dependent requests use [`parallel_fetch`],
//! one request in flight. Both run on the same worker loop.

use crate::resilience::PhaseRun;
use crate::store::{CrawlStats, CrawlStore};
use httpnet::{Client, Response};
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Most GETs a [`parallel_get`] worker keeps in flight on its
/// connection. Measured on loopback, depth 8 gives the crawl as much as
/// 16 or 32 did.
pub const PIPELINE_DEPTH: usize = 8;

/// Run `work(client, item)` over `items` with `workers` threads, each
/// owning a keep-alive [`Client`] to `addr`. Results are collected
/// unordered.
///
/// A panic inside `work` is confined to its item: it is caught, recorded
/// as a failure (and panic) on `stats`, and the worker keeps draining on
/// a fresh client — one poisoned page cannot take the phase down or
/// strand the other workers' results.
pub fn parallel_fetch<T: Sync, R: Send>(
    addr: SocketAddr,
    items: &[T],
    workers: usize,
    stats: &CrawlStats,
    setup: impl Fn(&mut Client) + Sync,
    work: impl Fn(&mut Client, &T) -> Option<R> + Sync,
) -> Vec<R> {
    drive(
        addr,
        items,
        workers,
        stats,
        setup,
        1,
        |_, batch, _| vec![(); batch.len()],
        |client, item, ()| work(client, item),
    )
}

/// [`parallel_fetch`] for items that each need exactly one GET, of
/// `target(item)`: each worker claims up to [`PIPELINE_DEPTH`] items at a
/// time and fetches them through [`PhaseRun::fetch_batch`], which
/// pipelines their first attempts while the service answers cleanly.
/// `parse` turns each delivered response into a result; dead-lettered
/// fetches yield none.
pub fn parallel_get<T: Sync, R: Send>(
    run: &PhaseRun<'_>,
    store: &CrawlStore,
    addr: SocketAddr,
    items: &[T],
    setup: impl Fn(&mut Client) + Sync,
    target: impl Fn(&T) -> String + Sync,
    parse: impl Fn(&T, Response) -> Option<R> + Sync,
) -> Vec<R> {
    drive(
        addr,
        items,
        run.workers(),
        &store.stats,
        setup,
        PIPELINE_DEPTH,
        |client, batch, depth| {
            let targets: Vec<String> = batch.iter().map(&target).collect();
            run.fetch_batch(client, store, &targets, depth)
        },
        |_, item, resp| parse(item, resp?),
    )
}

/// The worker loop behind both entry points. Each worker claims up to
/// its current depth of items, `fetch`es them as a batch (which may lower
/// the worker's depth for the rest of the call), then runs `work` on each
/// item with its fetched input. Panics are confined per item: a panic in
/// `work` loses that item, one in `fetch` loses the batch; either way
/// the worker carries on with a fresh client.
#[allow(clippy::too_many_arguments)]
fn drive<T: Sync, A, R: Send>(
    addr: SocketAddr,
    items: &[T],
    workers: usize,
    stats: &CrawlStats,
    setup: impl Fn(&mut Client) + Sync,
    depth: usize,
    fetch: impl Fn(&mut Client, &[T], &mut usize) -> Vec<A> + Sync,
    work: impl Fn(&mut Client, &T, A) -> Option<R> + Sync,
) -> Vec<R> {
    let workers = workers.max(1).min(items.len().max(1));
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<R>> = Mutex::new(Vec::with_capacity(items.len()));
    let fresh_client = || {
        let mut client = Client::builder(addr).keep_alive(true).build();
        setup(&mut client);
        client
    };
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut client = fresh_client();
                let mut depth = depth.max(1);
                let mut local: Vec<R> = Vec::new();
                loop {
                    let start = next.fetch_add(depth, Ordering::Relaxed);
                    if start >= items.len() {
                        break;
                    }
                    let batch = &items[start..items.len().min(start + depth)];
                    let fetched =
                        catch_unwind(AssertUnwindSafe(|| fetch(&mut client, batch, &mut depth)));
                    let Ok(fetched) = fetched else {
                        batch.iter().for_each(|_| stats.add_panic());
                        client = fresh_client();
                        continue;
                    };
                    for (item, input) in batch.iter().zip(fetched) {
                        match catch_unwind(AssertUnwindSafe(|| work(&mut client, item, input))) {
                            Ok(Some(r)) => local.push(r),
                            Ok(None) => {}
                            Err(_) => {
                                stats.add_panic();
                                // The panic may have left the connection
                                // mid-read; do not reuse it.
                                client = fresh_client();
                            }
                        }
                    }
                }
                results.lock().unwrap_or_else(|e| e.into_inner()).extend(local);
            });
        }
    });
    results.into_inner().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use httpnet::{Handler, Request, Response, Server, ServerConfig};
    use std::sync::Arc;

    #[test]
    fn fetches_all_items_in_parallel() {
        let handler: Arc<dyn Handler> =
            Arc::new(|req: &Request| Response::html(format!("got {}", req.path())));
        let server = Server::start(handler, ServerConfig::default()).unwrap();
        let stats = CrawlStats::default();
        let items: Vec<usize> = (0..200).collect();
        let out = parallel_fetch(
            server.addr(),
            &items,
            8,
            &stats,
            |_| {},
            |client, &i| {
                let r = client.get_keep_alive(&format!("/i/{i}")).ok()?;
                Some((i, r.text()))
            },
        );
        assert_eq!(out.len(), 200);
        for (i, text) in &out {
            assert_eq!(text, &format!("got /i/{i}"));
        }
    }

    #[test]
    fn worker_failures_are_skipped_not_fatal() {
        let handler: Arc<dyn Handler> = Arc::new(|_: &Request| Response::not_found());
        let server = Server::start(handler, ServerConfig::default()).unwrap();
        let stats = CrawlStats::default();
        let items = vec![1, 2, 3];
        let out: Vec<u32> =
            parallel_fetch(server.addr(), &items, 2, &stats, |_| {}, |client, &i| {
                let r = client.get_keep_alive("/x").ok()?;
                r.status.is_success().then_some(i)
            });
        assert!(out.is_empty());
    }

    #[test]
    fn setup_applies_cookies() {
        let handler: Arc<dyn Handler> = Arc::new(|req: &Request| {
            Response::html(req.cookie("session").unwrap_or("none").to_owned())
        });
        let server = Server::start(handler, ServerConfig::default()).unwrap();
        let stats = CrawlStats::default();
        let items = vec![()];
        let out = parallel_fetch(
            server.addr(),
            &items,
            1,
            &stats,
            |c| {
                c.set_cookie("session", "crawler:nsfw");
            },
            |client, _| client.get_keep_alive("/").ok().map(|r| r.text()),
        );
        assert_eq!(out, vec!["crawler:nsfw".to_owned()]);
    }

    /// Crawl `/i/0` … `/i/23` with one pipelining worker against a server
    /// whose handler is `respond`. Returns the delivered paths, the
    /// phase's books, the server, and its `conn.coalesced` count.
    fn pipelined_crawl(
        respond: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> (Vec<String>, crate::store::PhaseSnapshot, Server, u64) {
        let registry = obs::Registry::new();
        let server = Server::start(
            Arc::new(respond),
            ServerConfig { metrics: Some(registry.clone()), ..Default::default() },
        )
        .unwrap();
        let addr = server.addr();
        let mut crawler = crate::Crawler::new(crate::Endpoints {
            dissenter: addr,
            gab: addr,
            reddit: addr,
            youtube: addr,
        });
        crawler.config.workers = 1;
        crawler.config.backoff = std::time::Duration::from_millis(1);
        let run = PhaseRun::new(&crawler, crate::Phase::Probe);
        let store = CrawlStore::default();
        let items: Vec<usize> = (0..24).collect();
        let mut got = parallel_get(
            &run,
            &store,
            addr,
            &items,
            |c| run.setup_client(c),
            |i| format!("/i/{i}"),
            |_, resp| Some(resp.text()),
        );
        got.sort();
        let books = store.stats.phase(crate::Phase::Probe).snapshot();
        let coalesced = registry.snapshot().counter("conn.coalesced").unwrap_or(0);
        (got, books, server, coalesced)
    }

    fn echo_path(req: &Request) -> Response {
        Response::html(req.path().to_owned())
    }

    fn all_paths() -> Vec<String> {
        let mut want: Vec<String> = (0..24).map(|i| format!("/i/{i}")).collect();
        want.sort();
        want
    }

    #[test]
    fn single_get_items_are_pipelined_eight_per_write() {
        let (got, books, server, coalesced) = pipelined_crawl(echo_path);
        assert_eq!(got, all_paths());
        assert_eq!((books.attempted, books.succeeded, books.retried), (24, 24, 0));
        assert_eq!(server.requests_served(), 24);
        assert_eq!(coalesced, 3 * (PIPELINE_DEPTH as u64 - 1), "three batches of eight");
    }

    #[test]
    fn a_5xx_first_attempt_is_retried_and_drops_the_worker_to_depth_one() {
        let failed_once = std::sync::atomic::AtomicBool::new(false);
        let (got, books, server, coalesced) = pipelined_crawl(move |req: &Request| {
            if req.path() == "/i/3" && !failed_once.swap(true, Ordering::SeqCst) {
                return Response::status(httpnet::Status::INTERNAL);
            }
            echo_path(req)
        });
        assert_eq!(got, all_paths(), "the 500 was retried to delivery");
        assert_eq!((books.attempted, books.succeeded, books.retried), (24, 24, 1));
        assert_eq!(books.attempted, books.succeeded + books.dead_lettered);
        assert_eq!(server.requests_served(), 25);
        assert_eq!(
            coalesced,
            PIPELINE_DEPTH as u64 - 1,
            "only the first batch was pipelined; the rest went one at a time"
        );
    }

    #[test]
    fn a_panicking_item_is_recorded_and_the_rest_survive() {
        let handler: Arc<dyn Handler> =
            Arc::new(|req: &Request| Response::html(format!("got {}", req.path())));
        let server = Server::start(handler, ServerConfig::default()).unwrap();
        let stats = CrawlStats::default();
        let items: Vec<usize> = (0..40).collect();
        let out = parallel_fetch(
            server.addr(),
            &items,
            4,
            &stats,
            |_| {},
            |client, &i| {
                let r = client.get_keep_alive(&format!("/i/{i}")).ok()?;
                assert!(i % 10 != 7, "poisoned page {i}");
                Some((i, r.text()))
            },
        );
        // 4 of 40 items panic (7, 17, 27, 37); the rest all land.
        assert_eq!(out.len(), 36);
        assert!(out.iter().all(|(i, _)| i % 10 != 7));
        assert_eq!(stats.panics.load(Ordering::Relaxed), 4);
        assert_eq!(stats.failures.load(Ordering::Relaxed), 4, "panics count as failures");
    }
}
