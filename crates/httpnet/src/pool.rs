//! A bounded worker thread pool for CPU-bound analysis jobs (scoring,
//! report tables, the SVM experiment), with an ordered scatter-gather
//! work queue ([`ThreadPool::scatter`]). Connections are served by the
//! server's epoll reactors, not by this pool.

use crossbeam::channel::{bounded, Sender};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Fixed-size thread pool. Jobs queue on a bounded channel (backpressure:
/// `execute` blocks when the queue is full). Dropping the pool joins all
/// workers after draining queued jobs.
///
/// A panicking job is confined to that job: the worker catches the
/// unwind, counts it (when the pool is instrumented), and keeps
/// draining. Before this guard a panic killed the worker thread, so
/// `size` panicking jobs silently serialized the pool and the next
/// `execute` after all workers died panicked on a dead channel.
pub struct ThreadPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Create a pool of `size` workers with a queue of `queue` jobs.
    pub fn new(size: usize, queue: usize) -> Self {
        Self::with_metrics(size, queue, None)
    }

    /// [`ThreadPool::new`], counting caught job panics on
    /// `metrics` under `pool.job_panics`.
    pub fn with_metrics(size: usize, queue: usize, metrics: Option<&obs::Registry>) -> Self {
        assert!(size > 0, "pool needs at least one worker");
        let panics = metrics.map(|r| r.counter("pool.job_panics"));
        let (tx, rx) = bounded::<Job>(queue.max(1));
        let workers = (0..size)
            .map(|i| {
                let rx = rx.clone();
                let panics = panics.clone();
                std::thread::Builder::new()
                    .name(format!("httpnet-worker-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                                if let Some(c) = &panics {
                                    c.inc();
                                }
                            }
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();
        Self { tx: Some(tx), workers }
    }

    /// Submit a job; blocks if the queue is full.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, f: F) {
        self.tx
            .as_ref()
            .expect("pool alive")
            .send(Box::new(f))
            .expect("workers alive");
    }

    /// Number of workers.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Ordered scatter-gather: run every job on the pool and return their
    /// results **in submission order**, regardless of completion order.
    /// This is the determinism contract of the sharded study pipeline —
    /// `scatter(jobs)` is observably identical to running the jobs in a
    /// serial loop, for any pool size.
    ///
    /// If a job panics, the panic is re-raised on the calling thread —
    /// but only after all remaining jobs have been gathered, so the pool
    /// is never left with orphaned senders. Must not be called from
    /// inside a pool job (the job would block on its own pool's queue).
    pub fn scatter<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.scatter_labeled("", None, jobs)
    }

    /// [`ThreadPool::scatter`], instrumented: records shard counts and
    /// timing under `shard.<label>.*` on `metrics`. The counters
    /// (`jobs`, plus `items` recorded by callers) depend only on the
    /// input, never on the worker count; the histograms (`busy` per job,
    /// `gather` for the scatter-to-last-result wall, i.e. merge wait)
    /// are wall-clock.
    pub fn scatter_labeled<T, F>(
        &self,
        label: &str,
        metrics: Option<&obs::Registry>,
        jobs: Vec<F>,
    ) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let busy = metrics.map(|r| r.histogram(&format!("shard.{label}.busy")));
        if let Some(r) = metrics {
            r.counter(&format!("shard.{label}.jobs")).add(n as u64);
        }
        let gather_started = std::time::Instant::now();
        let (done_tx, done_rx) = bounded::<(usize, std::thread::Result<T>)>(n);
        for (idx, job) in jobs.into_iter().enumerate() {
            let done_tx = done_tx.clone();
            let busy = busy.clone();
            self.execute(move || {
                let started = std::time::Instant::now();
                let result = catch_unwind(AssertUnwindSafe(job));
                if let Some(h) = &busy {
                    h.observe(started.elapsed());
                }
                // Gatherer holds `done_rx` until all n results arrive, so
                // the only send failure is a caller that itself panicked.
                let _ = done_tx.send((idx, result));
            });
        }
        drop(done_tx);
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
        for _ in 0..n {
            let (idx, result) = done_rx.recv().expect("scatter workers alive");
            match result {
                Ok(v) => slots[idx] = Some(v),
                Err(p) => {
                    first_panic.get_or_insert(p);
                }
            }
        }
        if let Some(r) = metrics {
            r.histogram(&format!("shard.{label}.gather"))
                .observe(gather_started.elapsed());
        }
        if let Some(p) = first_panic {
            resume_unwind(p);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every scattered job reported"))
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn executes_all_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(4, 16);
            for _ in 0..100 {
                let c = counter.clone();
                pool.execute(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Drop joins after draining.
        }
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn parallelism_actually_happens() {
        use std::sync::Barrier;
        let barrier = Arc::new(Barrier::new(4));
        let pool = ThreadPool::new(4, 4);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let b = barrier.clone();
            let d = done.clone();
            pool.execute(move || {
                // All four must rendezvous — impossible without 4 threads.
                b.wait();
                d.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 4);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        ThreadPool::new(0, 1);
    }

    #[test]
    fn panicking_jobs_do_not_shrink_the_pool() {
        // Regression: a job panic used to kill its worker thread. With a
        // 2-worker pool, two panicking jobs left zero workers, the queue
        // backed up, and `execute` itself panicked on the dead channel.
        let registry = obs::Registry::new();
        let done = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::with_metrics(2, 4, Some(&registry));
            // More panics than workers, interleaved with real jobs.
            for round in 0..10 {
                pool.execute(move || panic!("poisoned job {round}"));
                for _ in 0..10 {
                    let d = done.clone();
                    pool.execute(move || {
                        d.fetch_add(1, Ordering::SeqCst);
                    });
                }
            }
        }
        assert_eq!(done.load(Ordering::SeqCst), 100, "jobs after panics must still run");
        assert_eq!(
            registry.snapshot().counter("pool.job_panics"),
            Some(10),
            "every confined panic is visible in the metrics registry"
        );
    }

    #[test]
    fn scatter_returns_results_in_submission_order() {
        let pool = ThreadPool::new(4, 8);
        // Reverse sleep times so later jobs finish first.
        let jobs: Vec<_> = (0..32u64)
            .map(|i| {
                move || {
                    std::thread::sleep(std::time::Duration::from_micros((32 - i) * 50));
                    i * i
                }
            })
            .collect();
        let out = pool.scatter(jobs);
        assert_eq!(out, (0..32u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn scatter_identical_for_any_pool_size() {
        let make_jobs = || (0..100u64).map(|i| move || i.wrapping_mul(0x9e3779b9)).collect::<Vec<_>>();
        let serial = ThreadPool::new(1, 4).scatter(make_jobs());
        for size in [2, 3, 8] {
            assert_eq!(ThreadPool::new(size, 4).scatter(make_jobs()), serial, "size={size}");
        }
    }

    #[test]
    fn scatter_empty_is_empty() {
        let pool = ThreadPool::new(2, 4);
        let out: Vec<u32> = pool.scatter(Vec::<fn() -> u32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn scatter_propagates_job_panic_and_pool_survives() {
        let pool = ThreadPool::new(2, 4);
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("shard blew up")),
            Box::new(|| 3),
        ];
        let err = catch_unwind(AssertUnwindSafe(|| pool.scatter(jobs)))
            .expect_err("panic must propagate to the caller");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "shard blew up");
        // The pool is still usable after the failed scatter.
        assert_eq!(pool.scatter(vec![|| 7u32, || 8u32]), vec![7, 8]);
    }

    #[test]
    fn scatter_labeled_records_deterministic_job_counter() {
        let registry = obs::Registry::new();
        let pool = ThreadPool::with_metrics(3, 8, Some(&registry));
        let jobs: Vec<_> = (0..10u32).map(|i| move || i).collect();
        let out = pool.scatter_labeled("test", Some(&registry), jobs);
        assert_eq!(out.len(), 10);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("shard.test.jobs"), Some(10));
        assert!(snap.histogram("shard.test.busy").is_some());
        assert!(snap.histogram("shard.test.gather").is_some());
    }

    #[test]
    fn parallelism_survives_panics() {
        // All four workers must still rendezvous *after* each has had a
        // panicking job — proof no worker thread died.
        use std::sync::Barrier;
        let pool = ThreadPool::new(4, 8);
        for _ in 0..4 {
            pool.execute(|| panic!("one per worker, probabilistically"));
        }
        let barrier = Arc::new(Barrier::new(4));
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let b = barrier.clone();
            let d = done.clone();
            pool.execute(move || {
                b.wait();
                d.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 4);
    }
}
