//! Persistent worker pool with scoped (borrowing) job execution.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A queued unit of work (already wrapped to be `'static` and
/// panic-catching by [`Registry::scope`]).
type Job = Box<dyn FnOnce() + Send>;

/// A borrowed job handed to [`Registry::scope`]; may reference the
/// caller's stack frame.
pub(crate) type ScopedJob<'scope> = Box<dyn FnOnce() + Send + 'scope>;

struct Shared {
    queue: VecDeque<Job>,
    shutdown: bool,
}

pub(crate) struct Registry {
    shared: Mutex<Shared>,
    work_cv: Condvar,
    pub(crate) threads: usize,
}

thread_local! {
    /// Pool made current by `ThreadPool::install` on this thread.
    static CURRENT: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
    /// True on pool worker threads: nested parallel ops run serially.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

impl Registry {
    /// A registry of `threads` threads: `threads − 1` spawned workers
    /// plus the calling thread, which drains the queue in
    /// [`Registry::scope`] too.
    fn with_workers(threads: usize) -> Arc<Registry> {
        let reg = Arc::new(Registry {
            shared: Mutex::new(Shared {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            threads,
        });
        for i in 1..threads {
            let r = Arc::clone(&reg);
            std::thread::Builder::new()
                .name(format!("fasda-pool-{i}"))
                .spawn(move || r.worker_loop())
                .expect("spawn pool worker");
        }
        reg
    }

    fn worker_loop(&self) {
        IN_WORKER.with(|w| w.set(true));
        loop {
            let job = {
                let mut sh = self.shared.lock().unwrap();
                loop {
                    if let Some(j) = sh.queue.pop_front() {
                        break Some(j);
                    }
                    if sh.shutdown {
                        break None;
                    }
                    sh = self.work_cv.wait(sh).unwrap();
                }
            };
            match job {
                Some(j) => j(), // panics are caught inside the scope wrapper
                None => return,
            }
        }
    }

    /// Run every job to completion, using the pool workers plus the
    /// calling thread. Jobs may borrow from the caller's stack: this
    /// function does not return until all of them have finished (or one
    /// has panicked, in which case the panic is re-raised here after the
    /// rest complete).
    pub(crate) fn scope<'scope>(&self, jobs: Vec<ScopedJob<'scope>>) {
        let n = jobs.len();
        if n == 0 {
            return;
        }
        let done = Arc::new((Mutex::new(0usize), Condvar::new()));
        let panicked = Arc::new(AtomicBool::new(false));
        {
            let mut sh = self.shared.lock().unwrap();
            for job in jobs {
                // SAFETY: this function blocks until `done` has counted
                // every job, so any borrow inside `job` strictly outlives
                // its execution; extending the lifetime to 'static never
                // lets a job observe a dead reference.
                let job: Box<dyn FnOnce() + Send + 'static> =
                    unsafe { std::mem::transmute::<ScopedJob<'scope>, ScopedJob<'static>>(job) };
                let done = Arc::clone(&done);
                let panicked = Arc::clone(&panicked);
                sh.queue.push_back(Box::new(move || {
                    if catch_unwind(AssertUnwindSafe(job)).is_err() {
                        panicked.store(true, Ordering::SeqCst);
                    }
                    let (count, cv) = &*done;
                    *count.lock().unwrap() += 1;
                    cv.notify_all();
                }));
            }
        }
        self.work_cv.notify_all();
        // Help drain the queue from the calling thread.
        loop {
            let job = self.shared.lock().unwrap().queue.pop_front();
            match job {
                Some(j) => j(),
                None => break,
            }
        }
        let (count, cv) = &*done;
        let mut finished = count.lock().unwrap();
        while *finished < n {
            finished = cv.wait(finished).unwrap();
        }
        drop(finished);
        if panicked.load(Ordering::SeqCst) {
            panic!("a parallel pool job panicked");
        }
    }
}

/// Registry to use for a parallel operation over `n` items, or `None`
/// when the operation should run serially (no installed pool, nested
/// inside a worker, single-threaded pool, or trivially small input).
pub(crate) fn parallelism(n: usize) -> Option<Arc<Registry>> {
    if n < 2 || IN_WORKER.with(|w| w.get()) {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone()).filter(|r| r.threads > 1)
}

/// Split `range` into at most `2 * threads` contiguous chunks, in order.
pub(crate) fn chunk_ranges(range: Range<usize>, threads: usize) -> Vec<Range<usize>> {
    let n = range.len();
    let chunks = (threads * 2).clamp(1, n.max(1));
    let size = n.div_ceil(chunks);
    let mut out = Vec::with_capacity(chunks);
    let mut lo = range.start;
    while lo < range.end {
        let hi = (lo + size).min(range.end);
        out.push(lo..hi);
        lo = hi;
    }
    out
}

/// Threads available to parallel ops on this thread right now.
pub fn current_num_threads() -> usize {
    if IN_WORKER.with(|w| w.get()) {
        return 1;
    }
    CURRENT
        .with(|c| c.borrow().as_ref().map(|r| r.threads))
        .unwrap_or(1)
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error type mirroring `rayon::ThreadPoolBuildError` (construction
/// cannot actually fail in this shim).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        ThreadPoolBuilder { num_threads: 0 }
    }

    /// Threads that run the pool's jobs, the thread calling a parallel
    /// operation included (it spawns `n − 1` workers). 0 (the default)
    /// means "one thread per available core".
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.num_threads
        };
        Ok(ThreadPool {
            registry: Registry::with_workers(threads),
        })
    }
}

/// Worker pool mirroring `rayon::ThreadPool`.
pub struct ThreadPool {
    registry: Arc<Registry>,
}

impl ThreadPool {
    /// Run `op` with this pool current: parallel iterators inside it
    /// fan out over the pool's workers.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        struct Restore(Option<Arc<Registry>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0.take();
                CURRENT.with(|c| *c.borrow_mut() = prev);
            }
        }
        let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(&self.registry)));
        let _restore = Restore(prev);
        op()
    }

    pub fn current_num_threads(&self) -> usize {
        self.registry.threads
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        let mut sh = self.registry.shared.lock().unwrap();
        sh.shutdown = true;
        drop(sh);
        self.registry.work_cv.notify_all();
    }
}
