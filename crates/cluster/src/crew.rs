//! The chip crew: the engine's one parallel mechanism (DESIGN.md §5).
//!
//! A crew is `N` members: the thread running the cycle loop (the
//! *caller*, member 0) plus `N − 1` scoped helper threads that live for
//! the whole run. Chips share no state during the compute phase, so
//! any assignment of chips to members produces the same bits.
//!
//! Every cycle the caller stamps each owned node's slot with the epoch
//! and its [`Job`], publishes the epoch, works, and waits on a done
//! counter: no heap allocation and no lock on the fast path. Each
//! member owns a fixed, contiguous share of the chips and claims those
//! first, then claims what is left of the other shares from their far
//! ends. A claim is a compare-exchange on the slot, so each job runs
//! exactly once, and a member that is slow to start (descheduled,
//! parked) never holds up a chip it has not claimed. Idle helpers spin
//! for a bounded time, then park on a condvar that the caller signals
//! only when someone is actually parked. A cycle with a single job (and
//! every cycle of a one-member crew) runs inline on the caller with no
//! handoff at all. Dropping the crew
//! (normal return, `Err` return or unwinding panic) stops the helpers,
//! and [`run`]'s thread scope joins them before it returns.

use fasda_core::timed::TimedChip;
use std::any::Any;
use std::hint::spin_loop;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How long an idle helper spins on the epoch before it parks. Covers
/// the serial exchange phase between two dense compute phases (a few
/// µs) with a wide margin; a longer lull (a lone straggler, a
/// checkpoint) parks the helper instead of burning its core.
const SPIN: Duration = Duration::from_micros(200);

/// Spins the caller makes on the done counter before it starts
/// yielding its core to a helper that may be sharing it.
const CALLER_SPINS: u32 = 1 << 14;

/// A chip's work for one compute-phase cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Job {
    Idle = 0,
    Force = 1,
    Mu = 2,
}

impl Job {
    /// The job a slot word carries in its low two bits.
    fn of(word: u64) -> Job {
        match word & 3 {
            1 => Job::Force,
            2 => Job::Mu,
            _ => Job::Idle,
        }
    }

    fn run(self, chip: &mut TimedChip) {
        match self {
            Job::Idle => {}
            Job::Force => chip.step_force_cycle(),
            Job::Mu => chip.step_mu_cycle(),
        }
    }
}

/// Cores this process may run on (1 when the host does not say).
pub(crate) fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Crew size: the requested `threads`, capped at the `cores` this crew
/// may use and at the `nodes` it steps (a member without a chip would
/// only add a handoff).
pub(crate) fn members(threads: usize, cores: usize, nodes: usize) -> usize {
    threads.min(cores).min(nodes).max(1)
}

/// State the caller shares with the helpers.
struct Shared {
    /// One word per global node: `epoch << 2 | job`. A member claims a
    /// job by swapping its word to `epoch << 2` (idle) — the tag can be
    /// taken off only once, so exactly one member steps each chip.
    slots: Vec<AtomicU64>,
    /// Member `m`'s own share is nodes `bounds[m]..bounds[m + 1]`.
    bounds: Vec<usize>,
    /// Base of the cluster's chip vector, published with each epoch.
    chips: AtomicPtr<TimedChip>,
    /// Last published epoch.
    epoch: AtomicU64,
    /// Jobs of the current epoch that have finished.
    done: AtomicUsize,
    stop: AtomicBool,
    /// Helpers parked (or about to park) on `wake`.
    parked: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
    /// A chip step panicked; the payload waits in `panic`.
    panicked: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn new(members: usize, owned: Range<usize>, nodes: usize) -> Shared {
        let len = owned.len();
        Shared {
            slots: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            bounds: (0..=members).map(|m| owned.start + m * len / members).collect(),
            chips: AtomicPtr::new(std::ptr::null_mut()),
            epoch: AtomicU64::new(0),
            done: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            parked: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
        }
    }

    /// The nodes the crew steps: every member's share.
    fn owned(&self) -> Range<usize> {
        self.bounds[0]..self.bounds[self.bounds.len() - 1]
    }

    /// Claim and run every job of `epoch` still open: member `m`'s own
    /// share first, then the other shares from their far ends, so a
    /// member that is slow to start (descheduled, parked) only delays
    /// the chip it has already claimed.
    fn work(&self, m: usize, epoch: u64) {
        let Range { start, end } = self.owned();
        let (lo, hi) = (self.bounds[m], self.bounds[m + 1]);
        for node in (lo..hi).chain((hi..end).rev()).chain((start..lo).rev()) {
            self.claim(node, epoch);
        }
    }

    /// Step `node`'s chip if its `epoch` job is still unclaimed.
    fn claim(&self, node: usize, epoch: u64) {
        let slot = &self.slots[node];
        let word = slot.load(Ordering::Relaxed);
        let job = Job::of(word);
        if word >> 2 != epoch || job == Job::Idle {
            return;
        }
        if slot
            .compare_exchange(word, epoch << 2, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        let chips = self.chips.load(Ordering::Relaxed);
        // SAFETY: `chips` is the base of the cluster's chip slice, which
        // `Crew::step` holds as `&mut [TimedChip]` — live, and touched by
        // no one else — from before it publishes `epoch` until `done`
        // counts every job of `epoch`. The compare-exchange above took
        // `node`'s tag off, which succeeds for one member only, so this
        // is the only reference to the chip during the epoch. A stale
        // member still scanning an older epoch never matches the words
        // stamped with a newer one. The epoch's Release/Acquire pair
        // orders the caller's writes to the chip before this step, and
        // `done`'s Release/Acquire pair orders the step before the
        // caller's next use. `TimedChip: Send` (asserted in `run`) makes
        // handing the `&mut` to another thread sound.
        let chip = unsafe { &mut *chips.add(node) };
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| job.run(chip))) {
            *lock(&self.panic) = Some(p);
            self.panicked.store(true, Ordering::Relaxed);
        }
        self.done.fetch_add(1, Ordering::Release);
    }

    /// Helper `m`'s life: work each epoch it sees until stopped.
    fn serve(&self, m: usize) {
        let mut seen = 0;
        while let Some(epoch) = self.next_epoch(seen) {
            seen = epoch;
            self.work(m, epoch);
        }
    }

    /// Wait for an epoch after `seen`: spin for [`SPIN`], then park.
    /// `None` once the crew is stopping.
    fn next_epoch(&self, seen: u64) -> Option<u64> {
        let start = Instant::now();
        let mut spins = 0u32;
        loop {
            let epoch = self.epoch.load(Ordering::Acquire);
            if epoch != seen {
                return (!self.stop.load(Ordering::Relaxed)).then_some(epoch);
            }
            spins = spins.wrapping_add(1);
            if !spins.is_multiple_of(64) || start.elapsed() < SPIN {
                spin_loop();
                continue;
            }
            // Park. `parked` is raised under the lock before the epoch
            // re-check, and the caller stores the epoch before it reads
            // `parked` (both SeqCst), so either the caller sees us and
            // notifies under the lock, or we see its new epoch here.
            let mut guard = lock(&self.lock);
            self.parked.fetch_add(1, Ordering::SeqCst);
            while self.epoch.load(Ordering::SeqCst) == seen {
                guard = self.wake.wait(guard).unwrap_or_else(PoisonError::into_inner);
            }
            self.parked.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Publish `epoch` and wake any parked helper.
    fn publish(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _guard = lock(&self.lock);
            self.wake.notify_all();
        }
    }

    /// Caller side: wait until all `jobs` of the epoch finished,
    /// re-raising a panicked step here.
    fn await_done(&self, jobs: usize) {
        let mut spins = 0u32;
        while self.done.load(Ordering::Acquire) != jobs {
            if spins < CALLER_SPINS {
                spins += 1;
                spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        if self.panicked.load(Ordering::Relaxed) {
            if let Some(p) = lock(&self.panic).take() {
                resume_unwind(p);
            }
        }
    }
}

/// The caller's handle on a running crew (see the module docs).
pub(crate) struct Crew<'s> {
    shared: &'s Shared,
    /// Epoch the current cycle's jobs are stamped with.
    next: u64,
    /// Jobs assigned this cycle.
    jobs: usize,
}

impl Crew<'_> {
    /// Set `node`'s job for this cycle. Every owned node is assigned
    /// once per cycle, before [`Crew::step`].
    pub(crate) fn assign(&mut self, node: usize, job: Job) {
        self.shared.slots[node].store(self.next << 2 | job as u64, Ordering::Relaxed);
        self.jobs += usize::from(job != Job::Idle);
    }

    /// Run this cycle's jobs on `chips` and return whether there were
    /// any. A lone job, or any job of a one-member crew, runs inline on
    /// the caller.
    pub(crate) fn step(&mut self, chips: &mut [TimedChip]) -> bool {
        let jobs = std::mem::take(&mut self.jobs);
        if jobs == 0 {
            return false;
        }
        let sh = self.shared;
        if jobs == 1 || sh.bounds.len() == 2 {
            for node in sh.owned() {
                Job::of(sh.slots[node].load(Ordering::Relaxed)).run(&mut chips[node]);
            }
        } else {
            let epoch = self.next;
            self.next += 1;
            sh.chips.store(chips.as_mut_ptr(), Ordering::Relaxed);
            sh.done.store(0, Ordering::Relaxed);
            sh.publish(epoch);
            sh.work(0, epoch);
            sh.await_done(jobs);
        }
        true
    }
}

impl Drop for Crew<'_> {
    fn drop(&mut self) {
        let sh = self.shared;
        sh.stop.store(true, Ordering::SeqCst);
        sh.epoch.fetch_add(1, Ordering::SeqCst);
        let _guard = lock(&sh.lock);
        sh.wake.notify_all();
    }
}

/// Run `f` with a crew of `members` over the `owned` nodes of a
/// `nodes`-node cluster. Helpers start before `f` and are stopped and
/// joined after it, however it exits.
pub(crate) fn run<R>(
    members: usize,
    owned: Range<usize>,
    nodes: usize,
    f: impl FnOnce(&mut Crew<'_>) -> R,
) -> R {
    fn assert_send<T: Send>() {}
    assert_send::<TimedChip>();
    let shared = Shared::new(members, owned, nodes);
    std::thread::scope(|s| {
        // The guard exists before the first helper does, so even a
        // failed spawn stops the helpers already running.
        let mut crew = Crew { shared: &shared, next: 1, jobs: 0 };
        for m in 1..members {
            let shared = &shared;
            std::thread::Builder::new()
                .name(format!("fasda-crew-{m}"))
                .spawn_scoped(s, move || shared.serve(m))
                .expect("spawn crew member");
        }
        f(&mut crew)
    })
}

#[cfg(test)]
mod tests {
    use crate::{Cluster, ClusterConfig, EngineConfig};
    use fasda_core::config::ChipConfig;
    use fasda_md::space::SimulationSpace;
    use fasda_md::workload::WorkloadSpec;

    #[test]
    fn shares_tile_the_owned_nodes() {
        for (members, owned) in [(1, 0..8), (3, 0..8), (2, 4..8), (4, 3..5)] {
            let sh = super::Shared::new(members, owned.clone(), 8);
            assert_eq!(sh.bounds.first(), Some(&owned.start));
            assert_eq!(sh.bounds.last(), Some(&owned.end));
            assert!(sh.bounds.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn any_crew_size_is_bit_identical() {
        // Crew sizes the host's core cap would never pick here: uneven
        // shares (3 members over 8 chips) and one member per chip.
        let mut spec = WorkloadSpec::paper(SimulationSpace::cubic(6), 9);
        spec.per_cell = 3;
        let sys = spec.generate();
        let cfg = ClusterConfig::paper(ChipConfig::baseline(), (3, 3, 3));
        let mut oracle = Cluster::new(cfg.clone(), &sys);
        let want = oracle.try_run(1, 2_000_000_000).expect("oracle run");
        let mut want_state = sys.clone();
        oracle.store_into(&mut want_state);
        let engine = EngineConfig::parallel();
        for members in [3, 8] {
            let mut cluster = Cluster::new(cfg.clone(), &sys);
            let got = super::run(members, 0..8, 8, |crew| {
                cluster.cycle_loop(1, 2_000_000_000, &engine, crew)
            })
            .expect("crew run");
            assert_eq!(got, want, "{members} members: report drifted");
            let mut state = sys.clone();
            cluster.store_into(&mut state);
            assert_eq!(state.pos, want_state.pos, "{members} members: positions drifted");
            assert_eq!(state.vel, want_state.vel, "{members} members: velocities drifted");
        }
    }
}
