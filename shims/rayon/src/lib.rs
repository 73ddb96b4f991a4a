//! Offline stand-in for the `rayon` crate.
//!
//! Implements the subset the workspace uses — `ThreadPoolBuilder` /
//! `ThreadPool::install`, `into_par_iter().map(..).collect()` over
//! `Range<usize>`, and `par_iter_mut().for_each(..)` over slices — on a
//! persistent worker pool. Work is split into **contiguous index chunks**
//! and results are concatenated in chunk order, so `map/collect` output is
//! identical to the serial order regardless of thread count, matching the
//! determinism guarantee of real rayon's indexed parallel iterators.
//!
//! Parallel operations engage only inside `ThreadPool::install`; outside a
//! pool (or when nested inside a pool worker) they degrade to serial
//! execution on the calling thread, which keeps nested parallelism
//! deadlock-free.

mod pool;

pub mod iter;

pub use pool::{current_num_threads, ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder};

pub mod prelude {
    pub use crate::iter::{FromParallelIterator, IntoParallelIterator, IntoParallelRefMutIterator};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn map_collect_matches_serial_order() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let par: Vec<u64> = pool.install(|| {
            (0..10_000usize)
                .into_par_iter()
                .map(|i| (i as u64).wrapping_mul(0x9E37_79B9) ^ 0xABCD)
                .collect()
        });
        let ser: Vec<u64> = (0..10_000usize)
            .map(|i| (i as u64).wrapping_mul(0x9E37_79B9) ^ 0xABCD)
            .collect();
        assert_eq!(par, ser);
    }

    #[test]
    fn for_each_mut_touches_every_element_once() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        let mut data = vec![0u32; 4096];
        pool.install(|| data.par_iter_mut().for_each(|x| *x += 1));
        assert!(data.iter().all(|&x| x == 1));
    }

    #[test]
    fn num_threads_counts_the_caller() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        for n in 1..=4 {
            let pool = crate::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap();
            let ids = Mutex::new(HashSet::new());
            pool.install(|| {
                (0..256usize).into_par_iter().for_each(|_| {
                    ids.lock().unwrap().insert(std::thread::current().id());
                    std::thread::sleep(std::time::Duration::from_micros(200));
                })
            });
            let ran = ids.into_inner().unwrap().len();
            assert!(ran <= n, "num_threads({n}) ran jobs on {ran} threads");
        }
    }

    #[test]
    fn serial_fallback_outside_install() {
        let v: Vec<usize> = (0..100usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v[99], 198);
    }

    #[test]
    fn panics_propagate() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                (0..64usize).into_par_iter().for_each(|i| {
                    if i == 33 {
                        panic!("boom");
                    }
                });
            })
        }));
        assert!(res.is_err());
    }
}
