//! Lock-free counters and gauges for the self-observability registry.
//!
//! [`Counter`] shards its value across cache-line-padded atomics indexed
//! by a per-thread shard id, so concurrent increments from query worker
//! threads never contend on one cache line. Reads sum the shards: they
//! are monotone but not linearizable with respect to in-flight
//! increments, which is the usual contract for monitoring counters.
//! Increments are release and reads acquire, so snapshots that read
//! counters in effect-before-cause order preserve cross-counter
//! invariants (see [`LogObs::snapshot`](super::LogObs)).
//!
//! With the `self-obs` feature disabled every mutating method compiles to
//! an empty body, so instrumented call sites cost nothing.

use crate::sync::atomic::{AtomicU64, Ordering};

/// Number of shards per counter; threads hash onto shards round-robin.
const SHARDS: usize = 8;

/// One cache line per shard so concurrent increments do not false-share.
#[repr(align(64))]
#[derive(Default)]
struct Shard(AtomicU64);

/// A sharded, monotonically increasing event counter.
pub struct Counter {
    shards: [Shard; SHARDS],
}

impl Default for Counter {
    fn default() -> Self {
        Counter {
            shards: std::array::from_fn(|_| Shard::default()),
        }
    }
}

impl Counter {
    /// Adds `n` to the counter (never blocks).
    ///
    /// Release ordering so that a reader who observes this increment via
    /// [`get`](Counter::get) also observes every write sequenced before
    /// it — that is what lets snapshots preserve cross-counter
    /// invariants like `flushes <= flushes_enqueued` by reading the
    /// effect-side counter first. On x86 this compiles to the same
    /// `lock xadd` a relaxed increment would.
    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(feature = "self-obs")]
        self.shards[shard_of_thread()]
            .0
            .fetch_add(n, Ordering::Release);
        #[cfg(not(feature = "self-obs"))]
        let _ = n;
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value: the sum of all shards (acquire, pairing with the
    /// release increments in [`add`](Counter::add)).
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Acquire))
            .sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// A value that moves both ways (e.g., a queue depth). Gauges are updated
/// by at most a couple of threads, so they are a single atomic.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Increments the gauge.
    #[inline]
    pub fn inc(&self) {
        #[cfg(feature = "self-obs")]
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements the gauge. Callers must pair every `dec` with a prior
    /// `inc`; the gauge does not defend against underflow.
    #[inline]
    pub fn dec(&self) {
        #[cfg(feature = "self-obs")]
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Sets the gauge (for gauges that track a size rather than count
    /// events).
    #[inline]
    pub fn set(&self, v: u64) {
        #[cfg(feature = "self-obs")]
        self.0.store(v, Ordering::Relaxed);
        #[cfg(not(feature = "self-obs"))]
        let _ = v;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Stable per-thread shard index: threads pick shards round-robin on
/// first use, spreading writers evenly without a hash of the thread id.
#[cfg(feature = "self-obs")]
fn shard_of_thread() -> usize {
    use crate::sync::atomic::AtomicUsize;
    use std::cell::Cell;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SHARD.with(|s| {
        let mut v = s.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
            s.set(v);
        }
        v
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_across_threads() {
        let c = std::sync::Arc::new(Counter::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        c.add(5);
        if cfg!(feature = "self-obs") {
            assert_eq!(c.get(), 4_005);
        } else {
            assert_eq!(c.get(), 0, "compiled-out counters must stay zero");
        }
    }

    #[test]
    fn gauge_tracks_in_flight() {
        let g = Gauge::default();
        g.inc();
        g.inc();
        g.dec();
        if cfg!(feature = "self-obs") {
            assert_eq!(g.get(), 1);
        } else {
            assert_eq!(g.get(), 0);
        }
    }
}
