//! Open-loop pacing: operations are due on a fixed schedule whether or
//! not earlier ones have completed. Each operation's latency is charged
//! from the instant it was *due*, so the wait a stall imposes on later
//! operations is counted, and how late the generator itself ran is
//! reported separately.

use std::time::{Duration, Instant};

/// An open-loop batch sent later than this after it was due is counted
/// as late (`harness.late_batches`). With one connection a batch cannot
/// leave before the previous ack, so a stall of the system makes the
/// generator late; the wait is charged to the late batches' latency
/// either way. A late batch is not a failed one: on a shared 2-core
/// host a rare 10 ms stall would otherwise fail whole runs.
pub const LATE_LIMIT_NS: u64 = 10_000_000;

/// A fixed-interval schedule measured in ns from its start.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub interval_ns: u64,
}

/// One accounted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Charged {
    /// Completion minus due time: what a user on the schedule waited.
    pub latency_ns: u64,
    /// Send minus due time: how late the generator ran.
    pub late_ns: u64,
}

impl Schedule {
    /// A schedule of `per_second` operations per second.
    pub fn per_second(per_second: u64) -> Schedule {
        Schedule {
            interval_ns: 1_000_000_000 / per_second,
        }
    }

    /// When operation `k` is due, ns from the start of the schedule.
    pub fn due_ns(&self, k: u64) -> u64 {
        k * self.interval_ns
    }

    /// Operations due in `seconds` seconds.
    pub fn ops_in(&self, seconds: f64) -> u64 {
        ((seconds * 1e9) as u64 / self.interval_ns).max(1)
    }

    /// Accounts operation `k`, sent at `sent_ns` and completed at
    /// `done_ns` (both ns from the start of the schedule).
    pub fn charge(&self, k: u64, sent_ns: u64, done_ns: u64) -> Charged {
        let due = self.due_ns(k);
        Charged {
            latency_ns: done_ns.saturating_sub(due),
            late_ns: sent_ns.saturating_sub(due),
        }
    }

    /// Sleeps until operation `k` is due (returns at once when it is
    /// overdue) and returns the current time, ns from `start`. Sleeping
    /// rather than spinning leaves the core to the system under test, on
    /// a host with as many cores as load threads.
    pub fn wait_until_due(&self, start: Instant, k: u64) -> u64 {
        let due = Duration::from_nanos(self.due_ns(k));
        let now = start.elapsed();
        if now < due {
            std::thread::sleep(due - now);
        }
        start.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_charged_from_the_due_time() {
        let s = Schedule::per_second(1_000);
        assert_eq!(s.interval_ns, 1_000_000);
        // Sent on time, took 300 µs.
        assert_eq!(
            s.charge(3, 3_000_000, 3_300_000),
            Charged {
                latency_ns: 300_000,
                late_ns: 0
            }
        );
        // A stall made op 4 start 2.5 ms late: its own 300 µs of service
        // is charged as 2.8 ms, and the lateness is counted.
        assert_eq!(
            s.charge(4, 6_500_000, 6_800_000),
            Charged {
                latency_ns: 2_800_000,
                late_ns: 2_500_000
            }
        );
        // Sent early (clock skew) never goes negative.
        assert_eq!(s.charge(5, 4_999_000, 5_100_000).late_ns, 0);
    }

    #[test]
    fn schedule_counts_the_ops_due_in_a_period() {
        let s = Schedule::per_second(600);
        assert_eq!(s.ops_in(5.0), 3_000);
        assert_eq!(s.ops_in(0.0), 1);
    }

    #[test]
    fn waiting_returns_at_once_when_overdue() {
        let s = Schedule::per_second(1_000_000);
        let start = Instant::now() - Duration::from_millis(50);
        let now = s.wait_until_due(start, 1);
        assert!(now >= 50_000_000);
        assert!(s.charge(1, now, now).late_ns >= 49_000_000);
    }
}
