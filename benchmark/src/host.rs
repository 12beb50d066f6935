//! What the benchmark does about the host it runs on: a 2-vCPU virtual
//! machine whose scheduler placement and lazily backed memory would
//! otherwise decide the numbers.
//!
//! **CPU placement.** A wake-up that crosses vCPUs costs about 40 µs
//! here and one that stays on a vCPU about 5 µs, and the kernel's
//! placement of the engine's flusher threads relative to the writer
//! flips from run to run: unpinned, the library ack path measures 23 µs
//! or 105 µs and the socket path 360 k or 580 k rec/s, bimodally. So
//! placement is fixed:
//!
//! * the **engine** CPUs are all allowed CPUs but the last. The main
//!   thread pins itself there before it opens an engine, and threads
//!   inherit their creator's mask, so the writer, the flushers, the
//!   server's accept loop and its connection handlers all stay there;
//! * the **load** CPU is the last allowed CPU: socket clients pin
//!   themselves to it, which keeps the load generator off the system
//!   under test. Queries run where they would run in a daemon: on the
//!   engine CPUs, also beside ingest in `ingest_query_mix`.
//!
//! With one allowed CPU both sets are that CPU. The masks are recorded
//! with every run.
//!
//! **Page cache.** The guest's free memory is handed back to the host
//! (balloon free-page reporting) and faulted in again on first touch, so
//! a buffered write into pages the guest has not used for a few seconds
//! runs at 0.3 GB/s instead of 3 GB/s. A library stream writes 60 MB in
//! 130 ms, so whether its pages were warm doubled its time, run by run.
//! [`quiesce`] therefore writes and deletes a scratch file right before
//! each timed stream: the freed pages are the next ones the kernel hands
//! out.

use std::sync::OnceLock;

/// Words of a CPU mask: room for 1024 CPUs, the kernel's default
/// `CPU_SETSIZE`.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sync();
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Waits until the kernel has written out every dirty page, so that the
/// write-back of what one phase wrote does not land on the next phase's
/// timing.
pub fn settle_disk() {
    // SAFETY: `sync(2)` takes no arguments and cannot fail.
    unsafe { sync() }
}

/// MiB written by the page-cache warm-up: what one session writes (the
/// 60 MB record log, the index logs, and on the cold tier as much again
/// in segments) with room to spare.
const WARM_MIB: usize = 160;

/// Brings the host to the same state before every unit of work that
/// writes tens of megabytes (a set-up, the `lib_ingest` reps):
/// [`settle_disk`], then warm the page cache (see the module text) with
/// a scratch file under `dir`.
pub fn quiesce(dir: &std::path::Path) {
    use std::io::Write;
    settle_disk();
    let path = dir.join("warm.tmp");
    if let Ok(mut file) = std::fs::File::create(&path) {
        let block = vec![0x5Au8; 8 << 20];
        for _ in 0..WARM_MIB / 8 {
            // Best effort: a short warm-up only makes the next stream
            // slower, it cannot make it wrong.
            if file.write_all(&block).is_err() {
                break;
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// The CPUs this process was allowed at start, ascending.
fn allowed() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the byte
        // length passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..MASK_WORDS * 64)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    })
}

/// The two roles a thread of the benchmark can have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The system under test: whoever opens, writes to, or serves the
    /// engine.
    Engine,
    /// The load generator of the socket workloads.
    Load,
}

/// How many CPUs the process was allowed at start. (Once the main
/// thread is pinned, `std::thread::available_parallelism` reports the
/// size of its mask instead.)
pub fn allowed_cpus() -> usize {
    allowed().len()
}

/// The CPUs of a role (empty when the affinity mask cannot be read).
pub fn cpus(role: Role) -> &'static [usize] {
    let all = allowed();
    match (role, all.len()) {
        (_, 0 | 1) => all,
        (Role::Engine, n) => &all[..n - 1],
        (Role::Load, n) => &all[n - 1..],
    }
}

/// Pins the calling thread (and every thread it spawns from now on) to
/// the CPUs of `role`. Returns whether the kernel accepted the mask.
pub fn pin_current(role: Role) -> bool {
    let cpus = cpus(role);
    if cpus.is_empty() {
        return false;
    }
    let mut mask = [0u64; MASK_WORDS];
    for cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the byte length passed;
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_partition_the_allowed_cpus() {
        let all = allowed();
        assert!(!all.is_empty(), "the affinity mask is readable on Linux");
        let (engine, load) = (cpus(Role::Engine), cpus(Role::Load));
        if all.len() == 1 {
            assert_eq!((engine, load), (all, all));
        } else {
            assert_eq!(load, &all[all.len() - 1..]);
            assert_eq!([engine, load].concat(), all);
        }
    }

    #[test]
    fn pinning_is_inherited_by_spawned_threads() {
        std::thread::spawn(|| {
            assert!(pin_current(Role::Load));
            let inherited = std::thread::spawn(|| {
                let mut mask = [0u64; MASK_WORDS];
                // SAFETY: as in `allowed`.
                let rc = unsafe {
                    sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr())
                };
                assert_eq!(rc, 0);
                mask.iter().map(|w| w.count_ones()).sum::<u32>()
            })
            .join()
            .unwrap();
            assert_eq!(
                inherited, 1,
                "a thread spawned after pinning has the one load CPU"
            );
        })
        .join()
        .unwrap();
    }
}
