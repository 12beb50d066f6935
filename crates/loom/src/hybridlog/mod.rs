//! Hybrid log abstraction: append-only logs spanning memory and storage.

mod block;
mod log;

pub use block::Block;
pub use log::{
    create, create_with, create_with_obs, open_existing_with, open_existing_with_obs, LogOptions,
    LogShared, Snapshot, Writer,
};

use crate::error::Result;

/// Read access to a (possibly snapshotted) hybrid log.
///
/// Implemented by both the live [`LogShared`] and a point-in-time
/// [`Snapshot`], so index search and scan code is agnostic to which view
/// it runs over.
pub trait LogRead {
    /// Reads `dst.len()` bytes starting at logical address `addr`.
    fn read_at(&self, addr: u64, dst: &mut [u8]) -> Result<()>;

    /// Exclusive upper bound of readable addresses in this view.
    fn limit(&self) -> u64;
}

impl LogRead for LogShared {
    fn read_at(&self, addr: u64, dst: &mut [u8]) -> Result<()> {
        LogShared::read_at(self, addr, dst)
    }

    fn limit(&self) -> u64 {
        self.watermark()
    }
}

impl LogRead for Snapshot<'_> {
    fn read_at(&self, addr: u64, dst: &mut [u8]) -> Result<()> {
        Snapshot::read_at(self, addr, dst)
    }

    fn limit(&self) -> u64 {
        self.watermark()
    }
}

/// A log image read into memory whole (reopen loads, tests).
impl LogRead for Vec<u8> {
    fn read_at(&self, addr: u64, dst: &mut [u8]) -> Result<()> {
        let end = addr as usize + dst.len();
        if end > self.len() {
            return Err(crate::error::LoomError::AddressOutOfBounds {
                addr: end as u64,
                tail: self.len() as u64,
            });
        }
        dst.copy_from_slice(&self[addr as usize..end]);
        Ok(())
    }

    fn limit(&self) -> u64 {
        self.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("loom-hlog-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn append_and_read_within_one_block() {
        let d = tmpdir("one-block");
        let mut w = create(&d.join("log"), 4096).unwrap();
        let a = w.append(b"hello").unwrap();
        let b = w.append(b"world").unwrap();
        w.publish();
        assert_eq!(a, 0);
        assert_eq!(b, 5);
        let mut buf = [0u8; 5];
        w.shared().read_at(a, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        w.shared().read_at(b, &mut buf).unwrap();
        assert_eq!(&buf, b"world");
    }

    #[test]
    fn unpublished_bytes_are_not_readable() {
        let d = tmpdir("unpublished");
        let mut w = create(&d.join("log"), 4096).unwrap();
        let a = w.append(b"secret").unwrap();
        let mut buf = [0u8; 6];
        assert!(w.shared().read_at(a, &mut buf).is_err());
        w.publish();
        assert!(w.shared().read_at(a, &mut buf).is_ok());
    }

    #[test]
    fn appends_spanning_many_blocks_round_trip() {
        let d = tmpdir("span");
        let mut w = create(&d.join("log"), 256).unwrap();
        let mut addrs = Vec::new();
        let mut payloads = Vec::new();
        for i in 0..200u32 {
            // Varying sizes, some larger than a block.
            let len = 1 + ((i as usize * 37) % 400);
            let payload = vec![(i % 251) as u8; len];
            addrs.push(w.append(&payload).unwrap());
            payloads.push(payload);
        }
        w.publish();
        for (addr, payload) in addrs.iter().zip(&payloads) {
            let mut buf = vec![0u8; payload.len()];
            w.shared().read_at(*addr, &mut buf).unwrap();
            assert_eq!(&buf, payload);
        }
    }

    #[test]
    fn flush_makes_data_durable() {
        let d = tmpdir("durable");
        let path = d.join("log");
        let mut w = create(&path, 4096).unwrap();
        w.append(b"persist me").unwrap();
        w.publish();
        w.flush().unwrap();
        assert!(w.shared().flushed_upto() >= 10);
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(&on_disk[..10], b"persist me");
    }

    #[test]
    fn drop_flushes_tail() {
        let d = tmpdir("drop-flush");
        let path = d.join("log");
        {
            let mut w = create(&path, 4096).unwrap();
            w.append(b"tail data").unwrap();
            w.publish();
        }
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(&on_disk[..9], b"tail data");
    }

    #[test]
    fn snapshot_is_stable_under_later_appends() {
        let d = tmpdir("snapshot");
        let mut w = create(&d.join("log"), 4096).unwrap();
        let a = w.append(b"before").unwrap();
        w.publish();
        let shared = Arc::clone(w.shared());
        let snap = shared.snapshot().unwrap();
        assert_eq!(snap.watermark(), 6);

        w.append(b"after").unwrap();
        w.publish();

        let mut buf = [0u8; 6];
        snap.read_at(a, &mut buf).unwrap();
        assert_eq!(&buf, b"before");
        // The snapshot must refuse to read beyond its watermark.
        let mut buf2 = [0u8; 5];
        assert!(snap.read_at(6, &mut buf2).is_err());
    }

    #[test]
    fn snapshot_straddling_durable_boundary_reads_correctly() {
        let d = tmpdir("straddle");
        let mut w = create(&d.join("log"), 4096).unwrap();
        w.append(b"0123456789").unwrap();
        w.publish();
        w.flush().unwrap();
        w.append(b"abcdefghij").unwrap();
        w.publish();
        let shared = Arc::clone(w.shared());
        let snap = shared.snapshot().unwrap();
        // Read a range straddling the durable/in-memory boundary.
        let mut buf = [0u8; 10];
        snap.read_at(5, &mut buf).unwrap();
        assert_eq!(&buf, b"56789abcde");
        // Fully durable range.
        let mut buf = [0u8; 4];
        snap.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"0123");
    }

    #[test]
    fn reads_fall_back_to_disk_after_block_recycle() {
        let d = tmpdir("recycle");
        let mut w = create(&d.join("log"), 128).unwrap();
        // Write enough to cycle through both blocks several times.
        let mut addrs = Vec::new();
        for i in 0..32u8 {
            addrs.push(w.append(&[i; 32]).unwrap());
        }
        w.publish();
        // Early addresses are only on disk now.
        let mut buf = [0u8; 32];
        w.shared().read_at(addrs[0], &mut buf).unwrap();
        assert_eq!(buf, [0u8; 32]);
        w.shared().read_at(addrs[31], &mut buf).unwrap();
        assert_eq!(buf, [31u8; 32]);
    }

    #[test]
    fn concurrent_reader_sees_consistent_prefix() {
        // A reader continuously validates that every published byte matches
        // the deterministic pattern the writer appends.
        let d = tmpdir("concurrent");
        let mut w = create(&d.join("log"), 512).unwrap();
        let shared = Arc::clone(w.shared());
        let stop = Arc::new(AtomicBool::new(false));
        let stop_r = Arc::clone(&stop);

        let reader = std::thread::spawn(move || {
            let mut checked = 0u64;
            while !stop_r.load(Ordering::Relaxed) {
                let wm = shared.watermark();
                if wm == 0 {
                    continue;
                }
                // Read a random-ish published range and validate pattern:
                // byte at address a is (a % 251) as u8.
                let start = checked % wm;
                let len = ((wm - start) as usize).min(300);
                let mut buf = vec![0u8; len];
                shared.read_at(start, &mut buf).unwrap();
                for (i, b) in buf.iter().enumerate() {
                    let addr = start + i as u64;
                    assert_eq!(*b, (addr % 251) as u8, "mismatch at {addr}");
                }
                checked += 7;
            }
        });

        let mut addr = 0u64;
        for _ in 0..2000 {
            let len = 1 + (addr as usize % 97);
            let data: Vec<u8> = (0..len).map(|i| ((addr + i as u64) % 251) as u8).collect();
            w.append(&data).unwrap();
            addr += len as u64;
            w.publish();
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
    }

    #[test]
    fn tail_and_watermark_track_appends() {
        let d = tmpdir("tail");
        let mut w = create(&d.join("log"), 4096).unwrap();
        assert_eq!(w.tail(), 0);
        w.append(&[0u8; 100]).unwrap();
        assert_eq!(w.tail(), 100);
        assert_eq!(w.shared().watermark(), 0);
        w.publish();
        assert_eq!(w.shared().watermark(), 100);
        assert_eq!(w.shared().tail(), 100);
    }

    #[test]
    fn reopen_resumes_appends_at_recovered_tail() {
        let d = tmpdir("reopen");
        let path = d.join("log");
        {
            let mut w = create(&path, 256).unwrap();
            // 600 bytes: spans two sealed blocks plus a partial third.
            for i in 0..6u8 {
                w.append(&[i; 100]).unwrap();
            }
            w.publish();
            w.flush().unwrap();
        }
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 600);
        let mut w = super::log::open_existing_with_obs(
            &path,
            256,
            600,
            Arc::new(crate::obs::LogObs::default()),
        )
        .unwrap();
        assert_eq!(w.tail(), 600);
        // Old bytes are readable immediately.
        let mut buf = [0u8; 100];
        w.shared().read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 100]);
        w.shared().read_at(500, &mut buf).unwrap();
        assert_eq!(buf, [5u8; 100]);
        // New appends continue at the recovered tail and round-trip,
        // including across the next block seal.
        let a = w.append(&[7u8; 200]).unwrap();
        assert_eq!(a, 600);
        w.publish();
        let mut buf = [0u8; 200];
        w.shared().read_at(a, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 200]);
        // Straddling read across the reopen boundary.
        let mut buf = [0u8; 150];
        w.shared().read_at(550, &mut buf).unwrap();
        assert_eq!(&buf[..50], &[5u8; 50][..]);
        assert_eq!(&buf[50..], &[7u8; 100][..]);
    }

    #[test]
    fn reopen_truncates_bytes_past_the_recovered_tail() {
        let d = tmpdir("reopen-trunc");
        let path = d.join("log");
        {
            let mut w = create(&path, 256).unwrap();
            w.append(&[1u8; 300]).unwrap();
            w.publish();
            w.flush().unwrap();
        }
        // Recovery decided only 120 bytes are good.
        let w = super::log::open_existing_with_obs(
            &path,
            256,
            120,
            Arc::new(crate::obs::LogObs::default()),
        )
        .unwrap();
        drop(w);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 120);
    }

    #[test]
    fn reopen_rejects_tail_beyond_file() {
        let d = tmpdir("reopen-short");
        let path = d.join("log");
        std::fs::write(&path, [0u8; 64]).unwrap();
        assert!(super::log::open_existing_with_obs(
            &path,
            256,
            100,
            Arc::new(crate::obs::LogObs::default()),
        )
        .is_err());
    }

    #[test]
    fn simulate_crash_skips_the_final_flush() {
        let d = tmpdir("crash");
        let path = d.join("log");
        let mut w = create(&path, 4096).unwrap();
        w.append(b"flushed part").unwrap();
        w.publish();
        w.flush().unwrap();
        w.append(b" never flushed").unwrap();
        w.publish();
        w.simulate_crash();
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk.len(), 12, "unflushed tail must not reach disk");
        assert_eq!(&on_disk, b"flushed part");
    }

    #[test]
    fn wait_flushed_completes() {
        let d = tmpdir("waitflush");
        let mut w = create(&d.join("log"), 64).unwrap();
        for i in 0..16u8 {
            w.append(&[i; 32]).unwrap();
        }
        w.publish();
        // 512 bytes written with 64-byte blocks: at least 448 must flush
        // for the writer to have progressed this far.
        w.shared().wait_flushed(448).unwrap();
        assert!(w.shared().flushed_upto() >= 448);
    }
}
