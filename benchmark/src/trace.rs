//! Harness-side spans. A span wraps one call the harness makes into a
//! layer's public functions; spans of one operation (a rep, a batch, a
//! query) share an op id and point at the span that caused them. Spans
//! live in a preallocated `Vec` and are written out only after the run.
//! Every thread of a workload owns its own `Tracer`; the buffers are
//! concatenated at the end (a span's `parent` indexes its own buffer,
//! so `merge` rebases it).

use std::io::Write;
use std::time::Instant;

/// "No parent": the span is the root of its operation.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer measuring from `epoch`; when `enabled` is false, `begin`
    /// and `end` record nothing.
    pub fn new(enabled: bool, epoch: Instant, capacity: usize) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off. Traced runs alternate it between
    /// units of work, so one run yields both sides of the tracing
    /// overhead.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span and returns its id for [`Tracer::end`] and for
    /// children to name as their parent.
    pub fn begin(&mut self, name: &'static str, op: u64, parent: u32) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: now,
            end_ns: now,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, id: u32) {
        if self.enabled && id != ROOT {
            self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span and returns its result with the elapsed
    /// nanoseconds. The time is measured whether or not tracing is on,
    /// so the same call yields the untraced end-to-end sample.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.begin(name, op, parent);
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.end(id);
        (out, ns)
    }

    /// Appends another thread's spans, rebasing their parent indexes.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if a < b {
                children[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per span name: `(name, count, total_ns, self_ns)`, sorted by name.
pub fn summarize(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut by_name = std::collections::BTreeMap::<&'static str, (u64, u64, u64)>::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += self_ns;
    }
    by_name
        .into_iter()
        .map(|(n, (c, t, s))| (n, c, t, s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(ROOT, 0, 100),
            span(0, 10, 30),
            // Overlaps the previous child: [20, 50) adds only 20 more.
            span(0, 20, 50),
            // Sticks out past the parent: clipped to [90, 100).
            span(0, 90, 120),
            // A grandchild takes from its parent, not from the root.
            span(1, 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 30, 6]);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false, Instant::now(), 8);
        let (v, ns) = t.timed("x", 1, ROOT, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(v, 7);
        assert!(ns >= 2_000_000);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch, 8);
        let r = a.begin("a", 1, ROOT);
        a.end(r);
        let mut b = Tracer::new(true, epoch, 8);
        let r = b.begin("b", 2, ROOT);
        let c = b.begin("b.child", 2, r);
        b.end(c);
        b.end(r);
        a.merge(b);
        assert_eq!(a.spans()[2].parent, 1);
        assert_eq!(a.spans()[1].parent, ROOT);
    }
}
