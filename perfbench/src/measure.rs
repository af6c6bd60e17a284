//! Host-side measurement helpers: the wall clock, order statistics, peak
//! resident memory, the host-speed calibrator, and the benchmark's own span
//! recorder.
//!
//! Everything here runs on the host, outside any simulation: reading the
//! wall clock never feeds sim state, so it cannot perturb a schedule.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Median of `v` (mean of the middle pair for even lengths). 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank `p`-quantile (`p` in `[0, 1]`) of `v`: the smallest sample
/// with at least `p · n` samples at or below it. Exact, unlike the bucketed
/// `rmr_des::Histogram`. 0 when empty.
pub fn nearest_rank(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p.clamp(0.0, 1.0) * s.len() as f64).ceil() as usize).max(1);
    s[rank - 1]
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pending timers in the calibration kernel's heap.
const CAL_TIMERS: u64 = 1_000;
/// Slots of 64-byte records in the calibration kernel's slab (256 KB).
const CAL_SLOTS: usize = 4_096;
/// Timed kernel steps per chunk: about 35 µs on the reference host.
const CAL_CHUNK_STEPS: usize = 300;

/// A host-speed probe run in small chunks between slices of a simulation.
///
/// The kernel has the shape of a discrete-event loop: pop the earliest of
/// 1 000 pending timers from a binary heap, fill or clear a 64-byte record
/// in a 4 096-slot slab, re-arm the timer. On a shared host the same pass
/// takes anywhere from 2.2 to 4.4 s, in spells of slow passes that last
/// minutes; the chunks, run on the same core in the same moments as the
/// simulation, slow down with it (r = 0.92 per pass on the grid).
///
/// A chunk first reads its whole working set (about 270 KB, which fits in a
/// core's L2), untimed, and then times its steps, which allocate nothing:
/// so its time depends on how fast the host runs it, not on what the
/// simulation left in the caches or the allocator. The kernel is the
/// benchmark's own code, fixed, and calls nothing in the crates under test.
pub struct Calibrator {
    heap: BinaryHeap<(Reverse<u64>, u64)>,
    slab: Vec<[u64; 8]>,
    x: u64,
    /// Start and length of every chunk run so far.
    chunks: Vec<(Instant, f64)>,
}

/// Chunks of calibration that ran in one window of host time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CalWindow {
    pub chunks: usize,
    pub secs: f64,
}

impl CalWindow {
    pub fn add(&mut self, other: CalWindow) {
        self.chunks += other.chunks;
        self.secs += other.secs;
    }

    /// Mean seconds per chunk; 0 with no chunks.
    pub fn per_chunk(&self) -> f64 {
        if self.chunks == 0 {
            0.0
        } else {
            self.secs / self.chunks as f64
        }
    }
}

impl Calibrator {
    pub fn new() -> Self {
        let mut c = Calibrator {
            heap: BinaryHeap::with_capacity(CAL_TIMERS as usize),
            slab: vec![[0; 8]; CAL_SLOTS],
            x: 0x9e37_79b9_7f4a_7c15,
            chunks: Vec::new(),
        };
        for id in 0..CAL_TIMERS {
            let at = c.next() % 1_000;
            c.heap.push((Reverse(at), id));
        }
        c
    }

    /// xorshift64: fixed, so every chunk of every pass does the same work.
    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    /// Runs one chunk of the kernel and logs when it ran and for how long.
    pub fn chunk(&mut self) {
        let warm = self.slab.iter().map(|r| r[0]).fold(0u64, u64::wrapping_add)
            ^ self.heap.iter().map(|e| e.1).fold(0u64, u64::wrapping_add);
        std::hint::black_box(warm);
        let t0 = Instant::now();
        for _ in 0..CAL_CHUNK_STEPS {
            let Some((Reverse(at), id)) = self.heap.pop() else {
                return;
            };
            let slot = (self.next() % CAL_SLOTS as u64) as usize;
            let record = &mut self.slab[slot];
            if record[0] == 0 {
                *record = [at | 1; 8];
            } else {
                std::hint::black_box(*record);
                *record = [0; 8];
            }
            let delay = 1 + self.next() % 100;
            self.heap.push((Reverse(at + delay), id));
        }
        self.chunks.push((t0, t0.elapsed().as_secs_f64()));
    }

    /// The chunks that started in `[from, to)`. Chunks run between slices
    /// of a simulation and the phase boundaries are stamped inside them,
    /// so a chunk is always wholly inside or outside a phase.
    pub fn window(&self, from: Instant, to: Instant) -> CalWindow {
        let mut w = CalWindow::default();
        for &(start, secs) in &self.chunks {
            if start >= from && start < to {
                w.chunks += 1;
                w.secs += secs;
            }
        }
        w
    }
}

/// Handle to a recorded host span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One host-time span recorded by the benchmark around a call into a layer.
#[derive(Debug, Clone)]
pub struct HostSpan {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
}

/// The benchmark's span recorder. Spans carry name, start, end and parent,
/// and every span of one run shares `run_id`. A disabled tracer records
/// nothing, so untraced passes pay only a branch.
pub struct Tracer {
    on: bool,
    run_id: u64,
    origin: Instant,
    spans: Vec<HostSpan>,
}

impl Tracer {
    pub fn new(on: bool, run_id: u64) -> Self {
        Tracer {
            on,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<SpanId>) -> Option<SpanId> {
        let now = Instant::now();
        self.add(name, now, now, parent)
    }

    /// Ends `id` now.
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(SpanId(i)) = id {
            self.spans[i].end_ns = self.ns(Instant::now());
        }
    }

    /// Records a span whose bounds were taken elsewhere (inside a top-level
    /// sim task, where the tracer itself cannot be borrowed).
    pub fn add(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        self.spans.push(HostSpan {
            name: name.into(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        });
        Some(SpanId(self.spans.len() - 1))
    }

    /// Depth of span `i` below its root (a root has depth 0).
    fn depth(&self, i: usize) -> usize {
        let mut d = 0;
        let mut cur = self.spans[i].parent;
        while let Some(SpanId(p)) = cur {
            d += 1;
            cur = self.spans[p].parent;
        }
        d
    }

    /// Chrome trace-event rows for the recorded spans on process `pid`, one
    /// thread per nesting depth so nested spans never overlap on a track.
    /// Times are whole microseconds, so a span ending where its successor
    /// starts never reads as overlapping it.
    pub fn chrome_rows(&self, pid: u64) -> Vec<String> {
        let mut rows = vec![format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"perfbench host (wall clock)\"}}}}"
        )];
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |SpanId(p)| p as i64);
            rows.push(format!(
                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"dur\":{},\"name\":{},\
                 \"cat\":\"perfbench\",\"args\":{{\"run_id\":{},\"span\":{i},\"parent\":{parent}}}}}",
                self.depth(i),
                s.start_ns / 1_000,
                s.end_ns / 1_000 - s.start_ns / 1_000,
                json_str(&s.name),
                self.run_id,
            ));
        }
        rows
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn spans_nest_on_separate_tracks() {
        let mut t = Tracer::new(true, 9);
        let root = t.open("root", None);
        let child = t.open("child", root);
        t.close(child);
        t.close(root);
        let rows = t.chrome_rows(5000);
        assert_eq!(rows.len(), 3);
        assert!(rows[1].contains("\"tid\":0") && rows[2].contains("\"tid\":1"));
        assert!(rows[2].contains("\"parent\":0") && rows[2].contains("\"run_id\":9"));
        assert!(Tracer::new(false, 1).open("x", None).is_none());
    }
}
