//! Latency samples, nearest-rank percentiles and per-slice statistics.
//!
//! A measured window is cut into equal slices. Rate and latency are
//! computed per slice and the *median slice* is reported, which damps a
//! neighbour's burst on a shared box (and any stall that touches fewer
//! than half the slices); whole-window figures, which see every stall,
//! are kept beside them for the per-layer section.

/// Nearest-rank percentile of an ascending slice: the value at 1-based
/// rank `ceil(q * n)`. Panics on an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// `true` when at least ten samples lie beyond the `q` percentile's
/// rank, the least a reported percentile must rest on.
pub fn supported(n: usize, q: f64) -> bool {
    if n == 0 {
        return false;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    n - rank >= 10
}

/// Median of unordered values (mean of the middle two for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Completed operations of one measured window, bucketed by the slice
/// in which each completed. Every completed op is counted; latency is
/// kept only for the ops the caller chose to time.
#[derive(Debug, Clone)]
pub struct Recorder {
    slice_ns: u64,
    counts: Vec<u64>,
    latencies: Vec<Vec<u64>>,
}

/// What a [`Recorder`] reports for one op class. Times are µs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Ops completed in the window.
    pub ops: u64,
    /// Timed ops (latency samples).
    pub samples: u64,
    /// Median over slices of ops per second.
    pub ops_s: f64,
    /// Median over slices of the slice p50 (slices with no sample are
    /// left out).
    pub p50_us: f64,
    /// Median over slices of the slice p99; slices whose p99 has fewer
    /// than ten samples beyond it are left out (0 when all are).
    pub p99_us: f64,
    /// Whole-window ops per second.
    pub window_ops_s: f64,
    /// Whole-window p50.
    pub window_p50_us: f64,
    /// Whole-window p99, or the highest of p90 and p50 that has ten
    /// samples beyond it, or the slowest op when none has.
    pub window_p99_us: f64,
    /// Slowest timed op.
    pub max_us: f64,
}

impl Recorder {
    /// A recorder for a window of `slices` slices of `slice_ns` each.
    pub fn new(slice_ns: u64, slices: usize) -> Recorder {
        assert!(slice_ns > 0 && slices > 0);
        Recorder {
            slice_ns,
            counts: vec![0; slices],
            latencies: vec![Vec::new(); slices],
        }
    }

    fn slice_of(&self, end_ns: u64) -> usize {
        // An op in flight when the window closes belongs to the last
        // slice: dropping it would hide exactly the stalls this measures.
        ((end_ns / self.slice_ns) as usize).min(self.counts.len() - 1)
    }

    /// Counts an op that completed `end_ns` after the window opened.
    pub fn op(&mut self, end_ns: u64) {
        let s = self.slice_of(end_ns);
        self.counts[s] += 1;
    }

    /// Counts an op and keeps its latency.
    pub fn timed(&mut self, end_ns: u64, latency_ns: u64) {
        let s = self.slice_of(end_ns);
        self.counts[s] += 1;
        self.latencies[s].push(latency_ns);
    }

    /// Folds another thread's recorder of the same window into this one.
    pub fn absorb(&mut self, other: Recorder) {
        assert_eq!(self.slice_ns, other.slice_ns);
        assert_eq!(self.counts.len(), other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(other.counts) {
            *a += b;
        }
        for (a, b) in self.latencies.iter_mut().zip(other.latencies) {
            a.extend(b);
        }
    }

    /// Whole p50, µs, of the latencies kept in `slices` (0 when none):
    /// lets a traced run compare its untraced and traced halves.
    pub fn p50_us_of(&self, slices: std::ops::Range<usize>) -> f64 {
        let mut part: Vec<u64> = self.latencies[slices].iter().flatten().copied().collect();
        if part.is_empty() {
            return 0.0;
        }
        part.sort_unstable();
        percentile(&part, 0.50) as f64 / 1e3
    }

    /// Number of slices.
    pub fn slices(&self) -> usize {
        self.counts.len()
    }

    /// Every kept latency, slice by slice: completion order when one
    /// thread did the recording.
    pub fn latencies_by_slice(&self) -> Vec<u64> {
        self.latencies.iter().flatten().copied().collect()
    }

    /// Every kept latency, ascending.
    pub fn sorted_latencies(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.latencies.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    /// Per-slice and whole-window figures. All zero when nothing was
    /// timed.
    pub fn summary(&self) -> Summary {
        self.summary_outside(&[])
    }

    /// As [`summary`](Recorder::summary), but the per-slice medians leave
    /// out every slice that overlaps one of the `busy` intervals (ns since
    /// the window opened), unless that leaves none. The whole-window
    /// figures still see everything.
    pub fn summary_outside(&self, busy: &[(u64, u64)]) -> Summary {
        let overlaps = |slice: usize| {
            let (from, to) = (
                slice as u64 * self.slice_ns,
                (slice as u64 + 1) * self.slice_ns,
            );
            busy.iter().any(|&(a, b)| a < to && b > from)
        };
        let mut kept: Vec<usize> = (0..self.counts.len()).filter(|&s| !overlaps(s)).collect();
        if kept.is_empty() {
            kept = (0..self.counts.len()).collect();
        }
        let slice_s = self.slice_ns as f64 / 1e9;
        let us = |ns: u64| ns as f64 / 1e3;
        let ops: u64 = self.counts.iter().sum();
        let all = self.sorted_latencies();
        if all.is_empty() {
            return Summary {
                ops,
                ..Summary::default()
            };
        }
        let rates: Vec<f64> = kept
            .iter()
            .map(|&s| self.counts[s] as f64 / slice_s)
            .collect();
        let mut p50s = Vec::new();
        let mut p99s = Vec::new();
        for slice in kept.iter().map(|&s| &self.latencies[s]) {
            if slice.is_empty() {
                continue;
            }
            let mut s = slice.clone();
            s.sort_unstable();
            p50s.push(us(percentile(&s, 0.50)));
            if supported(s.len(), 0.99) {
                p99s.push(us(percentile(&s, 0.99)));
            }
        }
        let window_tail = [0.99, 0.9, 0.5]
            .into_iter()
            .find(|&q| supported(all.len(), q))
            .map_or(all[all.len() - 1], |q| percentile(&all, q));
        Summary {
            ops,
            samples: all.len() as u64,
            ops_s: median(&rates).unwrap_or(0.0),
            p50_us: median(&p50s).unwrap_or(0.0),
            p99_us: median(&p99s).unwrap_or(0.0),
            window_ops_s: ops as f64 / (slice_s * self.counts.len() as f64),
            window_p50_us: us(percentile(&all, 0.50)),
            window_p99_us: us(window_tail),
            max_us: us(all[all.len() - 1]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        // ceil(0.5 * 5) = 3rd value.
        assert_eq!(percentile(&[1, 2, 3, 4, 5], 0.5), 3);
        // ceil(0.9 * 11) = 10th value.
        let w: Vec<u64> = (0..11).collect();
        assert_eq!(percentile(&w, 0.9), 9);
    }

    #[test]
    fn ten_beyond_rule() {
        // p99 of 1000 samples sits at rank 990: exactly ten beyond.
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        // p50 needs twenty samples.
        assert!(supported(20, 0.5));
        assert!(!supported(19, 0.5));
        assert!(!supported(0, 0.5));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn a_stalled_slice_moves_the_window_figures_not_the_slice_medians() {
        // Four slices of 1 s; the second is a stall: few ops, slow.
        let mut r = Recorder::new(1_000_000_000, 4);
        for slice in [0u64, 2, 3] {
            for i in 0..2000u64 {
                r.timed(slice * 1_000_000_000 + i * 400_000, 100_000 + slice * 1_000);
            }
        }
        for i in 0..70u64 {
            r.timed(1_000_000_000 + i * 14_000_000, 40_000_000);
        }
        let s = r.summary();
        assert_eq!(s.ops, 6070);
        assert_eq!(s.samples, 6070);
        // Slice rates: 2000, 70, 2000, 2000.
        assert_eq!(s.ops_s, 2000.0);
        assert_eq!(s.window_ops_s, 1517.5);
        // Slice p50s: 100, 40 000, 102, 103 µs.
        assert_eq!(s.p50_us, 102.5);
        assert_eq!(s.window_p50_us, 102.0);
        // Only the three busy slices support a p99.
        assert_eq!(s.p99_us, 102.0);
        // 70 of 6070 ops is more than 1%: the window p99 sees the stall.
        assert_eq!(s.window_p99_us, 40_000.0);
        assert_eq!(s.max_us, 40_000.0);
    }

    #[test]
    fn busy_slices_are_left_out_of_the_slice_medians_only() {
        // Five slices of 1 ms; slices 1 and 2 are slow, and a busy
        // interval covers the end of slice 1 and the start of slice 2.
        let mut r = Recorder::new(1_000_000, 5);
        for slice in 0..5u64 {
            let (ops, latency) = if slice == 1 || slice == 2 {
                (10, 90_000)
            } else {
                (100 + slice, 9_000 + slice)
            };
            for i in 0..ops {
                r.timed(slice * 1_000_000 + i, latency);
            }
        }
        let all = r.summary();
        let clean = r.summary_outside(&[(1_900_000, 2_100_000)]);
        // Rates: 100k, 10k, 10k, 103k, 104k a second.
        assert_eq!(all.ops_s, 100_000.0);
        assert_eq!(clean.ops_s, 103_000.0);
        assert_eq!(clean.p50_us, 9.003);
        assert_eq!(clean.window_ops_s, all.window_ops_s);
        assert_eq!(clean.max_us, 90.0);
        // An interval that only touches a slice's edge does not overlap it.
        let edge = r.summary_outside(&[(1_000_000, 3_000_000)]);
        assert_eq!(edge.ops_s, 103_000.0);
        // Everything busy: nothing is left out.
        let none = r.summary_outside(&[(0, 5_000_000)]);
        assert_eq!(none.ops_s, all.ops_s);
    }

    #[test]
    fn late_completions_land_in_the_last_slice() {
        let mut r = Recorder::new(1_000, 2);
        r.timed(5_000, 4_500);
        r.op(1_999);
        assert_eq!(r.summary().ops, 2);
        assert_eq!(r.counts, vec![0, 2]);
    }

    #[test]
    fn window_tail_falls_back_to_a_supported_percentile() {
        let mut r = Recorder::new(1_000_000, 1);
        for i in 1..=30u64 {
            r.timed(i, i * 1_000);
        }
        let s = r.summary();
        // 30 samples support p50 only (rank 15, 15 beyond).
        assert_eq!(s.window_p99_us, 15.0);
        assert_eq!(s.p99_us, 0.0);
        assert_eq!(s.p50_us, 15.0);
    }

    #[test]
    fn nothing_timed_reads_zero() {
        let mut r = Recorder::new(10, 2);
        r.op(3);
        let s = r.summary();
        assert_eq!((s.ops, s.samples), (1, 0));
        assert_eq!((s.ops_s, s.p50_us), (0.0, 0.0));
    }

    #[test]
    fn absorb_adds_counts_and_samples() {
        let mut a = Recorder::new(10, 2);
        let mut b = Recorder::new(10, 2);
        a.timed(1, 5);
        b.timed(11, 7);
        b.op(12);
        a.absorb(b);
        assert_eq!(a.counts, vec![1, 2]);
        assert_eq!(a.sorted_latencies(), vec![5, 7]);
        assert_eq!(a.slices(), 2);
        assert_eq!(a.p50_us_of(0..1), 0.005);
        assert_eq!(a.p50_us_of(1..2), 0.007);
    }
}
