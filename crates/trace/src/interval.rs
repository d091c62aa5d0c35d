//! Busy/idle interval accounting.
//!
//! [`IntervalSet`] accumulates half-open `[start, end)` picosecond busy
//! intervals (a channel's bus ownerships, a LUN's array busy periods) and
//! answers windowed questions: how busy was the resource between `a` and
//! `b`, what does the utilization timeline look like sliced into `n`
//! buckets, and where are the idle gaps. Inserts tolerate out-of-order and
//! overlapping intervals — the trace ring is not globally time-sorted
//! (span ends are sometimes recorded eagerly at their future deadline) —
//! by keeping the set sorted and coalescing on insert.

use babol_sim::{SimDuration, SimTime};

/// A set of non-overlapping, sorted, half-open `[start, end)` busy
/// intervals in picoseconds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSet {
    /// Sorted by start; no two entries overlap or touch.
    spans: Vec<(u64, u64)>,
}

impl IntervalSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        IntervalSet::default()
    }

    /// Adds a busy interval `[start, end)`, merging with any intervals it
    /// overlaps or touches. Empty intervals (`end <= start`) are ignored.
    pub fn add(&mut self, start: SimTime, end: SimTime) {
        self.add_ps(start.as_picos(), end.as_picos());
    }

    /// [`IntervalSet::add`] on raw picosecond bounds.
    pub fn add_ps(&mut self, start: u64, mut end: u64) {
        if end <= start {
            return;
        }
        // Position of the first interval whose end reaches our start.
        let lo = self.spans.partition_point(|&(_, e)| e < start);
        // One past the last interval whose start is within our end.
        let mut hi = lo;
        let mut new_start = start;
        while hi < self.spans.len() && self.spans[hi].0 <= end {
            new_start = new_start.min(self.spans[hi].0);
            end = end.max(self.spans[hi].1);
            hi += 1;
        }
        self.spans.splice(lo..hi, [(new_start, end)]);
    }

    /// Number of disjoint busy intervals.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no busy time has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Busy time overlapping the window `[a, b)`.
    pub fn busy_between(&self, a: SimTime, b: SimTime) -> SimDuration {
        let (a, b) = (a.as_picos(), b.as_picos());
        if b <= a {
            return SimDuration::ZERO;
        }
        let from = self.spans.partition_point(|&(_, e)| e <= a);
        let mut busy = 0u64;
        for &(s, e) in &self.spans[from..] {
            if s >= b {
                break;
            }
            busy += e.min(b) - s.max(a);
        }
        SimDuration::from_picos(busy)
    }

    /// Fraction of the window `[a, b)` that was busy, in `0.0..=1.0`.
    /// Zero-width windows report 0.
    pub fn utilization(&self, a: SimTime, b: SimTime) -> f64 {
        let width = b.as_picos().saturating_sub(a.as_picos());
        if width == 0 {
            return 0.0;
        }
        self.busy_between(a, b).as_picos() as f64 / width as f64
    }

    /// Utilization timeline: the window `[a, b)` cut into `slices` equal
    /// buckets, each reporting its busy fraction. This is the data behind
    /// a "utilization over time" row — a whole-run average hides the idle
    /// edges that Fig. 10 is about.
    pub fn timeline(&self, a: SimTime, b: SimTime, slices: usize) -> Vec<f64> {
        let (a_ps, b_ps) = (a.as_picos(), b.as_picos());
        if slices == 0 || b_ps <= a_ps {
            return Vec::new();
        }
        let width = b_ps - a_ps;
        (0..slices)
            .map(|i| {
                // Integer slice edges that exactly tile the window.
                let s = a_ps + width * i as u64 / slices as u64;
                let e = a_ps + width * (i + 1) as u64 / slices as u64;
                self.utilization(SimTime::from_picos(s), SimTime::from_picos(e))
            })
            .collect()
    }

    /// The idle gaps between consecutive busy intervals, in order.
    pub fn gaps(&self) -> impl Iterator<Item = (SimTime, SimTime)> + '_ {
        self.spans
            .windows(2)
            .map(|w| (SimTime::from_picos(w[0].1), SimTime::from_picos(w[1].0)))
    }

    /// The raw sorted `(start_ps, end_ps)` intervals.
    pub fn spans(&self) -> &[(u64, u64)] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ps: u64) -> SimTime {
        SimTime::from_picos(ps)
    }

    fn set(spans: &[(u64, u64)]) -> IntervalSet {
        let mut s = IntervalSet::new();
        for &(a, b) in spans {
            s.add_ps(a, b);
        }
        s
    }

    #[test]
    fn add_merges_overlapping_and_touching() {
        let s = set(&[(10, 20), (30, 40), (20, 30)]);
        assert_eq!(s.spans(), &[(10, 40)]);
        let s = set(&[(10, 20), (15, 35)]);
        assert_eq!(s.spans(), &[(10, 35)]);
        let s = set(&[(10, 20), (40, 50), (0, 5)]);
        assert_eq!(s.spans(), &[(0, 5), (10, 20), (40, 50)]);
    }

    #[test]
    fn add_tolerates_out_of_order_and_duplicates() {
        let a = set(&[(40, 50), (10, 20), (10, 20), (45, 60)]);
        let b = set(&[(10, 20), (40, 60)]);
        assert_eq!(a, b);
        assert_eq!(a.busy_between(t(0), t(100)), SimDuration::from_picos(30));
    }

    #[test]
    fn empty_intervals_are_ignored() {
        let mut s = IntervalSet::new();
        s.add_ps(10, 10);
        s.add_ps(20, 5);
        assert!(s.is_empty());
        assert_eq!(s.busy_between(t(0), t(100)), SimDuration::ZERO);
    }

    #[test]
    fn busy_between_clips_to_window() {
        let s = set(&[(10, 20), (30, 40)]);
        assert_eq!(s.busy_between(t(0), t(100)).as_picos(), 20);
        assert_eq!(s.busy_between(t(15), t(35)).as_picos(), 10);
        assert_eq!(s.busy_between(t(20), t(30)).as_picos(), 0);
        assert_eq!(s.busy_between(t(35), t(35)).as_picos(), 0);
        assert_eq!(s.busy_between(t(12), t(18)).as_picos(), 6);
    }

    #[test]
    fn utilization_and_timeline() {
        // Busy the first half of [0, 100).
        let s = set(&[(0, 50)]);
        assert!((s.utilization(t(0), t(100)) - 0.5).abs() < 1e-12);
        assert_eq!(s.utilization(t(0), t(0)), 0.0);
        let tl = s.timeline(t(0), t(100), 4);
        assert_eq!(tl.len(), 4);
        assert!((tl[0] - 1.0).abs() < 1e-12);
        assert!((tl[1] - 1.0).abs() < 1e-12);
        assert!(tl[2].abs() < 1e-12 && tl[3].abs() < 1e-12);
        // Slice edges tile the window exactly even when it doesn't divide.
        let tl = s.timeline(t(0), t(100), 3);
        let approx_total: f64 = tl.iter().sum::<f64>() / 3.0 * 1.0;
        assert!(approx_total > 0.0);
        assert!(s.timeline(t(0), t(100), 0).is_empty());
        assert!(s.timeline(t(50), t(50), 4).is_empty());
    }

    #[test]
    fn gaps_walk_idle_holes() {
        let s = set(&[(10, 20), (30, 40), (70, 80)]);
        let gaps: Vec<(u64, u64)> = s
            .gaps()
            .map(|(a, b)| (a.as_picos(), b.as_picos()))
            .collect();
        assert_eq!(gaps, vec![(20, 30), (40, 70)]);
        assert_eq!(set(&[(5, 6)]).gaps().count(), 0);
    }
}
