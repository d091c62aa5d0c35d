//! Host time, measured from outside the program: the controller probe, the
//! empty-span calibration and the reference-speed clock.
//!
//! Host time is the quantity this benchmark exists to measure, so every
//! wall-clock read of the package lives in this file. None reaches the
//! simulator, whose results stay bit-identical whatever the host does
//! (`scripts/lint.sh` bans such reads from `crates/`, `src/`, `tests/` and
//! `examples/`).
#![allow(clippy::disallowed_methods)]

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use babol::system::{Controller, Event, IoRequest, System};
use babol_sim::SimTime;

/// Calls into one controller entry point and the host time they took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    pub calls: u64,
    /// Raw nanoseconds, each call's span including one empty-span cost.
    pub ns: u64,
}

impl Span {
    fn add(&mut self, since: Instant) {
        self.calls += 1;
        self.ns += since.elapsed().as_nanos() as u64;
    }

    /// Nanoseconds per call with the empty-span cost `empty_ns` removed.
    /// Left unclamped: a call cheaper than the calibration's noise reads
    /// slightly below zero.
    pub fn ns_per_call(&self, empty_ns: f64) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        self.ns as f64 / self.calls as f64 - empty_ns
    }
}

/// `Event` variants in the order [`CallStats::on_event`] keeps them.
fn event_index(ev: &Event) -> usize {
    match ev {
        Event::TxnDone { .. } => 0,
        Event::IssueCheck => 1,
        Event::Timer { .. } => 2,
        Event::CpuDone => 3,
        Event::RbEdge { .. } => 4,
    }
}

/// Everything a [`Timed`] controller recorded.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallStats {
    pub submit: Span,
    /// Submits the controller refused (admission queue full).
    pub refused: u64,
    /// `on_event`, split by variant: `TxnDone`, `IssueCheck`, `Timer`,
    /// `CpuDone`, `RbEdge`.
    pub on_event: [Span; 5],
    pub take_completions: Span,
}

impl CallStats {
    pub fn calls(&self) -> u64 {
        self.spans().map(|s| s.calls).sum()
    }

    /// Raw nanoseconds inside every span.
    pub fn ns(&self) -> u64 {
        self.spans().map(|s| s.ns).sum()
    }

    fn spans(&self) -> impl Iterator<Item = &Span> {
        std::iter::once(&self.submit)
            .chain(&self.on_event)
            .chain(std::iter::once(&self.take_completions))
    }
}

/// A controller wrapper that times and counts every call into the wrapped
/// controller. Passed to `Ssd::run` in place of the controller itself, it
/// splits the driver's host time into controller time (inside the spans)
/// and FTL time (the rest).
pub struct Timed<C> {
    inner: C,
    pub stats: CallStats,
}

impl<C> Timed<C> {
    pub fn new(inner: C) -> Self {
        Timed {
            inner,
            stats: CallStats::default(),
        }
    }
}

impl<C: Controller> Controller for Timed<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn submit(&mut self, sys: &mut System, req: IoRequest) -> bool {
        let t = Instant::now();
        let accepted = self.inner.submit(sys, req);
        self.stats.submit.add(t);
        self.stats.refused += u64::from(!accepted);
        accepted
    }

    fn on_event(&mut self, sys: &mut System, ev: Event) {
        let i = event_index(&ev);
        let t = Instant::now();
        self.inner.on_event(sys, ev);
        self.stats.on_event[i].add(t);
    }

    fn take_completions(&mut self, out: &mut Vec<(IoRequest, SimTime)>) {
        let t = Instant::now();
        self.inner.take_completions(out);
        self.stats.take_completions.add(t);
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }
}

/// The host cost of one empty span (an `Instant` pair around nothing), in
/// nanoseconds: the median of 11 batch means of 20 000 spans. Subtracted
/// from every measured span, and charged once more per call for the half
/// of the probe that falls outside its span.
pub fn empty_span_ns() -> f64 {
    const BATCH: u32 = 20_000;
    let mut means: Vec<f64> = (0..11)
        .map(|_| {
            let mut total = 0u128;
            for _ in 0..BATCH {
                let t = Instant::now();
                total += black_box(t.elapsed()).as_nanos();
            }
            total as f64 / BATCH as f64
        })
        .collect();
    means.sort_by(f64::total_cmp);
    means[means.len() / 2]
}

/// [`speed_kernel_ns`] on the reference host (2-vCPU Xeon VM, in a quiet
/// period). Only scales the reported figures; comparisons never depend on
/// it.
pub const REF_KERNEL_NS: f64 = 2.8e6;

/// How much more the simulator slows than [`speed_kernel_ns`] when the host
/// is contended. Over 60 runs of the four workloads on the reference host,
/// log(host time per I/O) against log(kernel time) has a slope of 1.3-1.9
/// (correlation 0.95-0.99); a plain ratio (exponent 1) leaves most of the
/// swing in.
pub const SENSITIVITY: f64 = 1.5;

/// A fixed host-speed probe that shares no code with the simulator (so no
/// change to the simulator moves it): branchy integer mixing over an
/// L1-resident table, then ordered-map churn (allocation and pointer
/// chasing in a few hundred KiB). Returns its host time in ns, ~3 ms on the
/// reference host.
pub fn speed_kernel_ns() -> f64 {
    let t = Instant::now();
    let mut table = [0u64; 512];
    let mut acc = 1u64;
    for round in 0..500u64 {
        for slot in table.iter_mut() {
            acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(13) ^ round;
            match acc & 3 {
                0 => *slot = slot.wrapping_add(acc),
                1 => *slot ^= acc >> 7,
                _ => {}
            }
        }
    }
    let mut map = BTreeMap::new();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..10_000 {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let k = x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 51;
        if map.insert(k, acc).is_some() {
            map.remove(&(k ^ 1));
        }
    }
    black_box((&table, map.len()));
    t.elapsed().as_nanos() as f64
}

/// Host time of one timed section.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Elapsed {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Wall-clock seconds at reference-host speed: `wall_s` times
    /// ([`REF_KERNEL_NS`] / k)^[`SENSITIVITY`], where k is the mean of the
    /// speed kernels run just before and just after the section.
    pub ref_s: f64,
}

/// Times sections at reference-host speed. The host this benchmark runs
/// on is shared, and its speed swings by up to 2x for seconds to minutes
/// at a time; a section's wall time corrected by the speed kernel measured
/// on both sides of it varies several times less from run to run. The
/// kernel after one section is the kernel before the next, so the probe
/// costs one kernel (~1.5% of a 0.2 s chunk) per section.
pub struct RefClock {
    kernel_ns: f64,
}

impl RefClock {
    pub fn new() -> RefClock {
        RefClock {
            kernel_ns: speed_kernel_ns(),
        }
    }

    /// Runs `f` and times it.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Elapsed) {
        let t = Instant::now();
        let r = f();
        let wall_s = t.elapsed().as_secs_f64();
        let before = self.kernel_ns;
        self.kernel_ns = speed_kernel_ns();
        let speed = REF_KERNEL_NS / ((before + self.kernel_ns) / 2.0);
        let ref_s = wall_s * speed.powf(SENSITIVITY);
        (r, Elapsed { wall_s, ref_s })
    }
}
