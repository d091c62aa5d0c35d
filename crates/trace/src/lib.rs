//! Structured observability for the BABOL reproduction.
//!
//! The paper's argument (§VI) is quantitative: controller time is split
//! between CPU scheduler passes, channel occupancy, and array time, and the
//! software-defined design wins or loses on where those picoseconds go.
//! This crate gives every layer of the simulation a shared, allocation-free
//! way to account for them:
//!
//! * **Counters** — per-[`Component`] monotonic `u64` counts (events
//!   scheduled, transactions issued, bus segments transmitted, ...), stored
//!   in a fixed 2-D array.
//! * **Histograms** — log2-bucketed latency distributions ([`Histogram`])
//!   for op issue→complete, channel acquire→release, scheduler pick wait,
//!   and friends. Fixed size, no allocation on the record path.
//! * **Event trace** — a bounded ring buffer of [`TraceEvent`]s exportable
//!   as line-JSON or Chrome `trace_event` JSON, so `chrome://tracing` (or
//!   Perfetto) renders a controller timeline with one LUN per track.
//!
//! Everything funnels into one [`Tracer`]. It starts disabled and every
//! record method begins with an `#[inline]` branch on a `bool`, so the cost
//! of tracing in a disabled run is one predictable branch per site. Tracing
//! is a pure observer: it never mutates simulation state, consumes
//! randomness, or influences scheduling, which is what makes the
//! tracing-on/tracing-off determinism test in `tests/determinism.rs` hold.

mod export;
mod hist;
mod interval;
mod metrics;
mod parse;
mod phase;
mod report;
mod slo;
mod tracer;

pub use hist::Histogram;
pub use interval::IntervalSet;
pub use metrics::{
    parse_metrics_lines, render_metrics_dashboard, FtlCounter, FtlCounters, MetricsFrame,
    MetricsHub, MetricsSeries, MetricsSnapshot, ParsedMetrics, METRICS_SCHEMA,
};
pub use parse::{parse_json_lines, ParseError, ParsedTrace};
pub use phase::{OpPhase, PhaseBreakdown, PhaseLedger};
pub use report::{render_shard_utilization, TraceReport};
pub use slo::{
    breach_marks, evaluate_slo, latency_spec, SloSpec, SloStat, SloVerdict, SLO_SHORT_WINDOW,
};
pub use tracer::Tracer;

use babol_sim::SimTime;

/// The subsystem a trace event or counter belongs to.
///
/// Mirrors the crate layering: the simulation core, the shared channel bus,
/// the μFSM instruction layer, the software scheduler, the controller
/// front-end, and the FTL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Component {
    /// Event queue / simulation core (`babol-sim`).
    Sim,
    /// Shared channel bus arbiter (`babol-channel`).
    Channel,
    /// μFSM instruction layer (`babol-ufsm`).
    Ufsm,
    /// Task/transaction schedulers inside `SoftRuntime`.
    Sched,
    /// Controller front-end (`SoftController`: op submit/harvest).
    Ctrl,
    /// Flash translation layer (`babol-ftl`).
    Ftl,
}

impl Component {
    /// Number of components (array dimension for counter storage).
    pub const COUNT: usize = 6;

    /// All components, in display order.
    pub const ALL: [Component; Component::COUNT] = [
        Component::Sim,
        Component::Channel,
        Component::Ufsm,
        Component::Sched,
        Component::Ctrl,
        Component::Ftl,
    ];

    /// Dense index for array storage.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Short lowercase name (used as the Chrome trace `cat` field).
    pub const fn name(self) -> &'static str {
        match self {
            Component::Sim => "sim",
            Component::Channel => "channel",
            Component::Ufsm => "ufsm",
            Component::Sched => "sched",
            Component::Ctrl => "ctrl",
            Component::Ftl => "ftl",
        }
    }

    /// Inverse of [`Component::name`], for parsing exported traces back.
    pub fn from_name(name: &str) -> Option<Component> {
        Component::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// What happened. Begin/end pairs share an `op_id` and fold into Chrome
/// "complete" (`ph:"X"`) spans; everything else exports as an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Host-visible operation submitted to the controller.
    OpIssue,
    /// Host-visible operation completed (pairs with [`TraceKind::OpIssue`]).
    OpComplete,
    /// A software task was spawned into the runtime.
    TaskSpawn,
    /// A software task ran to completion (pairs with
    /// [`TraceKind::TaskSpawn`]).
    TaskFinish,
    /// The task scheduler picked a task to run.
    SchedPick,
    /// A built transaction entered the ready queue.
    TxnEnqueue,
    /// A transaction was issued to the hardware instruction queue (pairs
    /// with [`TraceKind::TxnComplete`]).
    TxnIssue,
    /// A transaction's completion interrupt fired.
    TxnComplete,
    /// The channel bus was acquired for a transmission (pairs with
    /// [`TraceKind::BusRelease`]).
    BusAcquire,
    /// The channel bus went idle again.
    BusRelease,
    /// A μFSM instruction was dispatched onto the bus.
    InstrDispatch,
    /// Foreground garbage collection started (pairs with
    /// [`TraceKind::GcEnd`]).
    GcStart,
    /// Foreground garbage collection finished.
    GcEnd,
    /// A software task entered the runnable queue (spawn admission, timer
    /// wake, completion delivery, or LUN-park release). `TaskReady` →
    /// [`TraceKind::SchedPick`] is the scheduler-wait an op experiences.
    TaskReady,
    /// A LUN's array went busy (tR/tPROG/tBERS began; pairs with
    /// [`TraceKind::ArrayEnd`]).
    ArrayBegin,
    /// The LUN's array busy period ended. Recorded eagerly at begin time —
    /// the deadline is deterministic — so the timestamp may lie in the
    /// future relative to neighbouring ring entries.
    ArrayEnd,
    /// A queue-depth sample; the depths are packed into `op_id` (see
    /// [`QueueDepths`]).
    QueueDepth,
}

impl TraceKind {
    /// Number of kinds (array dimension for per-kind drop accounting).
    pub const COUNT: usize = 17;

    /// Dense index for array storage.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Short name used in exports.
    pub const fn name(self) -> &'static str {
        match self {
            TraceKind::OpIssue => "op_issue",
            TraceKind::OpComplete => "op_complete",
            TraceKind::TaskSpawn => "task_spawn",
            TraceKind::TaskFinish => "task_finish",
            TraceKind::SchedPick => "sched_pick",
            TraceKind::TxnEnqueue => "txn_enqueue",
            TraceKind::TxnIssue => "txn_issue",
            TraceKind::TxnComplete => "txn_complete",
            TraceKind::BusAcquire => "bus_acquire",
            TraceKind::BusRelease => "bus_release",
            TraceKind::InstrDispatch => "instr_dispatch",
            TraceKind::GcStart => "gc_start",
            TraceKind::GcEnd => "gc_end",
            TraceKind::TaskReady => "task_ready",
            TraceKind::ArrayBegin => "array_begin",
            TraceKind::ArrayEnd => "array_end",
            TraceKind::QueueDepth => "queue_depth",
        }
    }

    /// All kinds, in declaration order (drives name→kind parsing).
    pub const ALL: [TraceKind; TraceKind::COUNT] = [
        TraceKind::OpIssue,
        TraceKind::OpComplete,
        TraceKind::TaskSpawn,
        TraceKind::TaskFinish,
        TraceKind::SchedPick,
        TraceKind::TxnEnqueue,
        TraceKind::TxnIssue,
        TraceKind::TxnComplete,
        TraceKind::BusAcquire,
        TraceKind::BusRelease,
        TraceKind::InstrDispatch,
        TraceKind::GcStart,
        TraceKind::GcEnd,
        TraceKind::TaskReady,
        TraceKind::ArrayBegin,
        TraceKind::ArrayEnd,
        TraceKind::QueueDepth,
    ];

    /// Inverse of [`TraceKind::name`], for parsing exported traces back.
    pub fn from_name(name: &str) -> Option<TraceKind> {
        TraceKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The kind that closes this one into a span, if it opens one.
    pub const fn span_end(self) -> Option<TraceKind> {
        match self {
            TraceKind::OpIssue => Some(TraceKind::OpComplete),
            TraceKind::TaskSpawn => Some(TraceKind::TaskFinish),
            TraceKind::TxnIssue => Some(TraceKind::TxnComplete),
            TraceKind::BusAcquire => Some(TraceKind::BusRelease),
            TraceKind::GcStart => Some(TraceKind::GcEnd),
            TraceKind::ArrayBegin => Some(TraceKind::ArrayEnd),
            _ => None,
        }
    }

    /// Span label for paired kinds (the Chrome trace `name` field).
    pub const fn span_name(self) -> &'static str {
        match self {
            TraceKind::OpIssue => "op",
            TraceKind::TaskSpawn => "task",
            TraceKind::TxnIssue => "txn",
            TraceKind::BusAcquire => "bus",
            TraceKind::GcStart => "gc",
            TraceKind::ArrayBegin => "array",
            _ => self.name(),
        }
    }
}

/// One record in the bounded event trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time the event occurred.
    pub t: SimTime,
    /// Which subsystem recorded it.
    pub component: Component,
    /// What happened.
    pub kind: TraceKind,
    /// Target LUN (0 when not LUN-addressed).
    pub lun: u32,
    /// Owning operation/request id (0 when anonymous).
    pub op_id: u64,
}

/// A queue-depth sample taken by the runtime, packed into the `op_id` field
/// of a [`TraceKind::QueueDepth`] event so the fixed [`TraceEvent`] layout
/// (and both exporters) need no new fields. Each depth gets a 15-bit lane
/// (saturating at [`QueueDepths::LANE_MAX`], far above any realistic
/// queue), and the four bits that frees carry per-lane saturation flags —
/// a clamped sample is visibly clamped after `pack`/`unpack`, never
/// silently mistaken for a true reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueDepths {
    /// Tasks in the runnable queue (have CPU work pending).
    pub runnable: u16,
    /// Transactions built and waiting in the scheduler's ready queue.
    pub ready: u16,
    /// Transactions sitting in the hardware instruction queue.
    pub hw: u16,
    /// Host ops in flight in the controller front-end.
    pub inflight: u16,
    /// Saturation flags, bit `i` set when lane `i` (in `runnable`,
    /// `ready`, `hw`, `inflight` order) was clamped to
    /// [`QueueDepths::LANE_MAX`].
    pub saturated: u8,
}

impl QueueDepths {
    /// Largest depth one 15-bit lane can hold.
    pub const LANE_MAX: u16 = 0x7FFF;

    /// Builds an exact (unsaturated) sample from four in-range depths.
    pub fn exact(runnable: u16, ready: u16, hw: u16, inflight: u16) -> Self {
        QueueDepths {
            runnable,
            ready,
            hw,
            inflight,
            saturated: 0,
        }
    }

    /// Packs the four depths (15 bits each) and the saturation flags
    /// (top 4 bits) into a `u64` for the event's `op_id` field.
    pub fn pack(self) -> u64 {
        u64::from(self.runnable & Self::LANE_MAX)
            | u64::from(self.ready & Self::LANE_MAX) << 15
            | u64::from(self.hw & Self::LANE_MAX) << 30
            | u64::from(self.inflight & Self::LANE_MAX) << 45
            | u64::from(self.saturated & 0xF) << 60
    }

    /// Inverse of [`QueueDepths::pack`].
    pub fn unpack(raw: u64) -> Self {
        let lane = |shift: u32| (raw >> shift) as u16 & Self::LANE_MAX;
        QueueDepths {
            runnable: lane(0),
            ready: lane(15),
            hw: lane(30),
            inflight: lane(45),
            saturated: (raw >> 60) as u8 & 0xF,
        }
    }

    /// Builds a sample from `usize` queue lengths, saturating each lane at
    /// [`QueueDepths::LANE_MAX`] and flagging every lane that clamped.
    pub fn from_lens(runnable: usize, ready: usize, hw: usize, inflight: usize) -> Self {
        let mut saturated = 0u8;
        let mut clamp = |n: usize, bit: u8| {
            if n > Self::LANE_MAX as usize {
                saturated |= 1 << bit;
                Self::LANE_MAX
            } else {
                n as u16
            }
        };
        let runnable = clamp(runnable, 0);
        let ready = clamp(ready, 1);
        let hw = clamp(hw, 2);
        let inflight = clamp(inflight, 3);
        QueueDepths {
            runnable,
            ready,
            hw,
            inflight,
            saturated,
        }
    }

    /// Whether any lane was clamped when this sample was taken.
    pub fn is_saturated(self) -> bool {
        self.saturated != 0
    }
}

/// Monotonic counters, indexed per [`Component`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Events pushed onto the simulation event queue.
    EventsScheduled,
    /// Events popped off the simulation event queue.
    EventsPopped,
    /// Tasks spawned into the runtime.
    TasksSpawned,
    /// Tasks that ran to completion.
    TasksFinished,
    /// Task-scheduler picks performed.
    SchedPicks,
    /// Transactions enqueued by tasks.
    TxnsEnqueued,
    /// Transactions issued to the hardware queue.
    TxnsIssued,
    /// Transaction completion interrupts taken.
    TxnsCompleted,
    /// μFSM instructions dispatched.
    InstrsDispatched,
    /// Bus segments (transmissions) carried.
    SegmentsTransmitted,
    /// Individual bus phases carried.
    PhasesTransmitted,
    /// Bytes written toward the flash array.
    BytesToFlash,
    /// Bytes read back from the flash array.
    BytesFromFlash,
    /// Host-visible operations submitted.
    OpsSubmitted,
    /// Host-visible operations completed.
    OpsCompleted,
    /// Foreground GC cycles run.
    GcCycles,
    /// Page buffers handed out by the shared pool.
    PoolAcquires,
    /// Heap allocations performed by the pool (fresh buffers + capacity
    /// growths). Flat in steady state — the zero-copy data path's claim.
    PoolHeapAllocs,
    /// Maximum simultaneously checked-out page buffers.
    PoolHighWater,
    /// Host writes absorbed by the write-back cache (and reads whose dirty
    /// copy was flushed from it).
    CacheHits,
    /// Host writes that had to claim a fresh cache slot.
    CacheMisses,
    /// Dirty cache entries flushed to flash on eviction.
    CacheDirtyEvicts,
    /// Cold blocks migrated by the wear leveler.
    WearMigrations,
    /// Blocks retired to the bad-block map (factory + grown).
    BlocksRetired,
    /// Energy spent in array read (tR) operations, picojoules.
    EnergyReadPj,
    /// Energy spent in array program (tPROG) operations, picojoules.
    EnergyProgramPj,
    /// Energy spent in block erase (tBERS) operations, picojoules.
    EnergyErasePj,
    /// Energy spent moving data over the channel bus, picojoules.
    EnergyTransferPj,
    /// Static envelope maximum of the worst single well-formed operation
    /// on the target package, picoseconds (basis of the V074 watchdog
    /// budget).
    EnvelopeWorstOpPs,
    /// The armed stall-watchdog budget, picoseconds (envelope-derived
    /// unless the run pinned it).
    WatchdogBudgetPs,
}

impl Counter {
    /// Number of counters (array dimension for storage).
    pub const COUNT: usize = 30;

    /// All counters, in display order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::EventsScheduled,
        Counter::EventsPopped,
        Counter::TasksSpawned,
        Counter::TasksFinished,
        Counter::SchedPicks,
        Counter::TxnsEnqueued,
        Counter::TxnsIssued,
        Counter::TxnsCompleted,
        Counter::InstrsDispatched,
        Counter::SegmentsTransmitted,
        Counter::PhasesTransmitted,
        Counter::BytesToFlash,
        Counter::BytesFromFlash,
        Counter::OpsSubmitted,
        Counter::OpsCompleted,
        Counter::GcCycles,
        Counter::PoolAcquires,
        Counter::PoolHeapAllocs,
        Counter::PoolHighWater,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheDirtyEvicts,
        Counter::WearMigrations,
        Counter::BlocksRetired,
        Counter::EnergyReadPj,
        Counter::EnergyProgramPj,
        Counter::EnergyErasePj,
        Counter::EnergyTransferPj,
        Counter::EnvelopeWorstOpPs,
        Counter::WatchdogBudgetPs,
    ];

    /// Dense index for array storage.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Snake-case name used in exports and tables.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::EventsScheduled => "events_scheduled",
            Counter::EventsPopped => "events_popped",
            Counter::TasksSpawned => "tasks_spawned",
            Counter::TasksFinished => "tasks_finished",
            Counter::SchedPicks => "sched_picks",
            Counter::TxnsEnqueued => "txns_enqueued",
            Counter::TxnsIssued => "txns_issued",
            Counter::TxnsCompleted => "txns_completed",
            Counter::InstrsDispatched => "instrs_dispatched",
            Counter::SegmentsTransmitted => "segments_transmitted",
            Counter::PhasesTransmitted => "phases_transmitted",
            Counter::BytesToFlash => "bytes_to_flash",
            Counter::BytesFromFlash => "bytes_from_flash",
            Counter::OpsSubmitted => "ops_submitted",
            Counter::OpsCompleted => "ops_completed",
            Counter::GcCycles => "gc_cycles",
            Counter::PoolAcquires => "pool_acquires",
            Counter::PoolHeapAllocs => "pool_heap_allocs",
            Counter::PoolHighWater => "pool_high_water",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::CacheDirtyEvicts => "cache_dirty_evicts",
            Counter::WearMigrations => "wear_migrations",
            Counter::BlocksRetired => "blocks_retired",
            Counter::EnergyReadPj => "energy_read_pj",
            Counter::EnergyProgramPj => "energy_program_pj",
            Counter::EnergyErasePj => "energy_erase_pj",
            Counter::EnergyTransferPj => "energy_transfer_pj",
            Counter::EnvelopeWorstOpPs => "envelope_worst_op_ps",
            Counter::WatchdogBudgetPs => "watchdog_budget_ps",
        }
    }

    /// The FTL production counters carried in the jsonl footer (cache,
    /// wear, bad-block, energy accounting, and the static-envelope
    /// watchdog basis), in footer key order.
    pub const FTL_FOOTER: [Counter; 11] = [
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheDirtyEvicts,
        Counter::WearMigrations,
        Counter::BlocksRetired,
        Counter::EnergyReadPj,
        Counter::EnergyProgramPj,
        Counter::EnergyErasePj,
        Counter::EnergyTransferPj,
        Counter::EnvelopeWorstOpPs,
        Counter::WatchdogBudgetPs,
    ];
}

/// Latency distributions tracked as log2 histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Host op issue → completion (controller front-end view).
    OpLatency,
    /// Host request latency as the FTL sees it (fio driver view).
    HostLatency,
    /// Transaction enqueue → completion interrupt.
    TxnLatency,
    /// Channel bus acquire → release (occupancy per transmission).
    BusHold,
    /// Task became runnable → task scheduler picked it.
    SchedWait,
}

impl Metric {
    /// Number of metrics (array dimension for storage).
    pub const COUNT: usize = 5;

    /// All metrics, in display order.
    pub const ALL: [Metric; Metric::COUNT] = [
        Metric::OpLatency,
        Metric::HostLatency,
        Metric::TxnLatency,
        Metric::BusHold,
        Metric::SchedWait,
    ];

    /// Dense index for array storage.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Snake-case name used in exports and tables.
    pub const fn name(self) -> &'static str {
        match self {
            Metric::OpLatency => "op_latency",
            Metric::HostLatency => "host_latency",
            Metric::TxnLatency => "txn_latency",
            Metric::BusHold => "bus_hold",
            Metric::SchedWait => "sched_wait",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_indices_are_consistent() {
        for (i, c) in Component::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m.index(), i);
        }
    }

    #[test]
    fn span_pairs_are_symmetric_names() {
        assert_eq!(TraceKind::OpIssue.span_end(), Some(TraceKind::OpComplete));
        assert_eq!(
            TraceKind::BusAcquire.span_end(),
            Some(TraceKind::BusRelease)
        );
        assert_eq!(TraceKind::SchedPick.span_end(), None);
        assert_eq!(TraceKind::OpIssue.span_name(), "op");
        assert_eq!(TraceKind::SchedPick.span_name(), "sched_pick");
    }

    #[test]
    fn names_roundtrip_through_from_name() {
        for c in Component::ALL {
            assert_eq!(Component::from_name(c.name()), Some(c));
        }
        for k in TraceKind::ALL {
            assert_eq!(TraceKind::from_name(k.name()), Some(k));
        }
        assert_eq!(TraceKind::from_name("nonsense"), None);
    }

    #[test]
    fn queue_depths_pack_roundtrip() {
        let d = QueueDepths::exact(3, 0, QueueDepths::LANE_MAX, 1_000);
        assert_eq!(QueueDepths::unpack(d.pack()), d);
        let s = QueueDepths::from_lens(1, 2, usize::MAX, 4);
        assert_eq!(s.hw, QueueDepths::LANE_MAX);
        assert_eq!(s.saturated, 0b0100, "only the hw lane clamped");
        assert!(s.is_saturated());
        assert_eq!(QueueDepths::unpack(s.pack()), s);
    }

    #[test]
    fn queue_depths_large_lens_roundtrip_and_flag_saturation() {
        // Depths at and beyond 256 survive pack/unpack exactly (the lanes
        // are 15-bit, not 8-bit) and are not flagged as saturated.
        for n in [256usize, 300, 1_000, QueueDepths::LANE_MAX as usize] {
            let d = QueueDepths::from_lens(n, n / 2, n / 3, 4);
            assert!(!d.is_saturated(), "lens {n} must fit a lane");
            assert_eq!(QueueDepths::unpack(d.pack()), d);
            assert_eq!(d.runnable as usize, n);
        }
        // Every lane clamps independently, and each clamp is visible.
        let all = QueueDepths::from_lens(usize::MAX, 1 << 20, 40_000, 32_768);
        assert_eq!(all.saturated, 0b1111);
        assert_eq!(
            (all.runnable, all.ready, all.hw, all.inflight),
            (
                QueueDepths::LANE_MAX,
                QueueDepths::LANE_MAX,
                QueueDepths::LANE_MAX,
                QueueDepths::LANE_MAX
            )
        );
        assert_eq!(QueueDepths::unpack(all.pack()), all);
        // An in-range sample built by `exact` never reports saturation.
        let fine = QueueDepths::from_lens(255, 256, 257, 0);
        assert_eq!(fine, QueueDepths::exact(255, 256, 257, 0));
        assert!(!fine.is_saturated());
    }
}
