//! Discrete-event simulation kernel for the BABOL reproduction.
//!
//! The BABOL paper (MICRO 2024) evaluates a software-defined NAND flash
//! controller on real hardware: an FPGA fabric emitting ONFI waveforms, ARM
//! and MicroBlaze processors running the controller software, and commercial
//! flash packages. None of that hardware is available to a pure-Rust
//! reproduction, so this crate provides the substrate everything else is
//! simulated on:
//!
//! * [`SimTime`] / [`SimDuration`] — picosecond-resolution simulated time.
//!   Picoseconds are fine-grained enough to represent both a 1 GHz CPU cycle
//!   (1000 ps) and a 200 MT/s channel transfer (5000 ps) exactly.
//! * [`Freq`] — clock frequencies (CPU cores, channel transfer rates) and the
//!   conversion from cycle counts to durations.
//! * [`EventQueue`] — a deterministic time-ordered event queue: one array
//!   kept sorted by `(time, push order)`, so ties pop in insertion order
//!   and simulations are exactly reproducible.
//! * [`cpu::Cpu`] — the processor cost model. Every software action in the
//!   controller (context switch, scheduler pass, transaction enqueue) charges
//!   a cycle budget that is converted to simulated time at the configured
//!   frequency. This is the mechanism behind the paper's Figure 10, where
//!   the same controller software is run on CPUs from 150 MHz to 1 GHz.
//! * [`dram::Dram`] — the SSD's DRAM staging buffer that the Packetizer DMA
//!   unit moves page data in and out of.
//! * [`data::PageData`] — the one page payload of the data path: a few
//!   described segments (the preloaded-page stream, the host pattern, a
//!   fill byte, shared raw bytes) that every layer slices and concatenates
//!   without copying; bytes are produced only where something reads them.
//! * [`pool::BufPool`] — the count of raw page buffers made: the bytes no
//!   formula describes, shared read-only as one [`data::PageBuf`] slice.
//! * [`par::ShardPool`] — conservative parallel DES: per-channel [`Shard`]s
//!   with private event queues advance concurrently up to a shared time
//!   barrier. The pool runs the whole protocol, one call per round (the
//!   horizon, the deliveries, every shard's step and a deterministic
//!   `(time, shard)` merge), so any thread count reproduces the
//!   single-threaded event order bit for bit.
//! * [`rng::SplitMix64`] — a tiny deterministic RNG used where the kernel
//!   itself needs randomness without pulling in external crates.
//! * [`watchdog::Watchdog`] — a sim-time progress monitor that turns a
//!   silently live-locked run (events flowing, no op ever completing) into
//!   a loud diagnostic.

pub mod cpu;
pub mod data;
pub mod dram;
pub mod par;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod time;
pub mod watchdog;

pub use cpu::{CostModel, Cpu};
pub use data::{PageBuf, PageData};
pub use dram::Dram;
pub use par::{Shard, ShardCtor, ShardPool};
pub use pool::{BufPool, PoolStats};
pub use queue::EventQueue;
pub use time::{Freq, SimDuration, SimTime};
pub use watchdog::Watchdog;
