//! A minimal flash translation layer and fio-style host workload driver.
//!
//! The paper's end-to-end experiment (§VI-C, Fig. 12) swaps BABOL into the
//! Cosmos+ OpenSSD and measures fio READ workloads through the whole stack:
//! host → HIC → FTL → storage controller → flash. This crate supplies the
//! stack above the storage controller:
//!
//! * [`map`] — a page-level logical-to-physical map with per-LUN block
//!   allocation, validity tracking, and greedy garbage collection.
//! * [`ssd`] — the SSD assembly: translates host I/O into controller
//!   requests, charges FTL CPU cycles on the shared processor, runs GC.
//! * [`fio`] — fio-like workload definitions (sequential/random read/write)
//!   and the closed-loop client that keeps a queue depth outstanding.
//! * [`multi`] — the whole-device assembly: the logical space striped over
//!   N channels, each channel a self-contained shard (system + controller +
//!   FTL slice) advanced in parallel by the conservative-barrier kernel in
//!   `babol_sim::par` with bit-identical results at any thread count.
//! * [`cache`] — write-back DRAM cache bookkeeping in front of the write
//!   path (LRU eviction, read-coherence flushes).
//! * [`bad`] — deterministic bad-block model: factory map plus grown
//!   program/erase failures, all pure hashes of a seed.
//! * [`energy`] — per-operation energy accounting (integer picojoules).

pub mod bad;
pub mod cache;
pub mod energy;
pub mod fio;
pub mod map;
pub mod multi;
pub mod ssd;

pub use bad::{BadBlockConfig, BadBlockModel};
pub use cache::{Eviction, WriteCache};
pub use energy::EnergyTally;
pub use fio::{FioReport, FioWorkload, HostCmd, IoPattern};
pub use map::{BlockState, GcPlan, PageMap, Ppn};
pub use multi::{ChannelShard, MultiFioReport, MultiSsd, MultiSsdConfig, ShardDigest, ShardEvent};
pub use ssd::{Ssd, SsdConfig};
