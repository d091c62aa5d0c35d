//! BABOL's programmable hardware layer: the μFSMs.
//!
//! The paper's central hardware idea (§IV) is to replace hard-coded ONFI
//! waveform generators with five small, *parameterized* waveform-segment
//! emitters — μFSMs — that software drives like an instruction set:
//!
//! | μFSM | paper Fig. 6 | here |
//! |------|--------------|------|
//! | C/A Writer | (a) | [`Instr::CaWriter`] |
//! | Data Writer | (b) | [`Instr::DataWriter`] |
//! | Data Reader | (c) | [`Instr::DataReader`] |
//! | Chip Control | (d) | [`Transaction::chips`] (CE# mask) |
//! | Timer | (e) | [`Instr::Timer`] |
//!
//! Software composes instructions into [`Transaction`]s — atomic,
//! channel-monopolizing segments — and hands them to the execution engine
//! ([`execute`]), which emits the timed bus phases against a
//! [`babol_channel::Channel`] and moves data through the [`packetizer`] DMA
//! unit. Inter-μFSM timing (tWB, tWHR, tADL, tCCS) is handled *inside* the
//! emission, per the paper's timing-responsibility split (§IV-B).
//!
//! The [`area`] module estimates FPGA resource usage of controller
//! structures, reproducing the paper's Table III comparison.

pub mod area;
pub mod emit;
#[cfg(debug_assertions)]
pub mod hook;
pub mod instr;
pub mod packetizer;

pub use emit::{execute, EmitConfig, EmitScratch, Outcome};
pub use instr::{DmaDest, Instr, Latch, PostWait, Transaction};
pub use packetizer::PacketizerConfig;
