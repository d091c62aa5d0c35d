//! Per-operation energy accounting.
//!
//! Olivier, Boukhobza, and Senn's unified performance **and power** NAND
//! model (PAPERS.md, arXiv:1307.1217) shows per-op energy rides on the same
//! op-level timing decomposition a simulator already has: each array
//! operation (tR / tPROG / tBERS) draws a characteristic energy, and moving
//! the data over the bus draws energy proportional to its length. This
//! module is the energy half of that model: a fixed table charged once per
//! admitted operation, accumulated as integers (picojoules) so the
//! accounting is exact, deterministic, and float-free in simulation state.

use babol::system::{IoKind, IoRequest};

/// Energy cost table, picojoules per operation class.
///
/// Magnitudes follow the Olivier et al. measurements for an SLC-class part:
/// a page read costs a few μJ, a program roughly an order of magnitude
/// more, an erase another order above that, and bus transfer energy scales
/// with the bytes moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnergyModel {
    /// Array read (tR), per operation.
    pub read_pj: u64,
    /// Array program (tPROG), per operation.
    pub program_pj: u64,
    /// Block erase (tBERS), per operation.
    pub erase_pj: u64,
    /// Channel transfer, per KiB moved.
    pub transfer_pj_per_kib: u64,
}

impl EnergyModel {
    /// The default table (Olivier et al. magnitudes): 2.1 μJ read,
    /// 16.5 μJ program, 124 μJ erase, 0.3 μJ per KiB transferred.
    pub const fn nand() -> Self {
        EnergyModel {
            read_pj: 2_100_000,
            program_pj: 16_500_000,
            erase_pj: 124_000_000,
            transfer_pj_per_kib: 300_000,
        }
    }

    /// Bus transfer energy for `len` bytes (multiply-first so sub-KiB
    /// pages don't truncate to zero).
    pub const fn transfer_pj(&self, len: usize) -> u64 {
        len as u64 * self.transfer_pj_per_kib / 1024
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::nand()
    }
}

/// Running energy totals, picojoules per operation class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyTally {
    /// Array read energy.
    pub read_pj: u64,
    /// Array program energy.
    pub program_pj: u64,
    /// Block erase energy.
    pub erase_pj: u64,
    /// Channel transfer energy.
    pub transfer_pj: u64,
}

impl EnergyTally {
    /// Total energy across all classes.
    pub fn total_pj(&self) -> u64 {
        self.read_pj + self.program_pj + self.erase_pj + self.transfer_pj
    }

    /// Total energy in joules (1 pJ = 1e-12 J).
    pub fn joules(&self) -> f64 {
        self.total_pj() as f64 * 1e-12
    }

    /// Charges one operation against the tally.
    pub fn charge(&mut self, model: &EnergyModel, req: &IoRequest) {
        let transfer = model.transfer_pj(req.len);
        let (read, program, erase) = match req.kind {
            IoKind::Read => (model.read_pj, 0, 0),
            IoKind::Program => (0, model.program_pj, 0),
            IoKind::Erase => (0, 0, model.erase_pj),
        };
        self.read_pj += read;
        self.program_pj += program;
        self.erase_pj += erase;
        self.transfer_pj += transfer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(kind: IoKind, len: usize) -> IoRequest {
        IoRequest {
            id: 1,
            kind,
            lun: 0,
            block: 0,
            page: 0,
            col: 0,
            len,
            dram_addr: 0,
        }
    }

    #[test]
    fn charges_accumulate_per_class() {
        let m = EnergyModel::nand();
        let mut t = EnergyTally::default();
        t.charge(&m, &req(IoKind::Read, 16384));
        t.charge(&m, &req(IoKind::Program, 16384));
        t.charge(&m, &req(IoKind::Erase, 0));
        assert_eq!(t.read_pj, m.read_pj);
        assert_eq!(t.program_pj, m.program_pj);
        assert_eq!(t.erase_pj, m.erase_pj);
        assert_eq!(t.transfer_pj, 2 * 16 * m.transfer_pj_per_kib);
        assert_eq!(
            t.total_pj(),
            t.read_pj + t.program_pj + t.erase_pj + t.transfer_pj
        );
        assert!(t.joules() > 0.0);
    }

    #[test]
    fn sub_kib_transfers_do_not_truncate_to_zero() {
        let m = EnergyModel::nand();
        assert_eq!(m.transfer_pj(512), m.transfer_pj_per_kib / 2);
        assert!(m.transfer_pj(512) > 0);
        assert_eq!(m.transfer_pj(0), 0);
    }
}
