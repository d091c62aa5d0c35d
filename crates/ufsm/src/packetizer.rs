//! The Packetizer: a specialized DMA unit.
//!
//! "The Data Writer works closely with the Packetizer, a specialized DMA
//! unit that can read data from the DRAM area of the SSD and deliver it in
//! packets of the same width as a package's DQ bus" (paper §IV-A). The
//! packetizer moves page data in fixed-size packets; between packets it
//! fetches the next DMA descriptor and refills its staging buffer, which
//! costs a short gap on the bus.
//!
//! That per-packet gap is the calibrated source of the difference between
//! raw burst time and the paper's measured page transfer times (Table I):
//! a 16384-byte page at 200 MT/s bursts in ~82 µs but measures ~100 µs; at
//! 100 MT/s it bursts in ~164 µs and measures ~185 µs. Eight 2 KiB packets
//! with a ~2.2 µs inter-packet gap reproduce both.

use babol_sim::SimDuration;

/// Packetizer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketizerConfig {
    /// Bytes per DMA packet.
    pub packet_bytes: usize,
    /// Bus gap between consecutive packets of one burst (descriptor fetch
    /// plus staging-buffer turnaround).
    pub packet_gap: SimDuration,
}

impl PacketizerConfig {
    /// The configuration calibrated against the paper's Table I transfer
    /// times.
    pub const fn paper() -> Self {
        PacketizerConfig {
            packet_bytes: 2048,
            packet_gap: SimDuration::from_nanos(2_200),
        }
    }

    /// Splits a burst of `bytes` into packet sizes: full packets, then the
    /// remainder. A descriptor gap precedes every packet, the first too.
    pub fn packets(&self, bytes: usize) -> impl Iterator<Item = usize> {
        let size = self.packet_bytes;
        (0..bytes.div_ceil(size)).map(move |i| (bytes - i * size).min(size))
    }
}

impl Default for PacketizerConfig {
    fn default() -> Self {
        PacketizerConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packets_cover_exactly() {
        let p = PacketizerConfig::paper();
        let packets = |bytes| p.packets(bytes).collect::<Vec<_>>();
        assert_eq!(packets(16384), vec![2048; 8]);
        assert_eq!(packets(5000), vec![2048, 2048, 904]);
        assert_eq!(packets(1), vec![1]);
        assert!(packets(0).is_empty());
    }

    #[test]
    fn paper_calibration_lands_on_table1() {
        // 16384 B at 200 MT/s: 81.92 us burst + 8 * 2.2 us = 99.5 us ≈ 100 us.
        let p = PacketizerConfig::paper();
        let burst_ps = 16384u64 * 5_000;
        let total = SimDuration::from_picos(burst_ps) + p.packet_gap * 8;
        let us = total.as_micros_f64();
        assert!(
            (97.0..103.0).contains(&us),
            "200 MT/s page moved in {us} us"
        );
        // At 100 MT/s: 163.84 + 17.6 = 181.4 us ≈ 185 us (within 2%).
        let total100 = SimDuration::from_picos(16384 * 10_000) + p.packet_gap * 8;
        let us100 = total100.as_micros_f64();
        assert!(
            (178.0..189.0).contains(&us100),
            "100 MT/s page moved in {us100} us"
        );
    }
}
