//! Logic-analyzer style trace capture.
//!
//! The paper validates controller timing with a Keysight 16862A logic
//! analyzer probing the ONFI pins (Fig. 11); screenshots of its timeline are
//! how the ~30 µs coroutine polling period is demonstrated. This module is
//! the simulated equivalent: every phase the channel carries is
//! timestamped. The `repro_fig11` binary renders the capture as a text
//! timeline.

use std::fmt;

use babol_onfi::bus::{BusPhase, ChipMask, PhaseKind};
use babol_sim::SimTime;

/// One row of the capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the phase started driving the bus.
    pub start: SimTime,
    /// When it released the bus.
    pub end: SimTime,
    /// Which LUNs observed it.
    pub mask: ChipMask,
    /// Phase label (e.g. `CMD READ-STATUS`, `DOUT[1]`).
    pub label: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let span_us = (self.end - self.start).as_micros_f64();
        write!(
            f,
            "{:>12}  {:>9}  {:<7}  {}",
            self.start.to_string(),
            format!("{span_us:.3}us"),
            self.mask.to_string(),
            self.label
        )
    }
}

/// A capture buffer.
#[derive(Debug, Clone, Default)]
pub struct Analyzer {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl Analyzer {
    /// Creates a capture buffer; disabled buffers record nothing.
    pub fn new(enabled: bool) -> Self {
        Analyzer {
            enabled,
            events: Vec::new(),
        }
    }

    /// Enables or disables capture.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// True if capturing.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one phase that started driving the bus at `start`: a row
    /// per bus phase, so a packetized burst shows each gap as `PAUSE` and
    /// each packet with its own length, as the pins carry them. The
    /// channel calls this for every phase, so the check for a disabled
    /// capture is inlined into it.
    #[inline]
    pub fn record(&mut self, start: SimTime, mask: ChipMask, phase: &BusPhase) {
        if self.enabled {
            self.push_rows(start, mask, phase);
        }
    }

    fn push_rows(&mut self, start: SimTime, mask: ChipMask, phase: &BusPhase) {
        let bytes = match &phase.kind {
            PhaseKind::DataIn(data) => data.len(),
            PhaseKind::DataOut { bytes } => *bytes,
            _ => 0,
        };
        let mut at = start;
        for i in 0..phase.packet_count() {
            let end = start + phase.packet_end(i);
            if let Some(gap) = phase.packet_gap() {
                self.events.push(TraceEvent {
                    start: at,
                    end: at + gap,
                    mask,
                    label: PhaseKind::Pause.label(),
                });
                at += gap;
            }
            self.events.push(TraceEvent {
                start: at,
                end,
                mask,
                label: match &phase.kind {
                    PhaseKind::DataIn(_) => format!("DIN[{}]", phase.packet_len(i, bytes)),
                    PhaseKind::DataOut { .. } => format!("DOUT[{}]", phase.packet_len(i, bytes)),
                    other => other.label(),
                },
            });
            at = end;
        }
    }

    /// All captured events in capture order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events whose label contains `needle`.
    pub fn find<'a>(&'a self, needle: &'a str) -> impl Iterator<Item = &'a TraceEvent> + 'a {
        self.events.iter().filter(move |e| e.label.contains(needle))
    }

    /// Renders the capture as an analyzer-style text timeline.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "       start       span  CE-mask  event\n\
             ------------ ---------- --------  -----\n",
        );
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use babol_onfi::bus::Packets;
    use babol_sim::SimDuration;

    fn at(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    /// A one-microsecond phase.
    fn us(kind: PhaseKind) -> BusPhase {
        BusPhase::new(kind, SimDuration::from_micros(1))
    }

    #[test]
    fn disabled_records_nothing() {
        let mut a = Analyzer::new(false);
        a.record(at(0), ChipMask::single(0), &us(PhaseKind::Pause));
        assert!(a.events().is_empty());
    }

    #[test]
    fn records_phases_in_order() {
        let mut a = Analyzer::new(true);
        a.record(at(0), ChipMask::single(0), &us(PhaseKind::CmdLatch(0x70)));
        a.record(at(1), ChipMask::single(0), &us(PhaseKind::Pause));
        assert_eq!(a.events().len(), 2);
        assert!(a.events()[0].label.contains("READ-STATUS"));
        assert!(a.events()[1].label.contains("PAUSE"));
        assert_eq!((a.events()[1].start, a.events()[1].end), (at(1), at(2)));
    }

    #[test]
    fn a_burst_shows_each_gap_and_packet() {
        let mut a = Analyzer::new(true);
        let packets = Packets {
            count: 3,
            size: 4,
            gap: Some(SimDuration::from_micros(1)),
            full: SimDuration::from_micros(2),
        };
        let burst = BusPhase::burst(
            PhaseKind::DataOut { bytes: 9 },
            packets,
            SimDuration::from_micros(8),
        );
        a.record(at(10), ChipMask::single(1), &burst);
        let rows: Vec<_> = a
            .events()
            .iter()
            .map(|e| (e.start, e.end, e.label.as_str()))
            .collect();
        assert_eq!(
            rows,
            [
                (at(10), at(11), "PAUSE"),
                (at(11), at(13), "DOUT[4]"),
                (at(13), at(14), "PAUSE"),
                (at(14), at(16), "DOUT[4]"),
                (at(16), at(17), "PAUSE"),
                (at(17), at(18), "DOUT[1]"),
            ]
        );
    }

    #[test]
    fn find_filters_by_label() {
        let mut a = Analyzer::new(true);
        a.record(at(0), ChipMask::single(0), &us(PhaseKind::CmdLatch(0x70)));
        a.record(
            at(1),
            ChipMask::single(0),
            &us(PhaseKind::DataOut { bytes: 1 }),
        );
        assert_eq!(a.find("READ-STATUS").count(), 1);
        assert_eq!(a.find("DOUT").count(), 1);
        assert_eq!(a.find("nothing").count(), 0);
    }

    #[test]
    fn render_includes_header_and_rows() {
        let mut a = Analyzer::new(true);
        a.record(at(5), ChipMask::single(2), &us(PhaseKind::Pause));
        let s = a.render();
        assert!(s.contains("event"));
        assert!(s.contains("PAUSE"));
        assert!(s.contains("CE[2]"));
    }
}
