//! Logic-analyzer style trace capture.
//!
//! The paper validates controller timing with a Keysight 16862A logic
//! analyzer probing the ONFI pins (Fig. 11); screenshots of its timeline are
//! how the ~30 µs coroutine polling period is demonstrated. This module is
//! the simulated equivalent: every phase the channel carries is
//! timestamped. The `repro_fig11` binary renders the capture as a text
//! timeline.

use std::fmt;

use babol_onfi::bus::{ChipMask, PhaseKind};
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

    /// Records one bus phase.
    pub fn record(&mut self, start: SimTime, end: SimTime, mask: ChipMask, kind: &PhaseKind) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent {
            start,
            end,
            mask,
            label: kind.label(),
        });
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
    use babol_sim::SimDuration;

    fn at(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn disabled_records_nothing() {
        let mut a = Analyzer::new(false);
        a.record(at(0), at(1), ChipMask::single(0), &PhaseKind::Pause);
        assert!(a.events().is_empty());
    }

    #[test]
    fn records_phases_in_order() {
        let mut a = Analyzer::new(true);
        a.record(
            at(0),
            at(1),
            ChipMask::single(0),
            &PhaseKind::CmdLatch(0x70),
        );
        a.record(at(1), at(2), ChipMask::single(0), &PhaseKind::Pause);
        assert_eq!(a.events().len(), 2);
        assert!(a.events()[0].label.contains("READ-STATUS"));
        assert!(a.events()[1].label.contains("PAUSE"));
    }

    #[test]
    fn find_filters_by_label() {
        let mut a = Analyzer::new(true);
        a.record(
            at(0),
            at(1),
            ChipMask::single(0),
            &PhaseKind::CmdLatch(0x70),
        );
        a.record(
            at(1),
            at(2),
            ChipMask::single(0),
            &PhaseKind::DataOut { bytes: 1 },
        );
        assert_eq!(a.find("READ-STATUS").count(), 1);
        assert_eq!(a.find("DOUT").count(), 1);
        assert_eq!(a.find("nothing").count(), 0);
    }

    #[test]
    fn render_includes_header_and_rows() {
        let mut a = Analyzer::new(true);
        a.record(at(5), at(6), ChipMask::single(2), &PhaseKind::Pause);
        let s = a.render();
        assert!(s.contains("event"));
        assert!(s.contains("PAUSE"));
        assert!(s.contains("CE[2]"));
    }
}
