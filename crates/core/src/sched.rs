//! Task and transaction scheduling policies.
//!
//! "BABOL does not mandate or enforce any objective for these schedulers...
//! It is the job of an SSD Architect to make decisions about scheduling
//! strategy" (paper §V). Policies here are deliberately small, pluggable
//! values: the task scheduler picks which admitted operation runs next; the
//! transaction scheduler picks which built transaction is pushed to the
//! hardware instruction queue next.

/// Metadata a policy can see about a runnable task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TaskMeta {
    /// The LUN the task's operation targets.
    pub lun: u32,
    /// Task priority (higher runs first under the priority policy).
    pub priority: u8,
}

/// Which runnable task gets the CPU next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TaskPolicy {
    /// First come, first served.
    #[default]
    Fifo,
    /// Fair rotation across LUNs (the paper's "simple version ... implement
    /// fair scheduling among the running operations").
    RoundRobinLun,
    /// Highest priority first; FIFO among equals (the paper's example of
    /// prioritizing latency-sensitive workloads such as database logging).
    Priority,
}

/// Circular distance from the LUN after `last_lun` to `lun`, over the full
/// `u32` space. The candidate minimizing this is the next one in rotation.
/// Reducing the distance modulo a fixed constant (the old `% 64`) aliased
/// LUNs 64 apart onto the same key, so geometries with more than 64 LUNs —
/// or sparse LUN ids — starved whichever candidate lost the alias.
#[inline]
fn rotation_key(lun: u32, last_lun: u32) -> u32 {
    lun.wrapping_sub(last_lun.wrapping_add(1))
}

impl TaskPolicy {
    /// Picks the index of the next task from `candidates`; `last_lun` is the
    /// LUN served by the previous pick (for rotation). Returns `None` when
    /// `candidates` is empty — a drained runnable set is a normal state
    /// between completions, not a controller bug.
    pub fn pick(&self, candidates: &[TaskMeta], last_lun: u32) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        Some(match self {
            TaskPolicy::Fifo => 0,
            TaskPolicy::RoundRobinLun => {
                // First candidate whose LUN is strictly "after" the last
                // served LUN in circular order.
                let mut best = 0usize;
                let mut best_key = u32::MAX;
                for (i, c) in candidates.iter().enumerate() {
                    let key = rotation_key(c.lun, last_lun);
                    if key < best_key {
                        best_key = key;
                        best = i;
                    }
                }
                best
            }
            TaskPolicy::Priority => {
                let mut best = 0usize;
                for (i, c) in candidates.iter().enumerate() {
                    if c.priority > candidates[best].priority {
                        best = i;
                    }
                }
                best
            }
        })
    }
}

/// Metadata a policy can see about a built transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnMeta {
    /// Target LUN.
    pub lun: u32,
    /// Data bytes the transaction moves (0 for pure command segments).
    pub data_bytes: usize,
    /// Priority inherited from the owning task.
    pub priority: u8,
}

/// Which built transaction is pushed to the hardware queue next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TxnPolicy {
    /// First built, first issued.
    #[default]
    Fifo,
    /// Rotate across LUNs (the paper's "simple version of this scheduler can
    /// implement a round-robin approach").
    RoundRobinLun,
    /// Prefer command segments over bulk data: starts array work (tR) on
    /// idle LUNs before occupying the bus for a long transfer.
    CommandsFirst,
    /// Highest priority first (the paper's "more advanced transaction
    /// scheduler could prioritize commands for different LUNs").
    Priority,
}

impl TxnPolicy {
    /// Picks the index of the next transaction from `candidates`; `None`
    /// when the pending set is empty.
    pub fn pick(&self, candidates: &[TxnMeta], last_lun: u32) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        Some(match self {
            TxnPolicy::Fifo => 0,
            TxnPolicy::RoundRobinLun => {
                let mut best = 0usize;
                let mut best_key = u32::MAX;
                for (i, c) in candidates.iter().enumerate() {
                    let key = rotation_key(c.lun, last_lun);
                    if key < best_key {
                        best_key = key;
                        best = i;
                    }
                }
                best
            }
            TxnPolicy::CommandsFirst => {
                // Smallest data footprint first; FIFO among equals.
                let mut best = 0usize;
                for (i, c) in candidates.iter().enumerate() {
                    if c.data_bytes < candidates[best].data_bytes {
                        best = i;
                    }
                }
                best
            }
            TxnPolicy::Priority => {
                let mut best = 0usize;
                for (i, c) in candidates.iter().enumerate() {
                    if c.priority > candidates[best].priority {
                        best = i;
                    }
                }
                best
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(lun: u32) -> TaskMeta {
        TaskMeta { lun, priority: 0 }
    }

    #[test]
    fn fifo_takes_head() {
        assert_eq!(TaskPolicy::Fifo.pick(&[t(3), t(1)], 0), Some(0));
        let x = TxnMeta {
            lun: 0,
            data_bytes: 9,
            priority: 0,
        };
        assert_eq!(TxnPolicy::Fifo.pick(&[x, x], 5), Some(0));
    }

    #[test]
    fn round_robin_rotates() {
        let cands = [t(0), t(1), t(2)];
        assert_eq!(TaskPolicy::RoundRobinLun.pick(&cands, 0), Some(1));
        assert_eq!(TaskPolicy::RoundRobinLun.pick(&cands, 2), Some(0));
        // Missing LUN wraps to the next present one.
        let cands = [t(0), t(5)];
        assert_eq!(TaskPolicy::RoundRobinLun.pick(&cands, 1), Some(1));
    }

    /// Regression: rotation must use the full u32 circular distance. The
    /// old key reduced distances `% 64`, aliasing LUN ids 64 apart (64 ≡ 0,
    /// 200 ≡ 8), so sparse ids were served out of rotation order and could
    /// be starved. Every assertion here involving ids 64/200 picked a
    /// different candidate under the pre-fix code.
    #[test]
    fn round_robin_handles_lun_ids_beyond_64() {
        let cands = [t(0), t(63), t(64), t(200)];
        // After LUN 0, the next id in circular order is 63 (the %64 key
        // aliased 200 to distance 7 and picked it instead).
        assert_eq!(TaskPolicy::RoundRobinLun.pick(&cands, 0), Some(1));
        assert_eq!(TaskPolicy::RoundRobinLun.pick(&cands, 63), Some(2));
        // After 64 comes 200 (the %64 key gave 200 the *worst* distance
        // and re-picked 63, starving LUN 200 indefinitely).
        assert_eq!(TaskPolicy::RoundRobinLun.pick(&cands, 64), Some(3));
        // After the highest id, rotation wraps to the lowest.
        assert_eq!(TaskPolicy::RoundRobinLun.pick(&cands, 200), Some(0));

        // The transaction scheduler shares the rotation key; same cases.
        let m = |lun| TxnMeta {
            lun,
            data_bytes: 0,
            priority: 0,
        };
        let cands = [m(0), m(63), m(64), m(200)];
        assert_eq!(TxnPolicy::RoundRobinLun.pick(&cands, 0), Some(1));
        assert_eq!(TxnPolicy::RoundRobinLun.pick(&cands, 63), Some(2));
        assert_eq!(TxnPolicy::RoundRobinLun.pick(&cands, 64), Some(3));
        assert_eq!(TxnPolicy::RoundRobinLun.pick(&cands, 200), Some(0));
    }

    /// The rotation key must also survive `last_lun = u32::MAX` (the old
    /// `last_lun + 1` overflowed in debug builds).
    #[test]
    fn round_robin_survives_max_lun() {
        let cands = [t(0), t(7)];
        assert_eq!(TaskPolicy::RoundRobinLun.pick(&cands, u32::MAX), Some(0));
    }

    #[test]
    fn priority_wins_and_fifo_breaks_ties() {
        let cands = [
            TaskMeta {
                lun: 0,
                priority: 1,
            },
            TaskMeta {
                lun: 1,
                priority: 3,
            },
            TaskMeta {
                lun: 2,
                priority: 3,
            },
        ];
        assert_eq!(TaskPolicy::Priority.pick(&cands, 0), Some(1));
    }

    #[test]
    fn commands_first_prefers_small_segments() {
        let cands = [
            TxnMeta {
                lun: 0,
                data_bytes: 16384,
                priority: 0,
            },
            TxnMeta {
                lun: 1,
                data_bytes: 0,
                priority: 0,
            },
            TxnMeta {
                lun: 2,
                data_bytes: 1,
                priority: 0,
            },
        ];
        assert_eq!(TxnPolicy::CommandsFirst.pick(&cands, 0), Some(1));
    }

    #[test]
    fn txn_round_robin_rotates() {
        let m = |lun| TxnMeta {
            lun,
            data_bytes: 0,
            priority: 0,
        };
        let cands = [m(0), m(4), m(7)];
        assert_eq!(TxnPolicy::RoundRobinLun.pick(&cands, 4), Some(2));
        assert_eq!(TxnPolicy::RoundRobinLun.pick(&cands, 7), Some(0));
    }

    /// An empty candidate set is answered with `None`, never a panic: the
    /// runnable queue legitimately drains while ops wait on the array.
    #[test]
    fn empty_candidates_yield_none() {
        for p in [
            TaskPolicy::Fifo,
            TaskPolicy::RoundRobinLun,
            TaskPolicy::Priority,
        ] {
            assert_eq!(p.pick(&[], 0), None);
        }
        for p in [
            TxnPolicy::Fifo,
            TxnPolicy::RoundRobinLun,
            TxnPolicy::CommandsFirst,
            TxnPolicy::Priority,
        ] {
            assert_eq!(p.pick(&[], 9), None);
        }
    }
}
