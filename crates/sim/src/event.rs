//! Event sources and the heap entry that orders them.
//!
//! Every pending event belongs to one *source*: a flow (its next packet
//! arrival), a link's transmitter (the completion of the packet it is
//! sending) or a link's propagation pipe (the packets on the wire,
//! each arriving at the link's far end). A flow and a transmitter have
//! at most one event pending at a time. A pipe can hold many, but they
//! leave it in FIFO order, so only the pipe's head needs a heap entry —
//! the heap never holds more than flows + 2·links entries.

use std::cmp::Ordering;

/// One source's earliest pending event.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pending {
    /// Simulation time in seconds.
    pub time: f64,
    /// Monotone sequence number, assigned when the event was scheduled:
    /// equal-time events fire in scheduling order, making runs
    /// reproducible.
    pub seq: u64,
    pub source: Source,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Where a pending event comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    /// Flow `i` emits its next packet.
    Flow(u32),
    /// Link `l` finishes transmitting its current packet.
    Tx(u32),
    /// The packet at the head of link `l`'s pipe reaches the link's far
    /// end.
    Pipe(u32),
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn pending(time: f64, seq: u64) -> Pending {
        Pending {
            time,
            seq,
            source: Source::Flow(0),
        }
    }

    #[test]
    fn pops_earliest_time_then_lowest_seq() {
        let mut heap: BinaryHeap<Pending> = [(3.0, 0), (1.0, 4), (2.0, 1), (1.0, 2), (1.0, 3)]
            .map(|(t, s)| pending(t, s))
            .into();
        let order: Vec<(f64, u64)> =
            std::iter::from_fn(|| heap.pop().map(|p| (p.time, p.seq))).collect();
        assert_eq!(order, [(1.0, 2), (1.0, 3), (1.0, 4), (2.0, 1), (3.0, 0)]);
    }
}
