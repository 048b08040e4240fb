//! Event sources and the calendar queue that orders them.
//!
//! Every pending event belongs to one *source*: a flow (its next packet
//! arrival), a link's transmitter (the completion of the packet it is
//! sending) or a link's propagation pipe (the packets on the wire,
//! each arriving at the link's far end). A flow and a transmitter have
//! at most one event pending at a time. A pipe can hold many, but they
//! leave it in FIFO order, so only the pipe's head needs a queue entry —
//! the queue never holds more than flows + 2·links entries.
//!
//! [`Calendar`] is an exact calendar queue (R. Brown, CACM 31(10),
//! 1988): entries hash by their *absolute* bucket index `⌊time /
//! width⌋` into a power-of-two ring of buckets, and [`Calendar::pop`]
//! drains the ring one index at a time, taking from the current bucket
//! the least entry by [`Pending`]'s own order among those whose index
//! is the current one. The index is monotone in `time`, so every entry
//! with a smaller index is earlier than every entry with a larger one;
//! as long as nothing is pushed below the current index (a hard
//! assert), the queue pops exactly the `(time, seq)` order a
//! `BinaryHeap<Pending>` would. Width and bucket count only decide how
//! fast that is, never what comes out.

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
        // Reversed, as a max-heap wants it: the *greater* entry fires
        // first.
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

impl Source {
    /// The source as one `u32`: its index shifted left by two, its kind
    /// in the low bits.
    fn packed(self) -> u32 {
        let (id, kind) = match self {
            Source::Flow(i) => (i, 0),
            Source::Tx(l) => (l, 1),
            Source::Pipe(l) => (l, 2),
        };
        assert!(id < 1 << 30, "source {id} does not fit a queue slot");
        id << 2 | kind
    }

    fn unpacked(packed: u32) -> Self {
        let id = packed >> 2;
        match packed & 3 {
            0 => Source::Flow(id),
            1 => Source::Tx(id),
            _ => Source::Pipe(id),
        }
    }
}

/// End of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// A slab slot, 24 bytes: a queued entry, or a free slot when off every
/// bucket. Its bucket index is recomputed from `time` where needed
/// rather than stored.
#[derive(Debug, Clone, Copy)]
struct Slot {
    time: f64,
    seq: u64,
    /// [`Source::packed`].
    source: u32,
    /// The next slot in the same bucket (or on the free list).
    next: u32,
}

impl Slot {
    #[inline]
    fn pending(&self) -> Pending {
        Pending {
            time: self.time,
            seq: self.seq,
            source: Source::unpacked(self.source),
        }
    }
}

/// The DES's pending-event set: an exact calendar queue over one slab
/// of entries. Memory is the slab (24 bytes per entry of the bound,
/// allocated once) plus one 4-byte list head per bucket.
#[derive(Debug)]
pub(crate) struct Calendar {
    slots: Vec<Slot>,
    /// Head of the free-slot list.
    free: u32,
    /// `heads[b]`: the first slot of bucket `b`'s list.
    heads: Vec<u32>,
    mask: u64,
    /// `1 / width`, in buckets per second.
    inv_width: f64,
    /// The absolute index being drained: no live entry is below it.
    current: u64,
    len: usize,
    /// Most entries ever allowed at once (flows + 2·links for the DES).
    bound: usize,
}

impl Calendar {
    /// An empty queue of at most `bound` entries over `buckets` buckets
    /// (rounded up to a power of two) of `width = 1 / inv_width`
    /// seconds each. The slab is allocated for `bound` entries at once,
    /// so it never reallocates: the DES's bound is flows + 2·links and
    /// every flow always has an arrival queued, so at most 2·links
    /// slots stay unused.
    pub fn new(bound: usize, buckets: usize, inv_width: f64) -> Self {
        assert!(
            inv_width.is_finite() && inv_width > 0.0,
            "bucket rate {inv_width} must be positive and finite"
        );
        let buckets = buckets.max(1).next_power_of_two();
        Calendar {
            slots: Vec::with_capacity(bound),
            free: NIL,
            heads: vec![NIL; buckets],
            mask: buckets as u64 - 1,
            inv_width,
            current: 0,
            len: 0,
            bound,
        }
    }

    /// Number of queued entries.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// The absolute bucket index of `time`: truncation saturates (and
    /// maps every negative time to 0), so this is monotone over every
    /// non-NaN time, `-0.0` and the infinities included.
    #[inline]
    fn index_of(&self, time: f64) -> u64 {
        (time * self.inv_width) as u64
    }

    /// Queues `p`. Its time must not precede the last popped one's
    /// bucket, which the engine guarantees by never scheduling before
    /// `now`.
    #[inline]
    pub fn push(&mut self, p: Pending) {
        let index = self.index_of(p.time);
        // A push below the drained index would fire out of order.
        assert!(
            index >= self.current && !p.time.is_nan(),
            "event at {} scheduled behind the queue's clock",
            p.time
        );
        assert!(self.len < self.bound, "more than {} events", self.bound);
        let bucket = (index & self.mask) as usize;
        let slot = Slot {
            time: p.time,
            seq: p.seq,
            source: p.source.packed(),
            next: self.heads[bucket],
        };
        let at = if self.free == NIL {
            self.slots.push(slot);
            (self.slots.len() - 1) as u32
        } else {
            let at = self.free;
            self.free = self.slots[at as usize].next;
            self.slots[at as usize] = slot;
            at
        };
        self.heads[bucket] = at;
        self.len += 1;
    }

    /// Removes and returns the earliest entry in `(time, seq)` order.
    #[inline]
    pub fn pop(&mut self) -> Option<Pending> {
        if self.len == 0 {
            return None;
        }
        let mut scanned = 0;
        loop {
            let bucket = (self.current & self.mask) as usize;
            let (mut prev, mut at) = (NIL, self.heads[bucket]);
            let (mut best, mut best_prev) = (NIL, NIL);
            while at != NIL {
                let slot = &self.slots[at as usize];
                if self.index_of(slot.time) == self.current
                    && (best == NIL || slot.pending() > self.slots[best as usize].pending())
                {
                    (best, best_prev) = (at, prev);
                }
                (prev, at) = (at, slot.next);
            }
            if best != NIL {
                let slot = self.slots[best as usize];
                if best_prev == NIL {
                    self.heads[bucket] = slot.next;
                } else {
                    self.slots[best_prev as usize].next = slot.next;
                }
                self.slots[best as usize].next = self.free;
                self.free = best;
                self.len -= 1;
                return Some(slot.pending());
            }
            // Nothing left at this index, but something is queued above
            // it, so `current < u64::MAX` and the step cannot overflow.
            scanned += 1;
            if scanned > self.mask {
                // A full year of empty buckets: jump to the least index.
                self.current = self.least_index();
                scanned = 0;
            } else {
                self.current += 1;
            }
        }
    }

    /// The least absolute index of any queued entry.
    fn least_index(&self) -> u64 {
        let mut least = u64::MAX;
        for &head in &self.heads {
            let mut at = head;
            while at != NIL {
                let slot = &self.slots[at as usize];
                least = least.min(self.index_of(slot.time));
                at = slot.next;
            }
        }
        least
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BinaryHeap;

    /// An entry whose source, of each kind in turn, is unique to `seq`.
    fn pending(time: f64, seq: u64) -> Pending {
        let id = (seq / 3) as u32;
        let source = [Source::Flow(id), Source::Tx(id), Source::Pipe(id)][seq as usize % 3];
        Pending { time, seq, source }
    }

    fn key(p: Pending) -> (u64, u64) {
        (p.time.to_bits(), p.seq)
    }

    /// A delay after `now` of one of the shapes the queue must survive:
    /// exact ties, sub-bucket steps, a year or many years ahead, and
    /// times near `f64::MAX`.
    fn delay(rng: &mut StdRng, now: f64, year: f64) -> f64 {
        match rng.random_range(0..8u32) {
            0 | 1 => 0.0,
            2 => -0.0,
            3 => rng.random::<f64>() * year / 64.0,
            4 => rng.random::<f64>() * year,
            5 => year * rng.random_range(1..50u32) as f64,
            6 => year * 1e6 * rng.random::<f64>(),
            _ => (f64::MAX - now) * rng.random::<f64>(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The calendar and a `BinaryHeap<Pending>` driven through the
        /// same random schedule pop the same entries in the same order.
        #[test]
        fn calendar_pops_in_heap_order(
            seed in any::<u64>(),
            buckets in 1usize..40,
            inv_width in prop_oneof![Just(1.0f64), 0.01f64..100.0, Just(1e300)],
            ops in 20usize..600,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let bound = 64;
            let mut cal = Calendar::new(bound, buckets, inv_width);
            let mut heap = BinaryHeap::new();
            let year = buckets.next_power_of_two() as f64 / inv_width;
            let (mut now, mut seq) = (-0.0f64, 0u64);
            for _ in 0..ops {
                if heap.len() < bound && (heap.is_empty() || rng.random_bool(0.55)) {
                    let p = pending(now + delay(&mut rng, now, year), seq);
                    seq += 1;
                    cal.push(p);
                    heap.push(p);
                } else {
                    let (a, b) = (cal.pop().unwrap(), heap.pop().unwrap());
                    prop_assert_eq!(key(a), key(b));
                    prop_assert_eq!(a.source, b.source);
                    now = a.time;
                }
                prop_assert_eq!(cal.len(), heap.len());
                // Popped slots are reused, so the slab stays within the bound.
                prop_assert!(cal.slots.len() <= bound);
            }
            while let Some(b) = heap.pop() {
                prop_assert_eq!(cal.pop().map(key), Some(key(b)));
            }
            prop_assert!(cal.pop().is_none());
        }
    }

    #[test]
    fn an_empty_year_jumps_to_the_least_index() {
        // Four buckets of one second: 1e9 s and 1e9 + 2.5 s are years
        // past the first pop, and `-0.0` sorts before `0.0`.
        let mut cal = Calendar::new(8, 4, 1.0);
        for (t, s) in [(1e9 + 2.5, 0), (0.0, 1), (1e9, 2), (-0.0, 3), (0.0, 4)] {
            cal.push(pending(t, s));
        }
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| cal.pop().map(key)).collect();
        let expected = [(-0.0, 3), (0.0, 1), (0.0, 4), (1e9, 2), (1e9 + 2.5, 0)];
        assert_eq!(order, expected.map(|(t, s): (f64, u64)| key(pending(t, s))));
    }

    #[test]
    fn slots_are_24_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 24);
        let id = (1 << 30) - 1;
        for source in [Source::Flow(id), Source::Tx(0), Source::Pipe(id)] {
            assert_eq!(Source::unpacked(source.packed()), source);
        }
    }

    #[test]
    #[should_panic(expected = "behind the queue's clock")]
    fn a_push_behind_the_clock_is_refused() {
        let mut cal = Calendar::new(8, 4, 1.0);
        cal.push(pending(7.5, 0));
        cal.pop();
        cal.push(pending(6.0, 1));
    }
}
