//! Measurement accumulators.

use serde::{Deserialize, Serialize};

/// Mean/min/max accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Acc {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
}

impl Acc {
    /// Adds a sample.
    #[inline]
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        if x > self.max {
            self.max = x;
        }
    }

    /// The sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Per-class link measurements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ClassStats {
    /// Sojourn time at the link: queueing wait + transmission (the
    /// quantity Eq. 3 models before adding propagation).
    pub sojourn: Acc,
    /// Queueing wait only.
    pub wait: Acc,
    /// Bits transmitted (for throughput/utilization accounting).
    pub bits: f64,
}

/// Every class's measurements for one link.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Indexed by priority (0 = served first).
    pub per_class: Vec<ClassStats>,
    /// Total busy time of the transmitter (seconds).
    pub busy_s: f64,
}

impl LinkStats {
    /// Empty statistics for `classes` priority classes.
    pub fn new(classes: usize) -> Self {
        LinkStats {
            per_class: vec![ClassStats::default(); classes],
            busy_s: 0.0,
        }
    }

    /// Measured utilization over a window of `duration_s`.
    pub fn utilization(&self, duration_s: f64) -> f64 {
        self.busy_s / duration_s
    }
}

/// Key for per-pair end-to-end accumulators. Orders by (class, src,
/// dst) so backend reports can keep pairs in sorted maps — aggregations
/// then sum in a fixed order, which keeps validation reports
/// byte-identical across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PairKey {
    /// Priority index of the flow's class (0 = served first; the
    /// paper's high class is 0, its low class 1).
    pub class: u8,
    /// Source node index.
    pub src: u32,
    /// Destination node index.
    pub dst: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acc_mean_and_max() {
        let mut a = Acc::default();
        assert_eq!(a.mean(), 0.0);
        a.add(1.0);
        a.add(3.0);
        assert_eq!(a.mean(), 2.0);
        assert_eq!(a.max, 3.0);
        assert_eq!(a.count, 2);
    }

    #[test]
    fn utilization_is_busy_fraction() {
        let s = LinkStats {
            busy_s: 2.5,
            ..Default::default()
        };
        assert_eq!(s.utilization(10.0), 0.25);
    }
}
