//! Dense traffic matrices.

use serde::{DeError, Deserialize, Serialize, Value};

/// A dense `n × n` traffic matrix; entry `(s, t)` is the offered volume
/// from node `s` to node `t` in Mbit/s. Diagonal entries are always zero
/// (`r(s, s) = 0`, §3).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrafficMatrix {
    n: usize,
    data: Vec<f64>,
}

/// Matrices arrive from files and from `dtrd`'s wire: what [`set`]
/// asserts entry by entry is checked here for the whole matrix, so a
/// ragged or negative one is a parse error, not a panic at first use.
///
/// So is a matrix whose total exceeds [`TrafficMatrix::MAX_TOTAL`]: each
/// entry being finite does not keep the costs finite. An ECMP DAG carries
/// each unit of demand over a link at most once (every path in it is
/// simple, and the splits of one unit sum to one), so every link's load
/// is at most the matrix total. `Φ` rises with slope at most 5000, so
/// `Φ ≤ 5000 · m · total` over `m` links, per class. With the total at
/// most 1e15 Mbit/s that is below 5e18 · m, finite for every `m` below
/// 1e289 — any network this workspace can build — where an entry of
/// 1e308 alone makes `Φ` infinite, which JSON cannot write.
///
/// [`set`]: TrafficMatrix::set
impl Deserialize for TrafficMatrix {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        #[derive(Deserialize)]
        struct Raw {
            n: usize,
            data: Vec<f64>,
        }
        let Raw { n, data } = Raw::from_value(v)?;
        if n.checked_mul(n) != Some(data.len()) {
            let len = data.len();
            return Err(DeError(format!(
                "traffic matrix: n = {n} needs {n}×{n} entries, found {len}"
            )));
        }
        if let Some(i) = data.iter().position(|x| !(x.is_finite() && *x >= 0.0)) {
            let (s, t, x) = (i / n, i % n, data[i]);
            return Err(DeError(format!(
                "traffic matrix: demand ({s}, {t}) = {x} is not finite and ≥ 0"
            )));
        }
        if let Some(s) = (0..n).find(|s| data[s * n + s] != 0.0) {
            return Err(DeError(format!(
                "traffic matrix: self-traffic r({s}, {s}) must be zero"
            )));
        }
        let matrix = TrafficMatrix { n, data };
        let total = matrix.total();
        // Entries are finite and ≥ 0, so the sum is never NaN (at worst ∞).
        if total > Self::MAX_TOTAL {
            return Err(DeError(format!(
                "traffic matrix: total demand {total:e} Mbit/s exceeds {:e}",
                Self::MAX_TOTAL
            )));
        }
        Ok(matrix)
    }
}

impl TrafficMatrix {
    /// The largest total volume (Mbit/s) a parsed matrix may carry; see
    /// the `Deserialize` impl for why it keeps every cost finite.
    pub const MAX_TOTAL: f64 = 1e15;

    /// An all-zero `n × n` matrix.
    pub fn zeros(n: usize) -> Self {
        TrafficMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Matrix dimension (number of nodes).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the matrix covers zero nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Demand from `s` to `t` (node indices).
    #[inline]
    pub fn get(&self, s: usize, t: usize) -> f64 {
        self.data[s * self.n + t]
    }

    /// Sets the demand from `s` to `t`.
    ///
    /// # Panics
    /// If `s == t` and `v != 0` (self-traffic is not representable), or if
    /// `v` is negative/non-finite.
    #[inline]
    pub fn set(&mut self, s: usize, t: usize, v: f64) {
        assert!(v.is_finite() && v >= 0.0, "demand must be finite and ≥ 0");
        assert!(s != t || v == 0.0, "self-traffic r(s,s) must be zero");
        self.data[s * self.n + t] = v;
    }

    /// Adds `v` to the demand from `s` to `t` (same constraints as
    /// [`TrafficMatrix::set`]).
    #[inline]
    pub fn add(&mut self, s: usize, t: usize, v: f64) {
        let cur = self.get(s, t);
        self.set(s, t, cur + v);
    }

    /// Total volume `Σ_{s,t} r(s, t)`.
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Total volume originating at node `s` (row sum).
    pub fn row_total(&self, s: usize) -> f64 {
        self.data[s * self.n..(s + 1) * self.n].iter().sum()
    }

    /// Total volume destined to node `t` (column sum).
    pub fn col_total(&self, t: usize) -> f64 {
        (0..self.n).map(|s| self.get(s, t)).sum()
    }

    /// All `(s, t)` pairs with strictly positive demand, row-major order.
    pub fn positive_pairs(&self) -> Vec<(usize, usize)> {
        let mut v = Vec::new();
        for s in 0..self.n {
            for t in 0..self.n {
                if self.get(s, t) > 0.0 {
                    v.push((s, t));
                }
            }
        }
        v
    }

    /// A copy scaled by `gamma ≥ 0`.
    pub fn scaled(&self, gamma: f64) -> TrafficMatrix {
        assert!(gamma.is_finite() && gamma >= 0.0);
        TrafficMatrix {
            n: self.n,
            data: self.data.iter().map(|&x| x * gamma).collect(),
        }
    }

    /// Iterates over `(s, t, volume)` for positive entries grouped by
    /// destination `t` — the access pattern of per-destination ECMP load
    /// accumulation.
    pub fn demands_to(&self, t: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        (0..self.n).filter_map(move |s| {
            let v = self.get(s, t);
            (v > 0.0).then_some((s, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let mut m = TrafficMatrix::zeros(4);
        assert_eq!(m.total(), 0.0);
        m.set(0, 1, 10.0);
        m.set(2, 3, 5.0);
        assert_eq!(m.get(0, 1), 10.0);
        assert_eq!(m.total(), 15.0);
        assert_eq!(m.row_total(0), 10.0);
        assert_eq!(m.col_total(3), 5.0);
    }

    #[test]
    fn add_accumulates() {
        let mut m = TrafficMatrix::zeros(3);
        m.add(0, 2, 1.0);
        m.add(0, 2, 2.0);
        assert_eq!(m.get(0, 2), 3.0);
    }

    #[test]
    #[should_panic(expected = "self-traffic")]
    fn rejects_diagonal() {
        let mut m = TrafficMatrix::zeros(3);
        m.set(1, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_negative() {
        let mut m = TrafficMatrix::zeros(3);
        m.set(0, 1, -1.0);
    }

    #[test]
    fn positive_pairs_and_demands_to() {
        let mut m = TrafficMatrix::zeros(3);
        m.set(0, 2, 1.0);
        m.set(1, 2, 2.0);
        m.set(2, 0, 3.0);
        assert_eq!(m.positive_pairs(), vec![(0, 2), (1, 2), (2, 0)]);
        let to2: Vec<_> = m.demands_to(2).collect();
        assert_eq!(to2, vec![(0, 1.0), (1, 2.0)]);
    }

    #[test]
    fn scaled_is_elementwise() {
        let mut m = TrafficMatrix::zeros(2);
        m.set(0, 1, 4.0);
        let s = m.scaled(0.25);
        assert_eq!(s.get(0, 1), 1.0);
        assert_eq!(m.get(0, 1), 4.0, "original untouched");
    }

    #[test]
    fn deserialize_checks_what_set_asserts() {
        let mut m = TrafficMatrix::zeros(2);
        m.set(0, 1, 4.0);
        assert_eq!(TrafficMatrix::from_value(&m.to_value()), Ok(m));
        let wire = |n: u64, data: &[f64]| {
            let data = Value::Seq(data.iter().map(|&x| Value::Float(x)).collect());
            Value::Map(vec![("n".into(), Value::UInt(n)), ("data".into(), data)])
        };
        for (n, data, token) in [
            (2, &[0.0, 4.0, 0.0][..], "2×2 entries, found 3"),
            (2, &[0.0, -4.0, 0.0, 0.0], "(0, 1) = -4"),
            (2, &[0.0, f64::INFINITY, 0.0, 0.0], "(0, 1) = inf"),
            (2, &[0.0, 0.0, 0.0, 1.0], "r(1, 1)"),
            (u64::MAX, &[], "found 0"),
            (2, &[0.0, 1e308, 0.0, 0.0], "total demand 1e308"),
            (2, &[0.0, 1.7e308, 1.7e308, 0.0], "total demand inf"),
            (2, &[0.0, 6e14, 6e14, 0.0], "exceeds 1e15"),
        ] {
            let DeError(message) = TrafficMatrix::from_value(&wire(n, data)).unwrap_err();
            assert!(message.contains(token), "{message}");
        }
        let at_bound = TrafficMatrix::from_value(&wire(2, &[0.0, 5e14, 5e14, 0.0])).unwrap();
        assert_eq!(at_bound.total(), TrafficMatrix::MAX_TOTAL);
    }
}
