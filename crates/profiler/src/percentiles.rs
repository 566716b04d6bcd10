//! Percentiles and percentile exploration grids.
//!
//! The paper explores percentiles "ranging from 1% to 99% with a step of 5%"
//! (§III-B) for the head function, and can be configured with stricter
//! targets (e.g. P99.9) for tighter SLOs. [`Percentile`] is a validated
//! floating-point percentile in `(0, 100)`, and [`PercentileGrid`] is the
//! ordered set of candidate percentiles the synthesizer searches.

use std::fmt;

/// A percentile in the open interval (0, 100).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile(f64);

impl Percentile {
    /// The P99 tail percentile used as the default SLO target.
    pub const P99: Percentile = Percentile(99.0);
    /// The median.
    pub const P50: Percentile = Percentile(50.0);
    /// The 1st percentile (fastest observed executions).
    pub const P1: Percentile = Percentile(1.0);

    /// Construct a validated percentile.
    pub fn new(p: f64) -> Result<Self, String> {
        if !(p.is_finite() && p > 0.0 && p < 100.0) {
            return Err(format!("percentile must be in (0, 100), got {p}"));
        }
        Ok(Percentile(p))
    }

    /// The numeric percentile value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Probability (in `[0,1]`) that an execution finishes within the profiled
    /// latency at this percentile: simply `p / 100`.
    pub fn probability(self) -> f64 {
        self.0 / 100.0
    }
}

impl fmt::Display for Percentile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if (self.0 - self.0.round()).abs() < 1e-9 {
            write!(f, "P{}", self.0.round() as i64)
        } else {
            write!(f, "P{:.1}", self.0)
        }
    }
}

impl Eq for Percentile {}

impl PartialOrd for Percentile {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Percentile {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl PartialOrd<f64> for Percentile {
    fn partial_cmp(&self, other: &f64) -> Option<std::cmp::Ordering> {
        self.0.partial_cmp(other)
    }
}

impl PartialEq<f64> for Percentile {
    fn eq(&self, other: &f64) -> bool {
        self.0 == *other
    }
}

/// An ordered set of candidate percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct PercentileGrid {
    values: Vec<Percentile>,
}

impl PercentileGrid {
    /// The paper's default exploration grid: 1, 6, 11, …, 96, 99 (1 to 99
    /// with a step of 5, always including the P99 tail).
    pub fn paper_default() -> Self {
        let mut values: Vec<Percentile> = (0..20)
            .map(|i| Percentile(1.0 + 5.0 * i as f64)) // 1..=96, inside (0, 100)
            .collect();
        values.push(Percentile::P99);
        PercentileGrid { values }
    }

    /// Build a grid from explicit values (deduplicated and sorted).
    pub fn from_values(values: Vec<Percentile>) -> Result<Self, String> {
        if values.is_empty() {
            return Err("percentile grid cannot be empty".to_string());
        }
        let mut values = values;
        values.sort();
        values.dedup();
        Ok(PercentileGrid { values })
    }

    /// Candidate percentiles in ascending order.
    pub fn values(&self) -> &[Percentile] {
        &self.values
    }

    /// The highest percentile (the tail anchor used for non-head functions).
    pub fn tail(&self) -> Percentile {
        // janus-lint: allow(unwrap-discipline) — every constructor leaves the grid non-empty (`from_values` rejects an empty list)
        *self.values.last().expect("grid is non-empty")
    }

    /// The lowest percentile.
    pub fn lowest(&self) -> Percentile {
        // janus-lint: allow(unwrap-discipline) — every constructor leaves the grid non-empty (`from_values` rejects an empty list)
        *self.values.first().expect("grid is non-empty")
    }

    /// Iterate over the candidate percentiles.
    pub fn iter(&self) -> impl Iterator<Item = Percentile> + '_ {
        self.values.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_spans_p1_to_p99() {
        let g = PercentileGrid::paper_default();
        assert_eq!(g.lowest(), Percentile::P1);
        assert_eq!(g.tail(), Percentile::P99);
        assert_eq!(g.values().len(), 21);
        // Steps of 5 from 1 to 96.
        assert!(g.values().iter().any(|p| p.value() == 51.0));
        assert!(g.values().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn percentile_validation() {
        assert!(Percentile::new(0.0).is_err());
        assert!(Percentile::new(100.0).is_err());
        assert!(Percentile::new(f64::NAN).is_err());
        assert!(Percentile::new(99.9).is_ok());
        assert_eq!(Percentile::new(50.0).unwrap(), Percentile::P50);
    }

    #[test]
    fn display_formats_cleanly() {
        assert_eq!(Percentile::P99.to_string(), "P99");
        assert_eq!(Percentile::new(99.9).unwrap().to_string(), "P99.9");
    }

    #[test]
    fn from_values_sorts_and_dedups() {
        let g = PercentileGrid::from_values(vec![
            Percentile::P99,
            Percentile::P1,
            Percentile::P99,
            Percentile::P50,
        ])
        .unwrap();
        assert_eq!(g.values().len(), 3);
        assert_eq!(g.lowest(), Percentile::P1);
        assert_eq!(g.tail(), Percentile::P99);
        assert!(PercentileGrid::from_values(vec![]).is_err());
    }

    #[test]
    fn probability_is_fractional_percentile() {
        assert!((Percentile::P99.probability() - 0.99).abs() < 1e-12);
        assert!((Percentile::P50.probability() - 0.5).abs() < 1e-12);
    }
}
