//! CPU resource units.
//!
//! The paper sizes functions in *millicores* ranging from 1000 to 3000 with a
//! step of 100 (§V-A "Domain knowledge"). [`Millicores`] is the single resource
//! knob exposed to sizing policies; [`CoreGrid`] captures the discrete
//! exploration grid used by the profiler and the synthesizer.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A CPU allocation expressed in millicores (1/1000 of a physical core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Millicores(pub u32);

impl Millicores {
    /// Zero allocation.
    pub const ZERO: Millicores = Millicores(0);

    /// Construct from a raw millicore count.
    pub const fn new(mc: u32) -> Self {
        Millicores(mc)
    }

    /// Construct from whole cores.
    pub const fn from_cores(cores: u32) -> Self {
        Millicores(cores * 1000)
    }

    /// Raw millicore count.
    pub const fn get(self) -> u32 {
        self.0
    }

    /// Saturating subtraction, never underflows below zero.
    pub(crate) fn saturating_sub(self, other: Millicores) -> Millicores {
        Millicores(self.0.saturating_sub(other.0))
    }

    /// Clamp into an inclusive range.
    pub fn clamp_to(self, min: Millicores, max: Millicores) -> Millicores {
        Millicores(self.0.clamp(min.0, max.0))
    }
}

impl Add for Millicores {
    type Output = Millicores;
    fn add(self, rhs: Millicores) -> Millicores {
        Millicores(self.0 + rhs.0)
    }
}

impl AddAssign for Millicores {
    fn add_assign(&mut self, rhs: Millicores) {
        self.0 += rhs.0;
    }
}

impl Sub for Millicores {
    type Output = Millicores;
    fn sub(self, rhs: Millicores) -> Millicores {
        Millicores(self.0.saturating_sub(rhs.0))
    }
}

impl std::iter::Sum for Millicores {
    fn sum<I: Iterator<Item = Millicores>>(iter: I) -> Self {
        Millicores(iter.map(|m| m.0).sum())
    }
}

impl fmt::Display for Millicores {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}mc", self.0)
    }
}

/// The discrete grid of CPU allocations explored by the profiler and the
/// synthesizer: `[min, max]` with a fixed `step`, all in millicores.
///
/// The paper uses `CoreGrid::paper_default()` = 1000..=3000 step 100.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreGrid {
    /// Minimum allocation (`Kmin` in the paper).
    pub min: Millicores,
    /// Maximum allocation (`Kmax` in the paper).
    pub max: Millicores,
    /// Grid step in millicores.
    pub step: u32,
}

impl CoreGrid {
    /// Build a grid, validating the invariants `min <= max`, `step > 0` and
    /// that `max` lies on the grid (the span is a whole number of steps), so
    /// [`iter`](Self::iter) ends where [`snap_up`](Self::snap_up) clamps.
    pub fn new(min: Millicores, max: Millicores, step: u32) -> Result<Self, String> {
        if step == 0 {
            return Err("core grid step must be positive".to_string());
        }
        if min > max {
            return Err(format!("core grid min {min} exceeds max {max}"));
        }
        if !(max.get() - min.get()).is_multiple_of(step) {
            return Err(format!(
                "core grid span {min}..={max} is not a whole number of {step}mc steps"
            ));
        }
        if min.get() == 0 {
            return Err("core grid minimum must be at least 1 millicore".to_string());
        }
        Ok(CoreGrid { min, max, step })
    }

    /// The grid used throughout the paper's evaluation: 1000–3000 mc, step 100.
    pub fn paper_default() -> Self {
        CoreGrid {
            min: Millicores::new(1000),
            max: Millicores::new(3000),
            step: 100,
        }
    }

    /// Number of grid points.
    pub(crate) fn len(&self) -> usize {
        ((self.max.get() - self.min.get()) / self.step + 1) as usize
    }

    /// Iterate over allocations from `min` to `max` inclusive.
    pub fn iter(&self) -> impl Iterator<Item = Millicores> + '_ {
        let step = self.step;
        let min = self.min.get();
        (0..self.len() as u32).map(move |i| Millicores::new(min + i * step))
    }

    /// Snap an arbitrary allocation onto the grid (round up, clamp to bounds).
    ///
    /// Rounding *up* is the conservative choice for SLO compliance: a policy
    /// asking for 1250 mc receives 1300 mc, never less than requested.
    pub fn snap_up(&self, mc: Millicores) -> Millicores {
        if mc <= self.min {
            return self.min;
        }
        if mc >= self.max {
            return self.max;
        }
        let offset = mc.get() - self.min.get();
        let steps = offset.div_ceil(self.step);
        Millicores::new((self.min.get() + steps * self.step).min(self.max.get()))
    }

    /// True if `mc` lies exactly on the grid.
    pub(crate) fn contains(&self, mc: Millicores) -> bool {
        mc >= self.min && mc <= self.max && (mc.get() - self.min.get()).is_multiple_of(self.step)
    }

    /// Index of a grid point (None if not on the grid).
    pub fn index_of(&self, mc: Millicores) -> Option<usize> {
        if !self.contains(mc) {
            return None;
        }
        Some(((mc.get() - self.min.get()) / self.step) as usize)
    }

    /// Grid point at `index` (None if out of range).
    pub fn at(&self, index: usize) -> Option<Millicores> {
        if index >= self.len() {
            return None;
        }
        Some(Millicores::new(self.min.get() + index as u32 * self.step))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_has_21_points() {
        let g = CoreGrid::paper_default();
        assert_eq!(g.len(), 21);
        let pts: Vec<_> = g.iter().collect();
        assert_eq!(pts[0], Millicores::new(1000));
        assert_eq!(pts[20], Millicores::new(3000));
        assert_eq!(pts[1], Millicores::new(1100));
    }

    #[test]
    fn snap_up_is_conservative() {
        let g = CoreGrid::paper_default();
        assert_eq!(g.snap_up(Millicores::new(1250)), Millicores::new(1300));
        assert_eq!(g.snap_up(Millicores::new(1300)), Millicores::new(1300));
        assert_eq!(g.snap_up(Millicores::new(500)), Millicores::new(1000));
        assert_eq!(g.snap_up(Millicores::new(9999)), Millicores::new(3000));
    }

    #[test]
    fn grid_index_roundtrip() {
        let g = CoreGrid::paper_default();
        for (i, mc) in g.iter().enumerate() {
            assert_eq!(g.index_of(mc), Some(i));
            assert_eq!(g.at(i), Some(mc));
        }
        assert_eq!(g.index_of(Millicores::new(1050)), None);
        assert_eq!(g.at(21), None);
    }

    #[test]
    fn invalid_grids_are_rejected() {
        assert!(CoreGrid::new(Millicores::new(1000), Millicores::new(2000), 0).is_err());
        assert!(CoreGrid::new(Millicores::new(3000), Millicores::new(1000), 100).is_err());
        assert!(CoreGrid::new(Millicores::new(0), Millicores::new(1000), 100).is_err());
        // A span that is not a whole number of steps: `iter` would stop at
        // 3000 while `snap_up` clamps to 3050, off the grid.
        let err = CoreGrid::new(Millicores::new(1000), Millicores::new(3050), 100).unwrap_err();
        assert!(err.contains("whole number"), "{err}");
        assert!(CoreGrid::new(Millicores::new(1000), Millicores::new(3000), 100).is_ok());
    }

    #[test]
    fn millicore_arithmetic() {
        let a = Millicores::new(1500);
        let b = Millicores::new(700);
        assert_eq!((a + b).get(), 2200);
        assert_eq!((b - a).get(), 0, "subtraction saturates");
        assert_eq!(a.saturating_sub(b).get(), 800);
        let total: Millicores = [a, b].into_iter().sum();
        assert_eq!(total.get(), 2200);
    }
}
