//! Early-binding baselines: GrandSLAM, GrandSLAM⁺ and ORION.
//!
//! All three consume the same [`WorkflowProfile`] the developer would collect
//! for Janus and produce a [`FixedSizingPolicy`] — the sizes never change at
//! runtime, which is exactly the early-binding behaviour whose inefficiency
//! the paper quantifies.
//!
//! ORION's greedy search scores every one-step shrink of the current sizes
//! by the tail of a Monte-Carlo convolution over fixed draws. Its cost is
//! kept to what the scores depend on: each function's samples are gathered
//! once per size it reaches (a candidate only ever reads the current size
//! and the next smaller one), a candidate's sums add those columns in
//! function order (the same left fold as a per-sample sum, so the same
//! bits), and the tail is selected among the sums at or above a floor set
//! just under the tail at the current sizes, with a full selection when too
//! few clear it. Sizes are identical to re-gathering and fully selecting
//! every candidate, which a unit test checks against exactly that.

use janus_platform::policy::FixedSizingPolicy;
use janus_profiler::percentiles::Percentile;
use janus_profiler::profile::WorkflowProfile;
use janus_simcore::resources::{CoreGrid, Millicores};
use janus_simcore::rng::SimRng;
use janus_simcore::stats::{select_percentile, select_percentile_above};
use janus_simcore::time::SimDuration;

/// GrandSLAM \[41\]: identical sizes for all functions. Returns the smallest
/// uniform allocation `k` on the grid such that `Σ_i L_i(99, k) ≤ slo`; falls
/// back to `Kmax` everywhere if even that is infeasible.
pub fn grandslam(profile: &WorkflowProfile, slo: SimDuration) -> Result<FixedSizingPolicy, String> {
    let grid = profile.grid();
    let uniform = grid.iter().find(|&k| {
        let total: SimDuration = profile
            .functions()
            .iter()
            .map(|f| f.latency(Percentile::P99, k))
            .sum();
        total <= slo
    });
    let k = uniform.unwrap_or(grid.max);
    FixedSizingPolicy::new("GrandSLAM", vec![k; profile.len()])
}

/// GrandSLAM⁺: per-function sizes (the identical-size constraint removed)
/// minimising the total allocation subject to `Σ_i L_i(99, k_i) ≤ slo`.
///
/// Solved exactly with a budget-quantised dynamic program over the chain
/// (1 ms granularity), the same structure the Janus synthesizer uses.
pub fn grandslam_plus(
    profile: &WorkflowProfile,
    slo: SimDuration,
) -> Result<FixedSizingPolicy, String> {
    let sizes = min_total_cores_for_budget(profile, slo, Percentile::P99)
        .unwrap_or_else(|| vec![profile.grid().max; profile.len()]);
    FixedSizingPolicy::new("GrandSLAM+", sizes)
}

/// Configuration of the ORION baseline's distribution convolution.
#[derive(Debug, Clone, PartialEq)]
pub struct OrionConfig {
    /// Monte-Carlo draws used to estimate the end-to-end latency
    /// distribution for a candidate allocation.
    pub convolution_samples: usize,
    /// Percentile of the end-to-end distribution that must meet the SLO.
    pub target_percentile: f64,
    /// Safety margin applied to the SLO during sizing: the convolved tail
    /// must fit within `safety_margin * slo`. Guards against the Monte-Carlo
    /// estimate slightly underestimating the true tail.
    pub safety_margin: f64,
    /// RNG seed for the convolution (deterministic sizing).
    pub seed: u64,
}

impl Default for OrionConfig {
    fn default() -> Self {
        OrionConfig {
            convolution_samples: 4000,
            target_percentile: 99.0,
            safety_margin: 0.96,
            seed: 0x0410,
        }
    }
}

/// ORION \[6\]: distribution-based early binding. Sizes functions so that the
/// P99 of the *end-to-end* latency distribution (not the sum of per-function
/// P99s) meets the SLO, starting from all-`Kmax` and greedily shrinking the
/// allocation whose reduction keeps the constraint satisfied at the lowest
/// latency cost.
pub fn orion(
    profile: &WorkflowProfile,
    slo: SimDuration,
    config: &OrionConfig,
) -> Result<FixedSizingPolicy, String> {
    if config.convolution_samples == 0 {
        return Err("ORION: `convolution_samples` must be at least 1, got 0".into());
    }
    let grid = profile.grid();
    let target_ms = slo.as_millis() * config.safety_margin;
    let mut sizes: Vec<Millicores> = vec![grid.max; profile.len()];
    let mut convolution = Convolution::draw(profile, config);
    // Even all-Kmax may violate the SLO; ORION then deploys Kmax everywhere.
    // No tail is known yet to set a floor under, so this one selects among
    // every sum.
    let mut at_sizes = convolution.e2e_percentile(None, f64::INFINITY);
    if at_sizes > target_ms {
        return FixedSizingPolicy::new("ORION", sizes);
    }
    loop {
        // Every candidate shrinks one function of `sizes`, which raises its
        // tail, so it rarely falls far below the tail at `sizes`.
        let floor = at_sizes * FLOOR_MARGIN;
        let mut best: Option<(usize, Millicores, f64)> = None;
        for (i, &k) in sizes.iter().enumerate() {
            let Some(shrunk) = one_step_smaller(grid, k) else {
                continue;
            };
            let p99 = convolution.e2e_percentile(Some(i), floor);
            if p99 <= target_ms {
                // Prefer the reduction that leaves the most headroom.
                if best.map(|(_, _, b)| p99 < b).unwrap_or(true) {
                    best = Some((i, shrunk, p99));
                }
            }
        }
        let Some((i, shrunk, p99)) = best else {
            break;
        };
        sizes[i] = shrunk;
        convolution.move_to(i, shrunk);
        at_sizes = p99;
    }
    FixedSizingPolicy::new("ORION", sizes)
}

/// The grid point one step below `k`, if `k` is above `Kmin`.
fn one_step_smaller(grid: CoreGrid, k: Millicores) -> Option<Millicores> {
    grid.index_of(k)
        .and_then(|idx| idx.checked_sub(1))
        .and_then(|idx| grid.at(idx))
}

/// The share of the tail at the current sizes below which a candidate's
/// tail is not looked for (see [`Convolution::e2e_percentile`]). It moves
/// only the speed of the selection, never its result.
const FLOOR_MARGIN: f64 = 0.97;

/// ORION's Monte-Carlo convolution of the per-function profiled
/// distributions (functions are profiled independently, matching ORION's
/// independence assumption).
///
/// The draws are made once per sizing run — `convolution_samples ×
/// functions` raw outputs of an RNG seeded with `config.seed` — and every
/// candidate allocation maps the same raw values onto its own sample sets,
/// so candidates differ by their allocations only, never by sampling noise.
///
/// The two columns kept per function (see the module docs) live in buffers
/// allocated up front, so a sizing run allocates the same however many
/// greedy steps it takes.
struct Convolution<'a> {
    profile: &'a WorkflowProfile,
    /// Raw draws, function-major: `draws[f * samples + s]`.
    draws: Vec<u64>,
    target_percentile: f64,
    /// Per function, the drawn samples at its current size.
    current: Vec<Vec<f64>>,
    /// Per function, the drawn samples one grid step smaller (empty at
    /// `Kmin`).
    smaller: Vec<Vec<f64>>,
    /// End-to-end latency of every sample, reused across candidates.
    sums: Vec<f64>,
    /// The sums at or above the selection's floor.
    kept: Vec<f64>,
}

impl<'a> Convolution<'a> {
    /// Draw the samples, with every function at `Kmax`.
    fn draw(profile: &'a WorkflowProfile, config: &OrionConfig) -> Self {
        let (samples, functions) = (config.convolution_samples, profile.len());
        // The RNG is read sample-major, so every sample draws the values it
        // always has; only the storage is function-major.
        let mut rng = SimRng::seed_from_u64(config.seed);
        let mut draws = vec![0; samples * functions];
        for s in 0..samples {
            for f in 0..functions {
                draws[f * samples + s] = rng.next_u64();
            }
        }
        let column = || Vec::with_capacity(samples);
        let mut convolution = Convolution {
            profile,
            draws,
            target_percentile: config.target_percentile,
            current: (0..functions).map(|_| column()).collect(),
            smaller: (0..functions).map(|_| column()).collect(),
            sums: column(),
            kept: column(),
        };
        let kmax = profile.grid().max;
        for f in 0..functions {
            convolution.gather_smaller(f, Some(kmax));
            convolution.move_to(f, kmax);
        }
        convolution
    }

    /// Function `f` moves to size `k`, whose samples its smaller column
    /// holds; that column then gathers the samples one step below `k`.
    fn move_to(&mut self, f: usize, k: Millicores) {
        std::mem::swap(&mut self.current[f], &mut self.smaller[f]);
        self.gather_smaller(f, one_step_smaller(self.profile.grid(), k));
    }

    /// Fill function `f`'s smaller column with its drawn samples at size
    /// `k` (none for `None`), reusing the buffer.
    fn gather_smaller(&mut self, f: usize, k: Option<Millicores>) {
        let samples = self.draws.len() / self.profile.len();
        let draws = &self.draws[f * samples..(f + 1) * samples];
        let column = &mut self.smaller[f];
        column.clear();
        if let Some(k) = k {
            let at_k = self.profile.functions()[f].raw_samples(k);
            column.extend(
                draws
                    .iter()
                    .map(|&draw| at_k[SimRng::map_to_range(draw, at_k.len() as u64) as usize]),
            );
        }
    }

    /// Estimate the `target_percentile` of the end-to-end latency at the
    /// current sizes, with function `shrunk` (if any) one step smaller.
    ///
    /// The percentile is selected among the sums at or above `floor` when
    /// enough of them clear it, else among all sums; either way the result
    /// is the one a full selection gives, and `floor` moves only its cost.
    fn e2e_percentile(&mut self, shrunk: Option<usize>, floor: f64) -> f64 {
        let column = |f: usize| {
            if shrunk == Some(f) {
                &self.smaller[f]
            } else {
                &self.current[f]
            }
        };
        self.sums.clear();
        self.sums.extend_from_slice(column(0));
        for f in 1..self.current.len() {
            for (sum, &latency) in self.sums.iter_mut().zip(column(f)) {
                *sum += latency;
            }
        }
        let p = self.target_percentile;
        select_percentile_above(&self.sums, floor, &mut self.kept, p)
            .unwrap_or_else(|| select_percentile(&mut self.sums, p))
    }
}

/// Minimum-total-allocation plan such that `Σ_i L_i(p, k_i) ≤ budget`,
/// or `None` if infeasible even at `Kmax`. Exact DP over 1 ms budgets.
fn min_total_cores_for_budget(
    profile: &WorkflowProfile,
    budget: SimDuration,
    p: Percentile,
) -> Option<Vec<Millicores>> {
    let grid = profile.grid();
    let horizon = budget.as_millis().floor().max(0.0) as usize;
    let n = profile.len();
    // best[i][b] = minimal total cores for functions i.. within budget b (ms).
    let mut next: Vec<Option<u32>> = vec![None; horizon + 1];
    let mut choices: Vec<Vec<Option<Millicores>>> = vec![vec![None; horizon + 1]; n];
    let functions = profile.functions();
    for (i, func) in functions.iter().enumerate().rev() {
        let latencies: Vec<(Millicores, f64)> = grid
            .iter()
            .map(|k| (k, func.latency(p, k).as_millis()))
            .collect();
        let mut current: Vec<Option<u32>> = vec![None; horizon + 1];
        for b in 0..=horizon {
            let mut best: Option<(u32, Millicores)> = None;
            for &(k, lat) in &latencies {
                if lat > b as f64 {
                    continue;
                }
                let tail_cost = if i + 1 == n {
                    Some(0)
                } else {
                    let residual = (b as f64 - lat).floor() as usize;
                    next[residual]
                };
                if let Some(tc) = tail_cost {
                    let total = tc + k.get();
                    if best.map(|(t, _)| total < t).unwrap_or(true) {
                        best = Some((total, k));
                    }
                }
            }
            if let Some((total, k)) = best {
                current[b] = Some(total);
                choices[i][b] = Some(k);
            }
        }
        next = current;
    }
    // Reconstruct.
    next[horizon]?;
    let mut sizes = Vec::with_capacity(n);
    let mut b = horizon;
    for (row, func) in choices.iter().zip(functions) {
        let k = row[b]?;
        sizes.push(k);
        let lat = func.latency(p, k).as_millis();
        b = (b as f64 - lat).floor().max(0.0) as usize;
    }
    Some(sizes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_platform::policy::SizingPolicy;
    use janus_profiler::profile::FunctionProfile;
    use janus_profiler::profiler::{Profiler, ProfilerConfig};
    use janus_workloads::apps::intelligent_assistant;
    use std::collections::BTreeMap;

    fn ia_profile() -> WorkflowProfile {
        Profiler::new(ProfilerConfig {
            samples_per_point: 300,
            ..ProfilerConfig::default()
        })
        .unwrap()
        .profile_workflow(&intelligent_assistant(), 1)
    }

    #[test]
    fn grandslam_uses_identical_sizes_meeting_the_slo() {
        let profile = ia_profile();
        let slo = SimDuration::from_secs(3.0);
        let policy = grandslam(&profile, slo).unwrap();
        let sizes = policy.sizes().to_vec();
        assert!(sizes.windows(2).all(|w| w[0] == w[1]), "identical sizes");
        let total: SimDuration = profile
            .functions()
            .iter()
            .map(|f| f.latency(Percentile::P99, sizes[0]))
            .sum();
        assert!(total <= slo);
        // One grid step below must violate the SLO (otherwise not minimal),
        // unless already at Kmin.
        if sizes[0] > profile.grid().min {
            let below = Millicores::new(sizes[0].get() - profile.grid().step);
            let total_below: SimDuration = profile
                .functions()
                .iter()
                .map(|f| f.latency(Percentile::P99, below))
                .sum();
            assert!(total_below > slo);
        }
    }

    #[test]
    fn grandslam_plus_is_no_more_expensive_than_grandslam() {
        let profile = ia_profile();
        let slo = SimDuration::from_secs(3.0);
        let gs = grandslam(&profile, slo).unwrap();
        let gsp = grandslam_plus(&profile, slo).unwrap();
        assert!(
            gsp.total() <= gs.total(),
            "{} vs {}",
            gsp.total(),
            gs.total()
        );
        // The per-function plan still meets the sum-of-P99 constraint.
        let total: SimDuration = profile
            .functions()
            .iter()
            .zip(gsp.sizes())
            .map(|(f, &k)| f.latency(Percentile::P99, k))
            .sum();
        assert!(total <= slo);
    }

    #[test]
    fn orion_is_cheaper_than_grandslam_plus() {
        // Table I: ORION sits between Janus and GrandSLAM+, i.e. ORION's
        // distribution-aware sizing beats the sum-of-P99 approach.
        let profile = ia_profile();
        let slo = SimDuration::from_secs(3.0);
        let gsp = grandslam_plus(&profile, slo).unwrap();
        let ori = orion(&profile, slo, &OrionConfig::default()).unwrap();
        assert!(
            ori.total() <= gsp.total(),
            "{} vs {}",
            ori.total(),
            gsp.total()
        );
        assert!(
            ori.total() >= Millicores::new(3000),
            "cannot go below 3x Kmin"
        );
    }

    #[test]
    fn infeasible_slo_falls_back_to_kmax() {
        let profile = ia_profile();
        let slo = SimDuration::from_millis(200.0);
        for policy in [
            grandslam(&profile, slo).unwrap(),
            grandslam_plus(&profile, slo).unwrap(),
            orion(&profile, slo, &OrionConfig::default()).unwrap(),
        ] {
            assert!(
                policy.sizes().iter().all(|&k| k == profile.grid().max),
                "{} should deploy Kmax under an impossible SLO",
                policy.name()
            );
        }
    }

    #[test]
    fn orion_rejects_an_empty_convolution() {
        let config = OrionConfig {
            convolution_samples: 0,
            ..OrionConfig::default()
        };
        let err = orion(&ia_profile(), SimDuration::from_secs(3.0), &config).unwrap_err();
        assert!(err.contains("`convolution_samples`"), "got: {err}");
    }

    #[test]
    fn min_total_cores_dp_matches_brute_force_on_small_budgets() {
        let profile = ia_profile();
        let grid = profile.grid();
        for slo_ms in [2400.0, 3000.0, 4000.0] {
            let budget = SimDuration::from_millis(slo_ms);
            let dp = min_total_cores_for_budget(&profile, budget, Percentile::P99);
            // Brute force over the 21^3 grid.
            let mut best: Option<(u32, Vec<Millicores>)> = None;
            for k0 in grid.iter() {
                for k1 in grid.iter() {
                    for k2 in grid.iter() {
                        let total_lat: f64 = profile
                            .functions()
                            .iter()
                            .zip([k0, k1, k2])
                            .map(|(f, k)| f.latency(Percentile::P99, k).as_millis())
                            .sum();
                        if total_lat <= slo_ms {
                            let cores = k0.get() + k1.get() + k2.get();
                            if best.as_ref().map(|(c, _)| cores < *c).unwrap_or(true) {
                                best = Some((cores, vec![k0, k1, k2]));
                            }
                        }
                    }
                }
            }
            match (dp, best) {
                (Some(dp_sizes), Some((brute_total, _))) => {
                    let dp_total: u32 = dp_sizes.iter().map(|k| k.get()).sum();
                    // The DP quantises budgets to 1 ms (conservatively), so it
                    // may be at most one grid step per function above brute force.
                    assert!(
                        dp_total <= brute_total + 300,
                        "dp {dp_total} vs brute {brute_total} at SLO {slo_ms}"
                    );
                    assert!(dp_total >= brute_total, "DP cannot beat exact optimum");
                }
                (None, None) => {}
                (dp, brute) => {
                    panic!("feasibility disagreement at {slo_ms}: dp={dp:?} brute={brute:?}")
                }
            }
        }
    }

    /// ORION as first written, the oracle the two-column convolution must
    /// reproduce: every candidate gathers every function's samples at its
    /// sizes afresh and selects the percentile over all the sums.
    fn naive_orion(
        profile: &WorkflowProfile,
        slo: SimDuration,
        config: &OrionConfig,
    ) -> Vec<Millicores> {
        let grid = profile.grid();
        let target_ms = slo.as_millis() * config.safety_margin;
        let mut rng = SimRng::seed_from_u64(config.seed);
        let draws: Vec<u64> = (0..config.convolution_samples * profile.len())
            .map(|_| rng.next_u64())
            .collect();
        let e2e = |sizes: &[Millicores]| {
            let mut sums: Vec<f64> = draws
                .chunks_exact(profile.len())
                .map(|draws| {
                    draws
                        .iter()
                        .zip(profile.functions())
                        .zip(sizes)
                        .map(|((&draw, f), &k)| {
                            let samples = f.raw_samples(k);
                            samples[SimRng::map_to_range(draw, samples.len() as u64) as usize]
                        })
                        .sum::<f64>()
                })
                .collect();
            select_percentile(&mut sums, config.target_percentile)
        };
        let mut sizes = vec![grid.max; profile.len()];
        if e2e(&sizes) > target_ms {
            return sizes;
        }
        loop {
            let mut best: Option<(usize, Millicores, f64)> = None;
            for i in 0..sizes.len() {
                let Some(smaller) = grid
                    .index_of(sizes[i])
                    .and_then(|idx| idx.checked_sub(1))
                    .and_then(|idx| grid.at(idx))
                else {
                    continue;
                };
                let mut candidate = sizes.clone();
                candidate[i] = smaller;
                let p = e2e(&candidate);
                if p <= target_ms && best.is_none_or(|(_, _, b)| p < b) {
                    best = Some((i, smaller, p));
                }
            }
            match best {
                Some((i, smaller, _)) => sizes[i] = smaller,
                None => return sizes,
            }
        }
    }

    /// A random profile of 1–4 functions on a 2–6 point grid. Latency
    /// mostly falls with cores but not always, and some functions draw
    /// from a pool of two or three whole values, so sums tie at the
    /// selected ranks.
    fn random_profile(rng: &mut SimRng) -> WorkflowProfile {
        let points = rng.int_range(2, 6) as u32;
        let grid = CoreGrid::new(
            Millicores::new(1000),
            Millicores::new(1000 + 250 * (points - 1)),
            250,
        )
        .unwrap();
        let functions = (0..rng.int_range(1, 4))
            .map(|f| {
                let base = rng.uniform_range(10.0, 500.0);
                let pooled = rng.uniform() < 0.3;
                let samples = grid
                    .iter()
                    .map(|mc| {
                        let scale =
                            base * 1000.0 / f64::from(mc.get()) * rng.uniform_range(0.8, 1.2);
                        let pool: Vec<f64> = (0..rng.int_range(2, 3))
                            .map(|_| (scale * rng.uniform_range(0.5, 2.0)).round())
                            .collect();
                        let set = (0..rng.int_range(1, 40))
                            .map(|_| {
                                if pooled {
                                    pool[rng.int_range(0, pool.len() as u64 - 1) as usize]
                                } else {
                                    scale * rng.uniform_range(0.5, 2.0)
                                }
                            })
                            .collect();
                        (mc.get(), set)
                    })
                    .collect::<BTreeMap<_, _>>();
                FunctionProfile::from_samples(format!("f{f}"), 1, grid, samples).unwrap()
            })
            .collect();
        WorkflowProfile::new("wf", 1, grid, functions).unwrap()
    }

    /// The two-column convolution with its floored selection sizes exactly
    /// as the naive per-candidate convolution does, on random profiles at
    /// SLOs from infeasible to loose and at every sample count from one to
    /// the default 4000.
    #[test]
    fn orion_matches_the_naive_convolution() {
        let mut rng = SimRng::seed_from_u64(0x0410_0001);
        let (mut at_kmax, mut at_kmin, mut between) = (0, 0, 0);
        for samples in [1, 2, 41, 400, 4000] {
            for case in 0..24 {
                let profile = random_profile(&mut rng);
                // The least and the most any sample sum can be.
                let grid = profile.grid();
                let bound = |tail: bool| -> f64 {
                    let functions = profile.functions().iter();
                    functions
                        .map(|f| {
                            let at = grid.iter().map(|k| f.raw_samples(k));
                            if tail {
                                at.map(|s| s[s.len() - 1]).fold(f64::MIN, f64::max)
                            } else {
                                at.map(|s| s[0]).fold(f64::MAX, f64::min)
                            }
                        })
                        .sum()
                };
                let config = OrionConfig {
                    convolution_samples: samples,
                    target_percentile: [99.0, 90.0, 50.0][case % 3],
                    seed: rng.next_u64(),
                    ..OrionConfig::default()
                };
                let slo_ms =
                    rng.uniform_range(0.9 * bound(false), 1.1 * bound(true)) / config.safety_margin;
                let slo = SimDuration::from_millis(slo_ms);
                let want = naive_orion(&profile, slo, &config);
                let got = orion(&profile, slo, &config).unwrap();
                assert_eq!(
                    got.sizes(),
                    want,
                    "{samples} samples, case {case}, SLO {slo_ms} ms"
                );
                if want.iter().all(|&k| k == grid.max) {
                    at_kmax += 1;
                } else if want.iter().all(|&k| k == grid.min) {
                    at_kmin += 1;
                } else {
                    between += 1;
                }
            }
        }
        assert!(
            at_kmax >= 16 && at_kmin >= 16 && between >= 16,
            "SLOs cover too little: {at_kmax} at Kmax, {at_kmin} at Kmin, {between} between"
        );
    }
}
