//! Early-binding baselines: GrandSLAM, GrandSLAM⁺ and ORION.
//!
//! All three consume the same [`WorkflowProfile`] the developer would collect
//! for Janus and produce a [`FixedSizingPolicy`] — the sizes never change at
//! runtime, which is exactly the early-binding behaviour whose inefficiency
//! the paper quantifies.

use janus_platform::policy::FixedSizingPolicy;
use janus_profiler::percentiles::Percentile;
use janus_profiler::profile::WorkflowProfile;
use janus_simcore::resources::Millicores;
use janus_simcore::rng::SimRng;
use janus_simcore::stats::select_percentile;
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
    let grid = profile.grid();
    let target_ms = slo.as_millis() * config.safety_margin;
    let mut convolution = Convolution::draw(profile.len(), config);
    let mut sizes: Vec<Millicores> = vec![grid.max; profile.len()];
    // Even all-Kmax may violate the SLO; ORION then deploys Kmax everywhere.
    if convolution.e2e_percentile(profile, &sizes) > target_ms {
        return FixedSizingPolicy::new("ORION", sizes);
    }
    loop {
        let mut best: Option<(usize, Millicores, f64)> = None;
        for i in 0..sizes.len() {
            let smaller = grid
                .index_of(sizes[i])
                .and_then(|idx| idx.checked_sub(1))
                .and_then(|idx| grid.at(idx));
            let Some(smaller) = smaller else {
                continue;
            };
            let current = std::mem::replace(&mut sizes[i], smaller);
            let p99 = convolution.e2e_percentile(profile, &sizes);
            sizes[i] = current;
            if p99 <= target_ms {
                // Prefer the reduction that leaves the most headroom.
                if best.map(|(_, _, b)| p99 < b).unwrap_or(true) {
                    best = Some((i, smaller, p99));
                }
            }
        }
        match best {
            Some((i, smaller, _)) => sizes[i] = smaller,
            None => break,
        }
    }
    FixedSizingPolicy::new("ORION", sizes)
}

/// ORION's Monte-Carlo convolution of the per-function profiled
/// distributions (functions are profiled independently, matching ORION's
/// independence assumption).
///
/// The draws are made once per sizing run — `convolution_samples ×
/// functions` raw outputs of an RNG seeded with `config.seed` — and every
/// candidate allocation maps the same raw values onto its own sample sets,
/// so candidates differ by their allocations only, never by sampling noise.
struct Convolution {
    /// Raw draws, sample-major: `draws[s * functions + f]`.
    draws: Vec<u64>,
    functions: usize,
    target_percentile: f64,
    /// End-to-end latency of every sample, reused across candidates.
    sums: Vec<f64>,
}

impl Convolution {
    fn draw(functions: usize, config: &OrionConfig) -> Self {
        let mut rng = SimRng::seed_from_u64(config.seed);
        Convolution {
            draws: (0..config.convolution_samples * functions)
                .map(|_| rng.next_u64())
                .collect(),
            functions,
            target_percentile: config.target_percentile,
            sums: Vec::with_capacity(config.convolution_samples),
        }
    }

    /// Estimate the `target_percentile` of the end-to-end latency for a
    /// candidate allocation.
    fn e2e_percentile(&mut self, profile: &WorkflowProfile, sizes: &[Millicores]) -> f64 {
        let per_function: Vec<&[f64]> = profile
            .functions()
            .iter()
            .zip(sizes)
            .map(|(f, &k)| f.raw_samples(k))
            .collect();
        self.sums.clear();
        self.sums
            .extend(self.draws.chunks_exact(self.functions).map(|draws| {
                draws
                    .iter()
                    .zip(&per_function)
                    .map(|(&draw, samples)| {
                        samples[SimRng::map_to_range(draw, samples.len() as u64) as usize]
                    })
                    .sum::<f64>()
            }));
        select_percentile(&mut self.sums, self.target_percentile)
    }
}

/// Minimum-total-allocation plan such that `Σ_i L_i(p, k_i) ≤ budget`,
/// or `None` if infeasible even at `Kmax`. Exact DP over 1 ms budgets.
pub fn min_total_cores_for_budget(
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
    use janus_profiler::profiler::{Profiler, ProfilerConfig};
    use janus_workloads::apps::intelligent_assistant;

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
}
