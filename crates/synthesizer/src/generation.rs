//! Hints generation — Algorithm 1 of the paper.
//!
//! For a (sub-)workflow `F = ⟨f₁, …, f_N⟩` and a time budget `t`, the
//! generator chooses a percentile `p` for the head function and CPU
//! allocations `k₁ … k_N` minimising the expected resource consumption
//!
//! ```text
//! s = W·k₁ + (p/100)·Σ_{i≥2} k_i + (1 − p/100)·(N−1)·Kmax        (Eq. 4)
//! ```
//!
//! subject to the budget constraint `L₁(p,k₁) + Σ_{i≥2} L_i(99,k_i) ≤ t`
//! (Eq. 5) and the resilience constraint `D₁(p,k₁) ≤ Σ_{i≥2} R_i(99,k_i)`
//! (Eq. 6): any over-time execution of the head must be absorbable by scaling
//! the downstream functions up to `Kmax`.
//!
//! The paper presents the search as a recursion (`generate(F, t, P)` calling
//! itself on `F \ f₁`); because the recursive sub-problems only depend on the
//! *remaining functions* and the *residual budget*, this implementation
//! memoises them in per-level dynamic-programming tables indexed by the
//! residual budget at millisecond granularity — the same exploration, orders
//! of magnitude fewer redundant evaluations, which is what makes the 1 ms
//! budget sweep of §V-F tractable.
//!
//! Levels are filled bottom-up, each one allocation-major: for every
//! (candidate percentile, allocation) pair, in a fixed order, one pass over
//! the contiguous budgets `b ≥ ⌈L⌉` that afford the head latency `L` relaxes
//! each budget's best plan with a strict `<`, so the first minimum in that
//! order wins every tie. Budget `b` reads the downstream plan at residual
//! `⌊b − L⌋`, which equals `b − ⌈L⌉` except on a suffix of budgets where the
//! float subtraction `b − L` rounds up to the next integer (`L` a hair above
//! an integer, `b` large enough that its ulp swallows the gap). That suffix
//! is monotone in `b`, so a binary search over the exact float expression
//! finds where it starts, and each pass reads at most two shifted contiguous
//! slices of the downstream row — the very entries a per-budget evaluation
//! of `⌊b − L⌋` reads.
//!
//! Eq. 6 also bounds where a pass can act. The running maximum of the
//! downstream row's resilience (infeasible entries offer none) never falls
//! as the residual grows, so a binary search finds the first residual at
//! which it reaches the pass's head timeout `D`. No plan at an earlier
//! residual can absorb `D`, so every budget reading one fails Eq. 6, and
//! the pass starts relaxing at the first budget that reads that residual.
//! A pass whose timeout the maximum never reaches fails at every budget:
//! it cannot change the row and is skipped before it starts
//! ([`HintGenerator::skipped_passes`] counts them). The last level has no
//! downstream and relaxes every pass from its first affordable budget.
//!
//! A hints table keeps only each swept budget's head size and percentile,
//! which are `levels[0]` at the quantised budget, so
//! [`HintGenerator::build_table`] run-length encodes them straight off the
//! filled DP: no raw hint is built, and the rows are allocated once, whatever
//! the sweep step. [`HintGenerator::sweep`] and
//! [`condense`](crate::condense::condense) build the same table the long way,
//! which is what tests compare it with.

use crate::condense::close_gaps;
use crate::hints::{CondensedHint, HintsTable};
use janus_profiler::percentiles::{Percentile, PercentileGrid};
use janus_profiler::profile::{FunctionProfile, WorkflowProfile};
use janus_simcore::resources::Millicores;
use janus_simcore::time::SimDuration;

/// Configuration of the hint generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationConfig {
    /// Weight `W` applied to the head function's allocation in the objective
    /// (Insight 4: "heavier head").
    pub weight: f64,
    /// Candidate percentiles for functions that are allowed to explore below
    /// the tail (Insight 2: "moderate percentile exploration").
    pub percentiles: PercentileGrid,
    /// How many leading functions of the sub-workflow explore lower
    /// percentiles: 0 = Janus⁻, 1 = Janus, 2 = Janus⁺.
    pub exploration_depth: usize,
    /// Granularity of the time-budget sweep in milliseconds (1 ms in §V-F).
    pub budget_step_ms: f64,
}

/// The finest budget-sweep granularity, in ms, that synthesis accepts.
pub const MIN_BUDGET_STEP_MS: f64 = 0.1;

impl Default for GenerationConfig {
    fn default() -> Self {
        GenerationConfig {
            weight: 1.0,
            percentiles: PercentileGrid::paper_default(),
            exploration_depth: 1,
            budget_step_ms: 1.0,
        }
    }
}

impl GenerationConfig {
    /// Validate parameter ranges.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(self.weight.is_finite() && self.weight >= 1.0) {
            return Err(format!("weight must be >= 1, got {}", self.weight));
        }
        if !(self.budget_step_ms.is_finite() && self.budget_step_ms >= MIN_BUDGET_STEP_MS) {
            return Err(format!(
                "budget step must be >= {MIN_BUDGET_STEP_MS} ms, got {}",
                self.budget_step_ms
            ));
        }
        Ok(())
    }
}

/// A raw (pre-condensing) hint: the full allocation plan for one time budget.
#[derive(Debug, Clone, PartialEq)]
pub struct RawHint {
    /// Time budget this hint was generated for (ms).
    pub budget_ms: f64,
    /// Planned CPU allocation per remaining function (head first).
    pub allocation: Vec<Millicores>,
    /// Percentile chosen for the head function.
    pub head_percentile: Percentile,
    /// Expected resource consumption `s` of Eq. 4 (millicores).
    pub expected_cost: f64,
}

/// One dynamic-programming cell: the best plan for a suffix level at one
/// quantised residual budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelEntry {
    /// Whether any plan meets this budget.
    pub feasible: bool,
    /// Planned allocation of the suffix's head function.
    pub head_cores: Millicores,
    /// Percentile the suffix's head function is planned at.
    pub head_percentile: Percentile,
    /// Expected resource consumption `s` of this level's objective (Eq. 4).
    pub expected_cost: f64,
    /// Sum of planned allocations over this suffix (head + downstream plan).
    pub planned_cores: f64,
    /// Σ R_i(tail, k_i) over this suffix — downstream absorption capacity
    /// offered to the caller.
    pub resilience_ms: f64,
}

impl LevelEntry {
    fn infeasible() -> Self {
        LevelEntry {
            feasible: false,
            head_cores: Millicores::ZERO,
            head_percentile: Percentile::P99,
            expected_cost: f64::INFINITY,
            planned_cores: f64::INFINITY,
            resilience_ms: 0.0,
        }
    }
}

/// Marks a budget no (percentile, allocation) pair has fit yet.
const NO_CHOICE: u32 = u32::MAX;

/// The hint generator for one sub-workflow profile.
#[derive(Debug)]
pub struct HintGenerator<'a> {
    profile: &'a WorkflowProfile,
    config: &'a GenerationConfig,
    /// `levels[i][b]` = best plan for functions `i..N` with residual budget
    /// `b` milliseconds (quantised down).
    levels: Vec<Vec<LevelEntry>>,
    /// Upper bound (ms, inclusive) of the DP budget axis.
    horizon_ms: usize,
    /// (percentile, allocation) passes skipped because Eq. 6 fails at
    /// every budget.
    skipped_passes: usize,
}

impl<'a> HintGenerator<'a> {
    /// Build the generator and fill the dynamic-programming tables.
    ///
    /// `horizon` bounds the budget axis; budgets above it are clamped (they
    /// are trivially served by the minimum allocation).
    pub fn new(
        profile: &'a WorkflowProfile,
        config: &'a GenerationConfig,
        horizon: SimDuration,
    ) -> Result<Self, String> {
        config.validate()?;
        Ok(Self::with_valid_config(profile, config, horizon))
    }

    /// [`HintGenerator::new`] for a configuration the caller already
    /// validated.
    pub(crate) fn with_valid_config(
        profile: &'a WorkflowProfile,
        config: &'a GenerationConfig,
        horizon: SimDuration,
    ) -> Self {
        let tail = config.percentiles.tail();
        let natural_max = profile.max_budget(tail).as_millis();
        let horizon_ms = horizon.as_millis().max(natural_max).ceil() as usize + 1;
        let mut gen = HintGenerator {
            profile,
            config,
            levels: Vec::new(),
            horizon_ms,
            skipped_passes: 0,
        };
        (gen.levels, gen.skipped_passes) = gen.fill_levels();
        gen
    }

    /// The filled dynamic-programming tables: `levels()[i][b]` is the best
    /// plan for functions `i..N` under a residual budget of `b` ms, for every
    /// `b` from 0 to the horizon.
    pub fn levels(&self) -> &[Vec<LevelEntry>] {
        &self.levels
    }

    /// How many (percentile, allocation) passes the fill skipped, over all
    /// levels: those whose head timeout `D(p, k)` exceeds the largest
    /// resilience of any feasible plan in the level below, so Eq. 6 fails
    /// at every budget (see the module docs).
    pub fn skipped_passes(&self) -> usize {
        self.skipped_passes
    }

    fn tail(&self) -> Percentile {
        self.config.percentiles.tail()
    }

    /// Fill every level; returns the rows and the skipped-pass count.
    fn fill_levels(&self) -> (Vec<Vec<LevelEntry>>, usize) {
        let functions = self.profile.functions();
        let mut levels: Vec<Vec<LevelEntry>> = Vec::with_capacity(functions.len());
        let mut skipped = 0;
        // Fill from the last function backwards: each level reads the one
        // below it.
        for (i, func) in functions.iter().enumerate().rev() {
            let level = self.fill_level(i, func, levels.last().map(Vec::as_slice), &mut skipped);
            levels.push(level);
        }
        // `levels` holds [level_{n-1}, ..., level_0]; reverse so that
        // `levels[i]` corresponds to the suffix starting at function i.
        levels.reverse();
        (levels, skipped)
    }

    /// Compute the DP row for suffix level `i` (head function `func`) given
    /// the row of level `i+1`, allocation-major (see the module docs).
    /// Adds the passes it skips to `skipped`.
    fn fill_level(
        &self,
        i: usize,
        func: &FunctionProfile,
        downstream: Option<&[LevelEntry]>,
        skipped: &mut usize,
    ) -> Vec<LevelEntry> {
        let tail = self.tail();
        let grid = self.profile.grid();
        let n_remaining = self.profile.len() - i;
        let explore = i < self.config.exploration_depth && n_remaining > 1;
        let weight = if i == 0 { self.config.weight } else { 1.0 };
        let kmax_mc = f64::from(grid.max.get());
        let downstream_count = (n_remaining - 1) as f64;
        let width = self.horizon_ms + 1;

        // Candidate percentiles for this level's head.
        let candidates: &[Percentile] = if explore {
            self.config.percentiles.values()
        } else {
            std::slice::from_ref(&tail)
        };

        // Pre-compute the per-allocation latency/timeout/resilience rows for
        // every candidate percentile so the budget passes are lookups only.
        struct Cand {
            percentile: Percentile,
            prob: f64,
            latency: Vec<f64>,
            timeout: Vec<f64>,
        }
        let cands: Vec<Cand> = candidates
            .iter()
            .map(|&p| Cand {
                percentile: p,
                prob: p.probability(),
                latency: grid
                    .iter()
                    .map(|mc| func.latency(p, mc).as_millis())
                    .collect(),
                timeout: grid
                    .iter()
                    .map(|mc| func.timeout(p, mc, tail).as_millis())
                    .collect(),
            })
            .collect();
        let tail_resilience: Vec<f64> = grid
            .iter()
            .map(|mc| func.resilience(tail, mc).as_millis())
            .collect();
        let allocations: Vec<Millicores> = grid.iter().collect();

        // Struct-of-arrays copy of the downstream row. An infeasible entry
        // offers −∞ resilience, so the resilience check alone rejects it.
        let (down_resilience, down_planned): (Vec<f64>, Vec<f64>) = downstream
            .unwrap_or_default()
            .iter()
            .map(|e| {
                let resilience = if e.feasible {
                    e.resilience_ms
                } else {
                    f64::NEG_INFINITY
                };
                (resilience, e.planned_cores)
            })
            .unzip();
        // `reach[r]`: the most any downstream plan at a residual up to `r`
        // can absorb. A pass fails Eq. 6 at every residual before the first
        // one whose reach covers its head timeout, so it starts relaxing
        // there; if none does, it fails at every budget and is skipped.
        let reach: Vec<f64> = down_resilience
            .iter()
            .scan(f64::NEG_INFINITY, |max, &r| {
                *max = max.max(r);
                Some(*max)
            })
            .collect();

        // Per budget: the best cost so far and the (candidate, allocation)
        // pair that achieved it, as `candidate * allocations + allocation`.
        let mut best_cost = vec![f64::INFINITY; width];
        let mut best_choice = vec![NO_CHOICE; width];
        for (ci, cand) in cands.iter().enumerate() {
            for (ki, &mc) in allocations.iter().enumerate() {
                let this_choice = (ci * allocations.len() + ki) as u32;
                let timeout = cand.timeout[ki];
                // The last level has no downstream, and no Eq. 6 to meet.
                let absorbed_from = match downstream {
                    Some(_) => reach.partition_point(|&max| max < timeout),
                    None => 0,
                };
                if absorbed_from == width {
                    *skipped += 1;
                    continue;
                }
                let head_latency = cand.latency[ki];
                let Some(first) = first_affordable_budget(head_latency, width) else {
                    continue;
                };
                let k = f64::from(mc.get());
                let (costs, choices) = (&mut best_cost[first..], &mut best_choice[first..]);
                if downstream.is_none() {
                    // Last function: it must finish within the budget at the
                    // tail percentile — there is no downstream slack left to
                    // absorb a timeout — so exploration is disabled for it
                    // (the `explore` flag already guarantees this), and its
                    // cost does not depend on the budget.
                    let cost = weight * k;
                    for (best, best_at) in costs.iter_mut().zip(choices) {
                        if cost < *best {
                            *best = cost;
                            *best_at = this_choice;
                        }
                    }
                    continue;
                }
                // Eq. 4's terms. The sum stays left to right as written,
                // `head + p·planned + overrun`: float addition does not
                // associate, so hoisting `head + overrun` out of the pass
                // would move the costs' last bits.
                let head_cost = weight * k;
                let prob = cand.prob;
                let overrun_cost = (1.0 - prob) * downstream_count * kmax_mc;
                // Relaxes `costs[j]` from the downstream plan at residual
                // `j + offset`, from the first residual that can absorb
                // `timeout` on.
                let relax = |costs: &mut [f64], choices: &mut [u32], offset: usize| {
                    let skip = absorbed_from.saturating_sub(offset).min(costs.len());
                    let down = down_resilience[offset + skip..]
                        .iter()
                        .zip(&down_planned[offset + skip..]);
                    for ((best, best_at), (&resilience, &planned)) in
                        costs[skip..].iter_mut().zip(&mut choices[skip..]).zip(down)
                    {
                        let cost = head_cost + prob * planned + overrun_cost;
                        // Resilience constraint (Eq. 6): the head's potential
                        // timeout must not exceed what the downstream plan
                        // can absorb by scaling up.
                        if timeout <= resilience && cost < *best {
                            *best = cost;
                            *best_at = this_choice;
                        }
                    }
                };
                // Budgets `first + j` read residual `j` up to the rounding
                // suffix, and residual `j + 1` from there on.
                let lifted = first_lifted_budget(first, head_latency, width) - first;
                let (exact_costs, lifted_costs) = costs.split_at_mut(lifted);
                let (exact_choices, lifted_choices) = choices.split_at_mut(lifted);
                relax(exact_costs, exact_choices, 0);
                if !lifted_costs.is_empty() {
                    relax(lifted_costs, lifted_choices, lifted + 1);
                }
            }
        }

        best_cost
            .iter()
            .zip(&best_choice)
            .enumerate()
            .map(|(budget_ms, (&expected_cost, &choice))| {
                if choice == NO_CHOICE {
                    return LevelEntry::infeasible();
                }
                let cand = &cands[choice as usize / allocations.len()];
                let ki = choice as usize % allocations.len();
                let k = f64::from(allocations[ki].get());
                let (planned_cores, resilience_ms) = match downstream {
                    None => (k, tail_resilience[ki]),
                    Some(down) => {
                        let residual = (budget_ms as f64 - cand.latency[ki]).floor();
                        let down_entry = &down[residual as usize];
                        (
                            k + down_entry.planned_cores,
                            tail_resilience[ki] + down_entry.resilience_ms,
                        )
                    }
                };
                LevelEntry {
                    feasible: true,
                    head_cores: allocations[ki],
                    head_percentile: cand.percentile,
                    expected_cost,
                    planned_cores,
                    resilience_ms,
                }
            })
            .collect()
    }

    fn quantize(&self, budget_ms: f64) -> usize {
        budget_ms.floor().clamp(0.0, self.horizon_ms as f64) as usize
    }

    /// `generate(F, t)`: the best plan for the full suffix under budget `t`,
    /// or `None` if no allocation can meet it.
    pub fn generate(&self, budget: SimDuration) -> Option<RawHint> {
        let entry = self.levels[0][self.quantize(budget.as_millis())];
        if !entry.feasible {
            return None;
        }
        Some(RawHint {
            budget_ms: budget.as_millis(),
            allocation: self.reconstruct(budget.as_millis()),
            head_percentile: entry.head_percentile,
            expected_cost: entry.expected_cost,
        })
    }

    /// Reconstruct the full allocation vector by walking the DP levels from
    /// the quantised budget, the way the DP itself consumed it.
    fn reconstruct(&self, budget_ms: f64) -> Vec<Millicores> {
        let mut allocation = Vec::with_capacity(self.profile.len());
        let mut budget = self.quantize(budget_ms) as f64;
        for (level, func) in self.levels.iter().zip(self.profile.functions()) {
            let entry = level[self.quantize(budget)];
            if !entry.feasible {
                break;
            }
            allocation.push(entry.head_cores);
            let consumed = func
                .latency(entry.head_percentile, entry.head_cores)
                .as_millis();
            budget = (budget - consumed).floor();
        }
        allocation
    }

    /// Every budget in `[from, to]` (clamped to `[0, horizon]`), in steps
    /// of the configured granularity.
    fn budgets(&self, from: SimDuration, to: SimDuration) -> impl Iterator<Item = f64> {
        let step = self.config.budget_step_ms;
        let from_ms = from.as_millis().max(0.0);
        let to_ms = to.as_millis().min(self.horizon_ms as f64);
        let count = if to_ms < from_ms {
            0
        } else {
            ((to_ms - from_ms) / step).floor() as usize + 1
        };
        (0..count).map(move |i| from_ms + i as f64 * step)
    }

    /// Sweep every budget in `[from, to]` with the configured step and emit
    /// the raw hints (skipping infeasible budgets). This is the outer loop of
    /// Algorithm 1 (lines 2–4); [`HintGenerator::build_table`] reads the same
    /// budgets' head plans without building the hints.
    pub fn sweep(&self, from: SimDuration, to: SimDuration) -> Vec<RawHint> {
        self.budgets(from, to)
            .filter_map(|budget| self.generate(SimDuration::from_millis(budget)))
            .collect()
    }

    /// Sweep the natural budget range `[Tmin, Tmax]` of the profile (Eq. 3),
    /// or `range` when given, condense the result (Algorithm 2) and return
    /// the table together with the number of raw hints it condenses.
    /// `suffix_start` labels which sub-workflow this is.
    ///
    /// A table keeps only each budget's head size and percentile, which are
    /// `levels[0]` at the quantised budget, so the rows are run-length
    /// encoded straight off the DP: the same table as condensing
    /// [`HintGenerator::sweep`]'s hints, without building them.
    pub fn build_table(
        &self,
        suffix_start: usize,
        range: Option<(SimDuration, SimDuration)>,
    ) -> (HintsTable, usize) {
        let low = self.config.percentiles.lowest();
        let tail = self.tail();
        let (from, to) =
            range.unwrap_or_else(|| (self.profile.min_budget(low), self.profile.max_budget(tail)));
        let heads = || {
            self.budgets(from, to)
                .map(|budget| (budget, self.levels[0][self.quantize(budget)]))
                .filter(|(_, entry)| entry.feasible)
        };
        // Count the runs first, so the rows are allocated once whatever the
        // step.
        let mut runs = 0;
        let mut run_cores = None;
        for (_, entry) in heads() {
            if run_cores != Some(entry.head_cores) {
                runs += 1;
                run_cores = Some(entry.head_cores);
            }
        }
        let mut rows: Vec<CondensedHint> = Vec::with_capacity(runs);
        let mut raw = 0;
        for (budget_ms, entry) in heads() {
            raw += 1;
            match rows.last_mut() {
                Some(row) if row.head_cores == entry.head_cores => row.end_ms = budget_ms,
                _ => rows.push(CondensedHint {
                    start_ms: budget_ms,
                    end_ms: budget_ms,
                    head_cores: entry.head_cores,
                    head_percentile: entry.head_percentile,
                }),
            }
        }
        close_gaps(&mut rows);
        // janus-lint: allow(unwrap-discipline) — the rows run over ascending budgets and are disjoint, which is all `new` checks
        let table = HintsTable::new(suffix_start, raw, rows).expect("condensed rows");
        (table, raw)
    }
}

/// The smallest budget on a `width`-long axis that affords `latency`
/// (`⌈L⌉`, since `L ≤ b` for an integral `b` exactly when `b ≥ ⌈L⌉`).
fn first_affordable_budget(latency: f64, width: usize) -> Option<usize> {
    let first = latency.ceil();
    (first < width as f64).then_some(first as usize)
}

/// The first budget `b ≥ first` (or `width` if none) at which the float
/// residual `⌊b − L⌋` is `b − first + 1` instead of `b − first`: `b − L`
/// rounds up to an integer once `b`'s ulp outgrows the distance from `L`
/// up to `⌈L⌉`. Rounding is monotone and the ulp grows with `b`, so the
/// lifted budgets form a suffix and a binary search finds where it starts.
fn first_lifted_budget(first: usize, latency: f64, width: usize) -> usize {
    let lifted = |b: usize| (b as f64 - latency).floor() as usize > b - first;
    let (mut lo, mut hi) = (first, width);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if lifted(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}
