//! Randomised invariants spanning the profiler, synthesizer, adapter,
//! the ORION convolution's percentile, the simulator's pod placement and
//! the flight recorder's trace encoding.
//!
//! Property-style tests driven by the workspace's own deterministic
//! [`SimRng`] (the external property-testing framework is not in the allowed
//! dependency set): each test replays a fixed number of seeded random cases,
//! so failures reproduce bit-for-bit from the case index.

use janus_core::profiler::percentiles::{Percentile, PercentileGrid};
use janus_core::profiler::profile::FunctionProfile;
use janus_core::profiler::profiler::{Profiler, ProfilerConfig};
use janus_core::synthesizer::condense::condense;
use janus_core::synthesizer::generation::{GenerationConfig, HintGenerator, LevelEntry, RawHint};
use janus_core::synthesizer::hints::{HintsTable, LookupOutcome};
use janus_json::Value;
use janus_observe::{
    Observer, ObserverContext, Record, RecordKind, TickSample, TimeSeriesPoint, TraceObserver,
    FAULT_KINDS,
};
use janus_profiler::profile::WorkflowProfile;
use janus_simcore::cluster::{Cluster, ClusterConfig, NodeState, PlacementPolicy};
use janus_simcore::error::SimError;
use janus_simcore::function::FunctionId;
use janus_simcore::node::NodeId;
use janus_simcore::pod::PodId;
use janus_simcore::resources::{CoreGrid, Millicores};
use janus_simcore::rng::SimRng;
use janus_simcore::stats::{percentile, percentile_of_sorted, select_percentile};
use janus_simcore::time::{SimDuration, SimTime};
use janus_workloads::apps::intelligent_assistant;
use std::collections::BTreeMap;

const CASES: usize = 64;

/// Build a synthetic, deterministic profile whose latency shrinks with cores.
fn synthetic_profile(base: f64, spread: f64) -> FunctionProfile {
    let grid = CoreGrid::paper_default();
    let mut samples = BTreeMap::new();
    for mc in grid.iter() {
        let scale = 1000.0 / f64::from(mc.get());
        let s: Vec<f64> = (0..=100)
            .map(|p| base * scale * (1.0 + spread * f64::from(p) / 100.0))
            .collect();
        samples.insert(mc.get(), s);
    }
    FunctionProfile::from_samples("f", 1, grid, samples).unwrap()
}

/// The sample percentile is bounded by the sample min/max and monotone in p.
#[test]
fn percentile_is_bounded_and_monotone() {
    let mut rng = SimRng::seed_from_u64(0x1A01);
    for case in 0..CASES {
        let len = rng.int_range(1, 199) as usize;
        let mut values: Vec<f64> = (0..len).map(|_| rng.uniform_range(0.1, 10_000.0)).collect();
        let p1 = rng.uniform_range(0.0, 100.0);
        let p2 = rng.uniform_range(0.0, 100.0);
        let lo = p1.min(p2);
        let hi = p1.max(p2);
        let q_lo = percentile(&values, lo).unwrap();
        let q_hi = percentile(&values, hi).unwrap();
        values.sort_by(|a, b| a.total_cmp(b));
        assert!(q_lo <= q_hi + 1e-9, "case {case}: {q_lo} > {q_hi}");
        assert!(q_lo >= values[0] - 1e-9, "case {case}");
        assert!(q_hi <= values[values.len() - 1] + 1e-9, "case {case}");
    }
}

/// Condensing never changes any budget's head-size decision and always
/// produces sorted, non-overlapping rows.
#[test]
fn condensing_preserves_decisions() {
    let mut rng = SimRng::seed_from_u64(0x1A02);
    for case in 0..CASES {
        let len = rng.int_range(1, 399) as usize;
        let sizes: Vec<u32> = (0..len).map(|_| rng.int_range(1, 20) as u32).collect();
        let raw: Vec<RawHint> = sizes
            .iter()
            .enumerate()
            .map(|(i, s)| RawHint {
                budget_ms: 1000.0 + i as f64,
                allocation: vec![Millicores::new(s * 100 + 1000), Millicores::new(1000)],
                head_percentile: Percentile::P99,
                expected_cost: f64::from(*s),
            })
            .collect();
        let rows = condense(&raw);
        assert!(rows.len() <= raw.len(), "case {case}");
        for w in rows.windows(2) {
            assert!(w[0].end_ms < w[1].start_ms, "case {case}: overlapping rows");
        }
        let table = HintsTable::new(0, raw.len(), rows).unwrap();
        for hint in &raw {
            match table.lookup(SimDuration::from_millis(hint.budget_ms)) {
                LookupOutcome::Hit { head_cores } | LookupOutcome::AboveRange { head_cores } => {
                    assert_eq!(head_cores, hint.allocation[0], "case {case}");
                }
                LookupOutcome::Miss => panic!("case {case}: raw budget must stay covered"),
            }
        }
    }
}

/// Timeout and resilience are non-negative for every (percentile, cores)
/// pair, and the generator's plans respect the budget constraint.
#[test]
fn generated_plans_respect_the_budget() {
    let mut rng = SimRng::seed_from_u64(0x1A03);
    for case in 0..CASES {
        let base = rng.uniform_range(100.0, 600.0);
        let spread = rng.uniform_range(0.2, 1.5);
        let budget_ms = rng.uniform_range(600.0, 6000.0);
        let f1 = synthetic_profile(base, spread);
        let f2 = synthetic_profile(base * 0.8, spread);
        let profile =
            WorkflowProfile::new("wf", 1, CoreGrid::paper_default(), vec![f1.clone(), f2]).unwrap();

        // Metric invariants.
        for p in PercentileGrid::paper_default().iter() {
            for mc in CoreGrid::paper_default().iter() {
                assert!(
                    f1.timeout(p, mc, Percentile::P99).as_millis() >= -1e-9,
                    "case {case}"
                );
                assert!(f1.resilience(p, mc).as_millis() >= -1e-9, "case {case}");
            }
        }

        let config = GenerationConfig::default();
        let generator =
            HintGenerator::new(&profile, &config, SimDuration::from_millis(8000.0)).unwrap();
        if let Some(hint) = generator.generate(SimDuration::from_millis(budget_ms)) {
            assert_eq!(hint.allocation.len(), 2, "case {case}");
            // The planned P99 latencies (head at its chosen percentile, tail at
            // P99) must fit within the requested budget.
            let head = profile.function(0).unwrap();
            let tail = profile.function(1).unwrap();
            let planned = head
                .latency(hint.head_percentile, hint.allocation[0])
                .as_millis()
                + tail
                    .latency(Percentile::P99, hint.allocation[1])
                    .as_millis();
            assert!(
                planned <= budget_ms + 2.0,
                "case {case}: planned {planned} > budget {budget_ms}"
            );
            // And the timeout of the head is covered by the tail's resilience.
            let d = head
                .timeout(hint.head_percentile, hint.allocation[0], Percentile::P99)
                .as_millis();
            let r = tail
                .resilience(Percentile::P99, hint.allocation[1])
                .as_millis();
            assert!(
                d <= r + 1e-6,
                "case {case}: timeout {d} exceeds resilience {r}"
            );
        }
    }
}

/// Hints-table lookups are total over [min, max]: any budget inside the
/// covered range is a hit, anything above resolves to the cheapest row.
#[test]
fn lookups_inside_the_range_never_miss() {
    let mut rng = SimRng::seed_from_u64(0x1A04);
    for case in 0..CASES {
        let base = rng.uniform_range(150.0, 500.0);
        let budget_frac = rng.uniform();
        let f1 = synthetic_profile(base, 0.8);
        let profile = WorkflowProfile::new("wf", 1, CoreGrid::paper_default(), vec![f1]).unwrap();
        let config = GenerationConfig::default();
        let generator =
            HintGenerator::new(&profile, &config, SimDuration::from_millis(4000.0)).unwrap();
        let (table, raw) = generator.build_table(0, None);
        if table.is_empty() {
            continue;
        }
        assert!(table.len() <= raw.len(), "case {case}");
        let lo = table.min_budget_ms().unwrap();
        let hi = table.max_budget_ms().unwrap();
        let budget = lo + budget_frac * (hi - lo);
        assert!(
            table.lookup(SimDuration::from_millis(budget)).is_hit(),
            "case {case}: miss at {budget} in [{lo}, {hi}]"
        );
        assert!(
            table
                .lookup(SimDuration::from_millis(hi + 10_000.0))
                .is_hit(),
            "case {case}"
        );
    }
}

/// A latency near an integer, the way profiled percentiles land in
/// practice and where the DP's residual `⌊b − L⌋` is most fragile: exactly
/// integral, 1–3 ulps or 1e-13–1e-12 below one, or the same distances above
/// one (where the float subtraction `b − L` rounds up for large enough `b`).
fn near_integer_latency(rng: &mut SimRng, whole: f64) -> f64 {
    let ulps = |v: f64, n: u64, up: bool| {
        let bits = v.to_bits();
        f64::from_bits(if up { bits + n } else { bits - n })
    };
    match rng.int_range(0, 6) {
        0 => whole,
        1 => ulps(whole, rng.int_range(1, 3), false),
        2 => ulps(whole, rng.int_range(1, 3), true),
        3 => whole - 1e-13,
        4 => whole - 1e-12,
        5 => whole + 1e-13,
        _ => whole + 1e-12,
    }
}

/// A small random profile: 1–3 functions on a 1–5 point core grid. Each grid
/// point is either one near-integral sample (every percentile reads it, so
/// percentile candidates tie) or a random spread of samples (percentiles
/// differ, timeouts are positive).
fn small_random_profile(rng: &mut SimRng, horizon_ms: f64) -> WorkflowProfile {
    let points = rng.int_range(1, 5) as u32;
    let grid = CoreGrid::new(
        Millicores::new(1000),
        Millicores::new(1000 + 500 * (points - 1)),
        500,
    )
    .unwrap();
    let n = rng.int_range(1, 3) as usize;
    let per_function = horizon_ms / n as f64;
    let functions = (0..n)
        .map(|f| {
            let samples = grid
                .iter()
                .map(|mc| {
                    let whole = rng.int_range(1, per_function as u64) as f64;
                    let set = if rng.uniform() < 0.6 {
                        vec![near_integer_latency(rng, whole)]
                    } else {
                        let len = rng.int_range(2, 9);
                        (0..len)
                            .map(|_| whole * rng.uniform_range(0.5, 1.5))
                            .collect()
                    };
                    (mc.get(), set)
                })
                .collect();
            FunctionProfile::from_samples(format!("f{f}"), 1, grid, samples).unwrap()
        })
        .collect();
    WorkflowProfile::new("wf", 1, grid, functions).unwrap()
}

/// The per-budget scan of Algorithm 1's memoised recursion: for every
/// budget, every (percentile, allocation) pair in order, first strict
/// minimum wins. The generator fills its tables allocation-major instead;
/// this is the reference it must reproduce entry for entry.
fn per_budget_levels(
    profile: &WorkflowProfile,
    config: &GenerationConfig,
    horizon_ms: usize,
) -> Vec<Vec<LevelEntry>> {
    let tail = config.percentiles.tail();
    let grid = profile.grid();
    let kmax = f64::from(grid.max.get());
    let infeasible = LevelEntry {
        feasible: false,
        head_cores: Millicores::ZERO,
        head_percentile: Percentile::P99,
        expected_cost: f64::INFINITY,
        planned_cores: f64::INFINITY,
        resilience_ms: 0.0,
    };
    let n = profile.len();
    let mut levels: Vec<Vec<LevelEntry>> = Vec::new();
    for (i, func) in profile.functions().iter().enumerate().rev() {
        let explore = i < config.exploration_depth && n - i > 1;
        let weight = if i == 0 { config.weight } else { 1.0 };
        let candidates = if explore {
            config.percentiles.values().to_vec()
        } else {
            vec![tail]
        };
        let down = levels.last();
        let row = (0..=horizon_ms)
            .map(|budget_ms| {
                let budget = budget_ms as f64;
                let mut best = infeasible;
                for &p in &candidates {
                    for mc in grid.iter() {
                        let latency = func.latency(p, mc).as_millis();
                        if latency > budget {
                            continue;
                        }
                        let k = f64::from(mc.get());
                        let resilience = func.resilience(tail, mc).as_millis();
                        let (cost, planned, offered) = match down {
                            None => (weight * k, k, resilience),
                            Some(down) => {
                                let d = down[((budget - latency).floor() as usize).min(horizon_ms)];
                                if !d.feasible
                                    || func.timeout(p, mc, tail).as_millis() > d.resilience_ms
                                {
                                    continue;
                                }
                                let cost = weight * k
                                    + p.probability() * d.planned_cores
                                    + (1.0 - p.probability()) * (n - i - 1) as f64 * kmax;
                                (cost, k + d.planned_cores, resilience + d.resilience_ms)
                            }
                        };
                        if cost < best.expected_cost {
                            best = LevelEntry {
                                feasible: true,
                                head_cores: mc,
                                head_percentile: p,
                                expected_cost: cost,
                                planned_cores: planned,
                                resilience_ms: offered,
                            };
                        }
                    }
                }
                best
            })
            .collect();
        levels.push(row);
    }
    levels.reverse();
    levels
}

/// The allocation-major DP fill reproduces the per-budget scan bit for bit:
/// same feasibility, same argmin (first minimum on ties), same costs.
#[test]
fn allocation_major_fill_matches_the_per_budget_scan() {
    let mut rng = SimRng::seed_from_u64(0x1A05);
    let percentiles = PercentileGrid::paper_default();
    let mut cases_with_skips = 0;
    for case in 0..CASES {
        let horizon_ms = rng.int_range(20, 2500) as f64;
        let profile = small_random_profile(&mut rng, horizon_ms);
        let mut candidates: Vec<Percentile> = percentiles
            .iter()
            .filter(|_| rng.uniform() < 0.25)
            .collect();
        candidates.push(Percentile::P99);
        let config = GenerationConfig {
            weight: if rng.uniform() < 0.5 {
                1.0
            } else {
                rng.uniform_range(1.0, 3.0)
            },
            percentiles: PercentileGrid::from_values(candidates).unwrap(),
            exploration_depth: rng.int_range(0, 2) as usize,
            budget_step_ms: 1.0,
        };
        let skipped =
            assert_fill_matches_the_scan(&profile, &config, horizon_ms, &format!("case {case}"));
        cases_with_skips += usize::from(skipped > 0);
    }
    // Skipped passes must be exercised, not just allowed.
    assert!(
        cases_with_skips >= CASES / 8,
        "only {cases_with_skips} of {CASES} cases skip a pass"
    );
}

/// The budgets where the float residual `⌊b − L⌋` first rounds up by one
/// are where an allocation-major fill can go off by one: pin a downstream
/// feasibility edge right on each side of that split and compare again.
#[test]
fn rounding_split_edges_match_the_per_budget_scan() {
    let horizon_ms = 3000.0;
    let grid = CoreGrid::new(Millicores::new(1000), Millicores::new(1000), 100).unwrap();
    let single = |name: &str, latency: f64| {
        let samples = BTreeMap::from([(1000, vec![latency])]);
        FunctionProfile::from_samples(name, 1, grid, samples).unwrap()
    };
    let mut splits = 0;
    for whole in [3.0, 17.0, 250.0] {
        for above in [1, 2, 3, 300] {
            let head = f64::from_bits(f64::to_bits(whole) + above);
            let first = head.ceil() as usize;
            let Some(split) = (first..horizon_ms as usize)
                .find(|&b| (b as f64 - head).floor() as usize > b - first)
            else {
                continue;
            };
            splits += 1;
            // The downstream function turns feasible at residual `edge`.
            // With `edge = split - first + 1` the split budget is the first
            // feasible one, and only because its residual rounded up; with
            // `edge = split - first` the budget below the split must stay
            // infeasible, because its residual did not.
            for edge in [split - first, split - first + 1] {
                let profile = WorkflowProfile::new(
                    "wf",
                    1,
                    grid,
                    vec![single("head", head), single("tail", edge as f64)],
                )
                .unwrap();
                let config = GenerationConfig::default();
                let label = format!("head {head:e}, split {split}, edge {edge}");
                assert_fill_matches_the_scan(&profile, &config, horizon_ms, &label);
            }
        }
    }
    assert!(splits >= 6, "only {splits} latencies hit a rounding split");
}

/// The (percentile, allocation) passes of a fill that Eq. 6 rejects at
/// every budget: at every level but the last, those whose head timeout
/// exceeds the largest resilience of any feasible plan in the scan's row
/// below.
fn dead_passes(
    profile: &WorkflowProfile,
    config: &GenerationConfig,
    levels: &[Vec<LevelEntry>],
) -> usize {
    let tail = config.percentiles.tail();
    let n = profile.len();
    let mut dead = 0;
    for (i, func) in profile.functions().iter().enumerate().take(n - 1) {
        let max_resilience = levels[i + 1]
            .iter()
            .filter(|e| e.feasible)
            .map(|e| e.resilience_ms)
            .fold(f64::NEG_INFINITY, f64::max);
        let candidates = if i < config.exploration_depth {
            config.percentiles.values().to_vec()
        } else {
            vec![tail]
        };
        for p in candidates {
            dead += profile
                .grid()
                .iter()
                .filter(|&mc| func.timeout(p, mc, tail).as_millis() > max_resilience)
                .count();
        }
    }
    dead
}

/// Fill `profile`'s tables and compare every entry, bit for bit, with the
/// per-budget scan, and the passes the fill skipped with those the scan
/// shows Eq. 6 rejects outright. Returns the number of skipped passes.
fn assert_fill_matches_the_scan(
    profile: &WorkflowProfile,
    config: &GenerationConfig,
    horizon_ms: f64,
    label: &str,
) -> usize {
    let generator =
        HintGenerator::new(profile, config, SimDuration::from_millis(horizon_ms)).unwrap();
    let levels = generator.levels();
    let width = levels[0].len();
    let expected = per_budget_levels(profile, config, width - 1);

    assert_eq!(levels.len(), expected.len(), "{label}");
    let bits = |e: &LevelEntry| {
        (
            e.feasible,
            e.head_cores,
            e.head_percentile,
            e.expected_cost.to_bits(),
            e.planned_cores.to_bits(),
            e.resilience_ms.to_bits(),
        )
    };
    for (i, (row, want)) in levels.iter().zip(&expected).enumerate() {
        for (b, (got, want)) in row.iter().zip(want).enumerate() {
            assert_eq!(bits(got), bits(want), "{label}: level {i}, budget {b} ms");
        }
    }
    let skipped = generator.skipped_passes();
    assert_eq!(
        skipped,
        dead_passes(profile, config, &expected),
        "{label}: skipped passes"
    );
    skipped
}

/// Walking the DP for a fractional budget plans exactly what the DP priced
/// for its quantised (whole-millisecond) budget — every function's size,
/// not only the head's.
#[test]
fn plans_depend_only_on_the_quantised_budget() {
    let mut rng = SimRng::seed_from_u64(0x1A06);
    let profile = Profiler::new(ProfilerConfig {
        samples_per_point: 300,
        seed: 7,
        ..ProfilerConfig::default()
    })
    .unwrap()
    .profile_workflow(&intelligent_assistant(), 1);
    for exploration_depth in 0..=2 {
        let config = GenerationConfig {
            exploration_depth,
            ..GenerationConfig::default()
        };
        let horizon = profile.max_budget(Percentile::P99);
        let generator = HintGenerator::new(&profile, &config, horizon).unwrap();
        let mut budget = profile.min_budget(Percentile::P1).as_millis();
        while budget < horizon.as_millis() {
            let fractional = budget + rng.uniform();
            let whole = fractional.floor();
            let plan = |b: f64| {
                generator
                    .generate(SimDuration::from_millis(b))
                    .map(|h| h.allocation)
            };
            assert_eq!(
                plan(fractional),
                plan(whole),
                "depth {exploration_depth}: budget {fractional} ms"
            );
            budget += 3.0;
        }
    }
}

/// The O(n) selection ORION's convolution uses returns exactly the
/// percentile of the sorted values — duplicates, tiny inputs and the
/// interpolated ranks included.
#[test]
fn select_percentile_matches_the_sorted_percentile() {
    let mut rng = SimRng::seed_from_u64(0x1A07);
    for case in 0..CASES * 4 {
        let len = match case % 4 {
            0 => 1,
            1 => 2,
            _ => rng.int_range(3, 300) as usize,
        };
        // A small pool of values forces duplicates around the selected rank.
        let pool: Vec<f64> = (0..rng.int_range(1, 6))
            .map(|_| rng.uniform_range(0.0, 5000.0))
            .collect();
        let mut values: Vec<f64> = (0..len)
            .map(|_| {
                if rng.uniform() < 0.5 {
                    pool[rng.int_range(0, pool.len() as u64 - 1) as usize]
                } else {
                    rng.uniform_range(0.0, 5000.0)
                }
            })
            .collect();
        let p = match case % 5 {
            0 => 99.0,
            1 => 0.0,
            2 => 100.0,
            _ => rng.uniform_range(0.0, 100.0),
        };
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let want = percentile_of_sorted(&sorted, p);
        let got = select_percentile(&mut values, p);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "case {case}: len {len}, p {p}"
        );
    }
}

const FUNCTIONS: [&str; 4] = ["asr", "qa", "tts", "od"];

/// Brute-force model of one node: every hosted pod, recounted on demand.
struct RefNode {
    capacity: u32,
    zone: usize,
    state: NodeState,
    pods: BTreeMap<u64, (&'static str, u32)>,
}

impl RefNode {
    fn allocated(&self) -> u32 {
        self.pods.values().map(|(_, mc)| mc).sum()
    }

    fn free(&self) -> u32 {
        self.capacity.saturating_sub(self.allocated())
    }

    fn count(&self, function: &str) -> usize {
        self.pods.values().filter(|(f, _)| *f == function).count()
    }
}

/// Brute-force reference cluster implementing the placement rules by
/// recounting every zone from scratch (including `max_by_key`'s last-max
/// tie-break).
struct RefCluster {
    nodes: Vec<RefNode>,
    zones: usize,
    policy: PlacementPolicy,
}

impl RefCluster {
    fn add_node(&mut self, capacity: u32) {
        let zone = self.nodes.len() % self.zones;
        self.nodes.push(RefNode {
            capacity,
            zone,
            state: NodeState::Active,
            pods: BTreeMap::new(),
        });
    }

    fn zone_count(&self, zone: usize, function: &str) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.zone == zone && n.state != NodeState::Retired)
            .map(|n| n.count(function))
            .sum()
    }

    fn host_of(&self, pod: u64) -> Option<usize> {
        self.nodes.iter().position(|n| n.pods.contains_key(&pod))
    }

    fn active(&self) -> impl Iterator<Item = (usize, &RefNode)> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.state == NodeState::Active)
    }

    fn pick(&self, function: &str, mc: u32) -> Option<usize> {
        let fitting = self.active().filter(|(_, n)| n.free() >= mc);
        match self.policy {
            PlacementPolicy::PackSameFunction => fitting
                .max_by_key(|(_, n)| (n.count(function), n.free()))
                .map(|(i, _)| i),
            PlacementPolicy::Spread => fitting
                .max_by_key(|(_, n)| {
                    (
                        std::cmp::Reverse(self.zone_count(n.zone, function)),
                        n.free(),
                    )
                })
                .map(|(i, _)| i),
        }
    }

    fn least_allocated(&self) -> Option<usize> {
        self.active()
            .min_by_key(|(i, n)| (n.allocated(), *i))
            .map(|(i, _)| i)
    }

    fn retire_if_drained(&mut self, idx: usize) -> bool {
        let node = &mut self.nodes[idx];
        if node.state == NodeState::Draining && node.pods.is_empty() {
            node.state = NodeState::Retired;
        }
        node.state == NodeState::Retired
    }
}

/// After every operation the cluster's per-node, per-zone and fleet-wide
/// accounting equals a from-scratch recount of the reference. `ids` are the
/// cluster's ids of [`FUNCTIONS`], in order.
fn assert_matches_recount(
    c: &Cluster,
    ids: &[FunctionId],
    r: &RefCluster,
    case: usize,
    step: usize,
) {
    let at = format!("case {case} step {step}");
    for (i, n) in r.nodes.iter().enumerate() {
        let id = NodeId(i as u32);
        assert_eq!(c.node_state(id), Some(n.state), "{at}: state of {id}");
        let node = c.node(id).unwrap();
        assert_eq!(
            node.allocated().get(),
            n.allocated(),
            "{at}: {id} allocated"
        );
        assert_eq!(node.pod_count(), n.pods.len(), "{at}: {id} pods");
        for (f, &fid) in FUNCTIONS.iter().zip(ids) {
            assert_eq!(c.function_count_id(id, fid), n.count(f), "{at}: {id} {f}");
        }
        for (pod, (_, mc)) in &n.pods {
            assert_eq!(c.node_of(PodId(*pod)), Some(id), "{at}: host of pod {pod}");
            assert_eq!(c.pod_allocation(PodId(*pod)), Some(Millicores::new(*mc)));
        }
    }
    // The per-zone counts spread ranks by are private; every spread
    // placement above checks their effect. Here a zone's pods must be the
    // pods of its live nodes, which checks the node-to-zone map.
    for zone in 0..r.zones {
        for (f, &fid) in FUNCTIONS.iter().zip(ids) {
            let counted: usize = (0..r.nodes.len())
                .map(|i| NodeId(i as u32))
                .filter(|id| c.zone_of(*id) == Some(zone))
                .filter(|id| c.node_state(*id) != Some(NodeState::Retired))
                .map(|id| c.function_count_id(id, fid))
                .sum();
            assert_eq!(counted, r.zone_count(zone, f), "{at}: zone {zone} {f}");
        }
    }
    let live: u32 = r
        .nodes
        .iter()
        .filter(|n| n.state != NodeState::Retired)
        .map(RefNode::allocated)
        .sum();
    assert_eq!(c.total_allocated().get(), live, "{at}: total allocated");
    assert_eq!(c.active_node_count(), r.active().count(), "{at}");
}

/// Random place / overcommit / remove / grow / drain / crash sequences over
/// 1–3 zones and both placement policies: the O(nodes) interned-slot
/// placement picks exactly the node the per-zone recount picks, rejects
/// what it rejects, and crashes lose the same sorted pods.
#[test]
fn placement_matches_a_brute_force_recount() {
    const CAPACITY: u32 = 8000;
    let mut rng = SimRng::seed_from_u64(0x1A05);
    for case in 0..CASES {
        let zones = rng.int_range(1, 3) as usize;
        let nodes = rng.int_range(1, 6) as usize;
        let policy = if case % 2 == 0 {
            PlacementPolicy::Spread
        } else {
            PlacementPolicy::PackSameFunction
        };
        let mut c = Cluster::new(&ClusterConfig {
            nodes,
            node_capacity: Millicores::new(CAPACITY),
            placement: policy,
            zones,
        })
        .unwrap();
        let ids = FUNCTIONS.map(|f| c.function_id(f));
        let mut r = RefCluster {
            nodes: Vec::new(),
            zones,
            policy,
        };
        for _ in 0..nodes {
            r.add_node(CAPACITY);
        }
        let mut next_pod = 0u64;
        for step in 0..160 {
            let placed: Vec<u64> = r
                .nodes
                .iter()
                .flat_map(|n| n.pods.keys().copied())
                .collect();
            let f = *rng.choose(&FUNCTIONS);
            let mc = rng.int_range(5, 40) as u32 * 100;
            let roll = rng.int_range(0, 99);
            match roll {
                // Place a fresh pod (or, now and then, one already placed).
                0..=44 => {
                    let duplicate = roll < 4 && !placed.is_empty();
                    let pod = if duplicate {
                        *rng.choose(&placed)
                    } else {
                        next_pod += 1;
                        next_pod
                    };
                    let got = c.place(PodId(pod), f, Millicores::new(mc));
                    if duplicate {
                        assert!(
                            matches!(got, Err(SimError::InvalidTransition { .. })),
                            "case {case} step {step}: duplicate {pod} placed"
                        );
                    } else {
                        match r.pick(f, mc) {
                            Some(idx) => {
                                assert_eq!(got, Ok(NodeId(idx as u32)), "case {case} step {step}");
                                r.nodes[idx].pods.insert(pod, (f, mc));
                            }
                            None => {
                                let best = r.active().map(|(_, n)| n.free()).max().unwrap_or(0);
                                assert_eq!(
                                    got,
                                    Err(SimError::InsufficientCapacity {
                                        requested: Millicores::new(mc),
                                        available: Millicores::new(best),
                                    }),
                                    "case {case} step {step}"
                                );
                            }
                        }
                    }
                }
                // Overcommit the least-allocated active node.
                45..=54 => {
                    let duplicate = roll == 45 && !placed.is_empty();
                    let pod = if duplicate {
                        *rng.choose(&placed)
                    } else {
                        next_pod += 1;
                        next_pod
                    };
                    let id = c.function_id(f);
                    let got = c.place_overcommitted_id(PodId(pod), id, Millicores::new(mc));
                    match (duplicate, r.least_allocated()) {
                        (true, _) | (false, None) => {
                            assert!(got.is_err(), "case {case} step {step}")
                        }
                        (false, Some(idx)) => {
                            assert_eq!(got, Ok(NodeId(idx as u32)), "case {case} step {step}");
                            r.nodes[idx].pods.insert(pod, (f, mc));
                        }
                    }
                }
                // Remove a placed pod (or an unknown one).
                55..=84 => {
                    if placed.is_empty() || roll == 55 {
                        assert!(c.remove(PodId(next_pod + 1)).is_err());
                    } else {
                        let pod = *rng.choose(&placed);
                        c.remove(PodId(pod)).unwrap();
                        let idx = r.host_of(pod).unwrap();
                        r.nodes[idx].pods.remove(&pod);
                        r.retire_if_drained(idx);
                    }
                }
                85..=88 => {
                    let id = c.add_node(Millicores::new(CAPACITY)).unwrap();
                    assert_eq!(id, NodeId(r.nodes.len() as u32), "case {case} step {step}");
                    r.add_node(CAPACITY);
                }
                89..=91 => {
                    let idx = rng.int_range(0, r.nodes.len() as u64) as usize;
                    let got = c.drain_node(NodeId(idx as u32));
                    match r.nodes.get(idx).map(|n| n.state) {
                        None | Some(NodeState::Retired) => assert!(got.is_err()),
                        Some(_) => {
                            r.nodes[idx].state = NodeState::Draining;
                            assert_eq!(
                                got,
                                Ok(r.retire_if_drained(idx)),
                                "case {case} step {step}"
                            );
                        }
                    }
                }
                92..=94 => {
                    let count = rng.int_range(1, 2) as usize;
                    let floor = rng.int_range(1, 3) as usize;
                    let got = c.drain_least_allocated(count, floor);
                    let mut want = Vec::new();
                    for _ in 0..count {
                        if r.active().count() <= floor {
                            break;
                        }
                        let Some(idx) = r.least_allocated() else {
                            break;
                        };
                        r.nodes[idx].state = NodeState::Draining;
                        r.retire_if_drained(idx);
                        want.push(NodeId(idx as u32));
                    }
                    assert_eq!(got, want, "case {case} step {step}");
                }
                _ => {
                    let idx = rng.int_range(0, r.nodes.len() as u64) as usize;
                    let got = c.crash_node(NodeId(idx as u32));
                    match r.nodes.get(idx).map(|n| n.state) {
                        None | Some(NodeState::Retired) => assert!(got.is_err()),
                        Some(_) => {
                            let node = &mut r.nodes[idx];
                            let lost: Vec<(PodId, String)> = std::mem::take(&mut node.pods)
                                .into_iter()
                                .map(|(pod, (f, _))| (PodId(pod), f.to_string()))
                                .collect();
                            node.state = NodeState::Retired;
                            assert_eq!(got, Ok(lost), "case {case} step {step}");
                        }
                    }
                }
            }
            assert_matches_recount(&c, &ids, &r, case, step);
        }
    }
}

/// The `Value`-tree encoding of a record's trace line — the encoder the
/// trace sink used before it wrote lines directly — kept as the oracle the
/// direct writer must match byte for byte: `policy`, `at_ms`, `type`, then
/// the variant's fields.
fn oracle_record_line(policy: &str, record: &Record) -> String {
    let mut members = vec![
        ("policy".to_string(), Value::Str(policy.to_string())),
        ("at_ms".to_string(), Value::Num(record.at.as_millis())),
        (
            "type".to_string(),
            Value::Str(record.kind.kind_name().to_string()),
        ),
    ];
    let num = |members: &mut Vec<(String, Value)>, key: &str, v: f64| {
        members.push((key.to_string(), Value::Num(v)));
    };
    match record.kind {
        RecordKind::Arrival { request } | RecordKind::Shed { request } => {
            num(&mut members, "request", request as f64);
        }
        RecordKind::Admission { request, admitted } => {
            num(&mut members, "request", request as f64);
            members.push(("admitted".to_string(), Value::Bool(admitted)));
        }
        RecordKind::Placement {
            request,
            function,
            overcommitted,
        } => {
            num(&mut members, "request", request as f64);
            num(&mut members, "function", function as f64);
            members.push(("overcommitted".to_string(), Value::Bool(overcommitted)));
        }
        RecordKind::ColdStart {
            request,
            function,
            delay,
        } => {
            num(&mut members, "request", request as f64);
            num(&mut members, "function", function as f64);
            num(&mut members, "delay_ms", delay.as_millis());
        }
        RecordKind::ExecStart { request, function } => {
            num(&mut members, "request", request as f64);
            num(&mut members, "function", function as f64);
        }
        RecordKind::ExecEnd {
            request,
            function,
            exec,
        } => {
            num(&mut members, "request", request as f64);
            num(&mut members, "function", function as f64);
            num(&mut members, "exec_ms", exec.as_millis());
        }
        RecordKind::Retry {
            request,
            attempt,
            lost,
        } => {
            num(&mut members, "request", request as f64);
            num(&mut members, "attempt", attempt as f64);
            num(&mut members, "lost_ms", lost.as_millis());
        }
        RecordKind::Fault { kind } => {
            members.push(("fault".to_string(), Value::Str(kind.to_string())));
        }
        RecordKind::Scaling {
            from_nodes,
            to_nodes,
        } => {
            num(&mut members, "from_nodes", from_nodes as f64);
            num(&mut members, "to_nodes", to_nodes as f64);
        }
        RecordKind::Failed { request, e2e } => {
            num(&mut members, "request", request as f64);
            num(&mut members, "e2e_ms", e2e.as_millis());
        }
        RecordKind::Completion {
            request,
            e2e,
            slo_met,
        } => {
            num(&mut members, "request", request as f64);
            num(&mut members, "e2e_ms", e2e.as_millis());
            members.push(("slo_met".to_string(), Value::Bool(slo_met)));
        }
    }
    Value::Obj(members).to_compact()
}

/// The `Value`-tree encoding of a tick's trace line: `policy`, the `tick`
/// tag, then the [`TimeSeriesPoint`] fields.
fn oracle_tick_line(policy: &str, sample: &TickSample) -> String {
    let mut members = vec![
        ("policy".to_string(), Value::Str(policy.to_string())),
        ("type".to_string(), Value::Str("tick".to_string())),
    ];
    if let Value::Obj(rest) = TimeSeriesPoint::from_sample(sample).to_json() {
        members.extend(rest);
    }
    Value::Obj(members).to_compact()
}

/// Policy names that need every kind of JSON escaping, plus plain and
/// multi-byte text.
fn arbitrary_policy(rng: &mut SimRng) -> String {
    const ALPHABET: &[char] = &[
        'a', 'z', 'J', '-', '_', '+', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0001}',
        '\u{001f}', '\u{007f}', 'é', 'λ', '中', '🦀',
    ];
    let len = rng.int_range(1, 12) as usize;
    (0..len).map(|_| *rng.choose(ALPHABET)).collect()
}

/// Milliseconds across the shapes the number formatter special-cases:
/// zero, integral, non-integral, and at or beyond the 1e15 cutoff where
/// integral values stop printing as integers.
fn arbitrary_ms(rng: &mut SimRng) -> f64 {
    match rng.int_range(0, 4) {
        0 => 0.0,
        1 => rng.int_range(0, 10_000_000) as f64,
        2 => rng.uniform_range(0.0, 1e7),
        3 => 1e15 + rng.int_range(0, 1 << 40) as f64,
        _ => rng.uniform_range(1e15, 1e18),
    }
}

/// Request ids exact in an `f64`, small or near 2^53.
fn arbitrary_id(rng: &mut SimRng) -> u64 {
    if rng.uniform() < 0.8 {
        rng.int_range(0, 100_000)
    } else {
        rng.int_range(1 << 50, 1 << 53)
    }
}

fn arbitrary_kind(rng: &mut SimRng) -> RecordKind {
    let request = arbitrary_id(rng);
    let function = rng.int_range(0, 12) as usize;
    let flag = rng.uniform() < 0.5;
    let ms = SimDuration::from_millis(arbitrary_ms(rng));
    match rng.int_range(0, 11) {
        0 => RecordKind::Arrival { request },
        1 => RecordKind::Admission {
            request,
            admitted: flag,
        },
        2 => RecordKind::Placement {
            request,
            function,
            overcommitted: flag,
        },
        3 => RecordKind::ColdStart {
            request,
            function,
            delay: ms,
        },
        4 => RecordKind::ExecStart { request, function },
        5 => RecordKind::ExecEnd {
            request,
            function,
            exec: ms,
        },
        6 => RecordKind::Retry {
            request,
            attempt: rng.int_range(1, u64::from(u32::MAX)) as u32,
            lost: ms,
        },
        7 => RecordKind::Fault {
            kind: FAULT_KINDS[rng.int_range(0, FAULT_KINDS.len() as u64 - 1) as usize],
        },
        8 => RecordKind::Scaling {
            from_nodes: rng.int_range(0, 500) as usize,
            to_nodes: rng.int_range(0, 500) as usize,
        },
        9 => RecordKind::Shed { request },
        10 => RecordKind::Failed { request, e2e: ms },
        _ => RecordKind::Completion {
            request,
            e2e: ms,
            slo_met: flag,
        },
    }
}

fn arbitrary_tick(rng: &mut SimRng, at: SimTime) -> TickSample {
    let zones = rng.int_range(0, 3) as usize;
    TickSample {
        at,
        queue_depth: rng.int_range(0, 5000) as usize,
        inflight: rng.int_range(0, 5000) as usize,
        active_nodes: rng.int_range(0, 64) as usize,
        nodes_per_zone: (0..zones).map(|_| rng.int_range(0, 32) as usize).collect(),
        utilization: rng.uniform(),
        pool_size: rng.int_range(0, 200) as usize,
        shed: rng.int_range(0, 1 << 40),
        failed: rng.int_range(0, 1000),
        retried: rng.int_range(0, 1000),
    }
}

/// The trace sink's direct line writer produces exactly the bytes of the
/// `Value`-tree encoding for every record kind and for ticks — including
/// policy names that need escaping and runs of records sharing one
/// timestamp (the reuse path) — and every line decodes back to its input.
#[test]
fn direct_trace_lines_match_the_value_tree_encoding() {
    let mut rng = SimRng::seed_from_u64(0x1A0B);
    for case in 0..CASES {
        let policy = arbitrary_policy(&mut rng);
        let mut observer = TraceObserver::new(&ObserverContext {
            seed: case as u64,
            policy: policy.clone(),
            requests: 1, // sampling stride 1: every record is written
            zones: 3,
            slo: SimDuration::from_secs(1.0),
        });
        let mut expected = Vec::new();
        let mut inputs = Vec::new();
        let mut at = SimTime::from_millis(arbitrary_ms(&mut rng));
        for _ in 0..rng.int_range(1, 60) {
            // Half the lines reuse the previous instant, as the records of
            // one simulated event do; the rest jump anywhere or move by a
            // sub-millisecond step that keeps the integer part.
            let roll = rng.uniform();
            if roll < 0.25 {
                at = SimTime::from_millis(arbitrary_ms(&mut rng));
            } else if roll < 0.5 {
                at = SimTime::from_millis(at.as_millis() + rng.uniform_range(0.0, 0.5));
            }
            if rng.uniform() < 0.15 {
                let sample = arbitrary_tick(&mut rng, at);
                expected.push(oracle_tick_line(&policy, &sample));
                observer.tick(&sample);
                inputs.push(Err(sample));
            } else {
                let record = Record {
                    at,
                    kind: arbitrary_kind(&mut rng),
                };
                expected.push(oracle_record_line(&policy, &record));
                observer.record(&record);
                inputs.push(Ok(record));
            }
        }
        let report = observer.finish();
        assert_eq!(report.records_kept, expected.len() as u64, "case {case}");
        let trace = report.trace.expect("the trace sink writes a trace");
        let lines: Vec<&str> = trace.split_terminator('\n').collect();
        assert_eq!(lines.len(), expected.len(), "case {case}: {trace}");
        for (i, ((line, want), input)) in lines.iter().zip(&expected).zip(&inputs).enumerate() {
            assert_eq!(line, want, "case {case} line {i}");
            let value = janus_json::parse(line)
                .unwrap_or_else(|e| panic!("case {case} line {i}: invalid JSON ({e}): {line}"));
            assert_eq!(
                value.get("policy").and_then(Value::as_str),
                Some(policy.as_str())
            );
            match input {
                Ok(record) => {
                    let decoded = Record::from_json(&value)
                        .unwrap_or_else(|e| panic!("case {case} line {i}: {e}"));
                    assert_eq!(&decoded, record, "case {case} line {i}");
                }
                Err(sample) => {
                    let decoded = TimeSeriesPoint::from_json(&value)
                        .unwrap_or_else(|e| panic!("case {case} line {i}: {e}"));
                    assert_eq!(
                        decoded,
                        TimeSeriesPoint::from_sample(sample),
                        "case {case} line {i}"
                    );
                }
            }
        }
    }
}
