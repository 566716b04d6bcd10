//! Arrival processes: seed-deterministic generators of request timestamps.
//!
//! An [`ArrivalProcess`] describes *when* requests reach the platform. It is
//! consumed in two ways:
//!
//! * [`ArrivalProcess::sampler`] hands the request generator a stateful
//!   [`InterArrivalSampler`] that draws gaps from the *generator's* RNG
//!   stream — the same stream the per-request execution factors come from —
//!   so serving sessions stay reproducible bit-for-bit and the Poisson
//!   special case reproduces the historical open-loop stream exactly.
//! * [`ArrivalProcess::timestamps`] drives a fresh sampler from an explicit
//!   seed and returns the absolute arrival offsets of `n` requests —
//!   monotone, non-negative, and identical for identical seeds.

use janus_simcore::rng::SimRng;
use janus_simcore::time::SimDuration;
use janus_trace::Trace;
use janus_workloads::request::{InterArrivalSampler, PoissonGaps};
use std::fmt;

/// An object-safe, seed-deterministic arrival process.
///
/// Implementations are immutable descriptions (rate parameters, spike
/// windows, replayed gap sequences); all per-run state lives in the sampler
/// returned by [`sampler`](Self::sampler), so one process can drive any
/// number of independent runs.
pub trait ArrivalProcess: fmt::Debug + Send + Sync {
    /// Display name the process reports itself under.
    fn name(&self) -> &str;

    /// A fresh sampler positioned at the start of the process.
    fn sampler(&self) -> Box<dyn InterArrivalSampler>;

    /// Arrival timestamps of the first `n` requests, driven by a dedicated
    /// RNG seeded with `seed`. Timestamps are nondecreasing and
    /// non-negative; identical seeds yield identical vectors.
    fn timestamps(&self, seed: u64, n: usize) -> Vec<SimDuration> {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut sampler = self.sampler();
        let mut clock = SimDuration::ZERO;
        (0..n)
            .map(|_| {
                clock += sampler.next_gap(&mut rng).saturate();
                clock
            })
            .collect()
    }
}

fn positive_rate(what: &str, rps: f64) -> Result<f64, String> {
    if rps.is_finite() && rps > 0.0 {
        Ok(rps)
    } else {
        Err(format!("{what} must be a positive rate, got {rps}"))
    }
}

/// Constant-rate Poisson arrivals — the paper's open-loop load shape, and
/// the process `Load::Open { rps }` resolves to.
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    rps: f64,
}

impl PoissonArrivals {
    /// Poisson arrivals at `rps` requests per second.
    pub(crate) fn new(rps: f64) -> Result<Self, String> {
        Ok(PoissonArrivals {
            rps: positive_rate("poisson rps", rps)?,
        })
    }
}

impl ArrivalProcess for PoissonArrivals {
    fn name(&self) -> &str {
        "poisson"
    }

    fn sampler(&self) -> Box<dyn InterArrivalSampler> {
        // One exponential draw per request — draw-for-draw the stream the
        // pre-scenario open loop produced.
        Box::new(PoissonGaps::new(SimDuration::from_millis(
            1000.0 / self.rps,
        )))
    }
}

/// Sinusoidally rate-modulated Poisson arrivals: `rate(t) = base · (1 + a ·
/// sin(2πt/period))`. Models the compressed day/night swing of production
/// traffic; the long-run mean rate is exactly the base rate.
#[derive(Debug, Clone)]
pub struct DiurnalArrivals {
    base_rps: f64,
    amplitude: f64,
    period: SimDuration,
}

impl DiurnalArrivals {
    /// Diurnal arrivals around `base_rps` with relative `amplitude` in
    /// `[0, 1)` and the given modulation period.
    pub(crate) fn new(base_rps: f64, amplitude: f64, period: SimDuration) -> Result<Self, String> {
        let base_rps = positive_rate("diurnal base rps", base_rps)?;
        if !(0.0..1.0).contains(&amplitude) {
            return Err(format!(
                "diurnal amplitude must be in [0, 1), got {amplitude}"
            ));
        }
        if period.as_millis() <= 0.0 {
            return Err("diurnal period must be positive".into());
        }
        Ok(DiurnalArrivals {
            base_rps,
            amplitude,
            period,
        })
    }
}

impl ArrivalProcess for DiurnalArrivals {
    fn name(&self) -> &str {
        "diurnal"
    }

    fn sampler(&self) -> Box<dyn InterArrivalSampler> {
        let base = self.base_rps;
        let amplitude = self.amplitude;
        let period_ms = self.period.as_millis();
        Box::new(ThinningSampler::new(
            base * (1.0 + amplitude),
            move |t_ms: f64| {
                base * (1.0 + amplitude * (std::f64::consts::TAU * t_ms / period_ms).sin())
            },
        ))
    }
}

/// Two-state Markov-modulated Poisson process (MMPP): an *on* phase at one
/// rate and an *off* phase at another, with exponentially distributed phase
/// dwell times. The textbook model for bursty request streams.
#[derive(Debug, Clone)]
pub struct BurstyArrivals {
    on_rps: f64,
    off_rps: f64,
    mean_on: SimDuration,
    mean_off: SimDuration,
}

impl BurstyArrivals {
    /// An on/off process: `on_rps` during bursts, `off_rps` between them
    /// (zero allowed), with mean phase lengths `mean_on` / `mean_off`.
    pub(crate) fn new(
        on_rps: f64,
        off_rps: f64,
        mean_on: SimDuration,
        mean_off: SimDuration,
    ) -> Result<Self, String> {
        let on_rps = positive_rate("bursty on-rate", on_rps)?;
        if !(off_rps.is_finite() && off_rps >= 0.0) {
            return Err(format!(
                "bursty off-rate must be non-negative, got {off_rps}"
            ));
        }
        if mean_on.as_millis() <= 0.0 || mean_off.as_millis() <= 0.0 {
            return Err("bursty phase lengths must be positive".into());
        }
        Ok(BurstyArrivals {
            on_rps,
            off_rps,
            mean_on,
            mean_off,
        })
    }
}

impl ArrivalProcess for BurstyArrivals {
    fn name(&self) -> &str {
        "bursty"
    }

    fn sampler(&self) -> Box<dyn InterArrivalSampler> {
        Box::new(MmppSampler {
            on_rps: self.on_rps,
            off_rps: self.off_rps,
            mean_on_ms: self.mean_on.as_millis(),
            mean_off_ms: self.mean_off.as_millis(),
            started: false,
            in_on: false,
            phase_left_ms: 0.0,
        })
    }
}

/// Baseline-rate arrivals with one flash-crowd window at a multiple of the
/// baseline — the "everyone opens the app at once" scenario.
#[derive(Debug, Clone)]
pub struct FlashCrowd {
    base_rps: f64,
    spike_rps: f64,
    spike_start: SimDuration,
    spike_len: SimDuration,
}

impl FlashCrowd {
    /// Baseline `base_rps` everywhere except the window
    /// `[spike_start, spike_start + spike_len)`, where the rate is
    /// `spike_rps` (must be at least the baseline).
    pub(crate) fn new(
        base_rps: f64,
        spike_rps: f64,
        spike_start: SimDuration,
        spike_len: SimDuration,
    ) -> Result<Self, String> {
        let base_rps = positive_rate("flash-crowd base rps", base_rps)?;
        let spike_rps = positive_rate("flash-crowd spike rps", spike_rps)?;
        if spike_rps < base_rps {
            return Err(format!(
                "flash-crowd spike rate {spike_rps} below baseline {base_rps}"
            ));
        }
        if spike_start.as_millis() < 0.0 || spike_len.as_millis() <= 0.0 {
            return Err("flash-crowd window must have positive length".into());
        }
        Ok(FlashCrowd {
            base_rps,
            spike_rps,
            spike_start,
            spike_len,
        })
    }
}

impl ArrivalProcess for FlashCrowd {
    fn name(&self) -> &str {
        "flash-crowd"
    }

    fn sampler(&self) -> Box<dyn InterArrivalSampler> {
        let base = self.base_rps;
        let spike = self.spike_rps;
        let start_ms = self.spike_start.as_millis();
        let end_ms = start_ms + self.spike_len.as_millis();
        Box::new(ThinningSampler::new(spike.max(base), move |t_ms| {
            if (start_ms..end_ms).contains(&t_ms) {
                spike
            } else {
                base
            }
        }))
    }
}

/// Replays the inter-arrival gaps of a recorded (or synthesized) trace,
/// cycling when the trace is shorter than the run. Bridges
/// [`janus_trace::Trace`] dynamics — diurnal swings included — into the
/// serving simulator. Consumes no randomness: the gaps *are* the process.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    gaps_ms: Vec<f64>,
    scale: f64,
}

impl TraceReplay {
    /// Replay an explicit gap sequence (milliseconds between consecutive
    /// arrivals). Gaps must be finite, non-negative and not all zero.
    pub fn from_gaps(gaps_ms: Vec<f64>) -> Result<Self, String> {
        if gaps_ms.is_empty() {
            return Err("trace replay needs at least one inter-arrival gap".into());
        }
        if gaps_ms.iter().any(|g| !g.is_finite() || *g < 0.0) {
            return Err("trace gaps must be finite and non-negative".into());
        }
        if gaps_ms.iter().sum::<f64>() <= 0.0 {
            return Err("trace gaps must not all be zero".into());
        }
        Ok(TraceReplay {
            gaps_ms,
            scale: 1.0,
        })
    }

    /// Replay the arrival dynamics of a synthesized trace.
    pub(crate) fn from_trace(trace: &Trace) -> Result<Self, String> {
        Self::from_gaps(trace.inter_arrival_gaps_ms())
    }

    /// Rescale every gap so the long-run mean rate becomes `rps`, preserving
    /// the burst *shape* while matching another scenario's offered load.
    pub(crate) fn scaled_to_rate(mut self, rps: f64) -> Result<Self, String> {
        let rps = positive_rate("trace replay rate", rps)?;
        let mean_gap = self.gaps_ms.iter().sum::<f64>() / self.gaps_ms.len() as f64;
        self.scale = (1000.0 / rps) / mean_gap;
        Ok(self)
    }
}

impl ArrivalProcess for TraceReplay {
    fn name(&self) -> &str {
        "trace-replay"
    }

    fn sampler(&self) -> Box<dyn InterArrivalSampler> {
        Box::new(ReplaySampler {
            gaps_ms: self.gaps_ms.clone(),
            scale: self.scale,
            pos: 0,
        })
    }
}

/// Non-homogeneous Poisson sampler via thinning: propose gaps at the peak
/// rate, accept with probability `rate(t)/peak`. Exact for any bounded rate
/// function.
struct ThinningSampler<R> {
    peak_rps: f64,
    rate_at_ms: R,
    clock_ms: f64,
}

impl<R> ThinningSampler<R> {
    fn new(peak_rps: f64, rate_at_ms: R) -> Self {
        ThinningSampler {
            peak_rps,
            rate_at_ms,
            clock_ms: 0.0,
        }
    }
}

impl<R> fmt::Debug for ThinningSampler<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThinningSampler")
            .field("peak_rps", &self.peak_rps)
            .field("clock_ms", &self.clock_ms)
            .finish()
    }
}

impl<R> InterArrivalSampler for ThinningSampler<R>
where
    R: Fn(f64) -> f64 + Send,
{
    fn next_gap(&mut self, rng: &mut SimRng) -> SimDuration {
        let start_ms = self.clock_ms;
        loop {
            self.clock_ms += rng.exponential(1000.0 / self.peak_rps);
            let rate = (self.rate_at_ms)(self.clock_ms);
            if rng.uniform() * self.peak_rps < rate {
                return SimDuration::from_millis(self.clock_ms - start_ms);
            }
        }
    }
}

/// Two-state MMPP sampler. Phase dwell times are exponential; within a phase
/// arrivals are Poisson at the phase rate. Memorylessness makes re-drawing
/// the candidate gap after a phase switch exact.
#[derive(Debug)]
struct MmppSampler {
    on_rps: f64,
    off_rps: f64,
    mean_on_ms: f64,
    mean_off_ms: f64,
    started: bool,
    in_on: bool,
    phase_left_ms: f64,
}

impl InterArrivalSampler for MmppSampler {
    fn next_gap(&mut self, rng: &mut SimRng) -> SimDuration {
        if !self.started {
            // Stationary start: pick the initial phase with its long-run
            // time fraction (always starting "on" would bias short runs
            // toward the burst rate); the residual dwell is exponential by
            // memorylessness, so a fresh draw is exact.
            self.started = true;
            let p_on = self.mean_on_ms / (self.mean_on_ms + self.mean_off_ms);
            self.in_on = rng.uniform() < p_on;
            self.phase_left_ms = rng.exponential(if self.in_on {
                self.mean_on_ms
            } else {
                self.mean_off_ms
            });
        }
        let mut gap_ms = 0.0;
        loop {
            if self.phase_left_ms <= 0.0 {
                self.in_on = !self.in_on;
                let mean = if self.in_on {
                    self.mean_on_ms
                } else {
                    self.mean_off_ms
                };
                self.phase_left_ms = rng.exponential(mean);
            }
            let rate = if self.in_on {
                self.on_rps
            } else {
                self.off_rps
            };
            if rate <= 0.0 {
                // A silent phase contributes its whole dwell to the gap.
                gap_ms += self.phase_left_ms;
                self.phase_left_ms = 0.0;
                continue;
            }
            let candidate_ms = rng.exponential(1000.0 / rate);
            if candidate_ms <= self.phase_left_ms {
                self.phase_left_ms -= candidate_ms;
                return SimDuration::from_millis(gap_ms + candidate_ms);
            }
            gap_ms += self.phase_left_ms;
            self.phase_left_ms = 0.0;
        }
    }
}

#[derive(Debug)]
struct ReplaySampler {
    gaps_ms: Vec<f64>,
    scale: f64,
    pos: usize,
}

impl InterArrivalSampler for ReplaySampler {
    fn next_gap(&mut self, _rng: &mut SimRng) -> SimDuration {
        let gap = self.gaps_ms[self.pos % self.gaps_ms.len()];
        self.pos += 1;
        SimDuration::from_millis(gap * self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_trace::TraceConfig;

    fn realized_rps(timestamps: &[SimDuration]) -> f64 {
        timestamps.len() as f64 / timestamps.last().unwrap().as_secs()
    }

    fn builtins() -> Vec<Box<dyn ArrivalProcess>> {
        let trace = Trace::generate(&TraceConfig {
            functions: 50,
            invocations: 3000,
            mean_rps: 20.0,
            ..TraceConfig::default()
        })
        .unwrap();
        vec![
            Box::new(PoissonArrivals::new(20.0).unwrap()),
            Box::new(DiurnalArrivals::new(20.0, 0.6, SimDuration::from_secs(60.0)).unwrap()),
            Box::new(
                BurstyArrivals::new(
                    36.0,
                    4.0,
                    SimDuration::from_secs(20.0),
                    SimDuration::from_secs(20.0),
                )
                .unwrap(),
            ),
            Box::new(
                FlashCrowd::new(
                    12.5,
                    62.5,
                    SimDuration::from_secs(40.0),
                    SimDuration::from_secs(20.0),
                )
                .unwrap(),
            ),
            Box::new(
                TraceReplay::from_trace(&trace)
                    .unwrap()
                    .scaled_to_rate(20.0)
                    .unwrap(),
            ),
        ]
    }

    #[test]
    fn timestamps_are_monotone_nonnegative_and_seed_deterministic() {
        for process in builtins() {
            let a = process.timestamps(42, 4000);
            let b = process.timestamps(42, 4000);
            assert_eq!(a, b, "{}: same seed must reproduce", process.name());
            assert_eq!(a.len(), 4000);
            let mut prev = SimDuration::ZERO;
            for t in &a {
                assert!(
                    t.as_millis() >= prev.as_millis() && t.as_millis() >= 0.0,
                    "{}: timestamps must be sorted and non-negative",
                    process.name()
                );
                prev = *t;
            }
        }
    }

    #[test]
    fn distinct_seeds_give_distinct_stochastic_streams() {
        for process in builtins() {
            if process.name() == "trace-replay" {
                // Replay consumes no randomness: every seed replays the trace.
                assert_eq!(process.timestamps(1, 50), process.timestamps(2, 50));
                continue;
            }
            assert_ne!(
                process.timestamps(1, 50),
                process.timestamps(2, 50),
                "{}: different seeds must differ",
                process.name()
            );
        }
    }

    #[test]
    fn realized_mean_rate_tracks_the_configured_rate() {
        // Every built-in above is parameterised for a 20 rps long-run mean
        // (bursty: (36·20 + 4·20)/40 = 20). A single finite run of a bursty
        // process is high-variance (few on/off cycles), so the estimate
        // averages several seeded runs.
        for process in builtins() {
            let mean_rps = (0..10)
                .map(|seed| realized_rps(&process.timestamps(seed, 4000)))
                .sum::<f64>()
                / 10.0;
            assert!(
                (mean_rps - 20.0).abs() / 20.0 < 0.2,
                "{}: realized {mean_rps} rps vs configured 20",
                process.name()
            );
        }
    }

    #[test]
    fn flash_crowd_concentrates_arrivals_in_the_window() {
        let process = FlashCrowd::new(
            10.0,
            100.0,
            SimDuration::from_secs(10.0),
            SimDuration::from_secs(10.0),
        )
        .unwrap();
        let ts = process.timestamps(11, 2000);
        let in_window = ts
            .iter()
            .filter(|t| (10.0..20.0).contains(&t.as_secs()))
            .count();
        // The 10 s window at 100 rps should hold ~1000 of the 2000 arrivals,
        // far more than the 10 s before it at 10 rps (~100).
        let before = ts.iter().filter(|t| t.as_secs() < 10.0).count();
        assert!(
            in_window > 5 * before,
            "window {in_window} vs before {before}"
        );
    }

    #[test]
    fn bursty_arrivals_are_burstier_than_poisson() {
        // Squared coefficient of variation of the gaps: 1 for exponential,
        // > 1 for an on/off MMPP with distinct rates.
        let cv2 = |process: &dyn ArrivalProcess| {
            let ts = process.timestamps(13, 6000);
            let gaps: Vec<f64> = ts
                .windows(2)
                .map(|w| w[1].as_millis() - w[0].as_millis())
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            var / (mean * mean)
        };
        let poisson = PoissonArrivals::new(20.0).unwrap();
        let bursty = BurstyArrivals::new(
            36.0,
            4.0,
            SimDuration::from_secs(20.0),
            SimDuration::from_secs(20.0),
        )
        .unwrap();
        let (p, b) = (cv2(&poisson), cv2(&bursty));
        assert!((p - 1.0).abs() < 0.25, "poisson cv² {p}");
        assert!(b > 1.5, "bursty cv² {b} should exceed poisson's");
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(PoissonArrivals::new(0.0).is_err());
        assert!(PoissonArrivals::new(f64::NAN).is_err());
        assert!(DiurnalArrivals::new(5.0, 1.0, SimDuration::from_secs(1.0)).is_err());
        assert!(DiurnalArrivals::new(5.0, 0.5, SimDuration::ZERO).is_err());
        assert!(BurstyArrivals::new(
            5.0,
            -1.0,
            SimDuration::from_secs(1.0),
            SimDuration::from_secs(1.0)
        )
        .is_err());
        assert!(FlashCrowd::new(5.0, 1.0, SimDuration::ZERO, SimDuration::from_secs(1.0)).is_err());
        assert!(TraceReplay::from_gaps(vec![]).is_err());
        assert!(TraceReplay::from_gaps(vec![0.0, 0.0]).is_err());
        assert!(TraceReplay::from_gaps(vec![10.0, -1.0]).is_err());
    }

    #[test]
    fn trace_replay_cycles_and_rescales() {
        let replay = TraceReplay::from_gaps(vec![100.0, 300.0]).unwrap();
        let ts = replay.timestamps(0, 4);
        assert_eq!(
            ts.iter().map(|t| t.as_millis()).collect::<Vec<_>>(),
            vec![100.0, 400.0, 500.0, 800.0]
        );
        // Mean gap 200 ms = 5 rps; rescaled to 20 rps gaps shrink 4×.
        let scaled = replay.scaled_to_rate(20.0).unwrap();
        let ts = scaled.timestamps(0, 4);
        assert!((ts[0].as_millis() - 25.0).abs() < 1e-9);
        assert!(
            (ts[3].as_millis() - 200.0).abs() < 1e-9,
            "one cycle: 4 arrivals in 200 ms"
        );
    }
}
