//! Working-set (input-size) distributions.
//!
//! §II-B: "The working set, i.e., input data like videos, audios, and texts,
//! can have varying sizes … resulting in a variance of up to 3.8× in function
//! execution". The distributions here map an input drawn from a dataset-like
//! distribution to a multiplicative latency scale factor with median ≈ 1.0.
//!
//! * COCO2014 images contain 1–15 objects (paper cites \[57\]); object
//!   detection and downstream QA latency grows with the object count.
//! * SQuAD2.0 contexts contain 35–641 words; QA latency grows with length.
//! * The VA pipeline's videos have "identical duration and resolution", so its
//!   working-set variation is mild and most of its variance comes from
//!   interference (the paper reports P99/P50 of only 1.37–1.56 for VA).

use janus_simcore::rng::SimRng;

/// A distribution over working-set latency scale factors.
#[derive(Debug, Clone, PartialEq)]
pub enum WorksetDistribution {
    /// Fixed working set: always scale 1.0.
    Constant,
    /// Discrete item count uniform in `[min_items, max_items]`; the scale is
    /// `base + per_item * items`, e.g. objects per COCO image.
    ItemCount {
        /// Minimum number of items.
        min_items: u64,
        /// Maximum number of items (inclusive).
        max_items: u64,
        /// Scale contribution independent of the item count.
        base: f64,
        /// Scale contribution per item.
        per_item: f64,
    },
    /// Log-normal scale with median 1.0 and the given sigma, clamped to
    /// `[min, max]`; models text / blob size distributions which span a wide
    /// range (Azure blobs differ by orders of magnitude).
    LogNormal {
        /// Sigma of the underlying normal.
        sigma: f64,
        /// Lower clamp for the scale factor.
        min: f64,
        /// Upper clamp for the scale factor.
        max: f64,
    },
    /// Uniform scale in `[min, max]`.
    Uniform {
        /// Lower bound.
        min: f64,
        /// Upper bound.
        max: f64,
    },
}

impl WorksetDistribution {
    /// The COCO2014 object-count distribution used for OD and carried through
    /// the IA chain: 1–15 objects/image.
    pub fn coco_objects() -> Self {
        WorksetDistribution::ItemCount {
            min_items: 1,
            max_items: 15,
            base: 0.55,
            per_item: 0.075,
        }
    }

    /// SQuAD2.0 context length distribution (35–641 words) for QA.
    pub fn squad_words() -> Self {
        WorksetDistribution::LogNormal {
            sigma: 0.30,
            min: 0.50,
            max: 2.4,
        }
    }

    /// Text-to-speech output length (answers are short; moderate variation).
    pub fn tts_answer() -> Self {
        WorksetDistribution::LogNormal {
            sigma: 0.25,
            min: 0.55,
            max: 2.2,
        }
    }

    /// VA inputs: videos with identical duration/resolution → mild variation.
    pub fn fixed_video() -> Self {
        WorksetDistribution::Uniform {
            min: 0.9,
            max: 1.15,
        }
    }

    /// Sample a latency scale factor.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            WorksetDistribution::Constant => 1.0,
            WorksetDistribution::ItemCount {
                min_items,
                max_items,
                base,
                per_item,
            } => {
                let items = rng.int_range(min_items, max_items) as f64;
                base + per_item * items
            }
            WorksetDistribution::LogNormal { sigma, min, max } => {
                rng.lognormal_noise(sigma).clamp(min, max)
            }
            WorksetDistribution::Uniform { min, max } => rng.uniform_range(min, max),
        }
    }

    /// The ratio between the largest and smallest possible scale factor — an
    /// upper bound on the working-set-induced latency variance (Figure 1b).
    pub fn max_variation(&self) -> f64 {
        match *self {
            WorksetDistribution::Constant => 1.0,
            WorksetDistribution::ItemCount {
                min_items,
                max_items,
                base,
                per_item,
            } => (base + per_item * max_items as f64) / (base + per_item * min_items as f64),
            WorksetDistribution::LogNormal { min, max, .. } => max / min,
            WorksetDistribution::Uniform { min, max } => max / min,
        }
    }

    /// Validate the distribution parameters.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            WorksetDistribution::Constant => Ok(()),
            WorksetDistribution::ItemCount {
                min_items,
                max_items,
                base,
                per_item,
            } => {
                if min_items > max_items {
                    return Err("min_items exceeds max_items".into());
                }
                if base <= 0.0 || per_item < 0.0 {
                    return Err("item-count scale parameters must be positive".into());
                }
                Ok(())
            }
            WorksetDistribution::LogNormal { sigma, min, max } => {
                if sigma < 0.0 || min <= 0.0 || max < min {
                    return Err("invalid lognormal workset parameters".into());
                }
                Ok(())
            }
            WorksetDistribution::Uniform { min, max } => {
                if min <= 0.0 || max < min {
                    return Err("invalid uniform workset parameters".into());
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(d: &WorksetDistribution, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn constant_is_always_one() {
        assert!(samples(&WorksetDistribution::Constant, 100, 1)
            .iter()
            .all(|&s| s == 1.0));
        assert_eq!(WorksetDistribution::Constant.max_variation(), 1.0);
    }

    #[test]
    fn coco_objects_span_the_expected_range() {
        let d = WorksetDistribution::coco_objects();
        d.validate().unwrap();
        let s = samples(&d, 5000, 2);
        let min = s.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = s.iter().cloned().fold(0.0, f64::max);
        // 1 object -> 0.625, 15 objects -> 1.68; variation ~2.7x from the
        // working set alone (noise pushes the observed Fig 1b ratio to ~3.8x).
        assert!((0.6..0.7).contains(&min), "min {min}");
        assert!(max > 1.6 && max <= 1.7, "max {max}");
        assert!(d.max_variation() > 2.5 && d.max_variation() < 3.0);
    }

    #[test]
    fn squad_words_are_heavy_tailed_but_clamped() {
        let d = WorksetDistribution::squad_words();
        d.validate().unwrap();
        let s = samples(&d, 5000, 3);
        assert!(s.iter().all(|&v| (0.50..=2.4).contains(&v)));
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        assert!(mean > 0.9 && mean < 1.3, "mean {mean}");
    }

    #[test]
    fn fixed_video_has_mild_variation() {
        let d = WorksetDistribution::fixed_video();
        assert!(d.max_variation() < 1.3);
        let s = samples(&d, 1000, 4);
        assert!(s.iter().all(|&v| (0.9..1.15).contains(&v)));
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(WorksetDistribution::ItemCount {
            min_items: 10,
            max_items: 1,
            base: 0.5,
            per_item: 0.1
        }
        .validate()
        .is_err());
        assert!(WorksetDistribution::LogNormal {
            sigma: -0.1,
            min: 0.5,
            max: 2.0
        }
        .validate()
        .is_err());
        assert!(WorksetDistribution::Uniform { min: 2.0, max: 1.0 }
            .validate()
            .is_err());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = WorksetDistribution::squad_words();
        assert_eq!(samples(&d, 50, 7), samples(&d, 50, 7));
        assert_ne!(samples(&d, 50, 7), samples(&d, 50, 8));
    }
}
