//! The two real-world workflows of the paper's evaluation (§V-A).
//!
//! * **Intelligent Assistant (IA)** — a chain of object detection (OD),
//!   question answering (QA) and text-to-speech (TS). Inputs are COCO2014
//!   images and SQuAD2.0 questions, so the working-set variance is large
//!   (Figure 1b reports up to 3.8×). All three functions are batchable; the
//!   paper profiles concurrency 1–3. SLO: 3 s (conc 1), 4 s (conc 2),
//!   5 s (conc 3).
//! * **Video Analyze (VA)** — a chain of frame extraction (FE), image
//!   classification (ICL) and image compression (ICO). Videos have identical
//!   duration and resolution, so working-set variance is mild and most
//!   variance comes from the parallelism-induced interference; the per
//!   function P99/P50 ratios are 1.46 / 1.56 / 1.37. FE and ICO are not
//!   batchable, so VA only runs at concurrency 1. SLO: 1.5 s.
//!
//! Calibration constants below were chosen so that the profile statistics the
//! paper reports (tail ratios, SLO feasibility at Kmin/Kmax) hold.

use crate::function::FunctionModel;
use crate::latency::LatencyParams;
use crate::workflow::Workflow;
use crate::workingset::WorksetDistribution;
use janus_simcore::interference::ResourceDimension;
use janus_simcore::time::SimDuration;

/// Identifies one of the two paper applications together with its default SLO
/// per concurrency level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperApp {
    /// Intelligent Assistant: OD → QA → TS.
    IntelligentAssistant,
    /// Video Analyze: FE → ICL → ICO.
    VideoAnalyze,
}

impl PaperApp {
    /// Build the workflow for this application.
    pub fn workflow(self) -> Workflow {
        match self {
            PaperApp::IntelligentAssistant => intelligent_assistant(),
            PaperApp::VideoAnalyze => video_analyze(),
        }
    }

    /// The SLO the paper uses for this application at the given concurrency
    /// (batch size): IA 3 s / 4 s / 5 s for concurrency 1 / 2 / 3, VA 1.5 s.
    pub fn default_slo(self, concurrency: u32) -> SimDuration {
        match self {
            PaperApp::IntelligentAssistant => match concurrency {
                0 | 1 => SimDuration::from_secs(3.0),
                2 => SimDuration::from_secs(4.0),
                _ => SimDuration::from_secs(5.0),
            },
            PaperApp::VideoAnalyze => SimDuration::from_secs(1.5),
        }
    }

    /// Short display name used in result tables ("IA" / "VA").
    pub fn short_name(self) -> &'static str {
        match self {
            PaperApp::IntelligentAssistant => "IA",
            PaperApp::VideoAnalyze => "VA",
        }
    }

    /// Both paper applications.
    pub const ALL: [PaperApp; 2] = [PaperApp::IntelligentAssistant, PaperApp::VideoAnalyze];
}

/// Object detection (Faster-RCNN MobileNet on COCO images): compute-bound,
/// latency grows with the number of objects in the image.
pub fn object_detection() -> FunctionModel {
    let built = FunctionModel::new(
        "od",
        ResourceDimension::Cpu,
        true,
        LatencyParams {
            base_ms: 900.0,
            serial_fraction: 0.22,
            batch_overhead: 0.55,
        },
        WorksetDistribution::coco_objects(),
        0.20,
    );
    constant(built, "static OD parameters are valid")
}

/// Question answering (DistilBERT on SQuAD): compute/memory bound, latency
/// grows with context length. The paper reports its P99/P50 ratio rising from
/// 2.17× (conc 1) to 2.32× (conc 2).
fn question_answering() -> FunctionModel {
    let built = FunctionModel::new(
        "qa",
        ResourceDimension::Memory,
        true,
        LatencyParams {
            base_ms: 700.0,
            serial_fraction: 0.28,
            batch_overhead: 0.50,
        },
        WorksetDistribution::squad_words(),
        0.20,
    );
    constant(built, "static QA parameters are valid")
}

/// Text-to-speech (MMS-TTS): compute bound, latency grows with answer length.
pub fn text_to_speech() -> FunctionModel {
    let built = FunctionModel::new(
        "ts",
        ResourceDimension::Cpu,
        true,
        LatencyParams {
            base_ms: 620.0,
            serial_fraction: 0.30,
            batch_overhead: 0.45,
        },
        WorksetDistribution::tts_answer(),
        0.18,
    );
    constant(built, "static TS parameters are valid")
}

/// Frame extraction (ffmpeg): IO bound, not batchable, mild variance.
fn frame_extraction() -> FunctionModel {
    let built = FunctionModel::new(
        "fe",
        ResourceDimension::Io,
        false,
        LatencyParams {
            base_ms: 460.0,
            serial_fraction: 0.35,
            batch_overhead: 0.0,
        },
        WorksetDistribution::fixed_video(),
        0.14,
    );
    constant(built, "static FE parameters are valid")
}

/// Image classification (SqueezeNet): compute bound, batchable.
fn image_classification() -> FunctionModel {
    let built = FunctionModel::new(
        "icl",
        ResourceDimension::Cpu,
        true,
        LatencyParams {
            base_ms: 520.0,
            serial_fraction: 0.25,
            batch_overhead: 0.40,
        },
        WorksetDistribution::fixed_video(),
        0.17,
    );
    constant(built, "static ICL parameters are valid")
}

/// Image compression (shutil archive): IO bound, not batchable.
fn image_compression() -> FunctionModel {
    let built = FunctionModel::new(
        "ico",
        ResourceDimension::Io,
        false,
        LatencyParams {
            base_ms: 360.0,
            serial_fraction: 0.38,
            batch_overhead: 0.0,
        },
        WorksetDistribution::fixed_video(),
        0.12,
    );
    constant(built, "static ICO parameters are valid")
}

/// A function model or workflow built from constants (this module's and
/// `microbench`'s). Fallible constructors validate inputs that here are
/// compile-time constants, so an error is a bug in the calling file, not a
/// runtime condition.
pub(crate) fn constant<T, E: std::fmt::Debug>(built: Result<T, E>, what: &str) -> T {
    // janus-lint: allow(unwrap-discipline) — the inputs are constants, and `apps::tests` and `microbench::tests` build every function and both workflows, so a bad constant fails there
    built.expect(what)
}

/// The Intelligent Assistant chain: OD → QA → TS.
pub fn intelligent_assistant() -> Workflow {
    let built = Workflow::chain(
        "IA",
        vec![object_detection(), question_answering(), text_to_speech()],
    );
    constant(built, "IA chain is valid")
}

/// The Video Analyze chain: FE → ICL → ICO.
pub fn video_analyze() -> Workflow {
    let built = Workflow::chain(
        "VA",
        vec![
            frame_extraction(),
            image_classification(),
            image_compression(),
        ],
    );
    constant(built, "VA chain is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_simcore::interference::InterferenceModel;
    use janus_simcore::resources::Millicores;
    use janus_simcore::rng::SimRng;
    use janus_simcore::stats::Summary;

    fn tail_ratio(f: &FunctionModel, mc: u32, batch: u32, seed: u64) -> f64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let samples: Vec<f64> = (0..6000)
            .map(|_| {
                f.sample_execution_time(
                    Millicores::new(mc),
                    batch,
                    1,
                    &InterferenceModel::none(),
                    &mut rng,
                )
                .as_millis()
            })
            .collect();
        Summary::from_samples(&samples).unwrap().tail_ratio()
    }

    #[test]
    fn ia_and_va_are_three_function_chains() {
        let names = |w: &Workflow| -> Vec<String> {
            w.functions().iter().map(|f| f.name().to_string()).collect()
        };
        // A batchable function takes longer for a batch of 3 than for one
        // request; FE and ICO cannot batch.
        let mc = Millicores::from_cores(2);
        let batches = |w: &Workflow| -> Vec<bool> {
            w.functions()
                .iter()
                .map(|f| f.deterministic_ms(mc, 3) > f.deterministic_ms(mc, 1))
                .collect()
        };
        let ia = intelligent_assistant();
        assert_eq!(names(&ia), ["od", "qa", "ts"]);
        assert_eq!(batches(&ia), [true, true, true]);
        let va = video_analyze();
        assert_eq!(names(&va), ["fe", "icl", "ico"]);
        assert_eq!(batches(&va), [false, true, false]);
    }

    #[test]
    fn paper_slos_match_section_v() {
        let ia = PaperApp::IntelligentAssistant;
        assert_eq!(ia.default_slo(1).as_secs(), 3.0);
        assert_eq!(ia.default_slo(2).as_secs(), 4.0);
        assert_eq!(ia.default_slo(3).as_secs(), 5.0);
        assert_eq!(PaperApp::VideoAnalyze.default_slo(1).as_secs(), 1.5);
        assert_eq!(ia.short_name(), "IA");
    }

    #[test]
    fn ia_functions_have_large_tail_ratios() {
        // Fig 1b / §V-A: IA functions show substantial working-set variance.
        for f in [object_detection(), question_answering(), text_to_speech()] {
            let r = tail_ratio(&f, 2000, 1, 11);
            assert!(r > 1.7, "{} tail ratio {r} too small", f.name());
            assert!(r < 5.0, "{} tail ratio {r} too large", f.name());
        }
    }

    #[test]
    fn va_functions_have_mild_tail_ratios() {
        // §V-A: VA P99/P50 between roughly 1.3 and 1.7.
        for f in [
            frame_extraction(),
            image_classification(),
            image_compression(),
        ] {
            let r = tail_ratio(&f, 2000, 1, 13);
            assert!(r > 1.2 && r < 1.9, "{} tail ratio {r}", f.name());
        }
    }

    #[test]
    fn ia_is_feasible_at_kmax_and_tight_at_kmin() {
        // At Kmax = 3000 mc the sum of deterministic latencies must fit well
        // inside the 3 s SLO even with a tail working set; at Kmin = 1000 mc a
        // tail request must exceed it — otherwise sizing would not matter.
        let ia = intelligent_assistant();
        let at_kmax: f64 = ia
            .functions()
            .iter()
            .map(|f| f.deterministic_ms(Millicores::new(3000), 1))
            .sum();
        let at_kmin: f64 = ia
            .functions()
            .iter()
            .map(|f| f.deterministic_ms(Millicores::new(1000), 1))
            .sum();
        assert!(
            at_kmax * 2.0 < 3000.0,
            "tail at Kmax fits in SLO: {at_kmax}"
        );
        assert!(
            at_kmin * 2.5 > 3000.0,
            "tail at Kmin exceeds SLO: {at_kmin}"
        );
    }

    #[test]
    fn va_is_feasible_at_kmax() {
        let va = video_analyze();
        let at_kmax: f64 = va
            .functions()
            .iter()
            .map(|f| f.deterministic_ms(Millicores::new(3000), 1))
            .sum();
        let at_kmin: f64 = va
            .functions()
            .iter()
            .map(|f| f.deterministic_ms(Millicores::new(1000), 1))
            .sum();
        assert!(
            at_kmax * 1.5 < 1500.0,
            "VA tail at Kmax fits 1.5s SLO: {at_kmax}"
        );
        assert!(
            at_kmin * 1.4 > 1500.0,
            "VA tail at Kmin stresses the SLO: {at_kmin}"
        );
    }

    #[test]
    fn qa_tail_grows_with_concurrency() {
        // §V-B: "the gap between P99 and P50 of QA increases from 2.17x to
        // 2.32x" as concurrency grows. The batch factor amplifies absolute
        // spread; verify the tail ratio does not shrink.
        let qa = question_answering();
        let r1 = tail_ratio(&qa, 2000, 1, 17);
        let r2 = tail_ratio(&qa, 2000, 2, 17);
        assert!(
            r2 >= r1 * 0.95,
            "conc-2 ratio {r2} should not collapse vs {r1}"
        );
    }

    #[test]
    fn workflow_builder_for_each_app() {
        for app in PaperApp::ALL {
            let w = app.workflow();
            assert_eq!(w.len(), 3);
        }
    }
}
