//! The paper's evaluation as one run.
//!
//! Every measured figure of arXiv 1803.11232 reads cells of one grid:
//! (task profile, suite, motion configuration, EW scheme). The figures
//! overlap on it: Fig. 10a and 10b read the same cells, Fig. 12 reads
//! the OTB prefix of Fig. 10c's suite, Fig. 11a's 16×16 row and Fig.
//! 11b's hierarchical column are the default motion configuration's
//! cells, and Fig. 1 reuses Fig. 9a's YOLOv2 and Tiny YOLO baselines.
//! The ablations of the paper's design choices print after Fig. 12 and
//! read the same grid: Ablation B's full algorithm is Fig. 10a's EW-8,
//! and Ablation D's default policy, EW-2 and EW-4 are its EW-A, EW-2
//! and EW-4. The remaining ablations and the §7/§8 extensions are
//! model- or kernel-only sections that read no cells.
//!
//! Each [`Figure`] declares the cells it reads and a view that prints
//! its rows. [`PaperRun::evaluate`] evaluates the union of those cells,
//! each once, with one [`Scenario`] per (profile, suite, motion). A
//! scheme's outcome does not depend on which schemes share its
//! scenario, so every view prints what the figure run alone would.

mod ablations;
mod extensions;
mod figures;

pub use figures::FIGURES;

use crate::{detection_workload, tracking_workload};
use euphrates_core::prelude::*;
use euphrates_nn::oracle::{calib, DetectorProfile, TrackerProfile};

/// The oracle (and so the task) a cell runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Profile {
    /// Single-object tracking (MDNet-class).
    Tracker(TrackerProfile),
    /// Multi-object detection (YOLO-class and the Fig. 1 detectors).
    Detector(DetectorProfile),
}

/// A generated evaluation suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Suite {
    /// OTB-100-like + VOT-2014-like at the run's scale (§5.2).
    Tracking,
    /// The same suites with every sequence kept, OTB first; the scale
    /// only shortens them (Fig. 10c's and Fig. 12's per-sequence views).
    TrackingAll,
    /// The multi-object detection suite at the run's scale.
    Detection,
}

impl Suite {
    /// Generates the suite's sequences at `scale`.
    fn generate(self, scale: DatasetScale) -> Vec<Sequence> {
        match self {
            Suite::Tracking => tracking_workload(scale),
            Suite::TrackingAll => tracking_workload(every_sequence(scale)),
            Suite::Detection => detection_workload(scale),
        }
    }
}

/// `scale` with every sequence kept: only the frame fraction applies.
fn every_sequence(scale: DatasetScale) -> DatasetScale {
    DatasetScale {
        sequence_fraction: 1.0,
        ..scale
    }
}

/// The cells one figure reads from one scenario: some schemes of one
/// profile on one suite under one motion configuration. A cell is
/// identified by its backend; the scheme id is the label the figure
/// prints.
#[derive(Debug, Clone)]
struct Read {
    profile: Profile,
    suite: Suite,
    motion: MotionConfig,
    /// The schemes, labelled as the figure prints them.
    schemes: Vec<SchemeSpec>,
}

impl Read {
    fn key(&self) -> (Profile, Suite, MotionConfig) {
        (self.profile, self.suite, self.motion)
    }
}

/// MDNet tracking cells of `suite` under `motion`.
fn tracking(suite: Suite, motion: MotionConfig, schemes: Vec<SchemeSpec>) -> Read {
    Read {
        profile: Profile::Tracker(calib::mdnet()),
        suite,
        motion,
        schemes,
    }
}

/// Prints a section's banner.
fn banner(title: &str) {
    println!("==========================================================");
    println!("{title}");
    println!("==========================================================");
}

/// Success rate at IoU 0.5 over the frames of the sequences of `suite`
/// that carry `attr`, pairing `suite` with `r`'s per-sequence outcomes
/// in order (0 when no sequence carries it).
fn attribute_rate(suite: &[Sequence], r: &SchemeResult, attr: VisualAttribute) -> f64 {
    let (mut hits, mut total) = (0usize, 0usize);
    for (seq, o) in suite.iter().zip(&r.per_sequence) {
        if seq.has_attribute(attr) {
            hits += o.ious.iter().filter(|&&i| i >= 0.5).count();
            total += o.ious.len();
        }
    }
    hits as f64 / total.max(1) as f64
}

/// A figure, table or section of the paper run.
pub struct Figure {
    /// The cells the view reads (none for model-only figures).
    reads: fn() -> Vec<Read>,
    /// Prints the figure, banner first, from a run that evaluated its
    /// reads.
    view: fn(&PaperRun, &[Read]),
}

impl Figure {
    /// A figure that reads `reads` and prints with `view`.
    const fn new(reads: fn() -> Vec<Read>, view: fn(&PaperRun, &[Read])) -> Figure {
        Figure { reads, view }
    }

    /// Prints the figure from `run`.
    pub fn print(&self, run: &PaperRun) {
        (self.view)(run, &(self.reads)())
    }
}

/// The evaluated union of some figures' cells.
pub struct PaperRun {
    /// The dataset scale the run was evaluated at.
    scale: DatasetScale,
    scenarios: Vec<Evaluated>,
}

/// One scenario's cells and their results, in the same order.
struct Evaluated {
    key: (Profile, Suite, MotionConfig),
    backends: Vec<BackendConfig>,
    results: Vec<SchemeResult>,
}

impl PaperRun {
    /// Evaluates every cell that `figures` read, each once, at `scale`.
    ///
    /// # Panics
    ///
    /// Panics if a scenario fails to evaluate (the suites are generated,
    /// so a failure is a bug).
    pub fn evaluate(scale: DatasetScale, figures: &[Figure]) -> PaperRun {
        let mut scenarios = plan(figures);
        for s in &mut scenarios {
            let (profile, suite, motion) = s.key;
            let suite = suite.generate(scale);
            s.results = match profile {
                Profile::Tracker(p) => evaluate(TrackerTask::new(p), suite, motion, &s.backends),
                Profile::Detector(p) => evaluate(DetectorTask::new(p), suite, motion, &s.backends),
            };
        }
        PaperRun { scale, scenarios }
    }

    /// Number of [`Scenario::evaluate`] calls the run made.
    pub fn scenarios(&self) -> usize {
        self.scenarios.len()
    }

    /// Number of distinct cells (scheme × scenario) the run evaluated.
    pub fn cells(&self) -> usize {
        self.scenarios.iter().map(|s| s.backends.len()).sum()
    }

    /// The results of `read`'s cells in its scheme order, each with the
    /// label the figure prints.
    ///
    /// # Panics
    ///
    /// Panics if the run was not built from a figure declaring `read`.
    fn results<'a>(&'a self, read: &'a Read) -> Vec<(&'a str, &'a SchemeResult)> {
        let s = self
            .scenarios
            .iter()
            .find(|s| s.key == read.key())
            .expect("the run evaluated this read");
        read.schemes
            .iter()
            .map(|spec| {
                let k = s.backends.iter().position(|b| *b == spec.backend);
                let k = k.expect("the run evaluated this scheme");
                (spec.id.as_str(), &s.results[k])
            })
            .collect()
    }
}

/// The union of `figures`' cells, one entry per (profile, suite,
/// motion) in first-read order, with no results yet.
fn plan(figures: &[Figure]) -> Vec<Evaluated> {
    let mut scenarios: Vec<Evaluated> = Vec::new();
    for read in figures.iter().flat_map(|f| (f.reads)()) {
        let si = match scenarios.iter().position(|s| s.key == read.key()) {
            Some(si) => si,
            None => {
                scenarios.push(Evaluated {
                    key: read.key(),
                    backends: Vec::new(),
                    results: Vec::new(),
                });
                scenarios.len() - 1
            }
        };
        for spec in &read.schemes {
            if !scenarios[si].backends.contains(&spec.backend) {
                scenarios[si].backends.push(spec.backend);
            }
        }
    }
    scenarios
}

/// Evaluates `backends` of one task on `suite` under `motion` as one
/// scenario, whose scheme ids are the backends' positions.
fn evaluate<T: VisionTask + Clone + Sync>(
    task: T,
    suite: Vec<Sequence>,
    motion: MotionConfig,
    backends: &[BackendConfig],
) -> Vec<SchemeResult> {
    let mut builder = Scenario::builder(task).suite(suite).motion(motion);
    for (k, backend) in backends.iter().enumerate() {
        builder = builder.scheme(k.to_string(), *backend);
    }
    let scenario = builder.build().expect("scheme ids are unique");
    scenario.evaluate().expect("paper cells evaluate").schemes
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sections' overlaps collapse onto shared cells: the twelve
    /// figures and the ablations read 58 distinct cells from 16
    /// scenarios.
    #[test]
    fn shared_cells_are_planned_once() {
        let plan = plan(&FIGURES);
        assert_eq!(plan.len(), 16);
        assert_eq!(plan.iter().map(|s| s.backends.len()).sum::<usize>(), 58);
        let cells = |figure: usize| -> Vec<((Profile, Suite, MotionConfig), BackendConfig)> {
            (FIGURES[figure].reads)()
                .iter()
                .flat_map(|r| r.schemes.iter().map(move |s| (r.key(), s.backend)))
                .collect()
        };
        let key = |figure: usize, read: usize| (FIGURES[figure].reads)()[read].key();
        // The cell a figure prints under `label`.
        let cell = |figure: usize, label: &str| {
            (FIGURES[figure].reads)()
                .iter()
                .find_map(|r| {
                    let spec = r.schemes.iter().find(|s| s.id.as_str() == label)?;
                    Some((r.key(), spec.backend))
                })
                .expect("the figure reads this label")
        };
        let (fig01, fig09a, fig10a, fig10b, fig10c, fig11a, fig11b, fig12) =
            (0, 3, 6, 7, 8, 9, 10, 11);
        let (ablation_b, ablation_d) = (13, 15);
        // Fig. 10b reads Fig. 10a's cells.
        assert_eq!(cells(fig10a), cells(fig10b));
        // Fig. 12 reads Fig. 10c's all-sequence suite (its OTB prefix).
        assert_eq!(key(fig12, 0), key(fig10c, 0));
        // Fig. 11a's 16×16 row and Fig. 11b's hierarchical column are the
        // default motion configuration's cells, which Fig. 10a reads.
        assert_eq!(key(fig11a, 2), key(fig10a, 0));
        assert_eq!(key(fig11b, 3), key(fig10a, 0));
        // Fig. 1's YOLOv2 and Tiny YOLO baselines are Fig. 9a's.
        let fig09a_cells = cells(fig09a);
        for detector in [2, 4] {
            let read = (FIGURES[fig01].reads)()[detector].clone();
            assert!(fig09a_cells.contains(&(read.key(), read.schemes[0].backend)));
        }
        // Ablation B's full algorithm is Fig. 10a's EW-8; Ablation D's
        // default policy, EW-2 and EW-4 are its EW-A, EW-2 and EW-4.
        assert_eq!(cell(ablation_b, "full algorithm"), cell(fig10a, "EW-8"));
        assert_eq!(cell(ablation_d, "thr=0.5 streak=2"), cell(fig10a, "EW-A"));
        assert_eq!(cell(ablation_d, "EW-2"), cell(fig10a, "EW-2"));
        assert_eq!(cell(ablation_d, "EW-4"), cell(fig10a, "EW-4"));
    }
}
