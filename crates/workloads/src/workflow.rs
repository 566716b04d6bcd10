//! Serverless workflows as DAGs of functions.
//!
//! The paper evaluates two chains (IA and VA), but its future work section
//! calls for "more complex workflows"; the [`Workflow`] type therefore models
//! a staged DAG: an ordered list of stages, each containing one or more
//! functions that execute in parallel, with a barrier between stages. A chain
//! is the special case of one function per stage. The Janus adaptation logic
//! treats the head *stage* of the remaining sub-workflow the way the paper
//! treats the head function.

use crate::function::FunctionModel;
use std::fmt;

/// Errors raised when constructing or slicing workflows.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkflowError {
    /// The workflow has no functions.
    Empty,
    /// Two functions share the same name (names must be unique for hints).
    DuplicateFunction(String),
    /// Referenced a function index that does not exist.
    IndexOutOfRange(usize),
    /// A stage has no functions.
    EmptyStage(usize),
}

impl fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkflowError::Empty => write!(f, "workflow has no functions"),
            WorkflowError::DuplicateFunction(name) => {
                write!(f, "duplicate function name: {name}")
            }
            WorkflowError::IndexOutOfRange(i) => write!(f, "function index {i} out of range"),
            WorkflowError::EmptyStage(i) => write!(f, "stage {i} has no functions"),
        }
    }
}

impl std::error::Error for WorkflowError {}

/// A serverless workflow: named, staged DAG of [`FunctionModel`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct Workflow {
    name: String,
    functions: Vec<FunctionModel>,
    /// Stages as indices into `functions`; stage `i+1` starts only after every
    /// function in stage `i` completed.
    stages: Vec<Vec<usize>>,
}

impl Workflow {
    /// Build a chain workflow: one function per stage, executed in order.
    pub fn chain(
        name: impl Into<String>,
        functions: Vec<FunctionModel>,
    ) -> Result<Self, WorkflowError> {
        let stages = (0..functions.len()).map(|i| vec![i]).collect();
        Self::staged(name, functions, stages)
    }

    /// Build a staged (DAG) workflow from explicit stages.
    fn staged(
        name: impl Into<String>,
        functions: Vec<FunctionModel>,
        stages: Vec<Vec<usize>>,
    ) -> Result<Self, WorkflowError> {
        if functions.is_empty() {
            return Err(WorkflowError::Empty);
        }
        let mut seen = std::collections::HashSet::new();
        for f in &functions {
            if !seen.insert(f.name().to_string()) {
                return Err(WorkflowError::DuplicateFunction(f.name().to_string()));
            }
        }
        for (si, stage) in stages.iter().enumerate() {
            if stage.is_empty() {
                return Err(WorkflowError::EmptyStage(si));
            }
            for &idx in stage {
                if idx >= functions.len() {
                    return Err(WorkflowError::IndexOutOfRange(idx));
                }
            }
        }
        Ok(Workflow {
            name: name.into(),
            functions,
            stages,
        })
    }

    /// Workflow name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All functions in declaration order.
    pub fn functions(&self) -> &[FunctionModel] {
        &self.functions
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// True if the workflow has no functions (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// Stages as slices of function indices.
    pub fn stages(&self) -> &[Vec<usize>] {
        &self.stages
    }

    /// Function at `index`.
    pub fn function(&self, index: usize) -> Option<&FunctionModel> {
        self.functions.get(index)
    }

    /// The sub-workflow consisting of the functions from stage
    /// `first_stage` onwards, preserving the stage structure. This is the
    /// "remaining sub-workflow" the adapter re-provisions after each function
    /// (stage) completes. Returns `None` when no stages remain.
    pub fn suffix(&self, first_stage: usize) -> Option<Workflow> {
        if first_stage >= self.stages.len() {
            return None;
        }
        let kept_stages: Vec<Vec<usize>> = self.stages[first_stage..].to_vec();
        let mut index_map = std::collections::HashMap::new();
        let mut functions = Vec::new();
        let mut stages = Vec::new();
        for stage in &kept_stages {
            let mut new_stage = Vec::new();
            for &idx in stage {
                let new_idx = *index_map.entry(idx).or_insert_with(|| {
                    functions.push(self.functions[idx].clone());
                    functions.len() - 1
                });
                new_stage.push(new_idx);
            }
            stages.push(new_stage);
        }
        Some(Workflow {
            name: format!("{}[{}..]", self.name, first_stage),
            functions,
            stages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyParams;
    use crate::workingset::WorksetDistribution;
    use janus_simcore::interference::ResourceDimension;

    fn names(w: &Workflow) -> Vec<&str> {
        w.functions().iter().map(FunctionModel::name).collect()
    }

    fn f(name: &str) -> FunctionModel {
        FunctionModel::new(
            name,
            ResourceDimension::Cpu,
            true,
            LatencyParams {
                base_ms: 100.0,
                serial_fraction: 0.2,
                batch_overhead: 0.3,
            },
            WorksetDistribution::Constant,
            0.1,
        )
        .unwrap()
    }

    #[test]
    fn chain_builds_one_stage_per_function() {
        let w = Workflow::chain("ia", vec![f("od"), f("qa"), f("ts")]).unwrap();
        assert_eq!(w.len(), 3);
        assert_eq!(w.stages(), [[0], [1], [2]]);
        assert!(!w.is_empty());
        assert_eq!(names(&w), ["od", "qa", "ts"]);
    }

    #[test]
    fn empty_and_duplicate_workflows_are_rejected() {
        assert_eq!(
            Workflow::chain("x", vec![]).unwrap_err(),
            WorkflowError::Empty
        );
        let err = Workflow::chain("x", vec![f("a"), f("a")]).unwrap_err();
        assert_eq!(err, WorkflowError::DuplicateFunction("a".to_string()));
    }

    #[test]
    fn staged_workflows_validate_indices() {
        let err = Workflow::staged("x", vec![f("a")], vec![vec![0], vec![5]]).unwrap_err();
        assert_eq!(err, WorkflowError::IndexOutOfRange(5));
        let err = Workflow::staged("x", vec![f("a")], vec![vec![]]).unwrap_err();
        assert_eq!(err, WorkflowError::EmptyStage(0));
    }

    #[test]
    fn suffix_preserves_remaining_stages() {
        let w = Workflow::chain("ia", vec![f("od"), f("qa"), f("ts")]).unwrap();
        let tail = w.suffix(1).unwrap();
        assert_eq!(names(&tail), ["qa", "ts"]);
        assert_eq!(tail.stages().len(), 2);
        let last = w.suffix(2).unwrap();
        assert_eq!(names(&last), ["ts"]);
        assert!(w.suffix(3).is_none());
    }

    #[test]
    fn dag_workflow_with_parallel_stage() {
        let w = Workflow::staged(
            "dag",
            vec![f("extract"), f("classify"), f("caption"), f("merge")],
            vec![vec![0], vec![1, 2], vec![3]],
        )
        .unwrap();
        assert_eq!(w.stages().len(), 3);
        let tail = w.suffix(1).unwrap();
        assert_eq!(names(&tail), ["classify", "caption", "merge"]);
        assert_eq!(tail.stages()[0], vec![0, 1]);
    }
}
