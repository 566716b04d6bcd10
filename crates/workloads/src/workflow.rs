//! Serverless workflows as chains of functions.
//!
//! The paper evaluates two chains (IA and VA): each function starts when the
//! one before it completed, and the Janus adaptation logic sizes the head
//! function of the remaining sub-workflow.

use crate::function::FunctionModel;
use std::fmt;

/// Errors raised when constructing workflows.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkflowError {
    /// The workflow has no functions.
    Empty,
    /// Two functions share the same name (names must be unique for hints).
    DuplicateFunction(String),
}

impl fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkflowError::Empty => write!(f, "workflow has no functions"),
            WorkflowError::DuplicateFunction(name) => {
                write!(f, "duplicate function name: {name}")
            }
        }
    }
}

impl std::error::Error for WorkflowError {}

/// A serverless workflow: a named chain of [`FunctionModel`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct Workflow {
    name: String,
    functions: Vec<FunctionModel>,
}

impl Workflow {
    /// Build a chain workflow: its functions executed in order.
    pub(crate) fn chain(
        name: impl Into<String>,
        functions: Vec<FunctionModel>,
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
        Ok(Workflow {
            name: name.into(),
            functions,
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

    /// Function at `index`.
    pub fn function(&self, index: usize) -> Option<&FunctionModel> {
        self.functions.get(index)
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
}
