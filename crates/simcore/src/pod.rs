//! Function instances (pods) and their lifecycle.
//!
//! A pod corresponds to a Fission function pod: it is created cold or drawn
//! warm from the pool manager, specialises to one function, executes requests
//! (possibly batched), and is eventually reclaimed.

use crate::error::SimError;
use crate::function::FunctionId;
use crate::SimResult;

/// Identifier of a pod (function instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PodId(pub u64);

impl std::fmt::Display for PodId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pod-{}", self.0)
    }
}

/// Lifecycle states of a pod.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PodState {
    /// Created but not yet specialised to a function (generic warm pool pod).
    Generic,
    /// Specialised to a function and idle, ready to serve.
    Warm,
    /// Currently executing a (batch of) request(s).
    Running,
}

/// A function instance. Its CPU allocation lives with its placement (see
/// [`Cluster`](crate::Cluster)).
#[derive(Debug, Clone)]
pub struct Pod {
    id: PodId,
    /// The function the pod is specialised to, as its pool's id for it.
    function: Option<FunctionId>,
    state: PodState,
}

impl Pod {
    /// Create a generic (unspecialised) pod, as the pool manager does.
    pub(crate) fn generic(id: PodId) -> Self {
        Pod {
            id,
            function: None,
            state: PodState::Generic,
        }
    }

    /// Function the pod is specialised to, if any: an id issued by the
    /// pool that tracks the pod.
    pub(crate) fn function(&self) -> Option<FunctionId> {
        self.function
    }

    /// Current lifecycle state.
    pub(crate) fn state(&self) -> PodState {
        self.state
    }

    /// Specialise a generic pod to `function` (the Fission "specialisation"
    /// step that turns a warm generic pod into a function pod).
    pub(crate) fn specialize(&mut self, function: FunctionId) -> SimResult<()> {
        match self.state {
            PodState::Generic => {
                self.function = Some(function);
                self.state = PodState::Warm;
                Ok(())
            }
            _ => Err(SimError::InvalidTransition {
                entity: self.id.to_string(),
                detail: format!("specialize from {:?}", self.state),
            }),
        }
    }

    /// Mark the pod as running a request.
    pub(crate) fn start_execution(&mut self) -> SimResult<()> {
        match self.state {
            PodState::Warm => {
                self.state = PodState::Running;
                Ok(())
            }
            _ => Err(SimError::InvalidTransition {
                entity: self.id.to_string(),
                detail: format!("start_execution from {:?}", self.state),
            }),
        }
    }

    /// Mark the current execution as finished; the pod returns to warm.
    pub(crate) fn finish_execution(&mut self) -> SimResult<()> {
        match self.state {
            PodState::Running => {
                self.state = PodState::Warm;
                Ok(())
            }
            _ => Err(SimError::InvalidTransition {
                entity: self.id.to_string(),
                detail: format!("finish_execution from {:?}", self.state),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pod() -> Pod {
        Pod::generic(PodId(1))
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut p = pod();
        assert_eq!(p.state(), PodState::Generic);
        p.specialize(FunctionId(0)).unwrap();
        assert_eq!(p.state(), PodState::Warm);
        assert_eq!(p.function(), Some(FunctionId(0)));
        p.start_execution().unwrap();
        assert_eq!(p.state(), PodState::Running);
        p.finish_execution().unwrap();
        assert_eq!(p.state(), PodState::Warm);
    }

    #[test]
    fn invalid_transitions_are_rejected() {
        let mut p = pod();
        assert!(p.start_execution().is_err(), "generic pod cannot run");
        p.specialize(FunctionId(0)).unwrap();
        assert!(p.specialize(FunctionId(1)).is_err(), "cannot re-specialise");
        assert!(p.finish_execution().is_err(), "not running");
        p.start_execution().unwrap();
        assert!(p.start_execution().is_err(), "already running");
    }
}
