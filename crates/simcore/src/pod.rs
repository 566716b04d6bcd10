//! Function instances (pods) and their lifecycle.
//!
//! A pod corresponds to a Fission function pod: it is created cold or drawn
//! warm from the pool manager, specialises to one function, executes requests
//! (possibly batched), and is eventually reclaimed.

use crate::error::SimError;
use crate::resources::Millicores;
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

/// A function instance with a mutable CPU allocation.
#[derive(Debug, Clone)]
pub struct Pod {
    id: PodId,
    function: Option<String>,
    state: PodState,
    allocation: Millicores,
}

impl Pod {
    /// Create a generic (unspecialised) pod, as the pool manager does.
    pub(crate) fn generic(id: PodId, allocation: Millicores) -> Self {
        Pod {
            id,
            function: None,
            state: PodState::Generic,
            allocation,
        }
    }

    /// Pod identifier.
    pub fn id(&self) -> PodId {
        self.id
    }

    /// Function the pod is specialised to, if any.
    pub fn function(&self) -> Option<&str> {
        self.function.as_deref()
    }

    /// Current lifecycle state.
    pub fn state(&self) -> PodState {
        self.state
    }

    /// Current CPU allocation.
    pub fn allocation(&self) -> Millicores {
        self.allocation
    }

    /// Specialise a generic pod to `function` (the Fission "specialisation"
    /// step that turns a warm generic pod into a function pod).
    pub(crate) fn specialize(&mut self, function: &str) -> SimResult<()> {
        match self.state {
            PodState::Generic => {
                self.function = Some(function.to_string());
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

    /// Apply a new CPU allocation (the adapter's resize action), in any
    /// state: the paper resizes downstream functions while they are warm,
    /// and in-flight vertical scaling is also supported by cgroup updates.
    pub(crate) fn resize(&mut self, new_allocation: Millicores) {
        self.allocation = new_allocation;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pod() -> Pod {
        Pod::generic(PodId(1), Millicores::new(1000))
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut p = pod();
        assert_eq!(p.state(), PodState::Generic);
        p.specialize("od").unwrap();
        assert_eq!(p.state(), PodState::Warm);
        assert_eq!(p.function(), Some("od"));
        p.start_execution().unwrap();
        assert_eq!(p.state(), PodState::Running);
        p.finish_execution().unwrap();
        assert_eq!(p.state(), PodState::Warm);
    }

    #[test]
    fn invalid_transitions_are_rejected() {
        let mut p = pod();
        assert!(p.start_execution().is_err(), "generic pod cannot run");
        p.specialize("od").unwrap();
        assert!(p.specialize("qa").is_err(), "cannot re-specialise");
        assert!(p.finish_execution().is_err(), "not running");
        p.start_execution().unwrap();
        assert!(p.start_execution().is_err(), "already running");
        p.resize(Millicores::new(2500));
        assert_eq!(p.allocation(), Millicores::new(2500));
    }
}
