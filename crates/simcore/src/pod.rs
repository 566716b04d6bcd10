//! Function instances (pods) and their lifecycle.
//!
//! A pod corresponds to a Fission function pod: it is created cold or drawn
//! warm from the pool manager, specialises to one function, executes requests
//! (possibly batched), and is eventually reclaimed.

use crate::error::SimError;
use crate::resources::Millicores;
use crate::time::SimTime;
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
    /// Reclaimed; terminal state.
    Terminated,
}

/// A function instance with a mutable CPU allocation.
#[derive(Debug, Clone)]
pub struct Pod {
    id: PodId,
    function: Option<String>,
    state: PodState,
    allocation: Millicores,
    created_at: SimTime,
    executions: u64,
    resizes: u64,
}

impl Pod {
    /// Create a generic (unspecialised) pod, as the pool manager does.
    pub fn generic(id: PodId, allocation: Millicores, created_at: SimTime) -> Self {
        Pod {
            id,
            function: None,
            state: PodState::Generic,
            allocation,
            created_at,
            executions: 0,
            resizes: 0,
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

    /// Creation time.
    pub fn created_at(&self) -> SimTime {
        self.created_at
    }

    /// Number of completed executions.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Number of resize operations applied.
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    /// Specialise a generic pod to `function` (the Fission "specialisation"
    /// step that turns a warm generic pod into a function pod).
    pub fn specialize(&mut self, function: &str) -> SimResult<()> {
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
    pub fn start_execution(&mut self) -> SimResult<()> {
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
    pub fn finish_execution(&mut self) -> SimResult<()> {
        match self.state {
            PodState::Running => {
                self.state = PodState::Warm;
                self.executions += 1;
                Ok(())
            }
            _ => Err(SimError::InvalidTransition {
                entity: self.id.to_string(),
                detail: format!("finish_execution from {:?}", self.state),
            }),
        }
    }

    /// Apply a new CPU allocation (the adapter's resize action). Allowed in
    /// any non-terminal state: the paper resizes downstream functions while
    /// they are warm, and in-flight vertical scaling is also supported by
    /// cgroup updates.
    pub fn resize(&mut self, new_allocation: Millicores) -> SimResult<()> {
        if self.state == PodState::Terminated {
            return Err(SimError::InvalidTransition {
                entity: self.id.to_string(),
                detail: "resize on terminated pod".to_string(),
            });
        }
        if new_allocation != self.allocation {
            self.allocation = new_allocation;
            self.resizes += 1;
        }
        Ok(())
    }

    /// Reclaim the pod. Terminal.
    pub fn terminate(&mut self) -> SimResult<()> {
        if self.state == PodState::Running {
            return Err(SimError::InvalidTransition {
                entity: self.id.to_string(),
                detail: "terminate while running".to_string(),
            });
        }
        self.state = PodState::Terminated;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pod() -> Pod {
        Pod::generic(PodId(1), Millicores::new(1000), SimTime::ZERO)
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
        assert_eq!(p.executions(), 1);
        p.terminate().unwrap();
        assert_eq!(p.state(), PodState::Terminated);
    }

    #[test]
    fn invalid_transitions_are_rejected() {
        let mut p = pod();
        assert!(p.start_execution().is_err(), "generic pod cannot run");
        p.specialize("od").unwrap();
        assert!(p.specialize("qa").is_err(), "cannot re-specialise");
        assert!(p.finish_execution().is_err(), "not running");
        p.start_execution().unwrap();
        assert!(p.terminate().is_err(), "cannot terminate mid-run");
        p.finish_execution().unwrap();
        p.terminate().unwrap();
        assert!(p.resize(Millicores::new(2000)).is_err(), "terminated pod");
    }

    #[test]
    fn resize_counts_only_changes() {
        let mut p = pod();
        p.resize(Millicores::new(1000)).unwrap();
        assert_eq!(p.resizes(), 0, "no-op resize not counted");
        p.resize(Millicores::new(2500)).unwrap();
        assert_eq!(p.allocation(), Millicores::new(2500));
        assert_eq!(p.resizes(), 1);
    }
}
