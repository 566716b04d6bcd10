//! Worker nodes (virtual machines) hosting function instances.
//!
//! The interference analysis in §II-B observes that commercial platforms pack
//! instances of the *same* function onto the same VM, so nodes track how many
//! pods of each function they currently host — that count drives the
//! [`crate::interference::InterferenceModel`].
//!
//! A node is pure accounting: capacity, allocated CPU, pod count and one
//! co-location count per [`FunctionId`]. The [`crate::cluster::Cluster`]
//! owns the pod table and resolves function names to ids once, so a
//! placement touches no string and allocates nothing once a function's
//! count exists on the node.

use crate::function::FunctionId;
use crate::resources::Millicores;

/// Identifier of a worker node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// A worker node with a fixed CPU capacity hosting function pods.
#[derive(Debug, Clone)]
pub struct Node {
    id: NodeId,
    capacity: Millicores,
    allocated: Millicores,
    pods: usize,
    /// Pods hosted per function id (for co-location interference); grows to
    /// an id's index the first time that function is placed here.
    per_function: Vec<usize>,
}

impl Node {
    /// Create a node with the given CPU capacity.
    pub(crate) fn new(id: NodeId, capacity: Millicores) -> Self {
        Node {
            id,
            capacity,
            allocated: Millicores::ZERO,
            pods: 0,
            per_function: Vec::new(),
        }
    }

    /// Node identifier.
    pub(crate) fn id(&self) -> NodeId {
        self.id
    }

    /// Total CPU capacity.
    pub(crate) fn capacity(&self) -> Millicores {
        self.capacity
    }

    /// Currently allocated CPU. May exceed the node's capacity on
    /// an overcommitted node.
    pub fn allocated(&self) -> Millicores {
        self.allocated
    }

    /// Free CPU capacity.
    pub(crate) fn free(&self) -> Millicores {
        self.capacity.saturating_sub(self.allocated)
    }

    /// Number of pods hosted.
    pub fn pod_count(&self) -> usize {
        self.pods
    }

    /// Whether the node can host an extra `allocation`.
    pub(crate) fn can_fit(&self, allocation: Millicores) -> bool {
        self.free() >= allocation
    }

    /// Pods of `function` hosted here (the co-location degree used by the
    /// interference model).
    pub(crate) fn function_count(&self, function: FunctionId) -> usize {
        self.per_function
            .get(function.index())
            .copied()
            .unwrap_or(0)
    }

    /// Account one pod of `function` with `allocation` CPU. No capacity
    /// check: the cluster decides whether the node may be overcommitted.
    pub(crate) fn attach(&mut self, function: FunctionId, allocation: Millicores) {
        let slot = function.index();
        if self.per_function.len() <= slot {
            self.per_function.resize(slot + 1, 0);
        }
        self.per_function[slot] += 1;
        self.pods += 1;
        self.allocated += allocation;
    }

    /// Release one pod of `function` holding `allocation` CPU.
    pub(crate) fn detach(&mut self, function: FunctionId, allocation: Millicores) {
        self.per_function[function.index()] -= 1;
        self.pods -= 1;
        self.allocated = self.allocated.saturating_sub(allocation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Node {
        Node::new(NodeId(0), Millicores::from_cores(8))
    }

    #[test]
    fn placement_tracks_allocation_and_colocation() {
        let mut n = node();
        n.attach(FunctionId(0), Millicores::new(2000));
        n.attach(FunctionId(0), Millicores::new(1000));
        n.attach(FunctionId(1), Millicores::new(1000));
        assert_eq!(n.allocated().get(), 4000);
        assert_eq!(n.free().get(), 4000);
        assert_eq!(n.function_count(FunctionId(0)), 2);
        assert_eq!(n.function_count(FunctionId(1)), 1);
        assert_eq!(
            n.function_count(FunctionId(7)),
            0,
            "a function never placed here counts zero"
        );
        assert_eq!(n.pod_count(), 3);
        assert!(n.can_fit(Millicores::new(4000)));
        assert!(!n.can_fit(Millicores::new(4001)));
    }

    #[test]
    fn evict_releases_capacity_and_colocation() {
        let mut n = node();
        n.attach(FunctionId(0), Millicores::new(2000));
        n.attach(FunctionId(0), Millicores::new(1000));
        n.detach(FunctionId(0), Millicores::new(2000));
        assert_eq!(n.allocated().get(), 1000);
        assert_eq!(n.function_count(FunctionId(0)), 1);
        assert_eq!(n.pod_count(), 1);
        // Overcommit reads past 100 % and releases back below it.
        n.attach(FunctionId(1), Millicores::new(9000));
        assert_eq!(n.free(), Millicores::ZERO);
        assert!(n.allocated() > n.capacity);
        n.detach(FunctionId(1), Millicores::new(9000));
        assert_eq!(n.allocated().get(), 1000);
    }
}
