//! Cluster of worker nodes with pod placement.
//!
//! The testbed in the paper is a single 52-core server running Fission, but
//! the co-location analysis (§II-B) and the interference model require
//! explicit nodes. The cluster supports the two placement behaviours the
//! paper discusses:
//!
//! * [`PlacementPolicy::PackSameFunction`] — commercial platforms pack
//!   instances of the same function onto the same VM (Alibaba Function
//!   Compute packs 65 % of VMs exclusively with one function). This is the
//!   default and is what creates the interference of Figure 1c.
//! * [`PlacementPolicy::Spread`] — spread pods across the least-loaded nodes,
//!   a common mitigation baseline.
//!
//! Function names are resolved once per run to dense [`FunctionId`]s
//! ([`Cluster::function_id`]); placement and co-location counts take the id
//! and index per-node and per-zone counts by it.

use crate::error::SimError;
use crate::function::{FunctionId, FunctionNames};
use crate::idmap::IdMap;
use crate::node::{Node, NodeId};
use crate::pod::PodId;
use crate::resources::Millicores;
use crate::SimResult;
use std::collections::hash_map::Entry;

/// Lifecycle state of one cluster node.
///
/// The elastic-capacity extension makes the fleet dynamic: the autoscaler
/// adds nodes ([`Cluster::add_node`]) and drains them
/// ([`Cluster::drain_node`]). Draining is allocation-aware — a node that
/// still hosts pods keeps serving them but accepts no new placements, and
/// retires automatically once its last pod is evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Accepting placements and serving pods.
    Active,
    /// No new placements; retires when the last hosted pod leaves.
    Draining,
    /// Removed from the fleet. Its capacity no longer counts and its
    /// [`NodeId`] is never reused.
    Retired,
}

/// How pods are assigned to nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Prefer the node already hosting the most pods of the same function
    /// (models production packing and maximises interference).
    PackSameFunction,
    /// Prefer the node with the most free capacity (spreads load, minimises
    /// interference).
    Spread,
}

/// Cluster configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub nodes: usize,
    /// Per-node CPU capacity.
    pub node_capacity: Millicores,
    /// Placement policy.
    pub placement: PlacementPolicy,
    /// Number of availability zones nodes are spread over (round-robin by
    /// node id). A single zone reproduces the original flat topology; more
    /// zones enable correlated-failure experiments (zone outages) and
    /// zone-aware spread placement.
    pub zones: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        // The paper's serving testbed: one 52-core server.
        ClusterConfig {
            nodes: 1,
            node_capacity: Millicores::from_cores(52),
            placement: PlacementPolicy::PackSameFunction,
            zones: 1,
        }
    }
}

impl ClusterConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> SimResult<()> {
        if self.nodes == 0 {
            return Err(SimError::InvalidConfig(
                "cluster needs at least one node".into(),
            ));
        }
        if self.node_capacity.get() == 0 {
            return Err(SimError::InvalidConfig(
                "node capacity must be positive".into(),
            ));
        }
        if self.zones == 0 {
            return Err(SimError::InvalidConfig(
                "cluster needs at least one zone".into(),
            ));
        }
        Ok(())
    }
}

/// Where one placed pod lives: its node, its function and its CPU
/// allocation.
#[derive(Debug, Clone, Copy)]
struct Placement {
    node: usize,
    function: FunctionId,
    allocation: Millicores,
}

/// A cluster of nodes tracking where every pod is placed.
///
/// The fleet is **dynamic**: nodes can be added and drained at run time.
/// Retired nodes keep their slot (a [`NodeId`] is an index and is never
/// reused) but contribute neither capacity nor placement targets.
///
/// Placement is O(nodes) and allocation-free, and it compares no name:
/// callers resolve each function once to a [`FunctionId`], one pod table
/// maps each pod to its node, function and allocation, and per-(zone,
/// function) counts are kept in step with every placement, removal and
/// crash, so zone-aware spread reads a zone's exposure in O(1) instead of
/// recounting the zone's nodes.
#[derive(Debug)]
pub struct Cluster {
    nodes: Vec<Node>,
    states: Vec<NodeState>,
    /// Zone label of each node slot (parallel to `nodes`); node `i` lives in
    /// zone `i % zone_count`, and added nodes continue the round-robin.
    node_zones: Vec<usize>,
    zone_count: usize,
    placement: PlacementPolicy,
    /// The names behind the cluster's function ids.
    functions: FunctionNames,
    /// Pods of each function hosted per zone, at
    /// `function * zone_count + zone`. Invariant: the sum of the zone's
    /// nodes' counts for that function (retired nodes host nothing, so they
    /// contribute zero).
    zone_function_counts: Vec<usize>,
    /// Where each placed pod lives. Keyed lookup only (`crash_node` sorts
    /// what it collects), so the table's order never reaches an output.
    pods: IdMap<PodId, Placement>,
}

impl Cluster {
    /// Build a cluster from its configuration.
    pub fn new(config: &ClusterConfig) -> SimResult<Self> {
        config.validate()?;
        let nodes: Vec<Node> = (0..config.nodes)
            .map(|i| Node::new(NodeId(i as u32), config.node_capacity))
            .collect();
        let states = vec![NodeState::Active; nodes.len()];
        let node_zones = (0..config.nodes).map(|i| i % config.zones).collect();
        Ok(Cluster {
            nodes,
            states,
            node_zones,
            zone_count: config.zones,
            placement: config.placement,
            functions: FunctionNames::default(),
            zone_function_counts: Vec::new(),
            pods: IdMap::default(),
        })
    }

    /// Number of non-retired (active + draining) nodes.
    pub fn node_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| **s != NodeState::Retired)
            .count()
    }

    /// Number of active nodes (placement targets).
    pub fn active_node_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| **s == NodeState::Active)
            .count()
    }

    /// Ids of active nodes (placement targets), in id order. The stable
    /// ordering makes seed-driven victim selection (fault injection)
    /// reproducible.
    pub fn active_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| self.states[*i] == NodeState::Active)
            .map(|(_, n)| n.id())
            .collect()
    }

    /// Access a node by id (including draining and retired nodes).
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.0 as usize)
    }

    /// Lifecycle state of a node.
    pub fn node_state(&self, id: NodeId) -> Option<NodeState> {
        self.states.get(id.0 as usize).copied()
    }

    /// Add a fresh active node with `capacity` CPU. Node ids are strictly
    /// increasing; retired slots are never reused, so scaling event logs
    /// stay unambiguous.
    pub fn add_node(&mut self, capacity: Millicores) -> SimResult<NodeId> {
        if capacity.get() == 0 {
            return Err(SimError::InvalidConfig(
                "node capacity must be positive".into(),
            ));
        }
        let id = NodeId(self.nodes.len() as u32);
        self.node_zones.push(self.nodes.len() % self.zone_count);
        self.nodes.push(Node::new(id, capacity));
        self.states.push(NodeState::Active);
        Ok(id)
    }

    /// Zone label of a node (retired nodes keep their label).
    pub fn zone_of(&self, id: NodeId) -> Option<usize> {
        self.node_zones.get(id.0 as usize).copied()
    }

    /// Active-node count per availability zone, indexed by zone. This is
    /// the per-zone breakdown the flight recorder samples at every
    /// capacity tick (a zone outage shows up as its column dropping to 0).
    pub fn active_nodes_per_zone(&self) -> Vec<usize> {
        let mut per_zone = vec![0usize; self.zone_count];
        for (i, state) in self.states.iter().enumerate() {
            if *state == NodeState::Active {
                per_zone[self.node_zones[i]] += 1;
            }
        }
        per_zone
    }

    /// Ids of non-retired nodes in `zone`.
    pub fn zone_nodes(&self, zone: usize) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| self.node_zones[*i] == zone && self.states[*i] != NodeState::Retired)
            .map(|(_, n)| n.id())
            .collect()
    }

    /// Abruptly kill a node: every hosted pod is lost on the spot (no
    /// draining), the node retires immediately and its [`NodeId`] is never
    /// reused. Returns the pods that were lost, sorted, so the caller can
    /// fail or retry the in-flight work and drop the pods from any warm-pool
    /// tracking. Crashing a draining node is
    /// allowed; retired or unknown nodes are an error.
    pub fn crash_node(&mut self, id: NodeId) -> SimResult<Vec<PodId>> {
        let idx = id.0 as usize;
        match self.states.get(idx) {
            None => return Err(SimError::UnknownEntity(format!("{id}"))),
            Some(NodeState::Retired) => {
                return Err(SimError::InvalidTransition {
                    entity: format!("{id}"),
                    detail: "crash of a retired node".into(),
                })
            }
            Some(NodeState::Active) | Some(NodeState::Draining) => {}
        }
        let mut lost: Vec<PodId> = self
            .pods
            .iter()
            .filter(|(_, p)| p.node == idx)
            .map(|(pod, _)| *pod)
            .collect();
        lost.sort_unstable();
        for pod in &lost {
            self.detach(*pod);
        }
        self.states[idx] = NodeState::Retired;
        Ok(lost)
    }

    /// Start draining a node: it accepts no new placements and retires as
    /// soon as its last pod is evicted. Returns `true` if the node retired
    /// immediately (it hosted nothing). Draining an already-draining node is
    /// a no-op; retired or unknown nodes are an error.
    pub fn drain_node(&mut self, id: NodeId) -> SimResult<bool> {
        let idx = id.0 as usize;
        match self.states.get(idx) {
            None => return Err(SimError::UnknownEntity(format!("{id}"))),
            Some(NodeState::Retired) => {
                return Err(SimError::InvalidTransition {
                    entity: format!("{id}"),
                    detail: "drain of a retired node".into(),
                })
            }
            Some(NodeState::Active) | Some(NodeState::Draining) => {}
        }
        self.states[idx] = NodeState::Draining;
        Ok(self.try_retire(idx))
    }

    /// Drain the `count` least-allocated active nodes, never dropping the
    /// fleet below `min_active` active nodes. Returns the drained node ids
    /// (some may have retired immediately).
    pub fn drain_least_allocated(&mut self, count: usize, min_active: usize) -> Vec<NodeId> {
        let mut drained = Vec::new();
        for _ in 0..count {
            if self.active_node_count() <= min_active.max(1) {
                break;
            }
            let Some(idx) = self.least_allocated_active() else {
                break;
            };
            self.states[idx] = NodeState::Draining;
            let id = self.nodes[idx].id();
            self.try_retire(idx);
            drained.push(id);
        }
        drained
    }

    /// The active node with the least allocated CPU, lowest id on ties.
    fn least_allocated_active(&self) -> Option<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| self.states[*i] == NodeState::Active)
            .min_by_key(|(_, n)| (n.allocated().get(), n.id().0))
            .map(|(i, _)| i)
    }

    /// Retire a draining node once empty; returns whether it retired.
    fn try_retire(&mut self, idx: usize) -> bool {
        if self.states[idx] == NodeState::Draining && self.nodes[idx].pod_count() == 0 {
            self.states[idx] = NodeState::Retired;
            true
        } else {
            false
        }
    }

    /// Total allocated CPU across non-retired nodes.
    pub fn total_allocated(&self) -> Millicores {
        self.live_nodes().map(Node::allocated).sum()
    }

    /// Total capacity across non-retired nodes.
    fn total_capacity(&self) -> Millicores {
        self.live_nodes().map(Node::capacity).sum()
    }

    /// Non-retired nodes (active + draining).
    fn live_nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| self.states[*i] != NodeState::Retired)
            .map(|(_, n)| n)
    }

    /// Cluster-wide utilisation in `[0, 1]` over non-retired nodes.
    pub fn utilization(&self) -> f64 {
        let cap = self.total_capacity().get();
        if cap == 0 {
            return 0.0;
        }
        f64::from(self.total_allocated().get()) / f64::from(cap)
    }

    /// The cluster's id for `function`: the one name lookup, interning the
    /// name (with a zero count in every zone) on first sight. Ids are
    /// dense, in first-seen order.
    pub fn function_id(&mut self, function: &str) -> FunctionId {
        let id = self.functions.intern(function);
        self.zone_function_counts
            .resize(self.functions.len() * self.zone_count, 0);
        id
    }

    /// Instances of `function` hosted in `zone` — the correlated-failure
    /// exposure zone-aware spread placement minimises.
    fn zone_function_count(&self, zone: usize, function: FunctionId) -> usize {
        self.zone_function_counts[function.index() * self.zone_count + zone]
    }

    /// The active node that fits `allocation` and ranks highest under the
    /// placement policy, in one pass over the fleet. Each node's criteria
    /// are packed into one integer key (see [`rank`]) and `>=` keeps the
    /// *last* maximum, the node `Iterator::max_by_key` would return.
    fn pick_node(&self, function: FunctionId, allocation: Millicores) -> Option<usize> {
        match self.placement {
            PlacementPolicy::PackSameFunction => self.last_max(allocation, |_, node| {
                rank(count32(node.function_count(function)), node.free())
            }),
            // Zone-aware spread: first keep instances of the same function
            // out of each other's blast radius (fewest copies in the node's
            // zone), then balance load (most free capacity). With one zone
            // the first criterion ties everywhere, degenerating to the
            // original most-free-capacity spread.
            PlacementPolicy::Spread => self.last_max(allocation, |i, node| {
                let copies = self.zone_function_count(self.node_zones[i], function);
                rank(u32::MAX - count32(copies), node.free())
            }),
        }
    }

    /// Index of the last active node fitting `allocation` with the largest
    /// `key`.
    #[inline]
    fn last_max(&self, allocation: Millicores, key: impl Fn(usize, &Node) -> u64) -> Option<usize> {
        let mut best = None;
        let mut best_key = 0;
        for (i, (node, state)) in self.nodes.iter().zip(&self.states).enumerate() {
            if *state != NodeState::Active || !node.can_fit(allocation) {
                continue;
            }
            let key = key(i, node);
            if best.is_none() || key >= best_key {
                best = Some(i);
                best_key = key;
            }
        }
        best
    }

    /// Record `pod` on node `target` with one pod-table probe and keep the
    /// node and per-zone counts in step. A pod placed already is rejected,
    /// whatever `target` holds; otherwise `target`'s error is returned.
    fn attach(
        &mut self,
        pod: PodId,
        function: FunctionId,
        target: SimResult<usize>,
        allocation: Millicores,
    ) -> SimResult<NodeId> {
        let idx = match self.pods.entry(pod) {
            Entry::Occupied(placed) => {
                return Err(already_placed(pod, self.nodes[placed.get().node].id()))
            }
            Entry::Vacant(vacant) => {
                let idx = target?;
                vacant.insert(Placement {
                    node: idx,
                    function,
                    allocation,
                });
                idx
            }
        };
        self.nodes[idx].attach(function, allocation);
        self.zone_function_counts[function.index() * self.zone_count + self.node_zones[idx]] += 1;
        Ok(self.nodes[idx].id())
    }

    /// Forget `pod`, releasing its allocation; returns its node index.
    fn detach(&mut self, pod: PodId) -> Option<usize> {
        let p = self.pods.remove(&pod)?;
        self.nodes[p.node].detach(p.function, p.allocation);
        self.zone_function_counts
            [p.function.index() * self.zone_count + self.node_zones[p.node]] -= 1;
        Some(p.node)
    }

    /// Place a pod running `function` with `allocation` CPU. Returns the node
    /// chosen, or an error if the pod is already placed or no active node
    /// can fit the allocation.
    pub fn place(
        &mut self,
        pod: PodId,
        function: &str,
        allocation: Millicores,
    ) -> SimResult<NodeId> {
        let id = self.function_id(function);
        self.place_id(pod, id, allocation)
    }

    /// [`place`](Self::place) for a function already resolved by
    /// [`function_id`](Self::function_id): the per-invocation path.
    ///
    /// # Panics
    ///
    /// If `function` was not issued by this cluster.
    pub fn place_id(
        &mut self,
        pod: PodId,
        function: FunctionId,
        allocation: Millicores,
    ) -> SimResult<NodeId> {
        let target = self
            .pick_node(function, allocation)
            .ok_or_else(|| self.insufficient_capacity(allocation));
        self.attach(pod, function, target, allocation)
    }

    /// Cold path: the placement error, naming the largest free capacity of
    /// any active node.
    #[cold]
    fn insufficient_capacity(&self, requested: Millicores) -> SimError {
        let available = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| self.states[*i] == NodeState::Active)
            .map(|(_, n)| n.free())
            .max()
            .unwrap_or(Millicores::ZERO);
        SimError::InsufficientCapacity {
            requested,
            available,
        }
    }

    /// Place a pod of `function`, already resolved by
    /// [`function_id`](Self::function_id), on a saturated cluster by
    /// overcommitting the least-loaded active node (overload must contend,
    /// not disappear: an unplaced pod would run interference-free, making
    /// saturation *faster* than a busy fleet). Errors when the pod is
    /// already placed or no node is active.
    ///
    /// # Panics
    ///
    /// If `function` was not issued by this cluster.
    pub fn place_overcommitted_id(
        &mut self,
        pod: PodId,
        function: FunctionId,
        allocation: Millicores,
    ) -> SimResult<NodeId> {
        let target = self
            .least_allocated_active()
            .ok_or(SimError::InsufficientCapacity {
                requested: allocation,
                available: Millicores::ZERO,
            });
        self.attach(pod, function, target, allocation)
    }

    /// Remove a pod from its node. If the node was draining and this was its
    /// last pod, the node retires.
    pub fn remove(&mut self, pod: PodId) -> SimResult<()> {
        let idx = self.detach(pod).ok_or_else(|| unknown_pod(pod))?;
        self.try_retire(idx);
        Ok(())
    }

    /// The node currently hosting `pod`.
    pub fn node_of(&self, pod: PodId) -> Option<NodeId> {
        self.pods.get(&pod).map(|p| self.nodes[p.node].id())
    }

    /// CPU allocation of a placed pod.
    pub fn pod_allocation(&self, pod: PodId) -> Option<Millicores> {
        self.pods.get(&pod).map(|p| p.allocation)
    }

    /// Pods of the function `function` hosted on node `id` (0 for an
    /// unknown node or a function never placed): the co-location degree
    /// the serving loops read after every placement.
    pub fn function_count_id(&self, id: NodeId, function: FunctionId) -> usize {
        self.nodes
            .get(id.0 as usize)
            .map_or(0, |node| node.function_count(function))
    }
}

/// One node's placement rank: `major` in the high 32 bits, free CPU in the
/// low 32, so integer order is the lexicographic order of `(major, free)`
/// that `max_by_key` compared.
#[inline]
fn rank(major: u32, free: Millicores) -> u64 {
    u64::from(major) << 32 | u64::from(free.get())
}

/// A pod count as a rank's major part. It saturates at `u32::MAX`, a count
/// no node or zone can reach.
#[inline]
fn count32(count: usize) -> u32 {
    u32::try_from(count).unwrap_or(u32::MAX)
}

/// Cold path: a pod id that no placement knows about.
#[cold]
fn unknown_pod(pod: PodId) -> SimError {
    SimError::UnknownEntity(format!("{pod}"))
}

/// Cold path: a second placement of a pod that already has a node.
#[cold]
fn already_placed(pod: PodId, node: NodeId) -> SimError {
    SimError::InvalidTransition {
        entity: format!("{pod}"),
        detail: format!("already placed on {node}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pods of `function` on node `id`, resolved through the name table.
    fn count(c: &Cluster, id: NodeId, function: &str) -> usize {
        c.functions
            .get(function)
            .map_or(0, |f| c.function_count_id(id, f))
    }

    /// Overcommit a pod of `function`, resolved through the name table.
    fn overcommit(
        c: &mut Cluster,
        pod: PodId,
        function: &str,
        allocation: Millicores,
    ) -> SimResult<NodeId> {
        let id = c.function_id(function);
        c.place_overcommitted_id(pod, id, allocation)
    }

    fn cluster(nodes: usize, policy: PlacementPolicy) -> Cluster {
        Cluster::new(&ClusterConfig {
            nodes,
            node_capacity: Millicores::from_cores(8),
            placement: policy,
            zones: 1,
        })
        .unwrap()
    }

    /// Pods of `function` in `zone`, read off the per-zone counts that
    /// zone-aware spread ranks by.
    fn zone_count(c: &Cluster, zone: usize, function: &str) -> usize {
        c.functions
            .get(function)
            .map_or(0, |id| c.zone_function_count(zone, id))
    }

    fn zoned(nodes: usize, zones: usize) -> Cluster {
        Cluster::new(&ClusterConfig {
            nodes,
            node_capacity: Millicores::from_cores(8),
            placement: PlacementPolicy::Spread,
            zones,
        })
        .unwrap()
    }

    #[test]
    fn pack_policy_colocates_same_function() {
        let mut c = cluster(3, PlacementPolicy::PackSameFunction);
        let n1 = c.place(PodId(1), "od", Millicores::new(1000)).unwrap();
        let n2 = c.place(PodId(2), "od", Millicores::new(1000)).unwrap();
        let n3 = c.place(PodId(3), "od", Millicores::new(1000)).unwrap();
        assert_eq!(n1, n2);
        assert_eq!(n2, n3);
        assert_eq!(count(&c, n3, "od"), 3);
    }

    #[test]
    fn spread_policy_balances_load() {
        let mut c = cluster(3, PlacementPolicy::Spread);
        c.place(PodId(1), "od", Millicores::new(1000)).unwrap();
        c.place(PodId(2), "od", Millicores::new(1000)).unwrap();
        c.place(PodId(3), "od", Millicores::new(1000)).unwrap();
        let nodes: std::collections::HashSet<_> = [PodId(1), PodId(2), PodId(3)]
            .iter()
            .map(|p| c.node_of(*p).unwrap())
            .collect();
        assert_eq!(nodes.len(), 3, "spread places each pod on its own node");
        assert!(nodes.iter().all(|n| count(&c, *n, "od") == 1));
    }

    #[test]
    fn placement_overflows_to_other_nodes_when_full() {
        let mut c = cluster(2, PlacementPolicy::PackSameFunction);
        c.place(PodId(1), "od", Millicores::new(7000)).unwrap();
        let n2 = c.place(PodId(2), "od", Millicores::new(3000)).unwrap();
        assert_ne!(c.node_of(PodId(1)).unwrap(), n2, "second pod spills over");
        // Totally full cluster rejects placement.
        c.place(PodId(3), "od", Millicores::new(5000)).unwrap();
        let err = c.place(PodId(4), "od", Millicores::new(6000)).unwrap_err();
        assert!(matches!(err, SimError::InsufficientCapacity { .. }));
    }

    #[test]
    fn remove_and_resize_update_accounting() {
        let mut c = cluster(1, PlacementPolicy::PackSameFunction);
        c.place(PodId(1), "od", Millicores::new(2000)).unwrap();
        assert_eq!(c.total_allocated().get(), 2000);
        c.remove(PodId(1)).unwrap();
        assert_eq!(c.total_allocated().get(), 0);
        assert!(c.remove(PodId(1)).is_err());
        assert_eq!(count(&c, NodeId(0), "od"), 0);
    }

    #[test]
    fn placement_tracks_allocation_and_colocation() {
        let mut c = cluster(1, PlacementPolicy::PackSameFunction);
        c.place(PodId(1), "od", Millicores::new(2000)).unwrap();
        c.place(PodId(2), "od", Millicores::new(1000)).unwrap();
        c.place(PodId(3), "qa", Millicores::new(1000)).unwrap();
        let node = c.node(NodeId(0)).unwrap();
        assert_eq!(node.allocated().get(), 4000);
        assert_eq!(node.free().get(), 4000);
        assert_eq!(node.pod_count(), 3);
        assert_eq!(count(&c, NodeId(0), "od"), 2);
        assert_eq!(count(&c, NodeId(0), "qa"), 1);
        // A never-seen name counts none, and so does an unknown node.
        assert_eq!(count(&c, NodeId(0), "ts"), 0);
        assert_eq!(count(&c, NodeId(7), "od"), 0);
    }

    #[test]
    fn placement_beyond_node_capacity_is_rejected() {
        let mut c = cluster(1, PlacementPolicy::PackSameFunction);
        c.place(PodId(1), "od", Millicores::new(7000)).unwrap();
        let err = c.place(PodId(2), "od", Millicores::new(2000)).unwrap_err();
        assert_eq!(
            err,
            SimError::InsufficientCapacity {
                requested: Millicores::new(2000),
                available: Millicores::new(1000),
            }
        );
        assert_eq!(c.node_of(PodId(2)), None);
        assert_eq!(c.total_allocated().get(), 7000);
    }

    #[test]
    fn duplicate_placement_is_rejected() {
        let mut c = cluster(1, PlacementPolicy::PackSameFunction);
        c.place(PodId(1), "od", Millicores::new(1000)).unwrap();
        assert!(c.place(PodId(1), "od", Millicores::new(1000)).is_err());
        assert!(overcommit(&mut c, PodId(1), "od", Millicores::new(1000)).is_err());
        assert_eq!(c.total_allocated().get(), 1000);
        assert_eq!(count(&c, NodeId(0), "od"), 1);
    }

    #[test]
    fn a_pod_placed_elsewhere_cannot_be_placed_again() {
        // Spread would pick the empty second node for the duplicate; the
        // pod table must reject it instead of leaking the first node's
        // allocation.
        let mut c = cluster(2, PlacementPolicy::Spread);
        let first = c.place(PodId(1), "od", Millicores::new(2000)).unwrap();
        let err = c.place(PodId(1), "od", Millicores::new(1000)).unwrap_err();
        assert_eq!(
            err,
            SimError::InvalidTransition {
                entity: "pod-1".into(),
                detail: format!("already placed on {first}"),
            }
        );
        assert!(overcommit(&mut c, PodId(1), "qa", Millicores::new(1000)).is_err());
        assert_eq!(c.node_of(PodId(1)), Some(first));
        assert_eq!(c.total_allocated().get(), 2000);
        c.remove(PodId(1)).unwrap();
        assert_eq!(c.total_allocated().get(), 0);
        assert!(c.node(NodeId(0)).unwrap().pod_count() == 0);
        assert!(c.node(NodeId(1)).unwrap().pod_count() == 0);
    }

    #[test]
    fn remove_releases_capacity_and_colocation() {
        let mut c = cluster(1, PlacementPolicy::PackSameFunction);
        c.place(PodId(1), "od", Millicores::new(2000)).unwrap();
        c.place(PodId(2), "od", Millicores::new(1000)).unwrap();
        c.remove(PodId(1)).unwrap();
        assert_eq!(c.total_allocated().get(), 1000);
        assert_eq!(count(&c, NodeId(0), "od"), 1);
        assert_eq!(c.node(NodeId(0)).unwrap().pod_count(), 1);
        assert_eq!(
            c.remove(PodId(1)).unwrap_err(),
            SimError::UnknownEntity("pod-1".into())
        );
    }

    #[test]
    fn invalid_config_is_rejected() {
        assert!(Cluster::new(&ClusterConfig {
            nodes: 0,
            node_capacity: Millicores::from_cores(1),
            placement: PlacementPolicy::Spread,
            zones: 1,
        })
        .is_err());
        assert!(Cluster::new(&ClusterConfig {
            nodes: 1,
            node_capacity: Millicores::ZERO,
            placement: PlacementPolicy::Spread,
            zones: 1,
        })
        .is_err());
        assert!(Cluster::new(&ClusterConfig {
            nodes: 1,
            node_capacity: Millicores::from_cores(1),
            placement: PlacementPolicy::Spread,
            zones: 0,
        })
        .is_err());
    }

    #[test]
    fn zones_are_assigned_round_robin_and_survive_growth() {
        let mut c = zoned(4, 2);
        assert_eq!(c.zone_count, 2);
        assert_eq!(c.zone_of(NodeId(0)), Some(0));
        assert_eq!(c.zone_of(NodeId(1)), Some(1));
        assert_eq!(c.zone_of(NodeId(2)), Some(0));
        assert_eq!(c.zone_of(NodeId(3)), Some(1));
        assert_eq!(c.zone_of(NodeId(9)), None);
        assert_eq!(c.zone_nodes(0), vec![NodeId(0), NodeId(2)]);
        // Added nodes continue the round-robin, so zones stay balanced.
        let added = c.add_node(Millicores::from_cores(8)).unwrap();
        assert_eq!(c.zone_of(added), Some(0));
        assert_eq!(c.zone_nodes(0), vec![NodeId(0), NodeId(2), NodeId(4)]);
    }

    #[test]
    fn active_nodes_per_zone_tracks_crashes() {
        let mut c = zoned(4, 2);
        assert_eq!(c.active_nodes_per_zone(), vec![2, 2]);
        c.crash_node(NodeId(1)).unwrap();
        assert_eq!(c.active_nodes_per_zone(), vec![2, 1]);
        assert_eq!(
            c.active_nodes_per_zone().iter().sum::<usize>(),
            c.active_node_count()
        );
    }

    #[test]
    fn zone_aware_spread_separates_same_function_instances() {
        // Four nodes, two zones: the first two instances of a function must
        // land in different zones, not merely on different nodes.
        let mut c = zoned(4, 2);
        c.place(PodId(1), "od", Millicores::new(1000)).unwrap();
        c.place(PodId(2), "od", Millicores::new(1000)).unwrap();
        let z1 = c.zone_of(c.node_of(PodId(1)).unwrap()).unwrap();
        let z2 = c.zone_of(c.node_of(PodId(2)).unwrap()).unwrap();
        assert_ne!(z1, z2, "spread must cross zones first");
    }

    #[test]
    fn crash_loses_pods_and_retires_the_node_for_good() {
        let mut c = zoned(2, 2);
        c.place(PodId(1), "od", Millicores::new(2000)).unwrap();
        c.place(PodId(2), "qa", Millicores::new(1000)).unwrap();
        let victim = c.node_of(PodId(1)).unwrap();
        let lost = c.crash_node(victim).unwrap();
        assert_eq!(lost, vec![PodId(1)]);
        // The pod is gone, the node is retired, its allocation released.
        assert_eq!(c.node_of(PodId(1)), None);
        assert_eq!(c.node_state(victim), Some(NodeState::Retired));
        assert_eq!(c.node_count(), 1);
        assert_eq!(c.total_allocated().get(), 1000);
        // Crashing again (or an unknown node) is an error; the id is never
        // reused by growth.
        assert!(c.crash_node(victim).is_err());
        assert!(c.crash_node(NodeId(9)).is_err());
        let added = c.add_node(Millicores::from_cores(8)).unwrap();
        assert_ne!(added, victim);
        // A draining node can still crash (preemption deadline beats drain).
        let survivor = c.node_of(PodId(2)).unwrap();
        c.drain_node(survivor).unwrap();
        let lost = c.crash_node(survivor).unwrap();
        assert_eq!(lost.len(), 1);
        assert_eq!(c.total_allocated().get(), 0);
    }

    #[test]
    fn crashing_an_empty_node_retires_it_and_loses_nothing() {
        let mut c = zoned(2, 2);
        assert_eq!(c.crash_node(NodeId(0)), Ok(Vec::new()));
        assert_eq!(c.node_state(NodeId(0)), Some(NodeState::Retired));
        assert_eq!(c.active_node_count(), 1);
        // Placement now lands on the survivor only.
        c.place(PodId(1), "od", Millicores::new(1000)).unwrap();
        assert_eq!(c.node_of(PodId(1)), Some(NodeId(1)));
    }

    #[test]
    fn added_nodes_become_placement_targets() {
        let mut c = cluster(1, PlacementPolicy::Spread);
        c.place(PodId(1), "od", Millicores::from_cores(8)).unwrap();
        // Full cluster: next placement fails …
        assert!(c.place(PodId(2), "od", Millicores::new(1000)).is_err());
        // … until a node is added.
        let added = c.add_node(Millicores::from_cores(8)).unwrap();
        assert_eq!(added, NodeId(1));
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.active_node_count(), 2);
        let placed = c.place(PodId(2), "od", Millicores::new(1000)).unwrap();
        assert_eq!(placed, added);
        assert_eq!(c.total_capacity(), Millicores::from_cores(16));
        assert!(c.add_node(Millicores::ZERO).is_err());
    }

    #[test]
    fn draining_is_allocation_aware() {
        let mut c = cluster(2, PlacementPolicy::Spread);
        c.place(PodId(1), "od", Millicores::new(2000)).unwrap();
        let node = c.node_of(PodId(1)).unwrap();
        // Draining a node with a pod does not retire it yet.
        assert!(!c.drain_node(node).unwrap());
        assert_eq!(c.node_state(node), Some(NodeState::Draining));
        assert_eq!(c.node_count(), 2, "draining node still counts");
        // No new placements land on the draining node.
        c.place(PodId(2), "od", Millicores::new(1000)).unwrap();
        assert_ne!(c.node_of(PodId(2)).unwrap(), node);
        // Evicting the last pod retires it and releases its capacity.
        c.remove(PodId(1)).unwrap();
        assert_eq!(c.node_state(node), Some(NodeState::Retired));
        assert_eq!(c.node_count(), 1);
        assert_eq!(c.total_capacity(), Millicores::from_cores(8));
        // Retired nodes cannot be drained again; unknown nodes error.
        assert!(c.drain_node(node).is_err());
        assert!(c.drain_node(NodeId(99)).is_err());
    }

    #[test]
    fn overcommit_places_on_the_least_loaded_active_node() {
        let mut c = cluster(2, PlacementPolicy::Spread);
        c.place(PodId(1), "od", Millicores::from_cores(8)).unwrap();
        c.place(PodId(2), "od", Millicores::from_cores(8)).unwrap();
        // Saturated: regular placement fails, overcommit lands anyway and
        // the overloaded fleet reads as >100 % utilised.
        assert!(c.place(PodId(3), "od", Millicores::new(2000)).is_err());
        let node = overcommit(&mut c, PodId(3), "od", Millicores::new(2000)).unwrap();
        assert_eq!(c.node_of(PodId(3)), Some(node));
        assert!(c.utilization() > 1.0);
        assert_eq!(count(&c, node, "od"), 2);
        // Draining nodes are not overcommit targets either.
        c.drain_node(NodeId(0)).unwrap();
        c.drain_node(NodeId(1)).unwrap();
        assert!(overcommit(&mut c, PodId(4), "od", Millicores::new(1000)).is_err());
        // Eviction drains the overcommitted node back to retirement.
        c.remove(PodId(3)).unwrap();
        let host = c.node_of(PodId(1)).unwrap();
        c.remove(PodId(1)).unwrap();
        assert_eq!(c.node_state(host), Some(NodeState::Retired));
    }

    #[test]
    fn empty_node_retires_immediately_on_drain() {
        let mut c = cluster(3, PlacementPolicy::Spread);
        assert!(c.drain_node(NodeId(2)).unwrap());
        assert_eq!(c.node_state(NodeId(2)), Some(NodeState::Retired));
        assert_eq!(c.active_node_count(), 2);
    }

    #[test]
    fn drain_least_allocated_respects_the_floor() {
        let mut c = cluster(3, PlacementPolicy::Spread);
        c.place(PodId(1), "od", Millicores::new(3000)).unwrap();
        c.place(PodId(2), "od", Millicores::new(2000)).unwrap();
        // Three active nodes, floor of one: at most two drain, least
        // allocated (the empty node) first.
        let drained = c.drain_least_allocated(5, 1);
        assert_eq!(drained.len(), 2);
        assert_eq!(c.active_node_count(), 1);
        let busiest = c.node_of(PodId(1)).unwrap();
        assert_eq!(c.node_state(busiest), Some(NodeState::Active));
        // Draining below the floor is refused.
        assert!(c.drain_least_allocated(1, 1).is_empty());
    }

    #[test]
    fn utilization_reflects_allocations() {
        let mut c = cluster(2, PlacementPolicy::Spread);
        assert_eq!(c.utilization(), 0.0);
        c.place(PodId(1), "od", Millicores::from_cores(8)).unwrap();
        assert!((c.utilization() - 0.5).abs() < 1e-12);
        assert_eq!(c.total_capacity(), Millicores::from_cores(16));
    }

    #[test]
    fn copies_outrank_any_free_capacity_difference() {
        // Free capacity fills the low half of a node's placement rank; on
        // nodes of billions of millicores it must still never outweigh one
        // copy of the function.
        let huge = |placement, zones| {
            Cluster::new(&ClusterConfig {
                nodes: 2,
                node_capacity: Millicores::new(4_000_000_000),
                placement,
                zones,
            })
            .unwrap()
        };
        // Pack: equal nodes tie to the last; the second pod follows the
        // first although the other node has more free CPU.
        let mut c = huge(PlacementPolicy::PackSameFunction, 1);
        let first = c.place(PodId(1), "od", Millicores::new(1_000_000)).unwrap();
        assert_eq!(first, NodeId(1));
        assert_eq!(c.place(PodId(2), "od", Millicores::new(10)).unwrap(), first);
        // Spread: a zone without the function beats a zone with one copy
        // even with half the free CPU.
        let mut c = huge(PlacementPolicy::Spread, 2);
        assert_eq!(
            c.place(PodId(1), "qa", Millicores::new(2_000_000_000))
                .unwrap(),
            NodeId(1)
        );
        assert_eq!(
            c.place(PodId(2), "od", Millicores::new(10)).unwrap(),
            NodeId(0)
        );
        assert_eq!(
            c.place(PodId(3), "od", Millicores::new(10)).unwrap(),
            NodeId(1)
        );
    }

    #[test]
    fn sparse_huge_pod_ids_are_placed_and_removed() {
        // Pod ids are never reused, so a table indexed by id would grow with
        // the largest id ever issued. Ids at the top of the range must cost
        // what small ones do.
        let mut c = zoned(4, 2);
        let ids: Vec<PodId> = (0..200u64).map(|i| PodId(u64::MAX - i * 7919)).collect();
        for (i, pod) in ids.iter().enumerate() {
            let function = ["od", "qa"][i % 2];
            c.place(*pod, function, Millicores::new(100)).unwrap();
        }
        assert_eq!(c.total_allocated().get(), 200 * 100);
        assert_eq!(zone_count(&c, 0, "od") + zone_count(&c, 1, "od"), 100);
        assert!(count(&c, c.node_of(ids[0]).unwrap(), "od") >= 1);
        for pod in ids.iter().step_by(2) {
            c.remove(*pod).unwrap();
        }
        assert_eq!(c.total_allocated().get(), 100 * 100);
        assert_eq!(c.node_of(ids[0]), None);
        assert!(c.node_of(ids[1]).is_some());
        assert_eq!(zone_count(&c, 0, "od") + zone_count(&c, 1, "od"), 0);
        // A crash hands back the lost ids sorted, whatever their size.
        let victim = c.node_of(ids[1]).unwrap();
        let lost = c.crash_node(victim).unwrap();
        assert!(!lost.is_empty());
        assert!(lost.windows(2).all(|w| w[0] < w[1]));
        assert!(lost
            .iter()
            .all(|pod| ids.contains(pod) && c.node_of(*pod).is_none()));
    }

    #[test]
    fn names_and_resolved_ids_take_the_same_path() {
        use crate::rng::SimRng;
        const FUNCTIONS: [&str; 4] = ["od", "qa", "ts", "asr"];
        let mut rng = SimRng::seed_from_u64(0xC1_05_7E_12);
        for (case, placement) in [PlacementPolicy::PackSameFunction, PlacementPolicy::Spread]
            .into_iter()
            .enumerate()
        {
            let config = ClusterConfig {
                nodes: 4,
                node_capacity: Millicores::from_cores(8),
                placement,
                zones: 2,
            };
            // One cluster is driven through names, the other through ids
            // resolved up front in the reverse order.
            let mut by_name = Cluster::new(&config).unwrap();
            let mut by_id = Cluster::new(&config).unwrap();
            let mut ids = [FunctionId(0); 4];
            for (i, function) in FUNCTIONS.iter().enumerate().rev() {
                ids[i] = by_id.function_id(function);
            }
            assert_eq!(
                ids,
                [FunctionId(3), FunctionId(2), FunctionId(1), FunctionId(0)],
                "ids are dense, in first-seen order"
            );
            let mut placed: Vec<PodId> = Vec::new();
            let (mut next_pod, mut refused, mut crashed) = (0, 0, 0);
            for step in 0..2_000 {
                let at = format!("case {case} step {step}");
                let f = rng.int_range(0, 3) as usize;
                let allocation = Millicores::new(100 * rng.int_range(5, 40) as u32);
                match rng.int_range(0, 99) {
                    0..=44 => {
                        // A fresh pod, or now and then one already placed.
                        let pod = if placed.is_empty() || rng.int_range(0, 9) > 0 {
                            next_pod += 1;
                            PodId(next_pod)
                        } else {
                            *rng.choose(&placed)
                        };
                        let got = by_name.place(pod, FUNCTIONS[f], allocation);
                        assert_eq!(got, by_id.place_id(pod, ids[f], allocation), "{at}");
                        match got {
                            Ok(_) => placed.push(pod),
                            Err(_) => refused += 1,
                        }
                    }
                    45..=54 => {
                        next_pod += 1;
                        let pod = PodId(next_pod);
                        let got = overcommit(&mut by_name, pod, FUNCTIONS[f], allocation);
                        let want = by_id.place_overcommitted_id(pod, ids[f], allocation);
                        assert_eq!(got, want, "{at}");
                        if got.is_ok() {
                            placed.push(pod);
                        }
                    }
                    55..=89 if !placed.is_empty() => {
                        let i = rng.int_range(0, placed.len() as u64 - 1) as usize;
                        let pod = placed.swap_remove(i);
                        assert_eq!(by_name.remove(pod), by_id.remove(pod), "{at}");
                    }
                    90..=94 => {
                        let node = NodeId(rng.int_range(0, by_name.nodes.len() as u64) as u32);
                        let lost = by_name.crash_node(node);
                        assert_eq!(lost, by_id.crash_node(node), "{at}");
                        for pod in lost.unwrap_or_default() {
                            placed.retain(|p| *p != pod);
                            crashed += 1;
                        }
                    }
                    _ => {
                        let capacity = Millicores::from_cores(8);
                        assert_eq!(by_name.add_node(capacity), by_id.add_node(capacity));
                    }
                }
                assert_eq!(by_name.total_allocated(), by_id.total_allocated(), "{at}");
                for i in 0..=by_name.nodes.len() {
                    let node = NodeId(i as u32);
                    assert_eq!(by_name.node_state(node), by_id.node_state(node), "{at}");
                    for (f, function) in FUNCTIONS.iter().enumerate() {
                        let n = by_id.function_count_id(node, ids[f]);
                        assert_eq!(count(&by_name, node, function), n, "{at}");
                    }
                }
                for pod in &placed {
                    assert_eq!(by_name.node_of(*pod), by_id.node_of(*pod), "{at}");
                }
            }
            // The run reached every path: refusals, crashes with pods.
            assert!(refused > 0 && crashed > 0 && !placed.is_empty());
            // Resolution is stable, and the name path numbered the four
            // functions densely.
            for (f, function) in FUNCTIONS.iter().enumerate() {
                assert_eq!(by_id.function_id(function), ids[f]);
            }
            let mut seen: Vec<FunctionId> =
                FUNCTIONS.iter().map(|f| by_name.function_id(f)).collect();
            seen.sort();
            assert_eq!(seen, (0..4).map(FunctionId).collect::<Vec<_>>());
            assert_eq!(by_name.function_count_id(NodeId(0), FunctionId(9)), 0);
        }
    }
}
