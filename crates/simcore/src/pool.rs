//! Warm-pool manager, modelled on the Fission PoolManager executor.
//!
//! The paper uses the PoolManager "due to its excellent performance against
//! cold starts" (§V-A): a pool of generic pods is kept warm per node, and
//! specialising a warm pod to a function costs a small specialisation delay
//! rather than a full cold start.
//!
//! Function names are resolved once per run to dense [`FunctionId`]s
//! ([`PoolManager::function_id`]); the warm queues are indexed by id and
//! every pod remembers the id it was specialised to, so acquire and release
//! touch no string. The pool's name table is the one place a pod's function
//! id maps back to a name.

use crate::function::{FunctionId, FunctionNames};
use crate::idmap::IdMap;
use crate::pod::{Pod, PodId, PodState};
use crate::resources::Millicores;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Pool-manager configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolConfig {
    /// Number of generic pods kept warm.
    pub pool_size: usize,
    /// Initial CPU allocation of pool pods (resized on specialisation).
    pub initial_allocation: Millicores,
    /// Latency of specialising a warm generic pod to a function.
    pub specialization_delay: SimDuration,
    /// Latency of a full cold start (pool empty).
    pub cold_start_delay: SimDuration,
    /// Idle duration after which a specialised pod is recycled back to the
    /// generic pool.
    pub idle_recycle_after: SimDuration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            pool_size: 8,
            initial_allocation: Millicores::new(1000),
            // Fission poolmgr specialisation is tens of milliseconds; cold
            // starts (pod creation + image pull hit) are hundreds.
            specialization_delay: SimDuration::from_millis(25.0),
            cold_start_delay: SimDuration::from_millis(450.0),
            idle_recycle_after: SimDuration::from_secs(120.0),
        }
    }
}

/// Outcome of acquiring a pod for a function invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Acquisition {
    /// The pod serving the invocation.
    pub pod: PodId,
    /// Startup latency paid before execution can begin.
    pub startup_delay: SimDuration,
    /// True if this was a warm-pool hit (specialised pod reused or generic
    /// pod specialised), false for a cold start.
    pub warm_hit: bool,
}

/// One tracked pod and, while it waits in a warm queue, when it went idle.
#[derive(Debug)]
struct PodEntry {
    pod: Pod,
    /// Last time the pod went idle (for recycling); `None` once it leaves
    /// its warm queue, and for generic pods.
    idle_since: Option<SimTime>,
}

/// Warm-pool manager tracking generic pods, specialised idle pods and
/// hit/miss statistics.
///
/// Every queue entry names a tracked pod: a pod leaves the pod table only
/// together with all its queue entries (shrink, recycling, loss). A warm
/// acquire or a release costs one pod-table probe and one index into the
/// warm queues.
#[derive(Debug)]
pub struct PoolManager {
    config: PoolConfig,
    next_pod: u64,
    /// Generic warm pods ready to be specialised.
    generic: VecDeque<PodId>,
    /// The names behind the pool's function ids.
    functions: FunctionNames,
    /// Idle pods already specialised: one queue per function, indexed by
    /// [`FunctionId`].
    warm: Vec<VecDeque<PodId>>,
    /// Every tracked pod, by id.
    pods: IdMap<PodId, PodEntry>,
    warm_hits: u64,
    cold_starts: u64,
}

impl PoolManager {
    /// Create a pool manager and pre-provision its generic pool at time zero.
    pub fn new(config: PoolConfig) -> Self {
        let mut mgr = PoolManager {
            config,
            next_pod: 0,
            generic: VecDeque::new(),
            functions: FunctionNames::default(),
            warm: Vec::new(),
            pods: IdMap::default(),
            warm_hits: 0,
            cold_starts: 0,
        };
        mgr.refill();
        mgr
    }

    /// Current pool configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Number of generic pods currently available.
    pub fn generic_available(&self) -> usize {
        self.generic.len()
    }

    /// The pool's id for `function`: the one name lookup, interning the
    /// name (and opening its empty warm queue) on first sight. Ids are
    /// dense, in first-seen order.
    pub fn function_id(&mut self, function: &str) -> FunctionId {
        let id = self.functions.intern(function);
        if self.warm.len() < self.functions.len() {
            self.warm.push(VecDeque::new());
        }
        id
    }

    /// Total warm-pool hits so far.
    pub fn warm_hits(&self) -> u64 {
        self.warm_hits
    }

    /// Total cold starts so far.
    pub fn cold_starts(&self) -> u64 {
        self.cold_starts
    }

    /// Warm-hit rate in `[0, 1]` (1.0 if nothing acquired yet).
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.warm_hits + self.cold_starts;
        if total == 0 {
            return 1.0;
        }
        self.warm_hits as f64 / total as f64
    }

    fn new_pod(&mut self) -> PodId {
        let id = PodId(self.next_pod);
        self.next_pod += 1;
        let pod = Pod::generic(id, self.config.initial_allocation);
        self.pods.insert(
            id,
            PodEntry {
                pod,
                idle_since: None,
            },
        );
        id
    }

    /// Top the generic pool back up to its configured size.
    fn refill(&mut self) {
        while self.generic.len() < self.config.pool_size {
            let id = self.new_pod();
            self.generic.push_back(id);
        }
    }

    /// Current target depth of the generic pool.
    pub fn target_pool_size(&self) -> usize {
        self.config.pool_size
    }

    /// Retarget the generic pool so warm-pool depth can follow load: grows
    /// provision new generic pods immediately, shrinks terminate surplus
    /// generic pods (idle specialised pods are untouched — they age out via
    /// [`recycle_idle`](Self::recycle_idle)).
    ///
    /// Terminated surplus pods are dropped from the tracking map outright —
    /// a generic pod was never specialised or handed out, so nothing can
    /// reference it again, and an oscillating autoscaler retargeting every
    /// tick must not grow the pod table with dead entries.
    pub fn set_target_pool_size(&mut self, target: usize) {
        self.config.pool_size = target;
        while self.generic.len() > target {
            // Newest pods go first, keeping the oldest (warmest) provisioned.
            let Some(pod_id) = self.generic.pop_back() else {
                break;
            };
            self.pods.remove(&pod_id);
        }
        self.refill();
    }

    /// Acquire a pod to run `function` with `allocation` CPU. `_now` is
    /// ignored: acquiring reads no clock (releasing does).
    ///
    /// Preference order (mirroring Fission poolmgr):
    /// 1. an idle pod already specialised to the function → warm hit, no
    ///    specialisation delay;
    /// 2. a generic pool pod → warm hit, specialisation delay;
    /// 3. nothing available → cold start.
    ///
    /// A queued pod that can no longer start (untracked, or not idle) is a
    /// stale entry and is skipped.
    pub fn acquire(
        &mut self,
        function: &str,
        allocation: Millicores,
        _now: SimTime,
    ) -> Acquisition {
        let id = self.function_id(function);
        self.acquire_id(id, allocation)
    }

    /// [`acquire`](Self::acquire) for a function already resolved by
    /// [`function_id`](Self::function_id): the per-invocation path.
    ///
    /// # Panics
    ///
    /// If `function` was not issued by this pool.
    pub fn acquire_id(&mut self, function: FunctionId, allocation: Millicores) -> Acquisition {
        // 1. Reuse a specialised idle pod.
        while let Some(pod_id) = self.warm[function.index()].pop_front() {
            if self.start(pod_id, function, allocation) {
                self.warm_hits += 1;
                return Acquisition {
                    pod: pod_id,
                    startup_delay: SimDuration::ZERO,
                    warm_hit: true,
                };
            }
        }
        // 2. Specialise a generic pod.
        while let Some(pod_id) = self.generic.pop_front() {
            if self.start(pod_id, function, allocation) {
                self.warm_hits += 1;
                return Acquisition {
                    pod: pod_id,
                    startup_delay: self.config.specialization_delay,
                    warm_hit: true,
                };
            }
        }
        // 3. Cold start: a fresh generic pod always starts.
        let pod_id = self.new_pod();
        let started = self.start(pod_id, function, allocation);
        debug_assert!(started, "a fresh generic pod starts");
        self.cold_starts += 1;
        Acquisition {
            pod: pod_id,
            startup_delay: self.config.cold_start_delay,
            warm_hit: false,
        }
    }

    /// Run a tracked pod just taken off a queue for `function` at
    /// `allocation`: it is no longer idle, and if it is generic or idle it is
    /// specialised (when generic), sized and marked running. Returns `false`
    /// when the pod is untracked or neither generic nor idle — the only
    /// states those transitions reject — leaving the pod itself untouched.
    fn start(&mut self, pod_id: PodId, function: FunctionId, allocation: Millicores) -> bool {
        let Some(entry) = self.pods.get_mut(&pod_id) else {
            return false;
        };
        entry.idle_since = None;
        let pod = &mut entry.pod;
        let ready = match pod.state() {
            PodState::Generic => pod.specialize(function).is_ok(),
            PodState::Warm => true,
            PodState::Running => false,
        };
        ready && {
            pod.resize(allocation);
            pod.start_execution().is_ok()
        }
    }

    /// Return a pod after its execution finished; it becomes an idle
    /// specialised pod available for reuse.
    pub fn release(&mut self, pod_id: PodId, now: SimTime) {
        let Some(entry) = self.pods.get_mut(&pod_id) else {
            return;
        };
        if entry.pod.state() == PodState::Running {
            // Cannot fail: only a non-running pod is rejected.
            let _ = entry.pod.finish_execution();
        }
        if let Some(function) = entry.pod.function() {
            self.warm[function.index()].push_back(pod_id);
            entry.idle_since = Some(now);
        }
    }

    /// Recycle specialised pods idle for longer than the configured window
    /// and top the generic pool back up. Returns how many pods were recycled.
    ///
    /// One pass over the pod table finds and drops the expired pods; then
    /// only the warm queues of their functions are swept, once each.
    pub fn recycle_idle(&mut self, now: SimTime) -> usize {
        let cutoff = self.config.idle_recycle_after;
        let before = self.pods.len();
        // The functions whose warm queues hold an expired pod (allocated
        // only when something expires).
        let mut swept: Vec<FunctionId> = Vec::new();
        // A recycled pod leaves its warm queue below (its only queue), so
        // nothing can reach it again; drop it from the tracking map rather
        // than keeping terminated entries forever (the open loop recycles on
        // every capacity tick — long runs must stay bounded).
        self.pods.retain(|_, entry| {
            let expired = entry
                .idle_since
                .is_some_and(|since| now.saturating_since(since) >= cutoff);
            if expired {
                // An idle pod is specialised and queued under its function.
                if let Some(function) = entry.pod.function() {
                    if !swept.contains(&function) {
                        swept.push(function);
                    }
                }
            }
            !expired
        });
        let recycled = before - self.pods.len();
        for function in swept {
            let pods = &self.pods;
            self.warm[function.index()].retain(|id| pods.contains_key(id));
        }
        self.refill();
        recycled
    }

    /// Forget pods lost abruptly (a node crash, not a drain): each is
    /// removed from the pod table, and then one pass over the generic pool
    /// and every warm queue drops their entries, so nothing can hand a dead
    /// pod out again and the tracking map cannot grow dead entries across a
    /// crash-heavy run. Unknown ids are ignored (the pod may already have
    /// been recycled). Returns how many pods were actually dropped.
    pub fn drop_lost(&mut self, lost: &[PodId]) -> usize {
        let before = self.pods.len();
        for pod_id in lost {
            self.pods.remove(pod_id);
        }
        let dropped = before - self.pods.len();
        if dropped > 0 {
            let pods = &self.pods;
            self.generic.retain(|id| pods.contains_key(id));
            for queue in &mut self.warm {
                queue.retain(|id| pods.contains_key(id));
            }
        }
        dropped
    }

    /// Immutable access to a pod.
    pub fn pod(&self, pod_id: PodId) -> Option<&Pod> {
        self.pods.get(&pod_id).map(|entry| &entry.pod)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Idle specialised pods queued for `function`.
    fn warm_available(mgr: &PoolManager, function: &str) -> usize {
        mgr.functions
            .get(function)
            .map_or(0, |id| mgr.warm[id.index()].len())
    }

    fn pool(size: usize) -> PoolManager {
        PoolManager::new(PoolConfig {
            pool_size: size,
            ..PoolConfig::default()
        })
    }

    #[test]
    fn generic_pool_is_preprovisioned() {
        let mgr = pool(4);
        assert_eq!(mgr.generic_available(), 4);
        assert_eq!(mgr.next_pod as usize, 4);
    }

    #[test]
    fn first_acquire_specialises_a_generic_pod() {
        let mut mgr = pool(2);
        let acq = mgr.acquire("od", Millicores::new(2000), SimTime::ZERO);
        assert!(acq.warm_hit);
        assert_eq!(acq.startup_delay, mgr.config().specialization_delay);
        assert_eq!(mgr.generic_available(), 1);
        let pod = mgr.pod(acq.pod).unwrap();
        assert_eq!(pod.function().map(|id| mgr.functions.name(id)), Some("od"));
        assert_eq!(pod.allocation(), Millicores::new(2000));
        assert_eq!(pod.state(), PodState::Running);
    }

    #[test]
    fn released_pod_is_reused_without_delay() {
        let mut mgr = pool(2);
        let acq1 = mgr.acquire("od", Millicores::new(1500), SimTime::ZERO);
        mgr.release(acq1.pod, SimTime::from_millis(100.0));
        assert_eq!(warm_available(&mgr, "od"), 1);
        let acq2 = mgr.acquire("od", Millicores::new(2500), SimTime::from_millis(200.0));
        assert_eq!(acq2.pod, acq1.pod, "same pod reused");
        assert_eq!(acq2.startup_delay, SimDuration::ZERO);
        assert_eq!(
            mgr.pod(acq2.pod).unwrap().allocation(),
            Millicores::new(2500),
            "reuse applies the new allocation"
        );
    }

    #[test]
    fn exhausted_pool_falls_back_to_cold_start() {
        let mut mgr = pool(1);
        let a = mgr.acquire("od", Millicores::new(1000), SimTime::ZERO);
        assert!(a.warm_hit);
        let b = mgr.acquire("qa", Millicores::new(1000), SimTime::ZERO);
        assert!(!b.warm_hit);
        assert_eq!(b.startup_delay, mgr.config().cold_start_delay);
        assert_eq!(mgr.cold_starts(), 1);
        assert_eq!(mgr.warm_hits(), 1);
        assert!((mgr.warm_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn idle_pods_are_recycled_after_timeout() {
        let mut mgr = pool(1);
        let acq = mgr.acquire("od", Millicores::new(1000), SimTime::ZERO);
        mgr.release(acq.pod, SimTime::from_millis(0.0));
        assert_eq!(warm_available(&mgr, "od"), 1);
        let not_yet = mgr.recycle_idle(SimTime::from_secs(1.0));
        assert_eq!(not_yet, 0);
        let recycled = mgr.recycle_idle(SimTime::from_secs(200.0));
        assert_eq!(recycled, 1);
        assert_eq!(warm_available(&mgr, "od"), 0);
        assert_eq!(
            mgr.generic_available(),
            1,
            "generic pool refilled after recycling"
        );
    }

    #[test]
    fn lost_pods_are_dropped_from_every_tracking_structure() {
        let mut mgr = pool(2);
        let running = mgr.acquire("od", Millicores::new(1000), SimTime::ZERO);
        // One pod running, one generic; lose both plus an unknown id.
        let generic_id = PodId(mgr.next_pod - 1);
        assert_ne!(running.pod, generic_id);
        let dropped = mgr.drop_lost(&[running.pod, generic_id, PodId(999)]);
        assert_eq!(dropped, 2, "unknown ids are ignored");
        assert_eq!(mgr.pods.len(), 0);
        assert_eq!(mgr.generic_available(), 0);
        // A release of a lost running pod is a safe no-op …
        mgr.release(running.pod, SimTime::from_millis(10.0));
        assert_eq!(warm_available(&mgr, "od"), 0);
        // … and recycling later never resurrects it.
        assert_eq!(mgr.recycle_idle(SimTime::from_secs(500.0)), 0);
        assert_eq!(mgr.pods.len(), 2, "refill provisions fresh pods only");
    }

    #[test]
    fn stale_warm_entries_are_skipped() {
        let mut mgr = pool(1);
        let first = mgr.acquire("od", Millicores::new(1000), SimTime::ZERO);
        // A second release of an idle pod queues it twice.
        mgr.release(first.pod, SimTime::from_millis(10.0));
        mgr.release(first.pod, SimTime::from_millis(20.0));
        assert_eq!(warm_available(&mgr, "od"), 2);
        let again = mgr.acquire("od", Millicores::new(1000), SimTime::from_millis(30.0));
        assert_eq!(again.pod, first.pod);
        // The duplicate entry names a running pod: it is dropped, the
        // running pod keeps its size, and acquisition falls through to a
        // cold start (the generic pool is empty).
        let next = mgr.acquire("od", Millicores::new(2000), SimTime::from_millis(40.0));
        assert_ne!(next.pod, first.pod);
        assert!(!next.warm_hit);
        assert_eq!(warm_available(&mgr, "od"), 0);
        let running = mgr.pod(first.pod).unwrap();
        assert_eq!(running.state(), PodState::Running);
        assert_eq!(running.allocation(), Millicores::new(1000));
    }

    #[test]
    fn warm_hit_rate_defaults_to_one() {
        let mgr = pool(1);
        assert_eq!(mgr.warm_hit_rate(), 1.0);
    }

    #[test]
    fn target_pool_size_follows_load_both_ways() {
        let mut mgr = pool(2);
        assert_eq!(mgr.target_pool_size(), 2);
        // Grow: new generic pods are provisioned immediately.
        mgr.set_target_pool_size(5);
        assert_eq!(mgr.target_pool_size(), 5);
        assert_eq!(mgr.generic_available(), 5);
        // Shrink: surplus generic pods terminate, warm specialised pods stay.
        let acq = mgr.acquire("od", Millicores::new(1000), SimTime::from_secs(2.0));
        mgr.release(acq.pod, SimTime::from_secs(2.5));
        mgr.set_target_pool_size(1);
        assert_eq!(mgr.generic_available(), 1);
        assert_eq!(warm_available(&mgr, "od"), 1, "specialised pod untouched");
        // Shrink-terminated generic pods are dropped from the tracking map:
        // retarget churn must not accumulate dead entries.
        assert_eq!(mgr.pods.len(), 2, "1 generic + 1 warm specialised");
        let before = mgr.pods.len();
        for _ in 0..10 {
            mgr.set_target_pool_size(5);
            mgr.set_target_pool_size(1);
        }
        assert_eq!(mgr.pods.len(), before, "oscillation leaks no pods");
        assert!(
            mgr.next_pod as usize > before,
            "creation count keeps history"
        );
        // Subsequent recycling refills to the *new* target, not the old one.
        let recycled = mgr.recycle_idle(SimTime::from_secs(300.0));
        assert_eq!(recycled, 1);
        assert_eq!(mgr.generic_available(), 1);
    }

    /// Naive reference model of the pool's contract: every table is a
    /// `Vec` searched linearly, idle times live in their own list, and each
    /// lost or expired pod is removed from every queue one by one.
    struct ModelPool {
        config: PoolConfig,
        next_pod: u64,
        generic: Vec<PodId>,
        warm: Vec<(String, Vec<PodId>)>,
        /// The model's own ids for the names its pods specialise to.
        names: FunctionNames,
        pods: Vec<Pod>,
        idle_since: Vec<(PodId, SimTime)>,
        warm_hits: u64,
        cold_starts: u64,
    }

    impl ModelPool {
        fn new(config: PoolConfig) -> Self {
            let mut model = ModelPool {
                config,
                next_pod: 0,
                generic: Vec::new(),
                warm: Vec::new(),
                names: FunctionNames::default(),
                pods: Vec::new(),
                idle_since: Vec::new(),
                warm_hits: 0,
                cold_starts: 0,
            };
            model.refill();
            model
        }

        fn pod(&self, id: PodId) -> Option<&Pod> {
            self.pods.iter().find(|p| p.id() == id)
        }

        fn new_pod(&mut self) -> PodId {
            let id = PodId(self.next_pod);
            self.next_pod += 1;
            self.pods
                .push(Pod::generic(id, self.config.initial_allocation));
            id
        }

        fn refill(&mut self) {
            while self.generic.len() < self.config.pool_size {
                let id = self.new_pod();
                self.generic.push(id);
            }
        }

        fn forget(&mut self, id: PodId) {
            self.pods.retain(|p| p.id() != id);
            self.idle_since.retain(|(p, _)| *p != id);
            for (_, queue) in &mut self.warm {
                queue.retain(|p| *p != id);
            }
        }

        fn start(&mut self, id: PodId, function: &str, allocation: Millicores) -> bool {
            let Some(pod) = self.pods.iter_mut().find(|p| p.id() == id) else {
                return false;
            };
            let ready = match pod.state() {
                PodState::Generic => pod.specialize(self.names.intern(function)).is_ok(),
                PodState::Warm => true,
                PodState::Running => false,
            };
            ready && {
                pod.resize(allocation);
                pod.start_execution().is_ok()
            }
        }

        fn acquire(&mut self, function: &str, allocation: Millicores) -> Acquisition {
            if let Some(q) = self.warm.iter().position(|(f, _)| f == function) {
                while !self.warm[q].1.is_empty() {
                    let id = self.warm[q].1.remove(0);
                    self.idle_since.retain(|(p, _)| *p != id);
                    if self.start(id, function, allocation) {
                        self.warm_hits += 1;
                        return Acquisition {
                            pod: id,
                            startup_delay: SimDuration::ZERO,
                            warm_hit: true,
                        };
                    }
                }
            }
            while !self.generic.is_empty() {
                let id = self.generic.remove(0);
                if self.start(id, function, allocation) {
                    self.warm_hits += 1;
                    return Acquisition {
                        pod: id,
                        startup_delay: self.config.specialization_delay,
                        warm_hit: true,
                    };
                }
            }
            let id = self.new_pod();
            assert!(self.start(id, function, allocation));
            self.cold_starts += 1;
            Acquisition {
                pod: id,
                startup_delay: self.config.cold_start_delay,
                warm_hit: false,
            }
        }

        fn release(&mut self, id: PodId, now: SimTime) {
            let Some(pod) = self.pods.iter_mut().find(|p| p.id() == id) else {
                return;
            };
            if pod.state() == PodState::Running {
                pod.finish_execution().unwrap();
            }
            let Some(function) = pod.function().map(|id| self.names.name(id).to_string()) else {
                return;
            };
            match self.warm.iter_mut().find(|(f, _)| *f == function) {
                Some((_, queue)) => queue.push(id),
                None => self.warm.push((function, vec![id])),
            }
            self.idle_since.retain(|(p, _)| *p != id);
            self.idle_since.push((id, now));
        }

        fn recycle_idle(&mut self, now: SimTime) -> usize {
            let cutoff = self.config.idle_recycle_after;
            let expired: Vec<PodId> = self
                .idle_since
                .iter()
                .filter(|(_, since)| now.saturating_since(*since) >= cutoff)
                .map(|(id, _)| *id)
                .collect();
            for id in &expired {
                self.forget(*id);
            }
            self.refill();
            expired.len()
        }

        fn drop_lost(&mut self, lost: &[PodId]) -> usize {
            let mut dropped = 0;
            for &id in lost {
                if self.pod(id).is_some() {
                    self.forget(id);
                    self.generic.retain(|p| *p != id);
                    dropped += 1;
                }
            }
            dropped
        }

        fn set_target_pool_size(&mut self, target: usize) {
            self.config.pool_size = target;
            while self.generic.len() > target {
                let id = self.generic.pop().unwrap();
                self.pods.retain(|p| p.id() != id);
            }
            self.refill();
        }

        fn warm_available(&self, function: &str) -> usize {
            self.warm
                .iter()
                .find(|(f, _)| f == function)
                .map_or(0, |(_, queue)| queue.len())
        }
    }

    /// Everything observable about one pod, its function resolved to a
    /// name through the `names` of the pool that tracks it.
    fn view(
        names: &FunctionNames,
        pod: Option<&Pod>,
    ) -> Option<(PodState, Millicores, Option<String>)> {
        pod.map(|p| {
            let function = p.function().map(|id| names.name(id).to_string());
            (p.state(), p.allocation(), function)
        })
    }

    #[test]
    fn random_operations_match_a_naive_reference_model() {
        use crate::rng::SimRng;
        const FUNCTIONS: [&str; 4] = ["od", "qa", "ts", "asr"];
        let config = PoolConfig {
            pool_size: 3,
            idle_recycle_after: SimDuration::from_secs(5.0),
            ..PoolConfig::default()
        };
        let mut mgr = PoolManager::new(config.clone());
        let mut model = ModelPool::new(config);
        let mut rng = SimRng::seed_from_u64(0x5EED_F00D);
        let mut now = SimTime::ZERO;
        let mut running: Vec<PodId> = Vec::new();
        let (mut recycled, mut dropped, mut stale_releases) = (0, 0, 0);
        for step in 0..10_000 {
            now += SimDuration::from_millis(rng.uniform_range(0.0, 400.0));
            // Any id issued so far, or one just past it (unknown).
            let issued = model.next_pod;
            let any_id = |rng: &mut SimRng| PodId(rng.int_range(0, issued + 1));
            let touched = match rng.int_range(0, 99) {
                0..=39 => {
                    let function = FUNCTIONS[rng.int_range(0, 3) as usize];
                    let allocation = Millicores::new(1000 + 100 * rng.int_range(0, 20) as u32);
                    let got = mgr.acquire(function, allocation, now);
                    let want = model.acquire(function, allocation);
                    assert_eq!(got, want, "acquire at step {step}");
                    running.push(got.pod);
                    got.pod
                }
                40..=74 => {
                    // Mostly finish a running pod; sometimes release an
                    // arbitrary id (idle, generic, lost or unknown).
                    let pod = if !running.is_empty() && rng.int_range(0, 9) < 8 {
                        let i = rng.int_range(0, running.len() as u64 - 1) as usize;
                        running.swap_remove(i)
                    } else {
                        stale_releases += 1;
                        any_id(&mut rng)
                    };
                    mgr.release(pod, now);
                    model.release(pod, now);
                    pod
                }
                75..=84 => {
                    let n = mgr.recycle_idle(now);
                    assert_eq!(n, model.recycle_idle(now), "recycle at step {step}");
                    recycled += n;
                    any_id(&mut rng)
                }
                85..=92 => {
                    let mut lost: Vec<PodId> =
                        (0..rng.int_range(0, 4)).map(|_| any_id(&mut rng)).collect();
                    if !running.is_empty() {
                        let i = rng.int_range(0, running.len() as u64 - 1) as usize;
                        lost.push(running.swap_remove(i));
                    }
                    let n = mgr.drop_lost(&lost);
                    assert_eq!(n, model.drop_lost(&lost), "drop_lost at step {step}");
                    dropped += n;
                    lost.first().copied().unwrap_or(PodId(0))
                }
                _ => {
                    let target = rng.int_range(0, 6) as usize;
                    mgr.set_target_pool_size(target);
                    model.set_target_pool_size(target);
                    any_id(&mut rng)
                }
            };
            assert_eq!(
                view(&mgr.functions, mgr.pod(touched)),
                view(&model.names, model.pod(touched)),
                "pod {touched} at step {step}"
            );
            assert_eq!(mgr.generic_available(), model.generic.len(), "step {step}");
            for function in FUNCTIONS {
                assert_eq!(
                    warm_available(&mgr, function),
                    model.warm_available(function),
                    "warm {function} at step {step}"
                );
            }
            assert_eq!(mgr.pods.len(), model.pods.len(), "step {step}");
            assert_eq!(mgr.next_pod, model.next_pod, "step {step}");
            assert_eq!(
                (mgr.warm_hits(), mgr.cold_starts()),
                (model.warm_hits, model.cold_starts),
                "step {step}"
            );
        }
        // The run reached every path the model pins.
        assert!(recycled > 0 && dropped > 0 && stale_releases > 0);
        assert!(mgr.warm_hits() > 0 && mgr.cold_starts() > 0);
    }

    #[test]
    fn names_and_resolved_ids_take_the_same_path() {
        use crate::rng::SimRng;
        const FUNCTIONS: [&str; 4] = ["od", "qa", "ts", "asr"];
        let config = PoolConfig {
            pool_size: 3,
            idle_recycle_after: SimDuration::from_secs(5.0),
            ..PoolConfig::default()
        };
        // One pool is driven through names, the other through ids resolved
        // up front in the reverse order, so the two number the functions
        // differently.
        let mut by_name = PoolManager::new(config.clone());
        let mut by_id = PoolManager::new(config);
        let mut ids = [FunctionId(0); 4];
        for (i, function) in FUNCTIONS.iter().enumerate().rev() {
            ids[i] = by_id.function_id(function);
        }
        assert_eq!(
            ids,
            [FunctionId(3), FunctionId(2), FunctionId(1), FunctionId(0)],
            "ids are dense, in first-seen order"
        );
        let mut rng = SimRng::seed_from_u64(0x1D50_F00D);
        let mut now = SimTime::ZERO;
        let mut running: Vec<PodId> = Vec::new();
        for step in 0..5_000 {
            now += SimDuration::from_millis(rng.uniform_range(0.0, 400.0));
            let issued = by_name.next_pod;
            let touched = match rng.int_range(0, 99) {
                0..=44 => {
                    let f = rng.int_range(0, 3) as usize;
                    let allocation = Millicores::new(1000 + 100 * rng.int_range(0, 20) as u32);
                    let got = by_name.acquire(FUNCTIONS[f], allocation, now);
                    assert_eq!(
                        got,
                        by_id.acquire_id(ids[f], allocation),
                        "acquire at step {step}"
                    );
                    running.push(got.pod);
                    got.pod
                }
                45..=79 => {
                    let pod = if !running.is_empty() && rng.int_range(0, 9) < 8 {
                        let i = rng.int_range(0, running.len() as u64 - 1) as usize;
                        running.swap_remove(i)
                    } else {
                        PodId(rng.int_range(0, issued))
                    };
                    by_name.release(pod, now);
                    by_id.release(pod, now);
                    pod
                }
                80..=89 => {
                    let n = by_name.recycle_idle(now);
                    assert_eq!(n, by_id.recycle_idle(now), "recycle at step {step}");
                    PodId(rng.int_range(0, issued))
                }
                _ => {
                    let mut lost: Vec<PodId> = (0..rng.int_range(0, 2))
                        .map(|_| PodId(rng.int_range(0, issued)))
                        .collect();
                    if !running.is_empty() {
                        let i = rng.int_range(0, running.len() as u64 - 1) as usize;
                        lost.push(running.swap_remove(i));
                    }
                    let n = by_name.drop_lost(&lost);
                    assert_eq!(n, by_id.drop_lost(&lost), "drop_lost at step {step}");
                    lost[0]
                }
            };
            assert_eq!(
                view(&by_name.functions, by_name.pod(touched)),
                view(&by_id.functions, by_id.pod(touched)),
                "pod {touched} at step {step}"
            );
            for function in FUNCTIONS {
                assert_eq!(
                    warm_available(&by_name, function),
                    warm_available(&by_id, function),
                    "step {step}"
                );
            }
            assert_eq!(by_name.generic_available(), by_id.generic_available());
            assert_eq!(by_name.pods.len(), by_id.pods.len());
            assert_eq!(
                (by_name.warm_hits(), by_name.cold_starts()),
                (by_id.warm_hits(), by_id.cold_starts()),
                "step {step}"
            );
        }
        assert!(by_id.warm_hits() > 0 && by_id.cold_starts() > 0);
        // Resolution is stable: a name keeps its id, whichever path first
        // saw it, and the name path numbered the four functions densely.
        for (f, function) in FUNCTIONS.iter().enumerate() {
            assert_eq!(by_id.function_id(function), ids[f]);
        }
        let mut seen: Vec<FunctionId> = FUNCTIONS.iter().map(|f| by_name.function_id(f)).collect();
        seen.sort();
        assert_eq!(seen, (0..4).map(FunctionId).collect::<Vec<_>>());
        assert_eq!(by_name.function_id("new"), FunctionId(4));
    }
}
