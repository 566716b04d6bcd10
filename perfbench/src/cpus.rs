//! Pinning the serving thread to each allowed CPU in turn.
//!
//! On a shared virtual machine each virtual CPU is slowed by whatever else
//! runs on its physical core, and the cores' slow stretches come and go
//! independently. A policy's serving run is timed against the reference
//! kernel run just before it on the same CPU, so the thread must not move
//! in between; serving each policy on the next CPU in turn also gives every
//! policy samples on every CPU.

use crate::reference::reference_s;

/// `cpu_set_t` of glibc: a bit mask over 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

fn set_affinity(mask: &CpuSet) -> Result<(), String> {
    // SAFETY: `mask` is a valid `cpu_set_t` of the size passed, which the
    // call only reads; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// The CPUs the process may run on, handed out round-robin.
#[derive(Debug)]
pub struct CpuRotation {
    allowed: CpuSet,
    cpus: Vec<usize>,
    next: usize,
}

impl CpuRotation {
    /// The calling thread's allowed CPUs.
    pub fn new() -> Result<Self, String> {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a valid, writable `cpu_set_t` of the size
        // passed, and the call writes only into it.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) };
        if rc != 0 {
            return Err(format!(
                "sched_getaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        let cpus = (0..allowed.len() * 64)
            .filter(|cpu| allowed[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect();
        Ok(CpuRotation {
            allowed,
            cpus,
            next: 0,
        })
    }

    /// Let the next [`pin_next`](Self::pin_next) take the CPU of turn
    /// `turn`. Starting round `r` at turn `r` moves every policy to the
    /// next CPU from one round to the next, whatever the number of policies.
    pub fn start_at(&mut self, turn: usize) {
        self.next = turn;
    }

    /// Pin the calling thread to the CPU whose turn it is.
    pub fn pin_next(&mut self) -> Result<(), String> {
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        let mut mask: CpuSet = [0; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        set_affinity(&mask)
    }

    /// Let the calling thread, and the threads it starts, run on every
    /// allowed CPU again.
    pub fn unpin(&self) -> Result<(), String> {
        set_affinity(&self.allowed)
    }

    /// Mean seconds of the reference kernel over one run on each allowed
    /// CPU, for timing work that runs on all of them. Leaves the thread
    /// unpinned.
    pub fn reference_on_each(&mut self) -> Result<f64, String> {
        let mut total = 0.0;
        for _ in 0..self.cpus.len() {
            self.pin_next()?;
            total += reference_s();
        }
        self.unpin()?;
        Ok(total / self.cpus.len() as f64)
    }
}
