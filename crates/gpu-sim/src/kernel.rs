//! Kernel launch API and per-thread accounting.
//!
//! A kernel is any type implementing [`Kernel`]; the device calls
//! [`Kernel::thread`] once per simulated GPU thread with a [`ThreadCtx`]
//! carrying the thread's identifiers and cost-accounting methods.  Kernels
//! perform their real work directly on the Rust data they hold and call the
//! accounting methods for every global access, atomic, or arithmetic burst —
//! exactly the operations a CUDA kernel would issue.

use std::collections::HashMap;

/// Kernel launch configuration (grid geometry).
#[derive(Debug, Clone, Copy)]
pub struct LaunchConfig {
    /// Total number of threads to launch.
    pub threads: u64,
    /// Threads per block.
    pub block_size: u32,
}

impl LaunchConfig {
    /// A launch with `threads` total threads and the default 256-thread block.
    pub fn with_threads(threads: u64) -> Self {
        Self {
            threads,
            block_size: 256,
        }
    }
}

/// A GPU kernel body.
pub trait Kernel {
    /// Short name used in profiler records.
    fn name(&self) -> &'static str;

    /// Executes one simulated GPU thread.
    fn thread(&mut self, ctx: &mut ThreadCtx);
}

/// Per-thread execution context: identifiers plus cost accounting.
#[derive(Debug)]
pub struct ThreadCtx {
    /// Global thread id.
    pub tid: u64,
    /// Block index.
    pub block_idx: u64,
    /// Thread index within the block.
    pub thread_idx: u32,
    /// Lane index within the warp.
    pub lane: u32,
    /// Warp size of the device.
    pub warp_size: u32,
    pub(crate) cycles: f64,
    pub(crate) global_read_bytes: u64,
    pub(crate) global_write_bytes: u64,
    pub(crate) global_transactions: u64,
    pub(crate) shared_accesses: u64,
    pub(crate) atomics: Vec<u64>,
    pub(crate) alu_ops: u64,
}

impl ThreadCtx {
    /// Creates a detached context not associated with any kernel launch.
    ///
    /// Host-side code (result extraction, tests) sometimes reuses device data
    /// structures whose methods require a `ThreadCtx` for accounting; a
    /// detached context lets that code run without a launch while discarding
    /// the accounting.
    pub fn detached() -> Self {
        Self::new(0, 1, 32)
    }

    pub(crate) fn new(tid: u64, block_size: u32, warp_size: u32) -> Self {
        let thread_idx = (tid % block_size as u64) as u32;
        Self {
            tid,
            block_idx: tid / block_size as u64,
            thread_idx,
            lane: thread_idx % warp_size,
            warp_size,
            cycles: 0.0,
            global_read_bytes: 0,
            global_write_bytes: 0,
            global_transactions: 0,
            shared_accesses: 0,
            atomics: Vec::new(),
            alu_ops: 0,
        }
    }

    /// Records `n` arithmetic/logic operations.
    #[inline]
    pub fn compute(&mut self, n: u64) {
        self.alu_ops += n;
    }

    /// Records a global-memory read of `bytes` bytes.
    #[inline]
    pub fn global_read(&mut self, bytes: u64) {
        self.global_read_bytes += bytes;
        self.global_transactions += 1;
    }

    /// Records a global-memory write of `bytes` bytes.
    #[inline]
    pub fn global_write(&mut self, bytes: u64) {
        self.global_write_bytes += bytes;
        self.global_transactions += 1;
    }

    /// Records a shared-memory access.
    #[inline]
    pub fn shared_access(&mut self) {
        self.shared_accesses += 1;
    }

    /// Records an atomic read-modify-write on a logical address.  Addresses
    /// are used only to model contention: atomics hitting the same address
    /// serialize.
    #[inline]
    pub fn atomic_rmw(&mut self, address: u64) {
        self.atomics.push(address);
        self.global_transactions += 1;
    }

    /// Total per-thread accounting cycles (excluding bandwidth/contention
    /// effects, which are modelled at warp/kernel level).
    pub(crate) fn finalize(&mut self, costs: &crate::spec::GpuOpCosts) -> ThreadAccount {
        self.cycles = self.alu_ops as f64 * costs.alu_op
            + self.global_transactions as f64 * costs.global_access_issue
            + self.shared_accesses as f64 * costs.shared_access
            + self.atomics.len() as f64 * costs.atomic_op;
        ThreadAccount {
            cycles: self.cycles,
            read_bytes: self.global_read_bytes,
            write_bytes: self.global_write_bytes,
            atomics: std::mem::take(&mut self.atomics),
        }
    }
}

/// Per-thread totals handed back to the device after a thread finishes.
#[derive(Debug, Clone, Default)]
pub(crate) struct ThreadAccount {
    pub cycles: f64,
    pub read_bytes: u64,
    pub write_bytes: u64,
    pub atomics: Vec<u64>,
}

/// Aggregated statistics of one kernel launch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelStats {
    /// Threads launched.
    pub threads: u64,
    /// Warps executed.
    pub warps: u64,
    /// Sum over warps of the slowest-lane cycle count (SIMT lock-step cost).
    pub warp_cycles: f64,
    /// Cycle count of the single slowest warp (critical path floor).
    pub max_warp_cycles: f64,
    /// Total bytes read from global memory.
    pub bytes_read: u64,
    /// Total bytes written to global memory.
    pub bytes_written: u64,
    /// Total atomic operations.
    pub atomic_ops: u64,
    /// Atomic operations beyond the first on each address (conflicts).
    pub atomic_conflicts: u64,
    /// Largest number of atomics targeting one address.
    pub max_atomic_depth: u64,
    /// Estimated execution time in seconds on the launching device.
    pub time_seconds: f64,
}

impl KernelStats {
    /// Total global traffic in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// Computes conflict statistics from a flat list of atomic target addresses.
pub(crate) fn atomic_conflict_stats(addresses: &[u64]) -> (u64, u64) {
    if addresses.is_empty() {
        return (0, 0);
    }
    let mut per_addr: HashMap<u64, u64> = HashMap::new();
    for &a in addresses {
        *per_addr.entry(a).or_insert(0) += 1;
    }
    let conflicts = addresses.len() as u64 - per_addr.len() as u64;
    let max_depth = per_addr.values().copied().max().unwrap_or(0);
    (conflicts, max_depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GpuOpCosts;

    #[test]
    fn launch_config_geometry() {
        let cfg = LaunchConfig::with_threads(1000);
        assert_eq!(cfg.threads, 1000);
        assert_eq!(cfg.block_size, 256);
    }

    #[test]
    fn thread_ctx_identifiers() {
        let ctx = ThreadCtx::new(300, 256, 32);
        assert_eq!(ctx.block_idx, 1);
        assert_eq!(ctx.thread_idx, 44);
        assert_eq!(ctx.lane, 12);
    }

    #[test]
    fn accounting_accumulates() {
        let mut ctx = ThreadCtx::new(0, 256, 32);
        ctx.compute(10);
        ctx.global_read(64);
        ctx.global_write(4);
        ctx.atomic_rmw(42);
        ctx.shared_access();
        let acct = ctx.finalize(&GpuOpCosts::default());
        assert_eq!(acct.read_bytes, 64);
        assert_eq!(acct.write_bytes, 4);
        assert_eq!(acct.atomics, vec![42]);
        assert!(acct.cycles > 10.0);
    }

    #[test]
    fn conflict_stats() {
        let (conflicts, depth) = atomic_conflict_stats(&[1, 1, 1, 2, 3]);
        assert_eq!(conflicts, 2);
        assert_eq!(depth, 3);
        assert_eq!(atomic_conflict_stats(&[]), (0, 0));
        assert_eq!(atomic_conflict_stats(&[7, 8, 9]), (0, 1));
    }
}
