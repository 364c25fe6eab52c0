//! Analytic CPU and cluster cost models.
//!
//! The paper evaluates TADOC on three CPUs (i7-7700K, E5-2670, i9-9900K) and
//! on a 10-node Amazon EC2 Spark cluster.  This reproduction has neither, so
//! the experiment harness estimates execution time from the abstract
//! [`WorkStats`] recorded while running the algorithms, converted to seconds
//! through the public specifications of those platforms.  The model is a
//! simple roofline: execution time is the maximum of the compute time and the
//! memory time, plus fixed per-phase overheads; the cluster model adds
//! partition startup and shuffle costs, which is what makes distributed TADOC
//! only moderately faster than single-node TADOC on dataset C (and therefore
//! only ~2.7× slower than G-TADOC, versus 57.5× for single-node CPUs — the
//! paper's Section VI-B observation).

use crate::timing::WorkStats;

/// Cycle cost of each abstract operation class on a scalar CPU core.
#[derive(Debug, Clone, Copy)]
pub struct CpuOpCosts {
    /// Cycles to scan one grammar element.
    pub element_scan: f64,
    /// Cycles for one hash-table operation.
    pub table_op: f64,
    /// Cycles to emit one word into an output/intermediate stream.
    pub word_emit: f64,
    /// Cycles per synchronization operation.
    pub sync_op: f64,
}

impl Default for CpuOpCosts {
    fn default() -> Self {
        Self {
            element_scan: 6.0,
            table_op: 28.0,
            word_emit: 8.0,
            sync_op: 40.0,
        }
    }
}

/// Specification of a CPU platform.
#[derive(Debug, Clone)]
pub struct CpuSpec {
    /// Marketing name (matches Table I).
    pub name: &'static str,
    /// Physical cores.
    pub cores: u32,
    /// Sustained clock in GHz.
    pub clock_ghz: f64,
    /// Memory bandwidth in GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Scalar operations retired per cycle per core (ILP factor).
    pub ops_per_cycle: f64,
    /// Per-op cycle costs.
    pub op_costs: CpuOpCosts,
}

impl CpuSpec {
    /// Intel i7-7700K — paired with the Pascal GPU in Table I.
    pub fn i7_7700k() -> Self {
        Self {
            name: "Intel i7-7700K",
            cores: 4,
            clock_ghz: 4.2,
            mem_bandwidth_gbs: 38.4,
            ops_per_cycle: 1.4,
            op_costs: CpuOpCosts::default(),
        }
    }

    /// Intel Xeon E5-2670 — paired with the Volta GPU in Table I.
    pub fn e5_2670() -> Self {
        Self {
            name: "Intel Xeon E5-2670",
            cores: 8,
            clock_ghz: 2.6,
            mem_bandwidth_gbs: 51.2,
            ops_per_cycle: 1.2,
            op_costs: CpuOpCosts::default(),
        }
    }

    /// Intel i9-9900K — paired with the Turing GPU in Table I.
    pub fn i9_9900k() -> Self {
        Self {
            name: "Intel i9-9900K",
            cores: 8,
            clock_ghz: 3.6,
            mem_bandwidth_gbs: 41.6,
            ops_per_cycle: 1.5,
            op_costs: CpuOpCosts::default(),
        }
    }

    /// Xeon E5-2676v3 — the per-node CPU of the 10-node EC2 cluster.
    pub fn e5_2676v3() -> Self {
        Self {
            name: "Intel Xeon E5-2676v3",
            cores: 8,
            clock_ghz: 2.4,
            mem_bandwidth_gbs: 55.0,
            ops_per_cycle: 1.2,
            op_costs: CpuOpCosts::default(),
        }
    }

    /// Estimated execution time of `work` using `threads` threads.
    ///
    /// TADOC's sequential baseline uses one thread; the coarse-grained
    /// parallel variant uses one thread per file partition.
    pub fn estimate_seconds(&self, work: &WorkStats, threads: u32) -> f64 {
        let c = &self.op_costs;
        let cycles = work.elements_scanned as f64 * c.element_scan
            + work.table_ops as f64 * c.table_op
            + work.words_emitted as f64 * c.word_emit
            + work.sync_ops as f64 * c.sync_op;
        let active = threads.min(self.cores).max(1) as f64;
        let compute_s = cycles / (self.clock_ghz * 1e9 * self.ops_per_cycle * active);
        let memory_s = work.bytes_moved as f64 / (self.mem_bandwidth_gbs * 1e9);
        compute_s.max(memory_s)
    }
}

/// Specification of a distributed (Spark-style) cluster.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// Number of worker nodes.
    pub nodes: u32,
    /// Per-node CPU.
    pub node_cpu: CpuSpec,
    /// Aggregate network bandwidth per node in GB/s.
    pub network_gbs: f64,
    /// Fixed job/stage startup overhead in seconds.
    pub startup_overhead_s: f64,
    /// Fraction of intermediate bytes that must be exchanged between nodes
    /// during the merge step.
    pub shuffle_fraction: f64,
}

impl ClusterSpec {
    /// The 10-node Amazon EC2 Spark cluster of Table I.
    ///
    /// The fixed startup overhead is kept small so that the model reflects
    /// steady-state query time rather than Spark job submission; the dominant
    /// distributed costs are the per-partition compute and the shuffle of
    /// intermediate tables between nodes, which is what keeps the cluster
    /// only moderately faster than a single node in the paper.
    pub fn ec2_10_node() -> Self {
        Self {
            name: "10-node EC2 Spark cluster",
            nodes: 10,
            node_cpu: CpuSpec::e5_2676v3(),
            network_gbs: 1.25, // 10 Gb/s Ethernet
            startup_overhead_s: 0.002,
            shuffle_fraction: 0.6,
        }
    }

    /// Estimated execution time of `work` distributed across the cluster with
    /// coarse-grained (per-partition) parallelism.
    pub fn estimate_seconds(&self, work: &WorkStats) -> f64 {
        // Each node receives roughly 1/nodes of the work and runs it with all
        // of its cores (coarse-grained parallelism inside the node).
        let per_node = WorkStats {
            elements_scanned: work.elements_scanned / self.nodes as u64,
            table_ops: work.table_ops / self.nodes as u64,
            words_emitted: work.words_emitted / self.nodes as u64,
            bytes_moved: work.bytes_moved / self.nodes as u64,
            sync_ops: work.sync_ops / self.nodes as u64,
        };
        let compute = self
            .node_cpu
            .estimate_seconds(&per_node, self.node_cpu.cores);
        let shuffle_bytes = work.bytes_moved as f64 * self.shuffle_fraction;
        let shuffle = shuffle_bytes / (self.network_gbs * 1e9 * self.nodes as f64);
        self.startup_overhead_s + compute + shuffle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_work() -> WorkStats {
        WorkStats {
            elements_scanned: 50_000_000,
            table_ops: 20_000_000,
            words_emitted: 5_000_000,
            bytes_moved: 400_000_000,
            sync_ops: 0,
        }
    }

    #[test]
    fn faster_cpu_estimates_lower_time() {
        let work = sample_work();
        let slow = CpuSpec::e5_2670().estimate_seconds(&work, 1);
        let fast = CpuSpec::i9_9900k().estimate_seconds(&work, 1);
        assert!(fast < slow);
        assert!(fast > 0.0);
    }

    #[test]
    fn more_threads_never_slower() {
        let work = sample_work();
        let spec = CpuSpec::i9_9900k();
        let t1 = spec.estimate_seconds(&work, 1);
        let t4 = spec.estimate_seconds(&work, 4);
        let t64 = spec.estimate_seconds(&work, 64);
        assert!(t4 <= t1);
        assert!(t64 <= t4, "threads are capped at physical cores");
    }

    #[test]
    fn more_work_costs_more_time() {
        let spec = CpuSpec::i7_7700k();
        let small = spec.estimate_seconds(&sample_work(), 1);
        let mut big_work = sample_work();
        big_work.table_ops *= 10;
        let big = spec.estimate_seconds(&big_work, 1);
        assert!(big > small);
    }

    #[test]
    fn cluster_has_startup_floor() {
        let cluster = ClusterSpec::ec2_10_node();
        let tiny = WorkStats {
            elements_scanned: 10,
            ..Default::default()
        };
        assert!(cluster.estimate_seconds(&tiny) >= cluster.startup_overhead_s);
    }

    #[test]
    fn cluster_beats_single_node_on_huge_work() {
        let mut huge = sample_work();
        huge.elements_scanned *= 200;
        huge.table_ops *= 200;
        huge.bytes_moved *= 200;
        let cluster = ClusterSpec::ec2_10_node();
        let single = CpuSpec::e5_2676v3().estimate_seconds(&huge, 8);
        assert!(cluster.estimate_seconds(&huge) < single);
    }

    #[test]
    fn throughput_scales_with_threads_up_to_core_count() {
        let spec = CpuSpec::i7_7700k();
        // Compute-bound work, so the thread count sets the time.
        let work = WorkStats {
            bytes_moved: 0,
            ..sample_work()
        };
        let t1 = spec.estimate_seconds(&work, 1);
        assert_eq!(spec.estimate_seconds(&work, 2), t1 / 2.0);
        assert_eq!(spec.estimate_seconds(&work, 4), t1 / 4.0);
        assert_eq!(spec.estimate_seconds(&work, 16), t1 / 4.0, "4 cores");
    }
}
