//! GPU device specifications.
//!
//! The presets correspond to the three platforms of Table I in the paper:
//! Pascal (GeForce GTX 1080), Volta (Tesla V100) and Turing (GeForce RTX
//! 2080 Ti).  Figures use publicly documented values (SM counts, clocks,
//! memory bandwidths, PCIe generation).

/// Cycle cost of each abstract operation class on a GPU lane.
#[derive(Debug, Clone, Copy)]
pub struct GpuOpCosts {
    /// Cycles per arithmetic/logic operation.
    pub alu_op: f64,
    /// Additional warp-level cycles charged per global memory transaction
    /// (on top of the bandwidth roofline), reflecting issue overhead.
    pub global_access_issue: f64,
    /// Cycles per atomic operation when uncontended.
    pub atomic_op: f64,
    /// Extra serialization cycles per conflicting atomic on the same address.
    pub atomic_conflict: f64,
    /// Cycles per shared-memory access.
    pub shared_access: f64,
}

impl Default for GpuOpCosts {
    fn default() -> Self {
        Self {
            alu_op: 1.0,
            global_access_issue: 4.0,
            atomic_op: 6.0,
            atomic_conflict: 24.0,
            shared_access: 2.0,
        }
    }
}

/// Specification of a GPU device.
#[derive(Debug, Clone)]
pub struct GpuSpec {
    /// Marketing name, as in Table I.
    pub name: &'static str,
    /// Micro-architecture family ("Pascal", "Volta", "Turing").
    pub architecture: &'static str,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// CUDA cores (lanes) per SM.
    pub cores_per_sm: u32,
    /// Threads per warp (32 on every NVIDIA architecture).
    pub warp_size: u32,
    /// Maximum resident threads per SM (occupancy ceiling).
    pub max_threads_per_sm: u32,
    /// Sustained clock in GHz.
    pub clock_ghz: f64,
    /// Device memory bandwidth in GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Device memory capacity in GiB.
    pub memory_gib: f64,
    /// Device memory type, as in Table I ("GDDR5X", "HBM2", "GDDR6").
    pub memory_type: &'static str,
    /// Host↔device transfer bandwidth in GB/s (PCIe).
    pub pcie_gbs: f64,
    /// Fixed kernel-launch overhead in microseconds.
    pub kernel_launch_overhead_us: f64,
    /// Global atomic operations retired per cycle across the device.
    pub atomic_throughput_per_cycle: f64,
    /// Per-operation cycle costs.
    pub op_costs: GpuOpCosts,
}

impl GpuSpec {
    /// Pascal: GeForce GTX 1080 (Table I, "Pascal" platform).
    pub fn gtx_1080() -> Self {
        Self {
            name: "GeForce GTX 1080",
            architecture: "Pascal",
            sm_count: 20,
            cores_per_sm: 128,
            warp_size: 32,
            max_threads_per_sm: 2048,
            clock_ghz: 1.607,
            mem_bandwidth_gbs: 320.0,
            memory_gib: 8.0,
            memory_type: "GDDR5X",
            pcie_gbs: 12.0,
            kernel_launch_overhead_us: 5.0,
            atomic_throughput_per_cycle: 16.0,
            op_costs: GpuOpCosts::default(),
        }
    }

    /// Volta: Tesla V100 (Table I, "Volta" platform).
    pub fn tesla_v100() -> Self {
        Self {
            name: "Tesla V100",
            architecture: "Volta",
            sm_count: 80,
            cores_per_sm: 64,
            warp_size: 32,
            max_threads_per_sm: 2048,
            clock_ghz: 1.370,
            mem_bandwidth_gbs: 900.0,
            memory_gib: 16.0,
            memory_type: "HBM2",
            pcie_gbs: 14.0,
            kernel_launch_overhead_us: 4.0,
            atomic_throughput_per_cycle: 32.0,
            op_costs: GpuOpCosts::default(),
        }
    }

    /// Turing: GeForce RTX 2080 Ti (Table I, "Turing" platform).
    pub fn rtx_2080_ti() -> Self {
        Self {
            name: "GeForce RTX 2080 Ti",
            architecture: "Turing",
            sm_count: 68,
            cores_per_sm: 64,
            warp_size: 32,
            max_threads_per_sm: 1024,
            clock_ghz: 1.545,
            mem_bandwidth_gbs: 616.0,
            memory_gib: 11.0,
            memory_type: "GDDR6",
            pcie_gbs: 14.0,
            kernel_launch_overhead_us: 4.0,
            atomic_throughput_per_cycle: 32.0,
            op_costs: GpuOpCosts::default(),
        }
    }

    /// The three evaluation platforms in Table I order.
    pub fn all_platforms() -> Vec<GpuSpec> {
        vec![Self::gtx_1080(), Self::tesla_v100(), Self::rtx_2080_ti()]
    }

    /// Total number of scalar lanes.
    pub fn total_cores(&self) -> u32 {
        self.sm_count * self.cores_per_sm
    }

    /// Theoretical scalar throughput in operations per second.
    pub fn peak_ops_per_sec(&self) -> f64 {
        self.total_cores() as f64 * self.clock_ghz * 1e9
    }

    /// Device memory capacity in bytes.
    pub fn memory_bytes(&self) -> u64 {
        (self.memory_gib * 1024.0 * 1024.0 * 1024.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table_1() {
        let pascal = GpuSpec::gtx_1080();
        assert_eq!(pascal.architecture, "Pascal");
        assert_eq!(pascal.memory_type, "GDDR5X");
        let volta = GpuSpec::tesla_v100();
        assert_eq!(volta.architecture, "Volta");
        assert_eq!(volta.memory_type, "HBM2");
        let turing = GpuSpec::rtx_2080_ti();
        assert_eq!(turing.architecture, "Turing");
        assert_eq!(turing.memory_type, "GDDR6");
        assert_eq!(GpuSpec::all_platforms().len(), 3);
    }

    #[test]
    fn warp_size_is_32_everywhere() {
        for spec in GpuSpec::all_platforms() {
            assert_eq!(spec.warp_size, 32);
        }
    }

    #[test]
    fn derived_quantities() {
        let spec = GpuSpec::gtx_1080();
        assert_eq!(spec.total_cores(), 2560);
        assert!(spec.peak_ops_per_sec() > 4.0e12);
        assert_eq!(spec.memory_bytes(), 8 * 1024 * 1024 * 1024);
    }

    #[test]
    fn v100_has_highest_bandwidth() {
        let platforms = GpuSpec::all_platforms();
        let v100 = GpuSpec::tesla_v100();
        for p in platforms {
            assert!(p.mem_bandwidth_gbs <= v100.mem_bandwidth_gbs);
        }
    }

    #[test]
    fn gpu_vs_cpu_peak_ratio_is_large() {
        // The paper cites a ~185x peak-throughput ratio between the GTX 1080
        // and its host CPU; our specs must reproduce that order of magnitude.
        let gpu = GpuSpec::gtx_1080();
        let cpu_peak = 4.0 * 4.2e9 * 1.4; // i7-7700K model from the tadoc crate
        let ratio = gpu.peak_ops_per_sec() / cpu_peak;
        assert!(ratio > 100.0 && ratio < 400.0, "ratio = {ratio}");
    }
}
