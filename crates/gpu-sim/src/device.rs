//! The simulated GPU device: kernel launching, the roofline cost model, and
//! device-memory capacity tracking.

use crate::kernel::{atomic_conflict_stats, Kernel, KernelStats, LaunchConfig, ThreadCtx};
use crate::memory::DeviceBuffer;
use crate::profiler::Profiler;
use crate::spec::GpuSpec;
use crate::transfer::TransferDirection;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A simulated GPU device.
#[derive(Debug)]
pub struct Device {
    spec: GpuSpec,
    profiler: Profiler,
    mem_used: Arc<AtomicU64>,
}

impl Device {
    /// Creates a device with the given specification.
    pub fn new(spec: GpuSpec) -> Self {
        Self {
            spec,
            profiler: Profiler::new(),
            mem_used: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The device specification.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// The launch/transfer profile accumulated so far.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Clears the accumulated profile (device memory tracking is preserved).
    pub fn reset_profiler(&mut self) {
        self.profiler = Profiler::new();
    }

    /// Bytes of device memory currently allocated.
    pub fn memory_used(&self) -> u64 {
        self.mem_used.load(Ordering::Relaxed)
    }

    /// Allocates a zero-initialised device buffer of `len` elements.
    ///
    /// # Panics
    /// Panics if the allocation would exceed the device's memory capacity —
    /// the "GPU memory is limited" constraint the paper discusses.
    pub fn alloc<T: Clone + Default>(&self, len: usize) -> DeviceBuffer<T> {
        self.alloc_with(len, T::default())
    }

    /// Allocates a device buffer of `len` copies of `value`.
    pub fn alloc_with<T: Clone>(&self, len: usize, value: T) -> DeviceBuffer<T> {
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        let new_total = self.mem_used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        assert!(
            new_total <= self.spec.memory_bytes(),
            "device out of memory: {} + {} bytes exceeds {} ({})",
            new_total - bytes,
            bytes,
            self.spec.memory_bytes(),
            self.spec.name
        );
        DeviceBuffer::new(vec![value; len], Arc::clone(&self.mem_used))
    }

    /// Launches `kernel` with `cfg`, executing every simulated thread and
    /// returning the modelled launch statistics.
    pub fn launch<K: Kernel>(&mut self, cfg: LaunchConfig, kernel: &mut K) -> KernelStats {
        let warp_size = self.spec.warp_size as u64;
        let mut stats = KernelStats {
            threads: cfg.threads,
            ..Default::default()
        };
        let mut atomics: Vec<u64> = Vec::new();
        let mut warp_max_cycles = 0.0f64;
        let mut lanes_in_warp = 0u64;

        for tid in 0..cfg.threads {
            let mut ctx = ThreadCtx::new(tid, cfg.block_size, self.spec.warp_size);
            kernel.thread(&mut ctx);
            let acct = ctx.finalize(&self.spec.op_costs);
            stats.bytes_read += acct.read_bytes;
            stats.bytes_written += acct.write_bytes;
            atomics.extend(acct.atomics);
            warp_max_cycles = warp_max_cycles.max(acct.cycles);
            lanes_in_warp += 1;
            // Warp boundary: SIMT lock-step means the warp costs its slowest
            // lane; partial warps at the end of a block still occupy a warp.
            let end_of_warp = lanes_in_warp == warp_size
                || tid + 1 == cfg.threads
                || (tid + 1) % cfg.block_size as u64 == 0;
            if end_of_warp {
                stats.warps += 1;
                stats.warp_cycles += warp_max_cycles;
                stats.max_warp_cycles = stats.max_warp_cycles.max(warp_max_cycles);
                warp_max_cycles = 0.0;
                lanes_in_warp = 0;
            }
        }

        let (conflicts, max_depth) = atomic_conflict_stats(&atomics);
        stats.atomic_ops = atomics.len() as u64;
        stats.atomic_conflicts = conflicts;
        stats.max_atomic_depth = max_depth;
        stats.time_seconds = self.model_time(&stats);
        self.profiler.record_kernel(kernel.name(), &stats);
        stats
    }

    /// Models a host↔device transfer of `bytes` bytes over PCIe.
    pub fn transfer(&mut self, direction: TransferDirection, bytes: u64) -> f64 {
        let seconds = bytes as f64 / (self.spec.pcie_gbs * 1e9) + 10e-6;
        self.profiler.record_transfer(direction, bytes, seconds);
        seconds
    }

    /// Roofline time model for one kernel launch.
    fn model_time(&self, stats: &KernelStats) -> f64 {
        let spec = &self.spec;
        let clock_hz = spec.clock_ghz * 1e9;

        // Compute: warps occupy lanes for their slowest-lane duration; the
        // device retires `total_cores` lane-cycles per cycle.  A single warp
        // cannot finish faster than its own cycle count (critical path).
        let lane_cycles = stats.warp_cycles * spec.warp_size as f64;
        let throughput_cycles = lane_cycles / spec.total_cores() as f64;
        let compute_cycles = throughput_cycles.max(stats.max_warp_cycles);
        let compute_s = compute_cycles / clock_hz;

        // Memory: bandwidth roofline over all global traffic.
        let memory_s = stats.total_bytes() as f64 / (spec.mem_bandwidth_gbs * 1e9);

        // Atomics: device-wide throughput plus serialization on the hottest
        // address (conflicting atomics retire one at a time).
        let atomic_throughput_s =
            stats.atomic_ops as f64 / (spec.atomic_throughput_per_cycle * clock_hz);
        let atomic_serial_s =
            stats.max_atomic_depth as f64 * spec.op_costs.atomic_conflict / clock_hz;
        let atomic_s = atomic_throughput_s + atomic_serial_s;

        let launch_s = spec.kernel_launch_overhead_us * 1e-6;
        compute_s.max(memory_s).max(atomic_s) + launch_s
    }

    /// Total modelled device time (kernels + transfers) so far.
    pub fn total_time_seconds(&self) -> f64 {
        self.profiler.total_time_seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A kernel where each thread adds its id into a private slot.
    struct FillKernel {
        out: Vec<u64>,
    }

    impl Kernel for FillKernel {
        fn name(&self) -> &'static str {
            "fill"
        }
        fn thread(&mut self, ctx: &mut ThreadCtx) {
            let tid = ctx.tid as usize;
            if tid < self.out.len() {
                self.out[tid] = ctx.tid * 2;
                ctx.compute(1);
                ctx.global_write(8);
            }
        }
    }

    /// A kernel where every thread atomically increments one shared counter.
    struct ContendedKernel {
        counter: u64,
    }

    impl Kernel for ContendedKernel {
        fn name(&self) -> &'static str {
            "contended"
        }
        fn thread(&mut self, ctx: &mut ThreadCtx) {
            self.counter += 1;
            ctx.atomic_rmw(0);
        }
    }

    /// Same as above but each thread hits its own address.
    struct UncontendedKernel {
        counters: Vec<u64>,
    }

    impl Kernel for UncontendedKernel {
        fn name(&self) -> &'static str {
            "uncontended"
        }
        fn thread(&mut self, ctx: &mut ThreadCtx) {
            let tid = ctx.tid as usize;
            self.counters[tid] += 1;
            ctx.atomic_rmw(ctx.tid);
        }
    }

    #[test]
    fn functional_execution_runs_every_thread() {
        let mut device = Device::new(GpuSpec::gtx_1080());
        let mut k = FillKernel { out: vec![0; 1000] };
        let stats = device.launch(LaunchConfig::with_threads(1000), &mut k);
        assert_eq!(stats.threads, 1000);
        assert!(stats.warps >= 1000 / 32);
        assert_eq!(k.out[999], 1998);
        assert_eq!(stats.bytes_written, 8 * 1000);
        assert!(stats.time_seconds > 0.0);
    }

    #[test]
    fn contended_atomics_cost_more_than_uncontended() {
        let mut device = Device::new(GpuSpec::gtx_1080());
        let n = 4096u64;
        let contended = device.launch(
            LaunchConfig::with_threads(n),
            &mut ContendedKernel { counter: 0 },
        );
        let uncontended = device.launch(
            LaunchConfig::with_threads(n),
            &mut UncontendedKernel {
                counters: vec![0; n as usize],
            },
        );
        assert_eq!(contended.atomic_ops, n);
        assert_eq!(contended.atomic_conflicts, n - 1);
        assert_eq!(uncontended.atomic_conflicts, 0);
        assert!(
            contended.time_seconds > uncontended.time_seconds,
            "conflicting atomics must be modelled as slower"
        );
    }

    #[test]
    fn faster_device_estimates_lower_time() {
        let run = |spec: GpuSpec| {
            let mut device = Device::new(spec);
            let mut k = FillKernel {
                out: vec![0; 200_000],
            };
            device
                .launch(LaunchConfig::with_threads(200_000), &mut k)
                .time_seconds
        };
        let pascal = run(GpuSpec::gtx_1080());
        let volta = run(GpuSpec::tesla_v100());
        assert!(volta <= pascal, "V100 should not be slower than GTX 1080");
    }

    #[test]
    fn memory_allocation_is_tracked_and_bounded() {
        let device = Device::new(GpuSpec::gtx_1080());
        assert_eq!(device.memory_used(), 0);
        let buf = device.alloc::<u64>(1024);
        assert_eq!(device.memory_used(), 8 * 1024);
        drop(buf);
        assert_eq!(device.memory_used(), 0);
    }

    #[test]
    #[should_panic(expected = "device out of memory")]
    fn over_allocation_panics() {
        let device = Device::new(GpuSpec::gtx_1080());
        // 8 GiB of u64 is 64 GiB > capacity.
        let _buf = device.alloc::<u64>(8 * 1024 * 1024 * 1024);
    }

    #[test]
    fn transfers_are_modelled_and_recorded() {
        let mut device = Device::new(GpuSpec::tesla_v100());
        let t = device.transfer(TransferDirection::HostToDevice, 1_000_000_000);
        assert!(t > 0.05 && t < 0.2, "1 GB over ~14 GB/s PCIe, got {t}");
        assert_eq!(device.profiler().transfers().len(), 1);
        assert!(device.total_time_seconds() >= t);
    }

    #[test]
    fn profiler_accumulates_and_resets() {
        let mut device = Device::new(GpuSpec::gtx_1080());
        let mut k = FillKernel { out: vec![0; 64] };
        device.launch(LaunchConfig::with_threads(64), &mut k);
        device.launch(LaunchConfig::with_threads(64), &mut k);
        assert_eq!(device.profiler().kernels().len(), 2);
        device.reset_profiler();
        assert_eq!(device.profiler().kernels().len(), 0);
    }

    #[test]
    fn empty_launch_is_harmless() {
        let mut device = Device::new(GpuSpec::gtx_1080());
        let mut k = FillKernel { out: vec![] };
        let stats = device.launch(LaunchConfig::with_threads(0), &mut k);
        assert_eq!(stats.warps, 0);
        assert_eq!(stats.threads, 0);
    }
}
