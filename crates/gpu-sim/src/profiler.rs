//! Launch and transfer profiling.
//!
//! The profiler records every kernel launch and PCIe transfer issued on a
//! [`crate::Device`], so the experiment harness can attribute modelled time to
//! phases (initialization vs. traversal) and report per-kernel breakdowns.

use crate::kernel::KernelStats;
use crate::transfer::{TransferDirection, TransferRecord};

/// One recorded kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRecord {
    /// Kernel name.
    pub name: &'static str,
    /// Launch statistics (including modelled time).
    pub stats: KernelStats,
}

/// Accumulated device activity.
#[derive(Debug, Default)]
pub struct Profiler {
    kernels: Vec<KernelRecord>,
    transfers: Vec<TransferRecord>,
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_kernel(&mut self, name: &'static str, stats: &KernelStats) {
        self.kernels.push(KernelRecord {
            name,
            stats: stats.clone(),
        });
    }

    pub(crate) fn record_transfer(
        &mut self,
        direction: TransferDirection,
        bytes: u64,
        seconds: f64,
    ) {
        self.transfers.push(TransferRecord {
            direction,
            bytes,
            seconds,
        });
    }

    /// All kernel launches in issue order.
    pub fn kernels(&self) -> &[KernelRecord] {
        &self.kernels
    }

    /// All transfers in issue order.
    pub fn transfers(&self) -> &[TransferRecord] {
        &self.transfers
    }

    /// Total modelled kernel time in seconds.
    pub fn kernel_time_seconds(&self) -> f64 {
        self.kernels.iter().map(|k| k.stats.time_seconds).sum()
    }

    /// Total modelled transfer time in seconds.
    pub fn transfer_time_seconds(&self) -> f64 {
        self.transfers.iter().map(|t| t.seconds).sum()
    }

    /// Total modelled device time (kernels + transfers).
    pub fn total_time_seconds(&self) -> f64 {
        self.kernel_time_seconds() + self.transfer_time_seconds()
    }

    /// Number of kernel launches.
    pub fn num_launches(&self) -> usize {
        self.kernels.len()
    }

    /// Total global-memory traffic in bytes across all launches.
    pub fn total_bytes(&self) -> u64 {
        self.kernels.iter().map(|k| k.stats.total_bytes()).sum()
    }

    /// Renders a human-readable per-kernel summary.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "kernel                          launches    time(ms)    atomics      bytes\n",
        );
        // Aggregate by kernel name, preserving first-seen order.
        let mut names: Vec<&'static str> = Vec::new();
        for k in &self.kernels {
            if !names.contains(&k.name) {
                names.push(k.name);
            }
        }
        for name in names {
            let (mut launches, mut time, mut atomics, mut bytes) = (0u64, 0.0f64, 0u64, 0u64);
            for k in self.kernels.iter().filter(|k| k.name == name) {
                launches += 1;
                time += k.stats.time_seconds;
                atomics += k.stats.atomic_ops;
                bytes += k.stats.total_bytes();
            }
            out.push_str(&format!(
                "{name:<32}{launches:>8}{:>12.3}{atomics:>11}{bytes:>11}\n",
                time * 1e3
            ));
        }
        out.push_str(&format!(
            "total modelled device time: {:.3} ms\n",
            self.total_time_seconds() * 1e3
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(t: f64, atomics: u64) -> KernelStats {
        KernelStats {
            threads: 10,
            time_seconds: t,
            atomic_ops: atomics,
            bytes_read: 100,
            bytes_written: 50,
            ..Default::default()
        }
    }

    #[test]
    fn accumulates_kernels_and_transfers() {
        let mut p = Profiler::new();
        p.record_kernel("a", &stats(0.001, 5));
        p.record_kernel("a", &stats(0.002, 3));
        p.record_kernel("b", &stats(0.004, 0));
        p.record_transfer(TransferDirection::HostToDevice, 1000, 0.01);
        assert_eq!(p.num_launches(), 3);
        assert_eq!(p.total_bytes(), 450);
        assert!((p.kernel_time_seconds() - 0.007).abs() < 1e-12);
        assert!((p.total_time_seconds() - 0.017).abs() < 1e-12);
    }

    #[test]
    fn report_groups_by_kernel_name() {
        let mut p = Profiler::new();
        p.record_kernel("topDownKernel", &stats(0.001, 1));
        p.record_kernel("topDownKernel", &stats(0.001, 1));
        p.record_kernel("reduceResultKernel", &stats(0.002, 0));
        let report = p.report();
        assert!(report.contains("topDownKernel"));
        assert!(report.contains("reduceResultKernel"));
        assert!(report.contains("total modelled device time"));
        // topDownKernel appears once as an aggregated row.
        assert_eq!(report.matches("topDownKernel").count(), 1);
    }

    #[test]
    fn empty_profiler() {
        let p = Profiler::new();
        assert_eq!(p.num_launches(), 0);
        assert_eq!(p.total_time_seconds(), 0.0);
        assert!(p.report().contains("total modelled device time"));
    }
}
