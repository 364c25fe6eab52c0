//! # gpu-sim
//!
//! A from-scratch SIMT GPU simulator used as the execution substrate for
//! G-TADOC in an environment without CUDA hardware.
//!
//! The simulator has two responsibilities:
//!
//! 1. **Functional execution.**  GPU kernels are Rust types implementing
//!    [`Kernel`]; [`Device::launch`] invokes [`Kernel::thread`] once per
//!    simulated GPU thread.  Threads observe the usual identifiers (global
//!    thread id, block id, lane id) through [`ThreadCtx`] and account every
//!    global-memory access, atomic operation, and arithmetic burst they
//!    perform.  Execution is deterministic: threads run in increasing id
//!    order, which makes simulated "atomics" trivially race-free while still
//!    exercising exactly the code the algorithms would run on a GPU (masks,
//!    lock buffers, retry loops, memory pools).
//! 2. **Performance modelling.**  Every launch aggregates the per-thread
//!    accounting into warp-level and SM-level quantities and converts them to
//!    an estimated kernel time on a concrete [`GpuSpec`] (Pascal GTX 1080,
//!    Volta V100, Turing RTX 2080 Ti presets — the three platforms of Table I)
//!    using a roofline model with SIMT lock-step execution, atomic-contention
//!    serialization, kernel-launch overhead, and PCIe transfer costs.
//!
//! The absolute times it produces are estimates, not measurements; the
//! reproduction relies on them only for the *shape* of the paper's results
//! (see the README's *Reproducing the experiments*).

#![forbid(unsafe_code)]

pub mod device;
pub mod kernel;
pub mod memory;
pub mod profiler;
pub mod spec;
pub mod transfer;

pub use device::Device;
pub use kernel::{Kernel, KernelStats, LaunchConfig, ThreadCtx};
pub use memory::DeviceBuffer;
pub use profiler::{KernelRecord, Profiler};
pub use spec::{GpuOpCosts, GpuSpec};
pub use transfer::TransferDirection;
