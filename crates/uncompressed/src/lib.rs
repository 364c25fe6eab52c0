//! # uncompressed
//!
//! The GPU baseline that processes the *decompressed* token streams
//! directly: [`gpu`] runs the tasks on the `gpu-sim` substrate, the
//! comparator of Section VI-E ("Comparison with GPU-accelerated
//! uncompressed analytics", where G-TADOC is reported ~2× faster).  Its
//! answers come from `tadoc::oracle::run`, which is also the CPU
//! uncompressed baseline and the ground truth every test checks against.

#![forbid(unsafe_code)]

pub mod gpu;

pub use gpu::run_gpu_uncompressed;
