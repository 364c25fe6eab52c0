//! Seeded violation: the results-cache hit path growing its copies back.

#![forbid(unsafe_code)]

use std::sync::Arc;

#[derive(Clone)]
pub struct AnalyticsOutput(pub Vec<u64>);

pub struct Execution {
    pub output: Arc<AnalyticsOutput>,
}

pub fn encode_response(table: &AnalyticsOutput) -> Vec<u8> {
    table.0.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Violation 1: the hit deep-copies the cached table.
pub fn lookup(cached: &Execution) -> AnalyticsOutput {
    (*cached.output).clone()
}

/// Violation 2: every hit re-encodes the table it was handed.
pub fn answer(hit: &Execution) -> Vec<u8> {
    encode_response(&hit.output)
}

/// Allowed: sharing the table, and the annotated miss site.
pub fn miss(exec: &Execution) -> (Arc<AnalyticsOutput>, Vec<u8>) {
    // xtask-allow(copy-free-hit-path): the one site that encodes a miss.
    let bytes = encode_response(&exec.output);
    (Arc::clone(&exec.output), bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Allowed: tests may copy and encode freely.
    pub fn reference(exec: &Execution) -> (AnalyticsOutput, Vec<u8>) {
        (AnalyticsOutput::clone(&exec.output), encode_response(&exec.output))
    }
}
