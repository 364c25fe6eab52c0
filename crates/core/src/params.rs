//! Tunable parameters of G-TADOC and the greedy parameter-selection procedure
//! described at the end of Section IV-B ("Parameter selection").

/// Tunable parameters of the G-TADOC engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GtadocParams {
    /// A rule whose element count exceeds `large_rule_threshold ×` the average
    /// elements-per-thread gets a group of threads instead of a single thread
    /// (the paper's default is 16).
    pub large_rule_threshold: f64,
    /// Threads per block used for kernel launches.
    pub block_size: u32,
    /// Load factor of the global result hash table (entries per expected key).
    pub hash_load_factor: f64,
    /// Sequence length `l` for sequence-sensitive tasks.
    pub sequence_length: usize,
    /// Whether the input data must be staged over PCIe (the paper assumes
    /// small datasets are GPU-resident; large datasets pay transfer costs).
    pub requires_pcie_transfer: bool,
}

impl Default for GtadocParams {
    fn default() -> Self {
        Self {
            large_rule_threshold: 16.0,
            block_size: 256,
            hash_load_factor: 2.0,
            sequence_length: 3,
            requires_pcie_transfer: false,
        }
    }
}

impl GtadocParams {
    /// Greedy parameter tuning on a sample: each parameter is adjusted in turn
    /// to the candidate value minimising the score returned by `evaluate`
    /// (lower is better), mirroring the paper's greedy per-parameter strategy.
    pub fn tune<F: FnMut(&GtadocParams) -> f64>(
        sample_defaults: GtadocParams,
        mut evaluate: F,
    ) -> GtadocParams {
        let mut best = sample_defaults;
        let mut best_score = evaluate(&best);

        // Candidate grids for each tunable parameter.
        for &threshold in &[4.0, 8.0, 16.0, 32.0, 64.0] {
            let mut cand = best;
            cand.large_rule_threshold = threshold;
            let score = evaluate(&cand);
            if score < best_score {
                best_score = score;
                best = cand;
            }
        }
        for &block in &[64u32, 128, 256, 512] {
            let mut cand = best;
            cand.block_size = block;
            let score = evaluate(&cand);
            if score < best_score {
                best_score = score;
                best = cand;
            }
        }
        for &load in &[1.5, 2.0, 3.0] {
            let mut cand = best;
            cand.hash_load_factor = load;
            let score = evaluate(&cand);
            if score < best_score {
                best_score = score;
                best = cand;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = GtadocParams::default();
        assert_eq!(p.large_rule_threshold, 16.0);
        assert_eq!(p.sequence_length, 3);
        assert_eq!(p.block_size, 256);
    }

    #[test]
    fn tuning_moves_toward_lower_score() {
        // Score prefers a threshold of 8 and a block size of 128.
        let tuned = GtadocParams::tune(GtadocParams::default(), |p| {
            (p.large_rule_threshold - 8.0).abs() + (p.block_size as f64 - 128.0).abs() / 64.0
        });
        assert_eq!(tuned.large_rule_threshold, 8.0);
        assert_eq!(tuned.block_size, 128);
    }

    #[test]
    fn tuning_keeps_defaults_when_already_optimal() {
        let tuned = GtadocParams::tune(GtadocParams::default(), |p| {
            (p.large_rule_threshold - 16.0).abs() + (p.block_size as f64 - 256.0).abs()
        });
        assert_eq!(tuned.large_rule_threshold, 16.0);
        assert_eq!(tuned.block_size, 256);
    }
}
