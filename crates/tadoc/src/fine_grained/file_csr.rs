//! File-major CSR view of the per-rule file weights.
//!
//! The rule-major file weights ([`super`]'s `parallel_file_weights`) list,
//! for every rule, the files it occurs in and how often.  Term vector needs
//! the other orientation — for every **file**, the rules contributing to it
//! — so that files can be statically sharded across workers and each worker
//! only ever walks *its own files'* rules.  Earlier revisions had every
//! worker walk every rule and filter by file ownership, which multiplied the
//! rule scan by the worker count and kept term vector slower than the
//! sequential baseline on one core.  The engine builds the file-major rows
//! directly, one top-down propagation per file (`build_term_vector_prep`).
//!
//! The rows are stored in compressed sparse row (CSR) form: one flat
//! `rules`/`occs` entry array indexed by a per-file `offsets` prefix scan,
//! cache-friendly to consume because each file's entries are contiguous.

/// Per-file rule occurrences in CSR form: file `f`'s entries are
/// `rules[offsets[f]..offsets[f + 1]]` (parallel to `occs`).
///
/// ```
/// use tadoc::fine_grained::file_csr::FileCsr;
///
/// // File 0 holds rule 1 twice and rule 2 once; file 1 holds rule 2 once.
/// let csr = FileCsr::from_rows(vec![vec![(1, 2), (2, 1)], vec![(2, 1)]]);
/// assert_eq!(csr.num_files(), 2);
/// assert_eq!(csr.entries(0).collect::<Vec<_>>(), vec![(1, 2), (2, 1)]);
/// assert_eq!(csr.entries(1).collect::<Vec<_>>(), vec![(2, 1)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileCsr {
    /// Prefix scan of per-file entry counts; length `num_files + 1`.
    offsets: Vec<usize>,
    /// Rule id of each entry, grouped by file.
    rules: Vec<u32>,
    /// Occurrence count of the rule in the file, parallel to `rules`.
    occs: Vec<u64>,
}

impl FileCsr {
    /// Assembles a CSR from per-file rows (`rows[f]` = file `f`'s
    /// `(rule, occurrences)` entries) — the shape the file-parallel
    /// top-down propagation produces.
    pub fn from_rows(rows: Vec<Vec<(u32, u64)>>) -> FileCsr {
        let num_files = rows.len();
        let mut offsets = Vec::with_capacity(num_files + 1);
        offsets.push(0usize);
        let nnz: usize = rows.iter().map(Vec::len).sum();
        let mut rules = Vec::with_capacity(nnz);
        let mut occs = Vec::with_capacity(nnz);
        for row in rows {
            for (r, occ) in row {
                rules.push(r);
                occs.push(occ);
            }
            offsets.push(rules.len());
        }
        FileCsr {
            offsets,
            rules,
            occs,
        }
    }

    /// Number of files covered.
    pub fn num_files(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Iterates file `f`'s `(rule, occurrences)` entries.
    pub fn entries(&self, f: usize) -> impl Iterator<Item = (u32, u64)> + '_ {
        let range = self.offsets[f]..self.offsets[f + 1];
        self.rules[range.clone()]
            .iter()
            .copied()
            .zip(self.occs[range].iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_round_trips_through_entries() {
        let rows = vec![vec![(2u32, 1u64)], vec![], vec![(1, 5), (2, 3)]];
        let csr = FileCsr::from_rows(rows.clone());
        assert_eq!(csr.num_files(), 3);
        for (f, row) in rows.iter().enumerate() {
            assert_eq!(&csr.entries(f).collect::<Vec<_>>(), row, "file {f}");
        }
    }

    #[test]
    fn empty_inputs_produce_empty_csr() {
        assert_eq!(FileCsr::from_rows(Vec::new()).num_files(), 0);

        let csr = FileCsr::from_rows(vec![Vec::new(); 5]);
        assert_eq!(csr.num_files(), 5);
        for f in 0..5 {
            assert_eq!(csr.entries(f).count(), 0);
        }
    }
}
