//! Compressed sparse rows: variable-length rows stored back to back in one
//! column, row `r` being `data[offsets[r] .. offsets[r + 1]]`.
//!
//! The grammar's rule bodies and the DAG's edge and local-word tables all
//! take this shape, so a load allocates a handful of columns instead of one
//! vector per rule, and a device layout copies the columns as they are.

/// Rows of `T` stored back to back behind a `u32` offset column.
///
/// Always holds at least the leading `0` offset, so `offsets().len()` is
/// `num_rows() + 1` and the last offset is `data().len()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr<T> {
    offsets: Vec<u32>,
    data: Vec<T>,
}

impl<T> Csr<T> {
    /// An empty table with room for `rows` rows and `elements` elements.
    pub(crate) fn with_capacity(rows: usize, elements: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self {
            offsets,
            data: Vec::with_capacity(elements),
        }
    }

    /// Builds a table from its columns: `offsets` starts at 0, never
    /// decreases and ends at `data.len()`.
    pub(crate) fn from_parts(offsets: Vec<u32>, data: Vec<T>) -> Self {
        debug_assert_eq!(offsets.first(), Some(&0));
        debug_assert_eq!(offsets.last().map(|&o| o as usize), Some(data.len()));
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Self { offsets, data }
    }

    /// Appends one element to the row under construction.
    #[inline]
    pub(crate) fn push(&mut self, value: T) {
        self.data.push(value);
    }

    /// Closes the row under construction: everything pushed since the last
    /// call becomes the next row.
    ///
    /// # Panics
    /// Panics if the table outgrows the `u32` offset column.
    #[inline]
    pub(crate) fn end_row(&mut self) {
        let end =
            u32::try_from(self.data.len()).expect("a CSR table holds at most u32::MAX elements");
        self.offsets.push(end);
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row `r`.
    ///
    /// # Panics
    /// Panics if `r >= num_rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// Every row, in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[T]> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.data[w[0] as usize..w[1] as usize])
    }

    /// The offset column (`num_rows() + 1` entries, starting at 0).
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The data column: every row, concatenated.
    #[inline]
    pub fn data(&self) -> &[T] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_slices_of_one_column() {
        let mut t = Csr::with_capacity(3, 3);
        t.push(1u32);
        t.push(2);
        t.end_row();
        t.end_row();
        t.push(3);
        t.end_row();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.row(0), &[1, 2]);
        assert!(t.row(1).is_empty());
        assert_eq!(t.row(2), &[3]);
        assert_eq!(t.offsets(), &[0, 2, 2, 3]);
        assert_eq!(t.rows().collect::<Vec<_>>(), vec![&[1, 2][..], &[], &[3]]);
        assert_eq!(t, Csr::from_parts(vec![0, 2, 2, 3], vec![1, 2, 3]));
    }
}
