//! Compressed sparse rows: variable-length rows stored back to back in one
//! column, row `r` being `data[offsets[r] .. offsets[r + 1]]`.
//!
//! The grammar's rule bodies, the DAG's edge and local-word tables and the
//! rows of every analytics posting table (`tadoc::results::PostingTable`)
//! all take this shape, so a load allocates a handful of columns instead of
//! one vector per row, and a device layout copies the columns as they are.

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
    /// Fill it row by row with [`push`](Self::push) and
    /// [`end_row`](Self::end_row).
    pub fn with_capacity(rows: usize, elements: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self {
            offsets,
            data: Vec::with_capacity(elements),
        }
    }

    /// The table of `rows`, in order, at exactly its size.
    pub fn from_rows(rows: Vec<Vec<T>>) -> Self {
        let mut table = Self::with_capacity(rows.len(), rows.iter().map(Vec::len).sum());
        for row in rows {
            table.data.extend(row);
            table.end_row();
        }
        table
    }

    /// Builds a table from its columns: `offsets` starts at 0, never
    /// decreases and ends at `data.len()`.
    pub fn from_parts(offsets: Vec<u32>, data: Vec<T>) -> Self {
        debug_assert_eq!(offsets.first(), Some(&0));
        debug_assert_eq!(offsets.last().map(|&o| o as usize), Some(data.len()));
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Self { offsets, data }
    }

    /// Appends one element to the row under construction.
    #[inline]
    pub fn push(&mut self, value: T) {
        self.data.push(value);
    }

    /// Closes the row under construction: everything pushed since the last
    /// call becomes the next row.
    ///
    /// # Panics
    /// Panics if the table outgrows the `u32` offset column.
    #[inline]
    pub fn end_row(&mut self) {
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

    /// The `(length, capacity)` of the offset and data columns: a table
    /// built at its exact size holds no spare room.
    pub fn capacities(&self) -> [(usize, usize); 2] {
        [
            (self.offsets.len(), self.offsets.capacity()),
            (self.data.len(), self.data.capacity()),
        ]
    }
}

impl<V: Copy + Default> Csr<(u32, V)> {
    /// The transpose of a table of `(column, value)` rows over `columns`
    /// columns: row `c` of the result holds `(row, value)` for every entry
    /// of column `c`, in ascending row order.  A counting sort: one pass
    /// counts each column's entries, a second scatters them.
    ///
    /// ```
    /// use sequitur::Csr;
    ///
    /// // Row 0 holds column 2, then column 0; row 1 holds column 2.
    /// let mut t = Csr::with_capacity(2, 3);
    /// t.push((2, 'a'));
    /// t.push((0, 'b'));
    /// t.end_row();
    /// t.push((2, 'c'));
    /// t.end_row();
    /// let tt = t.transpose(3);
    /// assert_eq!(tt.rows().collect::<Vec<_>>(), vec![&[(0, 'b')][..], &[], &[(0, 'a'), (1, 'c')]]);
    /// ```
    ///
    /// # Panics
    /// Panics if an entry's column is `columns` or more, or if the table
    /// has more than `u32::MAX` rows.
    pub fn transpose(&self, columns: usize) -> Self {
        let mut offsets = vec![0u32; columns + 1];
        for &(c, _) in &self.data {
            offsets[c as usize + 1] += 1;
        }
        for c in 0..columns {
            offsets[c + 1] += offsets[c];
        }
        let mut cursor = offsets[..columns].to_vec();
        let mut data = vec![(0, V::default()); self.data.len()];
        for (r, row) in self.rows().enumerate() {
            let r = u32::try_from(r).expect("a transposed CSR table has at most u32::MAX rows");
            for &(c, value) in row {
                let at = &mut cursor[c as usize];
                data[*at as usize] = (r, value);
                *at += 1;
            }
        }
        Self { offsets, data }
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

    /// `rows` as a table.
    fn table(rows: &[&[(u32, u64)]]) -> Csr<(u32, u64)> {
        let mut t = Csr::with_capacity(rows.len(), 0);
        for row in rows {
            for &entry in *row {
                t.push(entry);
            }
            t.end_row();
        }
        t
    }

    /// Rows list their columns out of order; row 2 and column 1 are empty.
    fn unsorted() -> Csr<(u32, u64)> {
        table(&[
            &[(3, 10), (0, 11)],
            &[(2, 12), (0, 13), (3, 14)],
            &[],
            &[(2, 15)],
        ])
    }

    #[test]
    fn transpose_rows_come_out_sorted_by_column() {
        let tt = unsorted().transpose(4);
        assert_eq!(
            tt.rows().collect::<Vec<_>>(),
            vec![
                &[(0, 11), (1, 13)][..],
                &[],
                &[(1, 12), (3, 15)],
                &[(0, 10), (1, 14)],
            ]
        );
        assert!(tt.rows().all(|row| row.windows(2).all(|w| w[0].0 < w[1].0)));
    }

    #[test]
    fn double_transpose_gives_back_the_input_sorted_by_column() {
        let sorted = table(&[
            &[(0, 11), (3, 10)],
            &[(0, 13), (2, 12), (3, 14)],
            &[],
            &[(2, 15)],
        ]);
        assert_eq!(unsorted().transpose(4).transpose(4), sorted);
        assert_eq!(sorted.transpose(4).transpose(4), sorted);
    }

    #[test]
    fn transpose_of_empty_tables() {
        assert_eq!(table(&[]).transpose(0), table(&[]));
        assert_eq!(table(&[]).transpose(2), table(&[&[], &[]]));
        assert_eq!(table(&[&[], &[], &[]]).transpose(1), table(&[&[]]));
    }
}
