//! Morsels: row-range work units for intra-query parallelism.
//!
//! The paper's engine is single-threaded; to parallelize a scan we
//! split the table's row space — the fragment range plus the
//! insert-delta tail — into fixed-size *morsels* (à la
//! morsel-driven parallelism). Each worker thread scans a disjoint
//! subset of morsels with its own operator pipeline; deletion masks and
//! delta reads keep working because a morsel is just a row range
//! against the same immutable [`crate::Table`].

/// One contiguous unit of scan work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// Rows come from the insert delta (`start` is delta-relative);
    /// otherwise from the stored fragments.
    pub delta: bool,
    /// First row of the range (fragment- or delta-relative).
    pub start: usize,
    /// Number of rows.
    pub len: usize,
}

/// Split the fragment range `[frag_range.0, frag_range.1)` plus
/// `delta_rows` insert-delta rows into morsels of at most
/// `morsel_size` rows. `morsel_size == 0` means unbounded: one morsel
/// for the whole fragment range and one for the whole delta.
pub fn plan_morsels(
    frag_range: (usize, usize),
    delta_rows: usize,
    morsel_size: usize,
) -> Vec<Morsel> {
    let step = if morsel_size == 0 {
        usize::MAX
    } else {
        morsel_size
    };
    let mut out = Vec::new();
    let (mut pos, end) = frag_range;
    while pos < end {
        let len = (end - pos).min(step);
        out.push(Morsel {
            delta: false,
            start: pos,
            len,
        });
        pos += len;
    }
    let mut dpos = 0usize;
    while dpos < delta_rows {
        let len = (delta_rows - dpos).min(step);
        out.push(Morsel {
            delta: true,
            start: dpos,
            len,
        });
        dpos += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_range_when_unbounded() {
        let m = plan_morsels((10, 250), 7, 0);
        assert_eq!(
            m,
            vec![
                Morsel {
                    delta: false,
                    start: 10,
                    len: 240
                },
                Morsel {
                    delta: true,
                    start: 0,
                    len: 7
                }
            ]
        );
    }

    #[test]
    fn splits_cover_exactly_once() {
        let m = plan_morsels((5, 1000), 130, 64);
        let frag_rows: usize = m.iter().filter(|x| !x.delta).map(|x| x.len).sum();
        let delta_rows: usize = m.iter().filter(|x| x.delta).map(|x| x.len).sum();
        assert_eq!(frag_rows, 995);
        assert_eq!(delta_rows, 130);
        // Contiguous, non-overlapping, in order.
        let mut pos = 5;
        for x in m.iter().filter(|x| !x.delta) {
            assert_eq!(x.start, pos);
            assert!(x.len <= 64 && x.len > 0);
            pos += x.len;
        }
        let mut dpos = 0;
        for x in m.iter().filter(|x| x.delta) {
            assert_eq!(x.start, dpos);
            dpos += x.len;
        }
    }

    #[test]
    fn empty_inputs_yield_no_morsels() {
        assert!(plan_morsels((100, 100), 0, 16).is_empty());
        assert!(plan_morsels((7, 3), 0, 16).is_empty());
    }

    #[test]
    fn delta_only() {
        let m = plan_morsels((0, 0), 10, 4);
        assert_eq!(
            m,
            vec![
                Morsel {
                    delta: true,
                    start: 0,
                    len: 4
                },
                Morsel {
                    delta: true,
                    start: 4,
                    len: 4
                },
                Morsel {
                    delta: true,
                    start: 8,
                    len: 2
                }
            ]
        );
    }
}
