//! `Array(List<Exp<int>>) : Dataflow` (paper §4.1.2).
//!
//! "The Array operator generates a Dataflow representing a
//! N-dimensional array as a N-ary relation containing all valid array
//! index coordinates in column-major dimension order. It is used by the
//! RAM array manipulation front-end for the MonetDB system [9]."

use crate::batch::{Batch, OutField, VecPool};
use crate::ops::Operator;
use crate::profile::Profiler;
use crate::PlanError;

/// The array coordinate generator.
pub struct ArrayOp {
    dims: Vec<i64>,
    fields: Vec<OutField>,
    total: u64,
    pos: u64,
    pools: Vec<VecPool>,
    out: Batch,
    vector_size: usize,
}

impl ArrayOp {
    /// An `N`-dimensional array dataflow with the given (positive)
    /// extents and their product `total`, both validated by the check
    /// walk; `fields` are the i64 coordinate columns `d0, d1, …`.
    pub(crate) fn new(dims: &[i64], total: u64, fields: Vec<OutField>, vector_size: usize) -> Self {
        let pools = fields
            .iter()
            .map(|f| VecPool::new(f.ty, vector_size))
            .collect();
        ArrayOp {
            dims: dims.to_vec(),
            fields,
            total,
            pos: 0,
            pools,
            out: Batch::new(),
            vector_size,
        }
    }
}

impl Operator for ArrayOp {
    fn fields(&self) -> &[OutField] {
        &self.fields
    }

    fn next(&mut self, prof: &mut Profiler) -> Result<Option<&Batch>, PlanError> {
        if self.pos >= self.total {
            return Ok(None);
        }
        let t0 = prof.start();
        let n = ((self.total - self.pos) as usize).min(self.vector_size);
        self.out.reset();
        self.out.len = n;
        // Column-major: dimension 0 varies fastest.
        for (d, pool) in self.pools.iter_mut().enumerate() {
            let mut v = pool.writable();
            {
                let buf = v.as_i64_mut();
                let stride: u64 = self.dims[..d].iter().map(|&x| x as u64).product();
                let extent = self.dims[d] as u64;
                for k in 0..n as u64 {
                    let linear = self.pos + k;
                    buf.push(((linear / stride) % extent) as i64);
                }
            }
            pool.publish(v, &mut self.out);
        }
        self.pos += n as u64;
        prof.record_op("Array", t0, n);
        Ok(Some(&self.out))
    }

    fn reset(&mut self) {
        self.pos = 0;
    }
}
