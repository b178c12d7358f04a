//! The dataflow unit between operators: a batch of vectors.
//!
//! X100 execution proceeds "Volcano-like … on the granularity of a
//! vector" (§4.1.1): each `next()` call passes a horizontal slice of the
//! dataflow, represented vertically as one [`Vector`] per column, plus an
//! optional shared selection vector.
//!
//! Columns are `Rc<Vector>` so that pass-through projection and
//! selection are zero-copy: operators clone pointers, not data. Buffers
//! are still reused across batches — producers call [`VecPool::writable`]
//! which recycles the allocation when no downstream reference survives.

use std::rc::Rc;
use x100_vector::{ScalarType, SelVec, Vector};

/// Name and type of one output column of an operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutField {
    /// Column name (unique within an operator's output).
    pub name: String,
    /// Logical scalar type.
    pub ty: ScalarType,
}

impl OutField {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: ScalarType) -> Self {
        OutField {
            name: name.into(),
            ty,
        }
    }
}

/// A batch: `len` logical tuples, stored as one vector per column, with
/// an optional selection vector marking which positions are live.
#[derive(Debug, Default, Clone)]
pub struct Batch {
    /// One vector per output column; every vector has length `len`.
    pub columns: Vec<Rc<Vector>>,
    /// Live positions; `None` means all `0..len`.
    pub sel: Option<Rc<SelVec>>,
    /// Full vector length (including unselected positions).
    pub len: usize,
    /// The first fragment row id of a scan's fragment batch, which
    /// holds rows `first..first + len` (`None` for delta rows and every
    /// batch an operator computes): what a `Select` over the scan checks
    /// against the windows the summary index proved its steps in.
    pub frag_start: Option<usize>,
}

impl Batch {
    /// An empty batch.
    pub fn new() -> Self {
        Batch::default()
    }

    /// Number of *live* tuples (selection-aware).
    pub fn live(&self) -> usize {
        match &self.sel {
            None => self.len,
            Some(s) => s.len(),
        }
    }

    /// The selection as a primitive-friendly `Option<&SelVec>`.
    pub fn sel_ref(&self) -> Option<&SelVec> {
        self.sel.as_deref()
    }

    /// Total payload bytes across columns (bandwidth accounting).
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(|c| c.byte_size()).sum()
    }

    /// Clear columns and selection (start of a producer's `next()`).
    pub fn reset(&mut self) {
        self.columns.clear();
        self.sel = None;
        self.len = 0;
        self.frag_start = None;
    }

    /// Whether the batch holds only fragment rows inside `window`
    /// (`[start, end)` row ids). Delta batches never do.
    pub fn within(&self, window: (usize, usize)) -> bool {
        self.frag_start
            .is_some_and(|a| window.0 <= a && a + self.len <= window.1)
    }
}

/// A pool of reusable `Rc<Vector>` buffers for one producer slot.
///
/// Each call to [`VecPool::writable`] returns a mutable vector: the
/// previous allocation if the downstream consumer dropped its reference,
/// or a fresh one otherwise (rare — only when a consumer retains batches,
/// e.g. a materializing Sort).
#[derive(Debug)]
pub struct VecPool {
    slot: Option<Rc<Vector>>,
    ty: ScalarType,
    cap: usize,
}

impl VecPool {
    /// A pool producing vectors of `ty` with capacity `cap`.
    pub fn new(ty: ScalarType, cap: usize) -> Self {
        VecPool {
            slot: None,
            ty,
            cap,
        }
    }

    /// The vector type this pool produces.
    pub fn scalar_type(&self) -> ScalarType {
        self.ty
    }

    /// Take a writable, cleared vector.
    pub fn writable(&mut self) -> Vector {
        match self.slot.take().and_then(|rc| Rc::try_unwrap(rc).ok()) {
            Some(mut v) => {
                v.clear();
                v
            }
            None => Vector::with_capacity(self.ty, self.cap),
        }
    }

    /// Hand the filled vector to a batch, keeping a handle for reuse.
    pub fn publish(&mut self, v: Vector, batch: &mut Batch) {
        let rc = Rc::new(v);
        self.slot = Some(rc.clone());
        batch.columns.push(rc);
    }

    /// Replace column `idx` of the batch with the filled vector
    /// (used when a later pass fills a placeholder slot).
    pub fn publish_at(&mut self, v: Vector, batch: &mut Batch, idx: usize) {
        let rc = Rc::new(v);
        self.slot = Some(rc.clone());
        batch.columns[idx] = rc;
    }
}

/// A pool for the shared selection vector of a producer.
#[derive(Debug, Default)]
pub struct SelPool {
    slot: Option<Rc<SelVec>>,
}

impl SelPool {
    /// Take a writable, cleared selection vector.
    pub fn writable(&mut self) -> SelVec {
        match self.slot.take().and_then(|rc| Rc::try_unwrap(rc).ok()) {
            Some(mut s) => {
                s.clear();
                s
            }
            None => SelVec::default(),
        }
    }

    /// Publish the filled selection vector into a batch.
    pub fn publish(&mut self, s: SelVec, batch: &mut Batch) {
        let rc = Rc::new(s);
        self.slot = Some(rc.clone());
        batch.sel = Some(rc);
    }

    /// Publish `s`, the positions of `batch` an operator kept — unless
    /// the operator's input had no selection (`dense_in`) and `s` keeps
    /// every row: then the batch goes on dense, so the primitives above
    /// run their dense loops, and the buffer is kept for reuse. A
    /// selection over an input that had one is always published.
    pub fn publish_survivors(&mut self, s: SelVec, dense_in: bool, batch: &mut Batch) {
        if dense_in && s.len() == batch.len {
            self.recycle(s);
        } else {
            self.publish(s, batch);
        }
    }

    /// Keep a selection vector that was not published, for reuse.
    pub fn recycle(&mut self, s: SelVec) {
        self.slot = Some(Rc::new(s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_respects_selection() {
        let mut b = Batch::new();
        b.len = 10;
        assert_eq!(b.live(), 10);
        b.sel = Some(Rc::new(SelVec::from_positions(vec![1, 5])));
        assert_eq!(b.live(), 2);
    }

    #[test]
    fn pool_reuses_buffer_when_unreferenced() {
        let mut pool = VecPool::new(ScalarType::F64, 8);
        let mut batch = Batch::new();
        let mut v = pool.writable();
        v.as_f64_mut().extend_from_slice(&[1.0, 2.0]);
        let ptr_before = v.as_f64().as_ptr();
        pool.publish(v, &mut batch);
        // Consumer drops the batch → next writable() reuses the buffer.
        drop(batch);
        let v2 = pool.writable();
        assert_eq!(v2.len(), 0);
        assert_eq!(v2.as_f64().as_ptr(), ptr_before);
    }

    #[test]
    fn pool_allocates_fresh_when_retained() {
        let mut pool = VecPool::new(ScalarType::I64, 4);
        let mut batch = Batch::new();
        let v = pool.writable();
        pool.publish(v, &mut batch);
        let retained = batch.columns[0].clone(); // consumer keeps a handle
        let v2 = pool.writable();
        drop(retained);
        assert_eq!(v2.len(), 0); // fresh buffer, not the retained one
    }

    #[test]
    fn whole_survivors_of_a_dense_input_go_on_dense() {
        let mut pool = SelPool::default();
        let mut batch = Batch::new();
        batch.len = 3;
        pool.publish_survivors(SelVec::identity(3), true, &mut batch);
        assert!(batch.sel.is_none());
        // The buffer comes back for the next vector.
        assert!(pool.writable().buf_mut().capacity() >= 3);
        // One row fewer, or an input that had a selection: published.
        pool.publish_survivors(SelVec::from_positions(vec![0, 2]), true, &mut batch);
        assert_eq!(batch.live(), 2);
        batch.sel = None;
        pool.publish_survivors(SelVec::identity(3), false, &mut batch);
        assert_eq!(batch.sel_ref().map(SelVec::len), Some(3));
    }

    #[test]
    fn within_needs_a_fragment_batch_inside_the_window() {
        let mut b = Batch::new();
        b.len = 10;
        assert!(!b.within((0, 100)), "a batch of no fragment rows");
        b.frag_start = Some(20);
        assert!(b.within((20, 30)) && b.within((0, 100)));
        assert!(!b.within((21, 100)) && !b.within((0, 29)));
        b.reset();
        assert_eq!(b.frag_start, None);
    }

    #[test]
    fn sel_pool_roundtrip() {
        let mut pool = SelPool::default();
        let mut batch = Batch::new();
        batch.len = 4;
        let mut s = pool.writable();
        s.push(2);
        pool.publish(s, &mut batch);
        assert_eq!(batch.live(), 1);
        assert_eq!(batch.sel_ref().expect("sel").positions(), &[2]);
    }
}
