//! The five workloads. Each is built from `--seed` alone; the engine
//! sees only the generated tables and plans.

mod scan;
mod tpch_power;
mod write_path;

use crate::harness::{Pass, ProfileAcc, Tally};
use crate::machine::Calibration;
use std::path::Path;
use x100_storage::Table;

/// Input sizes. `--smoke` shrinks them; nothing else varies them.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Scale factor of the eight-table database of `tpch_power`.
    pub tpch_sf: f64,
    /// Scale factor of the Q1-column `lineitem` the scan workloads read.
    pub scan_sf: f64,
    /// Scale factor of the Q1-column `lineitem` `write_path` rewrites.
    pub write_sf: f64,
    /// Bytes the memory-bandwidth calibration sums.
    pub calib_bytes: usize,
}

impl Scale {
    /// Sized so that a pass takes 50–120 ms on the reference sandbox:
    /// at least 100 passes fit the measured window, so at least ten
    /// samples lie beyond `pass_ms_p90`.
    pub const FULL: Scale = Scale {
        tpch_sf: 0.04,
        scan_sf: 0.25,
        write_sf: 0.012,
        calib_bytes: 256 << 20,
    };
    pub const SMOKE: Scale = Scale {
        tpch_sf: 0.002,
        scan_sf: 0.01,
        write_sf: 0.002,
        calib_bytes: 16 << 20,
    };
}

/// Seconds the parts of set-up took, and what the cross-check against
/// the MIL baseline found (`tpch_power` only).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupParts {
    pub gen_s: f64,
    pub build_s: f64,
    pub mil_over_x100_geomean: f64,
}

/// What the per-layer metrics of a workload are computed from, after
/// the traced window.
pub struct TracedView<'a> {
    /// Quiet milliseconds of each op over the unobserved passes.
    pub op_quiet_ms: &'a [f64],
    /// One entry per profiled pass.
    pub profiles: &'a [ProfileAcc],
    pub machine: &'a Calibration,
    pub tally: &'a mut Tally,
}

pub trait Workload {
    /// Op names, in the order a pass runs them.
    fn ops(&self) -> &'static [&'static str];

    /// One pass: every op once.
    fn pass(&mut self, pass: &mut Pass<'_>);

    /// Bytes the tables occupy.
    fn stored_bytes(&self) -> u64;

    /// Rows × logical column widths of the same tables.
    fn user_bytes(&self) -> u64;

    fn setup_parts(&self) -> SetupParts;

    /// Fewer cores than the workload wants threads.
    fn degraded(&self) -> bool {
        false
    }

    /// Per-layer metrics only this workload can give, by name. May run
    /// short probes of its own; they are outside every timed window.
    fn layer_metrics(&mut self, view: &mut TracedView<'_>) -> Vec<(&'static str, f64)>;
}

/// Build the named workload: generate its data from `seed`, load it and
/// verify its answers against the reference for that workload.
/// `scratch` is a directory of the benchmark's own for files the
/// workload writes; `traced` keeps what only the probes of
/// [`Workload::layer_metrics`] need.
pub fn build(
    name: &str,
    seed: u64,
    scale: &Scale,
    scratch: &Path,
    traced: bool,
    tally: &mut Tally,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "tpch_power" => Box::new(tpch_power::TpchPower::build(seed, scale.tpch_sf, tally)?),
        "scan_aggr" => Box::new(scan::Scan::build(
            scan::Variant::Raw,
            seed,
            scale.scan_sf,
            traced,
            tally,
        )?),
        "scan_compressed" => Box::new(scan::Scan::build(
            scan::Variant::Compressed,
            seed,
            scale.scan_sf,
            traced,
            tally,
        )?),
        "scan_aggr_t2" => Box::new(scan::Scan::build(
            scan::Variant::TwoThreads,
            seed,
            scale.scan_sf,
            traced,
            tally,
        )?),
        "write_path" => Box::new(write_path::WritePath::build(
            seed,
            scale.write_sf,
            scratch,
            tally,
        )?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Bytes a table occupies in memory: fragments, dictionaries, deltas,
/// and the compressed chunks a checkpoint keeps beside the fragments.
pub fn table_stored_bytes(t: &Table) -> u64 {
    let chunks: u64 = (0..t.num_columns())
        .filter_map(|i| t.column(i).compressed())
        .map(|c| c.compressed_bytes())
        .sum();
    t.byte_size() as u64 + chunks
}

/// Live rows × the logical width of every column.
pub fn table_user_bytes(t: &Table) -> u64 {
    let row: usize = t.fields().map(|f| f.logical.width()).sum();
    (t.live_rows() * row) as u64
}

/// SplitMix64: the benchmark's own source of seeded choices.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}
