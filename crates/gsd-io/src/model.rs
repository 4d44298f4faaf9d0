//! Disk performance model and the paper's I/O cost formulas (§4.1).
//!
//! [`DiskModel`] describes a device by the four bandwidths of the paper's
//! Table 2 (`B_sr`, `B_sw`, `B_rr`, `B_rw`) plus a per-seek latency used by
//! the [`crate::SimDisk`] backend. [`IoCostModel`] turns that description
//! into the two cost estimates that drive GraphSD's state-aware I/O
//! scheduler:
//!
//! * `C_s` — cost of the **full I/O model** (stream every sub-block):
//!   `C_s = (|V|·N + |E|·(M+W)) / B_sr + |V|·N / B_sw`
//! * `C_r` — cost of the **on-demand I/O model** (read only active edge
//!   lists): `C_r = S_ran/B_rr + S_seq/B_sr + 2·|V|·N/B_sr + |V|·N/B_sw`
//!   (the `2·|V|·N` term covers reading the vertex values *and* the vertex
//!   index needed to locate active edge ranges).
//!
//! The vertex-value terms are the paper's, and both formulas keep them so
//! every scheduling decision is the paper's; the engines here keep the
//! values resident, so that traffic is priced, not performed.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Device description: the four bandwidths of the paper's Table 2 plus the
/// seek latency charged by the simulator for discontiguous requests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiskModel {
    /// Sequential read bandwidth `B_sr`, bytes/second.
    pub seq_read_bps: f64,
    /// Sequential write bandwidth `B_sw`, bytes/second.
    pub seq_write_bps: f64,
    /// Random read bandwidth `B_rr`, bytes/second (effective bandwidth of
    /// small seek-preceded reads).
    pub rand_read_bps: f64,
    /// Random write bandwidth `B_rw`, bytes/second.
    pub rand_write_bps: f64,
    /// Latency charged per discontiguous request by the simulator.
    pub seek_latency: Duration,
    /// Requests at least this large amortize their seek and are priced at
    /// sequential bandwidth even when discontiguous.
    pub large_request_bytes: u64,
}

impl DiskModel {
    /// A 7200-rpm HDD comparable to the paper's test rig (two 500 GB HDDs):
    /// ~160 MB/s streaming, ~8 ms seek, ~1 MB/s effective random bandwidth.
    pub fn hdd() -> Self {
        DiskModel {
            seq_read_bps: 160.0e6,
            seq_write_bps: 140.0e6,
            rand_read_bps: 1.0e6,
            rand_write_bps: 0.8e6,
            seek_latency: Duration::from_micros(8000),
            large_request_bytes: 4 << 20,
        }
    }

    /// A SATA SSD: ~500 MB/s streaming, ~80 µs access, ~40 MB/s random.
    pub fn ssd() -> Self {
        DiskModel {
            seq_read_bps: 520.0e6,
            seq_write_bps: 480.0e6,
            rand_read_bps: 40.0e6,
            rand_write_bps: 35.0e6,
            seek_latency: Duration::from_micros(80),
            large_request_bytes: 1 << 20,
        }
    }

    /// An NVMe SSD: ~3 GB/s streaming, ~15 µs access, ~400 MB/s random.
    pub fn nvme() -> Self {
        DiskModel {
            seq_read_bps: 3.0e9,
            seq_write_bps: 2.5e9,
            rand_read_bps: 400.0e6,
            rand_write_bps: 350.0e6,
            seek_latency: Duration::from_micros(15),
            large_request_bytes: 256 << 10,
        }
    }

    /// Bytes this device streams in the time of one seek
    /// (`seek_latency · B_sr`: 1.28 MB on [`DiskModel::hdd`], 41.6 KB on
    /// [`DiskModel::ssd`], 45 KB on [`DiskModel::nvme`]). The one
    /// break-even every request planner derives from: two wanted ranges
    /// closer than this are cheaper to fetch as one request than as two.
    pub fn seek_break_even_bytes(&self) -> u64 {
        whole_u64(self.seek_latency.as_secs_f64() * self.seq_read_bps)
    }

    /// The widest gap, counted in units of `unit_bytes` (an index entry,
    /// an edge), that is cheaper to stream through than to seek over.
    /// At least 1, so neighbouring units always share a request.
    pub fn bridge_gap(&self, unit_bytes: u64) -> u32 {
        let units = self.seek_break_even_bytes() / unit_bytes.max(1);
        u32::try_from(units.max(1)).unwrap_or(u32::MAX)
    }

    /// Virtual time a read of `bytes` bytes costs on this device.
    /// `discontiguous` is true when the request does not start where the
    /// previous request on the same object ended.
    pub fn read_cost(&self, bytes: u64, discontiguous: bool) -> Duration {
        self.transfer_cost(bytes, discontiguous, self.seq_read_bps, self.rand_read_bps)
    }

    /// Virtual time a write of `bytes` bytes costs on this device.
    pub fn write_cost(&self, bytes: u64, discontiguous: bool) -> Duration {
        self.transfer_cost(
            bytes,
            discontiguous,
            self.seq_write_bps,
            self.rand_write_bps,
        )
    }

    fn transfer_cost(
        &self,
        bytes: u64,
        discontiguous: bool,
        seq_bps: f64,
        _rand_bps: f64,
    ) -> Duration {
        // Physical pricing: a discontiguous request pays one seek, then
        // every request streams at the sequential rate. The four-bandwidth
        // figures `rand_*_bps` used by the paper's cost formulas are the
        // *emergent* effective bandwidths of small seek-dominated requests
        // under this pricing (B_rr ≈ n / (seek + n/B_sr) for request size
        // n), which keeps the scheduler's predictions and the simulator's
        // charges mutually consistent.
        let transfer = secs_to_duration(bytes as f64 / seq_bps);
        if discontiguous {
            self.seek_latency + transfer
        } else {
            transfer
        }
    }
}

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel::hdd()
    }
}

fn secs_to_duration(secs: f64) -> Duration {
    Duration::from_nanos(whole_u64((secs * 1e9).round()))
}

/// `value` rounded toward zero to a `u64`, saturating exactly like
/// `value as u64` (NaN and negatives give 0, too-large values
/// `u64::MAX`) but without a cast: a whole number of seconds converts to
/// a `Duration` exactly, and `as_secs` reads it back.
fn whole_u64(value: f64) -> u64 {
    match Duration::try_from_secs_f64(value.trunc()) {
        Ok(whole) => whole.as_secs(),
        Err(_) if value > 0.0 => u64::MAX,
        Err(_) => 0,
    }
}

/// Inputs of the on-demand cost formula `C_r` that depend on the current
/// active set (computed per iteration by the engine in `O(|A|)`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnDemandCostInputs {
    /// `S_ran`: bytes of active edge lists that will be read randomly.
    pub rand_edge_bytes: u64,
    /// `S_seq`: bytes of active edge lists that form sequential runs.
    pub seq_edge_bytes: u64,
}

/// Itemized cost estimate returned by [`IoCostModel`]; useful for the
/// scheduler-overhead experiment (Figure 11) and for debugging decisions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Seconds spent reading edge data.
    pub edge_read_secs: f64,
    /// Seconds spent reading vertex values (and the index, on-demand only).
    pub vertex_read_secs: f64,
    /// Seconds spent writing back vertex values.
    pub vertex_write_secs: f64,
}

impl CostBreakdown {
    /// Total estimated seconds.
    pub fn total(&self) -> f64 {
        self.edge_read_secs + self.vertex_read_secs + self.vertex_write_secs
    }
}

/// The paper's I/O cost model (§4.1): prices one iteration under the full
/// and the on-demand I/O access models so the scheduler can pick the
/// cheaper one (`C_r ≤ C_s` ⇒ on-demand).
#[derive(Debug, Clone, Copy)]
pub struct IoCostModel {
    disk: DiskModel,
    /// `|V|·N`: bytes of one full vertex-value array.
    vertex_value_bytes: u64,
    /// `|E|·(M+W)`: bytes of the entire edge data (all sub-blocks).
    edge_bytes: u64,
}

impl IoCostModel {
    /// Builds a cost model for a graph whose vertex values occupy
    /// `vertex_value_bytes` and whose edge data occupies `edge_bytes`.
    pub fn new(disk: DiskModel, vertex_value_bytes: u64, edge_bytes: u64) -> Self {
        IoCostModel {
            disk,
            vertex_value_bytes,
            edge_bytes,
        }
    }

    /// The disk model used for pricing.
    pub fn disk(&self) -> &DiskModel {
        &self.disk
    }

    /// `C_s`: cost of one iteration under the full I/O model.
    pub fn full_cost(&self) -> CostBreakdown {
        let v = self.vertex_value_bytes as f64;
        CostBreakdown {
            edge_read_secs: self.edge_bytes as f64 / self.disk.seq_read_bps,
            vertex_read_secs: v / self.disk.seq_read_bps,
            vertex_write_secs: v / self.disk.seq_write_bps,
        }
    }

    /// `C_r`: cost of one iteration under the on-demand I/O model, given
    /// the sequential/random split of the active edge lists.
    pub fn on_demand_cost(&self, inputs: OnDemandCostInputs) -> CostBreakdown {
        let v = self.vertex_value_bytes as f64;
        CostBreakdown {
            edge_read_secs: inputs.rand_edge_bytes as f64 / self.disk.rand_read_bps
                + inputs.seq_edge_bytes as f64 / self.disk.seq_read_bps,
            // Vertex values plus the per-vertex index: the `2·|V|·N / B_sr`
            // term of the paper's formula.
            vertex_read_secs: 2.0 * v / self.disk.seq_read_bps,
            vertex_write_secs: v / self.disk.seq_write_bps,
        }
    }

    /// Scheduler decision: `true` when the on-demand model is predicted to
    /// be at least as cheap as the full model (`C_r ≤ C_s`).
    pub fn prefer_on_demand(&self, inputs: OnDemandCostInputs) -> bool {
        self.on_demand_cost(inputs).total() <= self.full_cost().total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> IoCostModel {
        // 1M vertices x 4B values, 100MB of edges, HDD.
        IoCostModel::new(DiskModel::hdd(), 4_000_000, 100_000_000)
    }

    #[test]
    fn full_cost_matches_formula() {
        let m = model();
        let c = m.full_cost();
        let d = DiskModel::hdd();
        let expect_read = (4_000_000.0 + 100_000_000.0) / d.seq_read_bps;
        let expect_write = 4_000_000.0 / d.seq_write_bps;
        assert!((c.edge_read_secs + c.vertex_read_secs - expect_read).abs() < 1e-9);
        assert!((c.vertex_write_secs - expect_write).abs() < 1e-9);
    }

    #[test]
    fn tiny_active_set_prefers_on_demand() {
        let m = model();
        let inputs = OnDemandCostInputs {
            rand_edge_bytes: 10_000,
            seq_edge_bytes: 50_000,
        };
        assert!(m.prefer_on_demand(inputs));
    }

    #[test]
    fn huge_random_active_set_prefers_full() {
        let m = model();
        // 60 MB of random reads at 1 MB/s dwarfs streaming 104 MB at 160 MB/s.
        let inputs = OnDemandCostInputs {
            rand_edge_bytes: 60_000_000,
            seq_edge_bytes: 0,
        };
        assert!(!m.prefer_on_demand(inputs));
    }

    #[test]
    fn sequential_active_reads_raise_the_crossover() {
        let m = model();
        // The same 60 MB is fine when it streams sequentially.
        let inputs = OnDemandCostInputs {
            rand_edge_bytes: 0,
            seq_edge_bytes: 60_000_000,
        };
        assert!(m.prefer_on_demand(inputs));
    }

    #[test]
    fn on_demand_cost_is_monotone_in_random_bytes() {
        let m = model();
        let mut last = 0.0;
        for rand in [0u64, 1_000, 100_000, 10_000_000] {
            let c = m
                .on_demand_cost(OnDemandCostInputs {
                    rand_edge_bytes: rand,
                    seq_edge_bytes: 0,
                })
                .total();
            assert!(c >= last);
            last = c;
        }
    }

    #[test]
    fn read_cost_contiguous_is_bandwidth_only() {
        let d = DiskModel::hdd();
        let c = d.read_cost(160_000_000, false);
        assert!((c.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn read_cost_small_discontiguous_pays_seek() {
        let d = DiskModel::hdd();
        let c = d.read_cost(1_000_000, true);
        let expect = d.seek_latency.as_secs_f64() + 1_000_000.0 / d.seq_read_bps;
        assert!((c.as_secs_f64() - expect).abs() < 1e-6);
    }

    #[test]
    fn effective_random_bandwidth_emerges_near_rand_read_bps() {
        // For 4 KiB requests on the HDD preset, the emergent random
        // bandwidth should be the same order of magnitude as the
        // rand_read_bps figure used by the cost formulas.
        let d = DiskModel::hdd();
        let per_req = d.read_cost(4096, true).as_secs_f64();
        let effective = 4096.0 / per_req;
        assert!(effective > d.rand_read_bps / 5.0 && effective < d.rand_read_bps * 5.0);
    }

    #[test]
    fn read_cost_large_discontiguous_streams_after_one_seek() {
        let d = DiskModel::hdd();
        let bytes = 8u64 << 20;
        let c = d.read_cost(bytes, true);
        let expect = d.seek_latency.as_secs_f64() + bytes as f64 / d.seq_read_bps;
        assert!((c.as_secs_f64() - expect).abs() < 1e-6);
    }

    #[test]
    fn break_even_is_one_seek_of_streaming() {
        let (h, s, n) = (DiskModel::hdd(), DiskModel::ssd(), DiskModel::nvme());
        assert_eq!(h.seek_break_even_bytes(), 1_280_000);
        assert_eq!(s.seek_break_even_bytes(), 41_600);
        assert_eq!(n.seek_break_even_bytes(), 45_000);
        // A row-index entry at P = 20, one at P = 1, a weighted edge.
        assert_eq!(h.bridge_gap(80), 16_000);
        assert_eq!(n.bridge_gap(80), 562);
        assert_eq!(h.bridge_gap(4), 320_000);
        assert_eq!(n.bridge_gap(12), 3_750);
        assert_eq!(n.bridge_gap(1 << 20), 1, "neighbours always bridge");
    }

    #[test]
    fn whole_u64_saturates_like_a_cast() {
        let cases = [
            (0.0, 0),
            (-0.0, 0),
            (0.999_999, 0),
            (1.0, 1),
            (41_599.999_999_999_99, 41_599),
            (4.5e15 + 0.5, 4_500_000_000_000_000),
            (1.8e19, 18_000_000_000_000_000_000),
            (1.9e19, u64::MAX),
            (f64::INFINITY, u64::MAX),
            (-1.5, 0),
            (f64::NEG_INFINITY, 0),
            (f64::NAN, 0),
        ];
        for (value, want) in cases {
            assert_eq!(whole_u64(value), want, "{value}");
        }
    }

    #[test]
    fn presets_are_ordered_sanely() {
        let (h, s, n) = (DiskModel::hdd(), DiskModel::ssd(), DiskModel::nvme());
        assert!(h.seq_read_bps < s.seq_read_bps && s.seq_read_bps < n.seq_read_bps);
        assert!(h.seek_latency > s.seek_latency && s.seek_latency > n.seek_latency);
        for d in [h, s, n] {
            assert!(d.rand_read_bps < d.seq_read_bps);
        }
    }
}
