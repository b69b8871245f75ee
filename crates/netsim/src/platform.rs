//! Cost models for the paper's two 1997 measurement platforms.
//!
//! We cannot rerun SunOS 4.1.4 on a Sun IPX 4/50 with Fore ESA-200 ATM
//! cards, nor a 166 MHz Pentium with 1997-era Linux and Fast-Ethernet. The
//! substitution is:
//!
//! * the **operation counts** come from really executing our generic and
//!   specialized marshaling code ([`specrpc_xdr::OpCounts`] is incremented
//!   by every micro-layer and every stub micro-op);
//! * each platform assigns **costs** to those events: one weight for
//!   interpretive events (dispatch, overflow check, status test, layer
//!   call, byte-order op), one for residual stub ops, one per byte moved,
//!   plus an instruction-cache term that penalizes over-unrolled stubs
//!   (this produces the paper's Table 4 effect and the IPX speedup decay
//!   of Figure 6-5);
//! * round trips add wire time (effective bandwidth + fixed per-call
//!   latency/dispatch), the `bzero` buffer-initialization cost the paper
//!   calls out in §5, and the per-element costs that specialization does
//!   not remove on the reply path (argument-memory copies through the
//!   residual calling convention).
//!
//! The weights below were calibrated once against the paper's Tables 1
//! and 2 and then frozen; the experiment harness never re-tunes them.

use specrpc_xdr::OpCounts;

/// The two platforms of the paper's §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Sun IPX 4/50, SunOS 4.1.4, 100 Mbit/s ATM (Fore ESA-200).
    IpxSunosAtm,
    /// 166 MHz Pentium, Linux, 100 Mbit/s Fast-Ethernet.
    PcLinuxFastEthernet,
}

impl Platform {
    /// The calibrated cost table for this platform.
    pub fn costs(self) -> PlatformCosts {
        match self {
            Platform::IpxSunosAtm => PlatformCosts {
                name: "IPX/SunOS - ATM 100Mbits",
                interp_event_ns: 260.0,
                stub_op_ns: 100.0,
                mem_byte_ns: 100.0,
                icache_capacity_bytes: 12 * 1024,
                icache_miss_ns_per_op: 224.0,
                marshal_fixed_ns: 8_000.0,
                rt_fixed_ns: 2_100_000.0,
                wire_ns_per_byte: 360.0,
                bzero_ns_per_byte: 100.0,
                spec_residual_ns_per_byte: 165.0,
            },
            Platform::PcLinuxFastEthernet => PlatformCosts {
                name: "PC/Linux - Ethernet 100Mbits",
                interp_event_ns: 61.0,
                stub_op_ns: 8.0,
                mem_byte_ns: 22.0,
                icache_capacity_bytes: 24 * 1024,
                icache_miss_ns_per_op: 28.0,
                marshal_fixed_ns: 61_500.0,
                rt_fixed_ns: 656_000.0,
                wire_ns_per_byte: 170.0,
                bzero_ns_per_byte: 40.0,
                spec_residual_ns_per_byte: 45.0,
            },
        }
    }

    /// Short display name matching the figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Platform::IpxSunosAtm => "IPX/SunOs",
            Platform::PcLinuxFastEthernet => "PC/Linux",
        }
    }

    /// Both platforms, in the paper's order.
    pub fn all() -> [Platform; 2] {
        [Platform::IpxSunosAtm, Platform::PcLinuxFastEthernet]
    }
}

/// Per-platform cost weights (nanoseconds per event/byte).
#[derive(Debug, Clone, Copy)]
pub struct PlatformCosts {
    /// Display name.
    pub name: &'static str,
    /// Cost of one interpretive event (dispatch, overflow check, status
    /// test, layer-call crossing, byte-order op) in the generic path.
    pub interp_event_ns: f64,
    /// Cost of one residual stub micro-op.
    pub stub_op_ns: f64,
    /// Cost per byte moved between argument memory and wire buffers.
    pub mem_byte_ns: f64,
    /// Stub code footprint that fits the instruction cache.
    pub icache_capacity_bytes: usize,
    /// Extra cost per stub op when the footprint exceeds capacity
    /// (scaled by the overflow fraction).
    pub icache_miss_ns_per_op: f64,
    /// Fixed per-marshal-invocation overhead (call setup, stream create).
    pub marshal_fixed_ns: f64,
    /// Fixed per-round-trip overhead (syscalls, interrupts, protocol
    /// dispatch, link latency).
    pub rt_fixed_ns: f64,
    /// Wire time per payload byte (effective, not nominal, bandwidth).
    pub wire_ns_per_byte: f64,
    /// §5: `bzero` initialization of the receive buffer on each side.
    pub bzero_ns_per_byte: f64,
    /// Per-payload-byte costs the *specialized* path still pays on a round
    /// trip (copies through the residual calling convention, reply
    /// validation) — the reason round-trip speedups plateau below the
    /// marshaling speedups.
    pub spec_residual_ns_per_byte: f64,
}

impl PlatformCosts {
    /// Interpretive (generic-path) event total of a counts sample.
    fn interp_events(c: &OpCounts) -> u64 {
        c.dispatches + c.overflow_checks + c.status_checks + c.layer_calls + c.byteorder_ops
    }

    /// Instruction-cache penalty for a stub of `code_bytes` executing
    /// `stub_ops` ops.
    pub fn icache_penalty_ns(&self, code_bytes: usize, stub_ops: u64) -> f64 {
        if code_bytes <= self.icache_capacity_bytes {
            return 0.0;
        }
        let frac = 1.0 - self.icache_capacity_bytes as f64 / code_bytes as f64;
        frac * self.icache_miss_ns_per_op * stub_ops as f64
    }

    /// Modeled time for one marshal (or unmarshal) given measured counts
    /// and the code footprint of the path executed.
    pub fn marshal_ns(&self, counts: &OpCounts, code_bytes: usize) -> f64 {
        self.marshal_fixed_ns
            + Self::interp_events(counts) as f64 * self.interp_event_ns
            + counts.stub_ops as f64 * self.stub_op_ns
            + counts.mem_moves as f64 * self.mem_byte_ns
            + self.icache_penalty_ns(code_bytes, counts.stub_ops)
    }

    /// Modeled time for a full RPC round trip.
    ///
    /// `sides` carries the four marshal/unmarshal samples (client encode,
    /// server decode, server encode, client decode); `wire_bytes` is the
    /// total payload crossing the wire (request + reply);
    /// `specialized` adds the residual-convention per-byte term.
    pub fn round_trip_ns(&self, sides: &RoundTripSample) -> f64 {
        let mut cpu = 0.0;
        for (counts, code) in &sides.marshals {
            // Round-trip marshals do not pay the micro-benchmark's
            // per-invocation fixed cost separately; it is folded into
            // rt_fixed_ns.
            cpu += Self::interp_events(counts) as f64 * self.interp_event_ns
                + counts.stub_ops as f64 * self.stub_op_ns
                + counts.mem_moves as f64 * self.mem_byte_ns
                + self.icache_penalty_ns(*code, counts.stub_ops);
        }
        let wire = sides.wire_bytes as f64 * self.wire_ns_per_byte;
        let bzero = sides.wire_bytes as f64 * self.bzero_ns_per_byte;
        let residual = if sides.specialized {
            sides.wire_bytes as f64 * self.spec_residual_ns_per_byte
        } else {
            0.0
        };
        self.rt_fixed_ns + cpu + wire + bzero + residual
    }
}

/// Inputs to [`PlatformCosts::round_trip_ns`].
#[derive(Debug, Clone, Default)]
pub struct RoundTripSample {
    /// `(counts, code_footprint_bytes)` for each of the four sides:
    /// client encode, server decode, server encode, client decode.
    pub marshals: Vec<(OpCounts, usize)>,
    /// Total payload bytes over the wire (request + reply).
    pub wire_bytes: usize,
    /// Whether this is the specialized configuration.
    pub specialized: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic counts approximating one generic encode of `n` integers
    /// (per element: 1 dispatch, 1 overflow check, 1 status test, 2 layer
    /// calls, 1 byte-order op, 4 bytes).
    fn generic_counts(n: u64) -> OpCounts {
        OpCounts {
            dispatches: n + 2,
            overflow_checks: n + 2,
            status_checks: n,
            layer_calls: 2 * n + 4,
            byteorder_ops: n + 1,
            mem_moves: 4 * n + 8,
            ..OpCounts::new()
        }
    }

    /// Synthetic counts for a specialized encode of `n` integers.
    fn spec_counts(n: u64) -> OpCounts {
        OpCounts {
            stub_ops: n + 2,
            mem_moves: 4 * n + 8,
            ..OpCounts::new()
        }
    }

    fn spec_code_bytes(n: usize) -> usize {
        340 + 40 * (n + 2)
    }

    fn marshal_ms(p: Platform, n: u64, spec: bool) -> f64 {
        let c = p.costs();
        if spec {
            c.marshal_ns(&spec_counts(n), spec_code_bytes(n as usize)) / 1e6
        } else {
            c.marshal_ns(&generic_counts(n), 20_004) / 1e6
        }
    }

    #[test]
    fn ipx_marshal_matches_table1_within_tolerance() {
        // Paper Table 1, IPX column (ms).
        let expect_orig = [(20, 0.047), (250, 0.49), (2000, 3.93)];
        for (n, want) in expect_orig {
            let got = marshal_ms(Platform::IpxSunosAtm, n, false);
            assert!(
                (got - want).abs() / want < 0.15,
                "n={n}: got {got}, want {want}"
            );
        }
        let expect_spec = [(20, 0.017), (250, 0.13), (2000, 1.38)];
        for (n, want) in expect_spec {
            let got = marshal_ms(Platform::IpxSunosAtm, n, true);
            assert!(
                (got - want).abs() / want < 0.15,
                "n={n}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn pc_marshal_matches_table1_within_tolerance() {
        let expect_orig = [(20, 0.071), (500, 0.29), (2000, 0.97)];
        for (n, want) in expect_orig {
            let got = marshal_ms(Platform::PcLinuxFastEthernet, n, false);
            assert!(
                (got - want).abs() / want < 0.15,
                "n={n}: got {got}, want {want}"
            );
        }
        let expect_spec = [(20, 0.063), (500, 0.11), (2000, 0.29)];
        for (n, want) in expect_spec {
            let got = marshal_ms(Platform::PcLinuxFastEthernet, n, true);
            assert!(
                (got - want).abs() / want < 0.20,
                "n={n}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn ipx_speedup_peaks_mid_sizes_then_declines() {
        // Figure 6-5: IPX marshaling speedup peaks around 250 and declines
        // toward 2000 (memory moves dominate).
        let s = |n| {
            marshal_ms(Platform::IpxSunosAtm, n, false) / marshal_ms(Platform::IpxSunosAtm, n, true)
        };
        let (s20, s250, s2000) = (s(20), s(250), s(2000));
        assert!(s250 > s20, "peak after small sizes: {s20} vs {s250}");
        assert!(s250 > s2000, "decline at large sizes: {s250} vs {s2000}");
        assert!(s250 > 3.0 && s250 < 4.2, "peak magnitude {s250}");
        assert!(s2000 > 2.3 && s2000 < 3.3, "tail magnitude {s2000}");
    }

    #[test]
    fn pc_speedup_rises_and_bends() {
        let s = |n| {
            marshal_ms(Platform::PcLinuxFastEthernet, n, false)
                / marshal_ms(Platform::PcLinuxFastEthernet, n, true)
        };
        let seq = [s(20), s(100), s(250), s(500), s(1000), s(2000)];
        for w in seq.windows(2) {
            assert!(w[1] > w[0], "monotone rise: {seq:?}");
        }
        assert!(seq[5] > 3.0 && seq[5] < 3.9, "final {:.2}", seq[5]);
        assert!(seq[0] > 1.0 && seq[0] < 1.4, "initial {:.2}", seq[0]);
    }

    fn rt_ms(p: Platform, n: u64, spec: bool) -> f64 {
        let code = if spec {
            spec_code_bytes(n as usize)
        } else {
            20_004
        };
        let counts = if spec {
            spec_counts(n)
        } else {
            generic_counts(n)
        };
        let sample = RoundTripSample {
            marshals: vec![(counts, code); 4],
            wire_bytes: (8 * n + 64) as usize,
            specialized: spec,
        };
        p.costs().round_trip_ns(&sample) / 1e6
    }

    #[test]
    fn round_trip_matches_table2_shape() {
        // Table 2: speedups rise with size toward a plateau; both
        // platforms' absolute times within tolerance at the endpoints.
        for (p, want20, want2000, plateau_lo, plateau_hi) in [
            (Platform::IpxSunosAtm, 2.32, 25.24, 1.3, 1.8),
            (Platform::PcLinuxFastEthernet, 0.69, 7.61, 1.2, 1.7),
        ] {
            let got20 = rt_ms(p, 20, false);
            let got2000 = rt_ms(p, 2000, false);
            assert!(
                (got20 - want20).abs() / want20 < 0.15,
                "{p:?} 20: {got20} vs {want20}"
            );
            assert!(
                (got2000 - want2000).abs() / want2000 < 0.15,
                "{p:?} 2000: {got2000} vs {want2000}"
            );
            let s20 = rt_ms(p, 20, false) / rt_ms(p, 20, true);
            let s2000 = rt_ms(p, 2000, false) / rt_ms(p, 2000, true);
            assert!(s2000 > s20, "{p:?}: speedup rises ({s20:.2} -> {s2000:.2})");
            assert!(
                s2000 > plateau_lo && s2000 < plateau_hi,
                "{p:?}: plateau {s2000:.2}"
            );
            assert!(
                s20 > 1.0 && s20 < 1.25,
                "{p:?}: small-size speedup {s20:.2}"
            );
        }
    }

    #[test]
    fn table4_bounded_unrolling_beats_full_at_large_sizes() {
        // A 250-op chunked stub avoids the icache penalty the full unroll
        // pays at n = 2000 on the PC (Table 4).
        let c = Platform::PcLinuxFastEthernet.costs();
        let n = 2000u64;
        let full = c.marshal_ns(&spec_counts(n), spec_code_bytes(n as usize));
        let chunked = c.marshal_ns(&spec_counts(n), spec_code_bytes(253));
        assert!(chunked < full, "chunked {chunked} < full {full}");
        // The paper reports 0.29 → 0.25 ms: a 10-20% improvement.
        let gain = full / chunked;
        assert!(gain > 1.05 && gain < 1.35, "gain {gain:.3}");
    }

    #[test]
    fn no_icache_penalty_under_capacity() {
        let c = Platform::IpxSunosAtm.costs();
        assert_eq!(c.icache_penalty_ns(1_000, 10_000), 0.0);
        assert!(c.icache_penalty_ns(100_000, 10_000) > 0.0);
    }

    #[test]
    fn platform_labels() {
        assert_eq!(Platform::IpxSunosAtm.label(), "IPX/SunOs");
        assert_eq!(Platform::all().len(), 2);
        assert!(Platform::PcLinuxFastEthernet
            .costs()
            .name
            .contains("Ethernet"));
    }

    #[test]
    fn pc_always_faster_than_ipx_on_large_arrays() {
        // §5: "the PC/Linux platform is always faster … the gap between
        // platforms is lowered on the specialized code".
        for spec in [false, true] {
            let ipx = marshal_ms(Platform::IpxSunosAtm, 2000, spec);
            let pc = marshal_ms(Platform::PcLinuxFastEthernet, 2000, spec);
            assert!(pc < ipx, "spec={spec}: pc {pc} < ipx {ipx}");
        }
        // §5: instruction elimination lowers the absolute gap between the
        // platforms (Figure 6-1 vs 6-2; in the paper's Table 1 the *ratio*
        // actually widens — 3.93/0.97 vs 1.38/0.29 — so the claim is about
        // absolute times).
        let gap_orig = marshal_ms(Platform::IpxSunosAtm, 2000, false)
            - marshal_ms(Platform::PcLinuxFastEthernet, 2000, false);
        let gap_spec = marshal_ms(Platform::IpxSunosAtm, 2000, true)
            - marshal_ms(Platform::PcLinuxFastEthernet, 2000, true);
        assert!(
            gap_spec < gap_orig,
            "specialization narrows the absolute gap"
        );
    }
}
