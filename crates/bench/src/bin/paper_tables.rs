//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p specrpc-bench --bin paper_tables [--release]
//! ```
//!
//! Prints Tables 1–4 side by side with the paper's reported values, and
//! the six Figure 6 series.

use specrpc_bench::*;
use specrpc_netsim::platform::Platform;

fn main() {
    println!("== Reproduction of Muller et al., \"Fast, Optimized Sun RPC Using");
    println!("   Automatic Program Specialization\" — Tables 1-4 and Figure 6 ==\n");
    println!("Op counts are measured from real executions of the generic and");
    println!("specialized marshaling code; platform cost models supply the 1997");
    println!("per-event weights (see specrpc_netsim::platform).\n");

    let mut fig6: Vec<(String, Vec<(usize, f64)>)> = Vec::new();

    for platform in Platform::all() {
        let t1 = table1(platform);
        println!(
            "{}",
            render_rows(
                &format!("Table 1 — Client marshaling, {}", platform.costs().name),
                &t1,
                &paper_table1(platform),
            )
        );
        fig6.push((
            format!("Fig 6-1/2 marshal {}", platform.label()),
            t1.iter().map(|r| (r.n, r.orig_ms)).collect(),
        ));
        fig6.push((
            format!("Fig 6-5 marshal speedup {}", platform.label()),
            t1.iter().map(|r| (r.n, r.speedup())).collect(),
        ));
        println!();
    }

    for platform in Platform::all() {
        let t2 = table2(platform);
        println!(
            "{}",
            render_rows(
                &format!("Table 2 — RPC round trip, {}", platform.costs().name),
                &t2,
                &paper_table2(platform),
            )
        );
        fig6.push((
            format!("Fig 6-3/4 round trip {}", platform.label()),
            t2.iter().map(|r| (r.n, r.orig_ms)).collect(),
        ));
        fig6.push((
            format!("Fig 6-6 round-trip speedup {}", platform.label()),
            t2.iter().map(|r| (r.n, r.speedup())).collect(),
        ));
        println!();
    }

    println!("Table 3 — Size of the client binaries (bytes)");
    println!(
        "{:>6} | {:>10} {:>12} | {:>12}",
        "n", "generic", "specialized", "paper-spec"
    );
    println!("{}", "-".repeat(50));
    for ((n, g, s), paper) in table3().iter().zip(PAPER_TABLE3_SPEC.iter()) {
        println!("{n:>6} | {g:>10} {s:>12} | {paper:>12}");
    }
    println!("(paper generic client code: 20004 bytes)\n");

    println!("Table 4 — Bounded (250) vs full unrolling, PC/Linux marshaling (ms)");
    println!(
        "{:>6} | {:>10} {:>10} {:>12} | {:>9} {:>9}",
        "n", "orig", "full", "250-chunked", "x(full)", "x(chunk)"
    );
    println!("{}", "-".repeat(66));
    for (n, orig, full, chunked) in table4() {
        println!(
            "{n:>6} | {orig:>10.3} {full:>10.3} {chunked:>12.3} | {:>9.2} {:>9.2}",
            orig / full,
            orig / chunked
        );
    }
    println!("(paper: 500: 0.29/0.11/0.108; 1000: 0.51/0.17/0.15; 2000: 0.97/0.29/0.25)\n");

    for platform in Platform::all() {
        println!(
            "{}",
            render_transport_rows(
                &format!(
                    "Modeled transports — round trip (ms), {}\n\
                     (UDP vs record-marked TCP vs lossy UDP: {:.0}% loss/direction,\n\
                     \u{20}RTO = {:.0}x clean RTT)",
                    platform.costs().name,
                    MODELED_LOSS * 100.0,
                    MODELED_RTO_RTT_MULTIPLE,
                ),
                &transport_table(platform),
            )
        );
    }

    println!(
        "{}",
        render_congestion_rows(
            "Retransmission-strategy study — overloaded burst on the honest\n\
             link (48 clients, drop-tail queue cap 12, rate-limited server;\n\
             deterministic virtual time, see `run_congestion`)",
            &congestion_study(),
        )
    );

    println!(
        "{}",
        render_nfs_rows(
            "Coalescing study — NFS-like mixed workload over the honest\n\
             per-packet link (8 clients, zipf handles, one-way WRITE bursts\n\
             \u{20}sealed by sync COMMITs; deterministic virtual time, see\n\
             \u{20}`run_nfs`)",
            &nfs_study(),
        )
    );

    println!(
        "{}",
        render_chaos_rows(
            "Availability study — mid-run primary crash with one backup\n\
             (8 clients, 24 calls each; deadline 8 ms, 30 ms downtime;\n\
             \u{20}deterministic virtual time, see `run_chaos`)",
            &chaos_study(),
        )
    );

    println!("Figure 6 — series (x = array size)");
    for (name, series) in fig6 {
        let points: Vec<String> = series
            .iter()
            .map(|(n, v)| format!("({n}, {v:.3})"))
            .collect();
        println!("  {name}: {}", points.join(" "));
    }
}
