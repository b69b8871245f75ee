//! The evaluation's shape expectations, asserted end-to-end from the
//! experiment drivers (these are the properties the paper's figures show;
//! absolute values are modeled, shapes must hold).

use specrpc::summary::Summary;
use specrpc_bench_shapes::*;

/// A thin re-export shim: the bench crate is a dev-only dependency of the
/// workspace root via path, so pull what we need through a module.
mod specrpc_bench_shapes {
    pub use specrpc::echo::{build_echo_proc, PAPER_SIZES};
}

#[test]
fn residual_grows_linearly_with_context_size_table3() {
    // Table 3: specialized code grows with the unroll count; generic is
    // constant. Check linear growth of the compiled stub.
    let mut sizes = Vec::new();
    for &n in &PAPER_SIZES[..4] {
        let p = build_echo_proc(n, None).expect("pipeline");
        sizes.push((n, p.client_encode.program.code_size_bytes()));
    }
    for w in sizes.windows(2) {
        let (n0, s0) = w[0];
        let (n1, s1) = w[1];
        let slope = (s1 - s0) as f64 / (n1 - n0) as f64;
        assert!((slope - 40.0).abs() < 1.0, "slope {slope} bytes/element");
    }
}

#[test]
fn eliminations_scale_with_array_size() {
    // §3: the interpretive overhead the specializer removes is per-element;
    // the report's eliminated counts must scale linearly.
    let s100 = Summary::from_report(&build_echo_proc(100, None).unwrap().client_encode.report);
    let s500 = Summary::from_report(&build_echo_proc(500, None).unwrap().client_encode.report);
    let ratio = s500.dispatches_eliminated as f64 / s100.dispatches_eliminated as f64;
    assert!((ratio - 5.0).abs() < 0.5, "dispatch ratio {ratio}");
    let ratio = s500.overflow_checks_eliminated as f64 / s100.overflow_checks_eliminated as f64;
    assert!((ratio - 5.0).abs() < 0.6, "overflow ratio {ratio}");
}

#[test]
fn decode_keeps_constant_guard_count() {
    // §3.4: decode keeps soundness checks; their number must NOT grow
    // with the array size (they guard the message, not the elements).
    let g8 = Summary::from_report(&build_echo_proc(8, None).unwrap().client_decode.report)
        .dynamic_guards;
    let g800 = Summary::from_report(&build_echo_proc(800, None).unwrap().client_decode.report)
        .dynamic_guards;
    assert_eq!(g8, g800, "guards must be size-independent");
    assert!(g8 >= 5);
}

#[test]
fn chunked_stub_code_is_bounded() {
    // Table 4: the 250-chunked stub's code size stops growing with n.
    let c1000 = build_echo_proc(1000, Some(250)).unwrap();
    let c2000 = build_echo_proc(2000, Some(250)).unwrap();
    let s1 = c1000.client_encode.program.code_size_bytes();
    let s2 = c2000.client_encode.program.code_size_bytes();
    assert!(
        (s2 as i64 - s1 as i64).unsigned_abs() < 2_000,
        "chunked code sizes {s1} vs {s2} must be near-constant"
    );
}
