//! Ablation: four marshaling implementations for the same
//! workload —
//!
//! 1. `interpreted` — the generic IR stub run in the Tempo interpreter
//!    (the table-driven extreme discussed in the paper's related work);
//! 2. `table_driven` — the descriptor-walking marshaler over the generic
//!    micro-layers (Hoschka–Huitema style);
//! 3. `generic` — compiled Rust micro-layers (the faithful Sun baseline);
//! 4. `specialized` — Tempo-specialized compiled stubs.

use criterion::{criterion_group, criterion_main, Criterion};
use specrpc::echo::{build_echo_proc, generic_encode_request, workload};
use specrpc_rpcgen::desc::{xdr_value, TypeDesc, XdrValue};
use specrpc_rpcgen::stubgen::StubKind;
use specrpc_tempo::compile::{run_encode, StubArgs};
use specrpc_tempo::eval::{Evaluator, Place, Value};
use specrpc_xdr::mem::XdrMem;
use specrpc_xdr::{OpCounts, XdrStream};
use std::hint::black_box;
use std::time::Duration;

const N: usize = 250;

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_marshal_250");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    // 1. Interpreted generic IR stub.
    let gs = specrpc_rpcgen::stubgen::generate_from_shapes(
        0x2000_0101,
        1,
        1,
        specrpc_rpcgen::stubgen::MsgShape {
            fields: vec![specrpc_rpcgen::stubgen::FieldShape::VarIntArray {
                name: "arr".into(),
                pinned_len: N,
                max: 100_000,
            }],
        },
        specrpc_rpcgen::stubgen::MsgShape::default(),
    );
    let _ = StubKind::ClientEncode;
    group.bench_function("interpreted_ir", |b| {
        b.iter(|| {
            let mut ev = Evaluator::new(&gs.program);
            let buf = ev.heap.alloc_bytes(1 << 14);
            let xdr = ev.heap.alloc_struct(&gs.program, gs.ids.xdr_sid);
            for (slot, v) in [(0usize, 0i64), (1, 0), (2, 1 << 14)] {
                ev.heap
                    .write_slot(Place { obj: xdr, slot }, Value::Long(v))
                    .unwrap();
            }
            ev.heap
                .write_slot(Place { obj: xdr, slot: 4 }, Value::BufPtr(buf, 0))
                .unwrap();
            let cmsg = ev.heap.alloc_struct(&gs.program, gs.ids.call_sid);
            let argsp = ev.heap.alloc_struct(&gs.program, gs.arg_sid);
            ev.heap
                .write_slot(
                    Place {
                        obj: argsp,
                        slot: 0,
                    },
                    Value::Long(N as i64),
                )
                .unwrap();
            for i in 0..N {
                ev.heap
                    .write_slot(
                        Place {
                            obj: argsp,
                            slot: 1 + i,
                        },
                        Value::Long(i as i64),
                    )
                    .unwrap();
            }
            let r = ev
                .call(
                    &gs.client_encode.entry,
                    vec![
                        Value::Ref(Place { obj: xdr, slot: 0 }),
                        Value::Ref(Place { obj: cmsg, slot: 0 }),
                        Value::Ref(Place {
                            obj: argsp,
                            slot: 0,
                        }),
                    ],
                )
                .unwrap();
            black_box(r)
        })
    });

    // 2. Table-driven descriptor marshaler.
    let desc = TypeDesc::Struct(vec![(
        "arr".into(),
        TypeDesc::VarArray(Box::new(TypeDesc::Int), 100_000),
    )]);
    let mut val = XdrValue::Struct(vec![XdrValue::Array(
        workload(N).into_iter().map(XdrValue::Int).collect(),
    )]);
    group.bench_function("table_driven", |b| {
        b.iter(|| {
            let mut enc = XdrMem::encoder(1 << 14);
            xdr_value(&mut enc, &desc, &mut val).unwrap();
            black_box(enc.getpos())
        })
    });

    // 3. Generic compiled micro-layers.
    let mut data = workload(N);
    let mut enc = XdrMem::encoder(1 << 14);
    group.bench_function("generic", |b| {
        b.iter(|| black_box(generic_encode_request(&mut enc, 7, &mut data).unwrap()))
    });

    // 4. Specialized compiled stubs.
    let proc_ = build_echo_proc(N, None).expect("pipeline");
    let args = StubArgs::new(vec![7], vec![workload(N)]);
    let mut buf = vec![0u8; proc_.client_encode.wire_len];
    let mut counts = OpCounts::new();
    group.bench_function("specialized", |b| {
        b.iter(|| {
            black_box(
                run_encode(&proc_.client_encode.program, &mut buf, &args, &mut counts).unwrap(),
            )
        })
    });

    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
