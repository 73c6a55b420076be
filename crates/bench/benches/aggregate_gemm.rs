//! Fused aggregate→GEMM vs the unfused `aggregate → matmul` sequence on
//! the GCN layer shapes (the tentpole comparison of the SpMM-fusion work;
//! acceptance target: fused ≥ 1.3× on the 8192×602·602×256 shape).
//!
//! Both sides compute the full layer neighbor-half product
//! `C = (Â·H)·W` into a preallocated output:
//!
//! * `unfused` — `aggregate_feature_partitioned_into` (Alg. 6, 256 KiB
//!   fast memory) materialises `Â·H`, then the packed GEMM reads it back;
//! * `fused`   — the aggregation runs as the GEMM's A-panel producer and
//!   the aggregated matrix never leaves L2.
//!
//! A third contender, `fused_bf16`, is the same fused pipeline — same
//! producer, same driver, monomorphised for the other element — reading
//! bf16 storage (features quantised once up front, the way a bf16 shard
//! store or activation cache hands them over): the aggregation re-reads
//! each feature row `deg(u)` times at half the bytes, so on the
//! bandwidth-bound shapes it should clear ≥1.5× over f32 fused.
//!
//! Run with `GSGCN_BENCH_JSON=BENCH_fused_layer.json` to archive the
//! numbers (CI does); records are tagged with the dispatched GEMM
//! microkernel tier — the fused pipeline rides the same kernel dispatch
//! as the dense GEMMs — and with `precision=` for the storage type the
//! A-side rows are read in.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gsgcn_data::generators::{community_powerlaw, CommunityGraphSpec};
use gsgcn_prop::fused::AggregatedRows;
use gsgcn_prop::kernels;
use gsgcn_prop::propagator::scale_rows_by_inv_degree;
use gsgcn_tensor::{bf16, gemm, Bf16MatRef, DMatrix};
use std::hint::black_box;

/// Per-core fast-memory size handed to Alg. 6 (the paper's 256 KiB L2).
const CACHE_BYTES: usize = 256 * 1024;

fn bench_aggregate_gemm(c: &mut Criterion) {
    gsgcn_bench::announce_kernel_tier();
    // Per-record precision tag: the f32 and bf16 contenders run in the
    // same process, so the storage type is a property of the record, not
    // of the session.
    let set_precision_tag = |p: &str| {
        let mut tags = gsgcn_bench::base_tags();
        tags.retain(|(k, _)| k != "precision");
        tags.push(("precision".to_string(), p.to_string()));
        criterion::set_json_tags(tags);
    };
    let mut group = c.benchmark_group("aggregate_gemm");
    group.sample_size(15);
    // (n, f, h): subgraph vertices × input width × neighbor-half width.
    // 8192×602·602×256 is the acceptance shape (PPI-scale forward).
    for &(n, f, h) in &[(8192usize, 602usize, 256usize), (2048, 602, 256)] {
        let cg = community_powerlaw(
            &CommunityGraphSpec {
                vertices: n,
                edges: n * 8,
                communities: 16,
                ..CommunityGraphSpec::default()
            },
            11,
        );
        let g = &cg.graph;
        let hm = DMatrix::from_fn(n, f, |i, j| ((i * 5 + j) % 11) as f32 * 0.1 - 0.5);
        let w = DMatrix::from_fn(f, h, |i, j| ((i * 3 + j) % 7) as f32 * 0.15 - 0.4);
        // Count the edge gathers plus the dense GEMM work.
        group.throughput(Throughput::Elements(
            (g.num_edges() * f + 2 * n * f * h) as u64,
        ));

        let mut c_out = DMatrix::zeros(n, h);
        set_precision_tag("f32");
        group.bench_with_input(
            BenchmarkId::new("fused", format!("{n}x{f}x{h}")),
            &n,
            |bch, _| {
                bch.iter(|| {
                    gemm::gemm_source_nn_v(
                        1.0,
                        &AggregatedRows::mean(g, hm.view()),
                        w.view(),
                        0.0,
                        c_out.view_mut(),
                    );
                    black_box(c_out.get(0, 0))
                });
            },
        );

        // bf16 storage: features quantised once (as a bf16 shard store or
        // activation cache would hand them over), aggregation widens rows
        // on load and accumulates in f32.
        let mut qbits = vec![0u16; n * f];
        bf16::quantize_slice(hm.data(), bf16::from_bits_slice_mut(&mut qbits));
        let qh = Bf16MatRef::new(bf16::from_bits_slice(&qbits), n, f);
        set_precision_tag("bf16");
        group.bench_with_input(
            BenchmarkId::new("fused_bf16", format!("{n}x{f}x{h}")),
            &n,
            |bch, _| {
                bch.iter(|| {
                    gemm::gemm_source_nn_v(
                        1.0,
                        &AggregatedRows::mean(g, qh),
                        w.view(),
                        0.0,
                        c_out.view_mut(),
                    );
                    black_box(c_out.get(0, 0))
                });
            },
        );

        set_precision_tag("f32");
        let mut agg = DMatrix::zeros(n, f);
        group.bench_with_input(
            BenchmarkId::new("unfused", format!("{n}x{f}x{h}")),
            &n,
            |bch, _| {
                bch.iter(|| {
                    agg.fill(0.0);
                    kernels::aggregate_feature_partitioned_into(g, &hm, CACHE_BYTES, &mut agg);
                    scale_rows_by_inv_degree(g, &mut agg);
                    gemm::gemm_nn_v(1.0, agg.view(), w.view(), 0.0, c_out.view_mut());
                    black_box(c_out.get(0, 0))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_aggregate_gemm);
criterion_main!(benches);
