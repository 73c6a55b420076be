//! Criterion microbenchmarks of the dense GEMM kernels (the MKL
//! replacement used for weight application, Sec. V-A).
//!
//! Two shape families:
//!
//! * square-ish (`1000×512×256`, `2000×512×512`) — generic kernel health;
//! * GCN-shaped tall-skinny (`n×f · f×h` with `n` = sampled-subgraph
//!   vertices, `f` = feature width, `h` = hidden width; e.g. `8192×602 ·
//!   602×256` is a PPI-scale forward weight application) — the shapes the
//!   training loop actually issues, benchmarked for the packed kernel
//!   against the seed's unpacked k-blocked kernel
//!   (`gemm::matmul_unpacked`) so the packing win stays measured, and
//!   **per microkernel tier** (`packed_scalar` / `packed_avx2` /
//!   `packed_avx512`, whichever the CPU supports) so the explicit-SIMD
//!   gain over the autovectorised fallback stays measured too (acceptance
//!   target: avx512 ≥ 1.5× scalar on `8192×602·602×256`). The `amx`
//!   tier runs no f32 case of its own: its f32 kernel is avx512's, and
//!   `packed_bf16` runs its tile unit wherever it is the selected tier.
//!
//! Run with `GSGCN_BENCH_JSON=BENCH_gemm.json` to archive the numbers;
//! each record is tagged with the kernel tier that produced it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gsgcn_tensor::{bf16, gemm, Bf16MatRef, DMatrix};
use std::hint::black_box;

fn bench_gemm(c: &mut Criterion) {
    gsgcn_bench::announce_kernel_tier();
    let mut group = c.benchmark_group("gemm");
    group.sample_size(20);
    for &(m, k, n) in &[(1000usize, 512usize, 256usize), (2000, 512, 512)] {
        let a = DMatrix::from_fn(m, k, |i, j| ((i + j) % 7) as f32 * 0.1);
        let b = DMatrix::from_fn(k, n, |i, j| ((i * 3 + j) % 5) as f32 * 0.2);
        group.throughput(Throughput::Elements((2 * m * k * n) as u64));
        group.bench_with_input(
            BenchmarkId::new("nn", format!("{m}x{k}x{n}")),
            &m,
            |bch, _| {
                bch.iter(|| black_box(gemm::matmul(&a, &b)));
            },
        );
        let bt = DMatrix::from_fn(n, k, |i, j| ((i * 3 + j) % 5) as f32 * 0.2);
        group.bench_with_input(
            BenchmarkId::new("nt", format!("{m}x{k}x{n}")),
            &m,
            |bch, _| {
                bch.iter(|| black_box(gemm::matmul_nt(&a, &bt)));
            },
        );
        let at = DMatrix::from_fn(k, m, |i, j| ((i + j) % 7) as f32 * 0.1);
        group.bench_with_input(
            BenchmarkId::new("tn", format!("{m}x{k}x{n}")),
            &m,
            |bch, _| {
                bch.iter(|| black_box(gemm::matmul_tn(&at, &b)));
            },
        );
    }
    group.finish();
}

/// GCN training shapes: packed kernel vs the seed's unpacked kernel.
fn bench_gemm_gcn_shapes(c: &mut Criterion) {
    gsgcn_bench::announce_kernel_tier();
    let mut group = c.benchmark_group("gemm_gcn");
    group.sample_size(20);
    // (n, f, h): subgraph vertices × input width × hidden width.
    // 8192×602·602×256 ≈ a PPI-scale forward weight application;
    // 8192×256·256×128 ≈ a deeper layer; 2048×602·602×256 ≈ a smaller
    // sampling budget.
    for &(n, f, h) in &[
        (8192usize, 602usize, 256usize),
        (8192, 256, 128),
        (2048, 602, 256),
    ] {
        let act = DMatrix::from_fn(n, f, |i, j| ((i * 5 + j) % 11) as f32 * 0.1 - 0.5);
        let w = DMatrix::from_fn(f, h, |i, j| ((i * 3 + j) % 7) as f32 * 0.15 - 0.4);
        group.throughput(Throughput::Elements((2 * n * f * h) as u64));
        group.bench_with_input(
            BenchmarkId::new("packed", format!("{n}x{f}x{h}")),
            &n,
            |bch, _| {
                bch.iter(|| black_box(gemm::matmul(&act, &w)));
            },
        );
        // Every available microkernel tier on the forward shape: the
        // explicit-SIMD vs autovec-fallback comparison CI archives. The
        // amx tier's f32 kernel is avx512's, so it is not run twice.
        for tier in gemm::available_tiers()
            .into_iter()
            .filter(|&t| t != gemm::Tier::Amx)
        {
            criterion::set_json_tags([("kernel", tier.name())]);
            group.bench_with_input(
                BenchmarkId::new(format!("packed_{}", tier.name()), format!("{n}x{f}x{h}")),
                &n,
                |bch, _| {
                    gemm::with_tier(tier, || {
                        bch.iter(|| black_box(gemm::matmul(&act, &w)));
                    });
                },
            );
        }
        // The same forward shape from bf16-stored activations (bf16
        // panels, f32 accumulate), tagged with the engine that ran it.
        let mut qbits = vec![0u16; n * f];
        bf16::quantize_slice(act.data(), bf16::from_bits_slice_mut(&mut qbits));
        let qact = Bf16MatRef::new(bf16::from_bits_slice(&qbits), n, f);
        let mut c_out = DMatrix::zeros(n, h);
        criterion::set_json_tags([
            ("kernel", gemm::selected_tier().name()),
            ("precision", "bf16"),
            ("bf16_engine", gemm::bf16_engine(gemm::selected_tier())),
        ]);
        group.bench_with_input(
            BenchmarkId::new("packed_bf16", format!("{n}x{f}x{h}")),
            &n,
            |bch, _| {
                bch.iter(|| {
                    gemm::gemm_bf16_nn_v(1.0, qact, w.view(), 0.0, c_out.view_mut());
                    black_box(c_out.get(0, 0))
                });
            },
        );
        criterion::set_json_tags([("kernel", gemm::selected_tier().name())]);
        group.bench_with_input(
            BenchmarkId::new("seed_unpacked", format!("{n}x{f}x{h}")),
            &n,
            |bch, _| {
                bch.iter(|| black_box(gemm::matmul_unpacked(&act, &w)));
            },
        );
        // The backward shapes: weight gradient (tn) and input gradient
        // (nt) at the same scale — the layouts the seed kernel handled
        // worst (nt ran a horizontal-reduction dot-product loop).
        let dy = DMatrix::from_fn(n, h, |i, j| ((i + 2 * j) % 9) as f32 * 0.1 - 0.4);
        group.bench_with_input(
            BenchmarkId::new("packed_tn", format!("{n}x{f}x{h}")),
            &n,
            |bch, _| {
                bch.iter(|| black_box(gemm::matmul_tn(&act, &dy)));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("packed_nt", format!("{n}x{f}x{h}")),
            &n,
            |bch, _| {
                // dH = dY·Wᵀ: W is already stored n×k (= f×h) for nt.
                bch.iter(|| black_box(gemm::matmul_nt(&dy, &w)));
            },
        );
    }
    group.finish();
}

/// The yelp-shaped GEMMs of out-of-core training, on one thread: widths
/// that are not a multiple of the AVX-512 tile (the driver runs each
/// strip's last panel at its exact width) and a row-major A operand (the
/// 8-row block pack). `nn` is a forward `H·W`, `tn` a weight gradient
/// `Hᵀ·dY` with its A stored transposed.
fn bench_gemm_tails(c: &mut Criterion) {
    gsgcn_bench::announce_kernel_tier();
    let mut group = c.benchmark_group("gemm_tail_1t");
    group.sample_size(20);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    for &(m, k, n, trans) in &[
        (1557usize, 602usize, 128usize, false),
        (1557, 602, 100, false),
        (1557, 256, 64, false),
        (300, 1563, 32, true),
    ] {
        let a = DMatrix::from_fn(m, k, |i, j| ((i * 5 + j) % 11) as f32 * 0.1 - 0.5);
        let at = a.transpose();
        let b = DMatrix::from_fn(k, n, |i, j| ((i * 3 + j) % 7) as f32 * 0.15 - 0.4);
        let mut out = DMatrix::zeros(m, n);
        group.throughput(Throughput::Elements((2 * m * k * n) as u64));
        let layout = if trans { "tn" } else { "nn" };
        group.bench_with_input(
            BenchmarkId::new(layout, format!("{m}x{k}x{n}")),
            &m,
            |bch, _| {
                pool.install(|| {
                    bch.iter(|| {
                        if trans {
                            gemm::gemm_tn_v(1.0, at.view(), b.view(), 0.0, out.view_mut());
                        } else {
                            gemm::gemm_nn_v(1.0, a.view(), b.view(), 0.0, out.view_mut());
                        }
                        black_box(out.get(0, 0))
                    });
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_gemm, bench_gemm_gcn_shapes, bench_gemm_tails);
criterion_main!(benches);
