//! Hardware denominators and kernel probes for the traced pass: what the
//! machine can do (stream bandwidth, FMA rate), measured in the same run
//! as the kernels that are stated against it.

use crate::report::Report;
use gsgcn_graph::CsrGraph;
use gsgcn_prop::propagator::{FeaturePropagator, PropMode};
use gsgcn_tensor::{bf16, gemm, Bf16, Bf16MatRef, DMatrix, Precision};
use std::time::Instant;

const MIB: f64 = (1 << 20) as f64;

/// Largest cache size (bytes) the kernel reports for cpu0, or 32 MiB when
/// sysfs has nothing to say.
fn llc_bytes() -> usize {
    let mut best = 0usize;
    for idx in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}/size");
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(bytes) = gsgcn_graph::store::parse_byte_size(text.trim()) {
                best = best.max(bytes);
            }
        }
    }
    if best == 0 {
        32 << 20
    } else {
        best
    }
}

/// `MemAvailable` in bytes (conservative 1 GiB when unreadable).
fn mem_available_bytes() -> usize {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("MemAvailable:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<usize>().ok())
        })
        .map_or(1 << 30, |kib| kib << 10)
}

/// Best wall-clock seconds of `reps` runs of `f` after one warm-up run.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// First touch of fresh memory costs ~10 µs a page inside the VM the
/// benchmark was defined on, so a triad over 3 × 4 × its 260 MiB (host,
/// shared) last-level cache would spend ten seconds faulting pages in.
const STREAM_ARRAY_CAP: usize = 256 << 20;

/// Triad `a = b + s·c` over three arrays of four times the last-level
/// cache each — capped at [`STREAM_ARRAY_CAP`] and at a twelfth of free
/// memory; both sizes are reported beside the result — split over
/// `threads` threads. Bytes are computed: two reads and one write per
/// element.
fn stream_triad(threads: usize, out: &mut Report) {
    let llc = llc_bytes();
    let bytes = (4 * llc)
        .clamp(64 << 20, STREAM_ARRAY_CAP)
        .min(mem_available_bytes() / 12);
    let n = bytes / 4;
    let b = vec![1.0f32; n];
    let c = vec![2.0f32; n];
    let mut a = vec![0.0f32; n];
    let chunk = n.div_ceil(threads.max(1));
    let secs = best_of(1, || {
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = y + 3.0 * z;
                    }
                });
            }
        });
        std::hint::black_box(&a);
    });
    out.set("probe.stream_gbps", 3.0 * bytes as f64 / secs / 1e9);
    out.set("probe.stream_array_mib", bytes as f64 / MIB);
    out.set("probe.llc_mib", llc as f64 / MIB);
}

const FMA_ITERS: usize = 4_000_000;
/// Independent accumulator chains per thread — enough to cover the FMA
/// latency × two ports on current cores.
const FMA_CHAINS: usize = 12;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn fma_loop_avx512() -> (f32, usize) {
    use std::arch::x86_64::*;
    let x = _mm512_set1_ps(1.000_000_1);
    let y = _mm512_set1_ps(1e-9);
    let mut acc = [_mm512_set1_ps(1.0); FMA_CHAINS];
    for _ in 0..FMA_ITERS {
        for a in &mut acc {
            *a = _mm512_fmadd_ps(*a, x, y);
        }
    }
    let mut sum = _mm512_setzero_ps();
    for a in acc {
        sum = _mm512_add_ps(sum, a);
    }
    (_mm512_reduce_add_ps(sum), 16)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_loop_avx2() -> (f32, usize) {
    use std::arch::x86_64::*;
    let x = _mm256_set1_ps(1.000_000_1);
    let y = _mm256_set1_ps(1e-9);
    let mut acc = [_mm256_set1_ps(1.0); FMA_CHAINS];
    for _ in 0..FMA_ITERS {
        for a in &mut acc {
            *a = _mm256_fmadd_ps(*a, x, y);
        }
    }
    let mut lanes = [0.0f32; 8];
    let mut total = 0.0;
    for a in acc {
        // SAFETY: `lanes` is 8 f32 = 32 bytes, the width of one unaligned
        // 256-bit store.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), a) };
        total += lanes.iter().sum::<f32>();
    }
    (total, 8)
}

fn fma_loop_portable() -> (f32, usize) {
    let mut acc = [[1.0f32; 8]; FMA_CHAINS];
    for _ in 0..FMA_ITERS {
        for a in &mut acc {
            for l in a.iter_mut() {
                *l = l.mul_add(1.000_000_1, 1e-9);
            }
        }
    }
    (acc.iter().flatten().sum(), 8)
}

/// One thread's FMA loop on the widest unit the CPU has; returns
/// `(checksum, lanes)`.
fn fma_loop() -> (f32, usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: avx512f was just detected on this CPU.
            return unsafe { fma_loop_avx512() };
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: avx2 and fma were just detected on this CPU.
            return unsafe { fma_loop_avx2() };
        }
    }
    fma_loop_portable()
}

/// f32 FMA rate over `threads` threads running independent register-only
/// chains (2 flops per lane per FMA).
fn fma_peak(threads: usize, out: &mut Report) {
    let mut lanes = 0;
    let secs = best_of(2, || {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads.max(1)).map(|_| s.spawn(fma_loop)).collect();
            for h in handles {
                let (sum, l) = h.join().expect("fma probe thread");
                std::hint::black_box(sum);
                lanes = l;
            }
        });
    });
    let flops = 2.0 * (FMA_ITERS * FMA_CHAINS * lanes * threads.max(1)) as f64;
    out.set("probe.fma_gflops", flops / secs / 1e9);
}

/// Machine denominators: stream bandwidth and FMA rate on `threads` threads.
pub fn machine(threads: usize, out: &mut Report) {
    stream_triad(threads, out);
    fma_peak(threads, out);
}

fn quantized(m: &DMatrix) -> Vec<Bf16> {
    let mut q = vec![Bf16::from_f32(0.0); m.data().len()];
    bf16::quantize_slice(m.data(), &mut q);
    q
}

/// Dense GEMM and fused aggregate→GEMM at the workload's own shape
/// (`n_sub × f` times `f × h`, over sampled subgraph `g`), on the current
/// rayon pool, stated against the machine probes already in `out`.
pub fn kernels(g: &CsrGraph, f: usize, h: usize, precision: Precision, out: &mut Report) {
    let n = g.num_vertices();
    let x = DMatrix::from_fn(n, f, |i, j| ((i * 31 + j * 17) % 97) as f32 / 97.0 - 0.5);
    let w = DMatrix::from_fn(f, h, |i, j| ((i * 13 + j * 7) % 89) as f32 / 89.0 - 0.5);
    let mut c = DMatrix::zeros(n, h);
    let xq = quantized(&x);
    let elem = match precision {
        Precision::F32 => 4.0,
        Precision::Bf16 => 2.0,
    };

    let gemm_secs = best_of(3, || match precision {
        Precision::F32 => gemm::gemm_nn(1.0, &x, &w, 0.0, &mut c),
        Precision::Bf16 => {
            gemm::gemm_bf16_nn_v(1.0, Bf16MatRef::new(&xq, n, f), w.view(), 0.0, c.view_mut())
        }
    });
    let flops = 2.0 * (n * f * h) as f64;
    let gflops = flops / gemm_secs / 1e9;
    out.set("tensor.gemm_flops", flops);
    out.set("tensor.gemm_gflops", gflops);
    // Computed, not measured: A at storage width, B and C in f32.
    out.set(
        "tensor.gemm_ops_per_byte",
        flops / ((n * f) as f64 * elem + ((f * h + n * h) * 4) as f64),
    );
    out.set("tensor.gemm_vs_peak", gflops / out.get("probe.fma_gflops"));

    let prop = FeaturePropagator::new(PropMode::default());
    let fused_secs = best_of(3, || match precision {
        Precision::F32 => prop.forward_gemm_into(g, &x, w.view(), 0.0, c.view_mut()),
        Precision::Bf16 => {
            prop.forward_gemm_bf16_into(g, Bf16MatRef::new(&xq, n, f), w.view(), 0.0, c.view_mut())
        }
    });
    out.set("prop.fused_gelems", (n * f * h) as f64 / fused_secs / 1e9);
    // Computed bytes: every neighbour row read once at storage width, the
    // result written once.
    let bytes = g.num_edges() as f64 * f as f64 * elem + (n * h * 4) as f64;
    out.set(
        "prop.fused_vs_stream",
        bytes / fused_secs / 1e9 / out.get("probe.stream_gbps"),
    );
    std::hint::black_box(&c);
}
