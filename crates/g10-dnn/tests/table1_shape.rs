//! Integration check: the model zoo lands in the same regime as Table 1 of
//! the paper (kernel counts) and Figure 11 (memory footprint ratios).

use g10_dnn::models::{build_model, ModelKind};

const GPU_CAPACITY: f64 = 40.0 * 1024.0 * 1024.0 * 1024.0;

#[test]
#[ignore = "builds every full-size model; run explicitly with --ignored"]
fn print_table1_shape() {
    for kind in ModelKind::PAPER_MODELS {
        let g = build_model(kind, kind.eval_batch());
        let index = g.index();
        println!(
            "{:12} B={:5} kernels={:5} tensors={:6} peak_live={:8.1} GiB M={:7.1}% max_ws={:6.2} GiB",
            kind.name(),
            kind.eval_batch(),
            g.num_kernels(),
            g.num_tensors(),
            index.peak_live_bytes() as f64 / (1u64 << 30) as f64,
            index.peak_live_bytes() as f64 / GPU_CAPACITY * 100.0,
            index.max_kernel_working_set_bytes() as f64 / (1u64 << 30) as f64,
        );
    }
}
