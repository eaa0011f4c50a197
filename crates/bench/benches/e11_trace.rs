//! E11 — a traced E6 join: per-phase breakdown and tracing overhead
//!
//! Thin `cargo bench` wrapper over the shared experiment suite — the
//! `harness` binary runs the same code and adds JSON reporting.

fn main() {
    let report = qof_bench::experiments::run("e11", qof_bench::experiments::Scale::Full)
        .expect("known experiment id");
    eprintln!("[{}] finished in {:.3}s", report.id, report.wall_secs);
}
