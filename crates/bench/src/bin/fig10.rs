//! Figure 10: breakdown of runtime overhead and effect of hybrid copy.
//!
//! Normalized run time of memory-intensive workloads under three
//! configurations: base (no checkpoint), CoW (1 ms checkpoints; a write to
//! a committed page takes a copy-on-write fault) and CoW+hybrid (hot pages
//! migrate to DRAM and are stop-and-copied instead of faulting). The paper
//! splits the CoW overhead into fault handling and page copying; the
//! kernel times the two disjointly (`KernelStats::fault_ns` and
//! `memcpy_ns`), and the last two columns report them for the CoW run as
//! shares of the base run time. They are core time, so on a multi-core
//! run they may add up to more than the wall-clock overhead. The paper
//! finds most overhead in those two, with hybrid copy reducing it by up
//! to 49 %.

use std::time::Duration;

use treesls_bench::harness::{build, BenchOpts};
use treesls_bench::table::Table;
use treesls_bench::{Sink, WorkloadKind};

#[derive(Clone, Copy)]
struct Mode {
    ckpt: bool,
    hybrid: bool,
}

/// base, CoW, CoW+hybrid — the column order of the table.
const MODES: [Mode; 3] = [
    Mode { ckpt: false, hybrid: false },
    Mode { ckpt: true, hybrid: false },
    Mode { ckpt: true, hybrid: true },
];

fn main() {
    let base_opts = BenchOpts::from_args();
    let mut sink =
        Sink::new("fig10", "Figure 10: runtime overhead breakdown (normalized run time)", &base_opts);
    let kinds =
        [WorkloadKind::Memcached, WorkloadKind::Redis, WorkloadKind::KMeans, WorkloadKind::Pca];
    let mut table =
        Table::new(&["Workload", "base", "CoW", "CoW+hybrid", "CoW fault", "CoW memcpy"]);
    let deadline = Duration::from_secs(if base_opts.full { 600 } else { 120 });
    for kind in kinds {
        let mut row = vec![kind.label().to_string()];
        let mut base_ns = None;
        let mut cow_split = None;
        for mode in MODES {
            let mut opts = base_opts.clone();
            opts.interval = mode.ckpt.then(|| Duration::from_millis(1));
            opts.hybrid = mode.hybrid;
            let mut bench = build(kind, &opts);
            let before = bench.sys.kernel().stats.snapshot();
            let elapsed = bench.run(deadline).as_nanos() as f64;
            let stats = bench.sys.kernel().stats.snapshot().since(&before);
            match base_ns {
                None => {
                    base_ns = Some(elapsed);
                    row.push(format!("1.00 ({:.0}ms)", elapsed / 1e6));
                }
                Some(base) => row.push(format!("{:.2}", elapsed / base)),
            }
            if mode.ckpt && !mode.hybrid {
                cow_split = Some(stats);
            }
        }
        let (base, cow) = (base_ns.expect("base mode ran"), cow_split.expect("CoW mode ran"));
        row.push(format!("{:.2}", cow.fault_ns as f64 / base));
        row.push(format!("{:.2}", cow.memcpy_ns as f64 / base));
        table.row(row);
    }
    sink.table("normalized_runtime", table);
    sink.finish();
}
