//! # cgselect-bench — the paper's evaluation, regenerated
//!
//! One binary per table/figure of the paper's §5 (see `src/bin/`), all
//! built from the shared experiment runner in this library:
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `fig1` | Figure 1 — four algorithms, random data, p ∈ {2..128}, n ∈ {128k, 512k, 2M} |
//! | `fig2` | Figure 2 — randomized selection × load balancers × {random, sorted} |
//! | `fig3` | Figure 3 — fast randomized × load balancers × {random, sorted} |
//! | `fig4` | Figure 4 — the two randomized algorithms on sorted data, best balancers |
//! | `fig5` | Figure 5 — randomized: total vs load-balance time, n = 2M |
//! | `fig6` | Figure 6 — fast randomized: total vs load-balance time, n = 2M |
//! | `table1` | Table 1 — expected run-time terms + measured iteration counts |
//! | `table2` | Table 2 — worst-case run-time terms + sorted-input measurements |
//! | `hybrid` | §5's hybrid experiment (deterministic algorithms, randomized kernels) |
//! | `headline` | §5's headline ratios, checked against the paper's claims |
//! | `all_figures` | everything above, writing `results/*.csv` and `results/*.txt` |
//! | `ablation` | ε / δ / sample-sort / threshold sweeps (incl. the paper's ε = 0.6 tuning) |
//! | `whatif` | the headline comparisons under modern / high-latency cost models |
//! | `topology` | the §2.1 crossbar assumption vs hypercube & mesh with per-hop costs |
//! | `wallclock` | branchless kernels vs the scalar-reference baseline, host wall time (`results/engine_wall.*`, `BENCH_wall.json`) |
//!
//! Pass `--quick` to any binary for a reduced grid (1 seed, smaller n).
//!
//! Times are **virtual CM-5 seconds** under the machine model
//! (`MachineModel::cm5()`); the criterion benches under `benches/` measure
//! real wall-clock time of the threaded runtime instead.

#![forbid(unsafe_code)]

pub mod chart;
pub mod experiment;
pub mod figs;

/// Returns true if `--quick` was passed on the command line.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The workspace root, resolved at run time: the nearest ancestor of the
/// current directory whose `Cargo.toml` declares a `[workspace]` (the
/// current directory itself when none does). Resolving it at run time, not
/// from the build's source path, makes a relocated checkout write into
/// itself.
pub fn workspace_root() -> std::path::PathBuf {
    let cwd = std::env::current_dir().expect("current directory must resolve");
    cwd.ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|manifest| manifest.lines().any(|l| l.trim() == "[workspace]"))
        })
        .unwrap_or(&cwd)
        .to_path_buf()
}

/// The directory experiment outputs are written to (`results/` at the
/// [`workspace_root`]), created on demand.
pub fn results_dir() -> std::path::PathBuf {
    let dir = workspace_root().join("results");
    std::fs::create_dir_all(&dir).expect("cannot create results directory");
    dir.canonicalize().expect("results directory must resolve")
}
