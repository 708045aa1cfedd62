//! Per-tier execution counters recorded into a `hlo-trace`
//! [`MetricsRegistry`].
//!
//! Metric names (tier label = [`Tier::as_str`]):
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `vm_runs_total{tier=…}` | counter | executions started |
//! | `vm_instructions_total{tier=…}` | counter | instructions retired (successful runs) |
//! | `vm_dispatch_total{tier=…}` | counter | dispatch-loop iterations (tree: = retired) |
//! | `vm_exec_us{tier=…}` | histogram | wall time of the run |
//! | `vm_bytecode_compile_us` | histogram | bytecode tier's compile step |
//!
//! Tier throughput in instructions/second is
//! `vm_instructions_total{tier=…} / vm_exec_us_sum{tier=…}`.

use crate::bytecode::BytecodeProgram;
use crate::exec::run_counted;
use crate::interp::{run_tree, ExecOptions, ExecOutcome, Tier};
use crate::monitor::ExecMonitor;
use crate::Trap;
use hlo_ir::Program;
use hlo_trace::{MetricsRegistry, LATENCY_BUCKETS_US};
use std::time::Instant;

/// [`crate::run_with_monitor`] with tier counters recorded into
/// `metrics`. Semantics are identical to the unmetered entry points.
///
/// # Errors
/// Returns a [`Trap`] exactly as [`crate::run_with_monitor`] does; the
/// run is still counted (instruction totals only advance on success,
/// since a trap carries no retired count).
pub fn run_with_monitor_metrics<M: ExecMonitor>(
    p: &Program,
    args: &[i64],
    opts: &ExecOptions,
    monitor: &mut M,
    metrics: &MetricsRegistry,
) -> Result<ExecOutcome, Trap> {
    match opts.tier {
        Tier::Tree => {
            let t0 = Instant::now();
            let res = run_tree(p, args, opts, monitor);
            let retired = res.as_ref().map(|o| o.retired).unwrap_or(0);
            // The tree-walker's dispatch count equals its retired count.
            record(metrics, Tier::Tree, t0.elapsed(), retired, retired);
            res
        }
        Tier::Bytecode => {
            let c0 = Instant::now();
            let bc = BytecodeProgram::compile(p);
            metrics.observe(
                "vm_bytecode_compile_us",
                LATENCY_BUCKETS_US,
                c0.elapsed().as_micros() as u64,
            );
            let t0 = Instant::now();
            let (res, dispatch) = run_counted(&bc, p, args, opts, monitor);
            let retired = res.as_ref().map(|o| o.retired).unwrap_or(0);
            record(metrics, Tier::Bytecode, t0.elapsed(), dispatch, retired);
            res
        }
    }
}

fn record(
    metrics: &MetricsRegistry,
    tier: Tier,
    elapsed: std::time::Duration,
    dispatch: u64,
    retired: u64,
) {
    let t = tier.as_str();
    metrics.inc(&format!("vm_runs_total{{tier=\"{t}\"}}"));
    metrics.add(&format!("vm_dispatch_total{{tier=\"{t}\"}}"), dispatch);
    metrics.add(&format!("vm_instructions_total{{tier=\"{t}\"}}"), retired);
    metrics.observe(
        &format!("vm_exec_us{{tier=\"{t}\"}}"),
        LATENCY_BUCKETS_US,
        elapsed.as_micros() as u64,
    );
}

/// Reads the registry back into a per-tier `(instructions, exec-us sum)`
/// pair for `tier`, for one-line throughput summaries.
pub fn tier_totals(metrics: &MetricsRegistry, tier: Tier) -> (u64, u64) {
    let t = tier.as_str();
    let insts = metrics.counter(&format!("vm_instructions_total{{tier=\"{t}\"}}"));
    let (_count, us) = metrics.histogram(&format!("vm_exec_us{{tier=\"{t}\"}}"));
    (insts, us)
}
