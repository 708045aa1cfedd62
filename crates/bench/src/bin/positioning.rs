//! Profile-guided procedure positioning (Pettis & Hansen, the paper's
//! reference \[12\]) on top of the optimized programs: compares I-cache
//! behaviour of the default module-order layout against the PGO layout,
//! using a small instruction cache where placement matters.

use hlo::HloOptions;
use hlo_analysis::{procedure_order, CallGraph};
use hlo_bench::{build, BuildKind, EXEC};
use hlo_ir::CodeLayout;
use hlo_sim::{simulate_with_layout, CacheConfig, MachineConfig};

fn machine() -> MachineConfig {
    MachineConfig {
        icache: CacheConfig {
            size_bytes: 512,
            line_bytes: 32,
            ways: 1,
        },
        ..Default::default()
    }
}

fn main() {
    println!("Procedure positioning (512B direct-mapped I$, cp builds)");
    println!(
        "{:<14} {:>12} {:>12} {:>9} {:>9} {:>8}",
        "benchmark", "I$miss(mod)", "I$miss(pgo)", "cyc(mod)M", "cyc(pgo)M", "speedup"
    );
    hlo_bench::rule(70);
    for b in hlo_suite::all_benchmarks() {
        let r = build(&b, BuildKind::CrossProfile, HloOptions::default());
        let p = &r.program;
        let (module_order, _) =
            simulate_with_layout(p, &[b.ref_arg], &EXEC, &machine(), CodeLayout::of(p))
                .expect("ref run");
        let cg = CallGraph::build(p);
        let order = procedure_order(p, &cg);
        let (pgo, _) = simulate_with_layout(
            p,
            &[b.ref_arg],
            &EXEC,
            &machine(),
            CodeLayout::with_order(p, &order),
        )
        .expect("ref run");
        println!(
            "{:<14} {:>11.2}% {:>11.2}% {:>9.2} {:>9.2} {:>8.3}",
            b.name,
            module_order.icache_miss_rate() * 100.0,
            pgo.icache_miss_rate() * 100.0,
            module_order.cycles / 1e6,
            pgo.cycles / 1e6,
            module_order.cycles / pgo.cycles,
        );
    }
    hlo_bench::rule(70);
    println!("speedup > 1.0: positioning helps at this cache size.");
    println!("Losses are real too: the suite's module order is already");
    println!("affinity-ordered (helpers sit next to their callers), which");
    println!("Pettis-Hansen cannot always beat on a direct-mapped cache.");
}
