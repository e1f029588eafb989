//! Crash isolation of `Sweep::run`: a sweep of real simulation cells
//! with one cell that always panics runs every healthy cell exactly
//! once, and only then panics with a per-cell diagnosis (index, seed,
//! attempts, payload). The healthy cells' results are the ones a
//! detached rerun of the same seed produces.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use fancy_apps::ScenarioSpec;
use fancy_bench::runner::{CellCtx, Sweep};
use fancy_net::Prefix;
use fancy_sim::{GrayFailure, SimTime};
use fancy_tcp::{FlowConfig, ScheduledFlow};

const CELLS: usize = 16;
const PANICKING: usize = 3;
const BASE_SEED: u64 = 0x150_1A7E;

/// A real (small) simulation cell: gray-drop count of a linear scenario.
fn simulate(ctx: &CellCtx) -> u64 {
    let entry = Prefix(0x0A_70_00 + (ctx.seed % 32) as u32);
    let mut sc = ScenarioSpec::linear()
        .seed(ctx.seed)
        .flows(vec![ScheduledFlow {
            start: SimTime(0),
            dst: entry.host(1),
            cfg: FlowConfig::for_rate(2_000_000, 1.0),
        }])
        .high_priority(vec![entry])
        .build()
        .expect("scenario must build");
    sc.fail(GrayFailure::single_entry(entry, 0.4, SimTime(200_000_000)));
    sc.net.run_until(SimTime(1_000_000_000));
    ctx.absorb(&sc.net);
    sc.net.kernel.records.total_gray_drops()
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn panicking_cell_fails_the_sweep_after_every_healthy_cell_ran_once() {
    let reference = Sweep::new("isolation", vec![(); CELLS]).seed(BASE_SEED);
    // What a detached rerun of each healthy cell's seed produces.
    let expected: Vec<Option<u64>> = (0..CELLS)
        .map(|cell| {
            (cell != PANICKING).then(|| simulate(&CellCtx::detached(reference.cell_seed(cell))))
        })
        .collect();

    for threads in [1, 4] {
        let sweep = Sweep::new("isolation", (0..CELLS).collect::<Vec<usize>>())
            .seed(BASE_SEED)
            .threads(threads);
        let executions: Vec<AtomicU32> = (0..CELLS).map(|_| AtomicU32::new(0)).collect();
        let results: Mutex<Vec<Option<u64>>> = Mutex::new(vec![None; CELLS]);

        let caught = catch_unwind(AssertUnwindSafe(|| {
            sweep.run(|&cell, ctx| {
                executions[cell].fetch_add(1, Ordering::SeqCst);
                if cell == PANICKING {
                    panic!("deliberate panic in cell {cell}");
                }
                let drops = simulate(ctx);
                results.lock().unwrap()[cell] = Some(drops);
                drops
            })
        }));
        let msg = panic_text(
            caught
                .expect_err("a cell that always panics must fail the sweep")
                .as_ref(),
        );

        // The panic came at the end: every healthy cell ran exactly
        // once, and the broken one twice (the one-retry policy).
        for (cell, n) in executions.iter().enumerate() {
            let want = if cell == PANICKING { 2 } else { 1 };
            assert_eq!(
                n.load(Ordering::SeqCst),
                want,
                "cell {cell} at {threads} thread(s)"
            );
        }

        // The diagnosis names the cell, its seed, its attempts and the
        // payload — everything needed to reproduce it offline.
        assert!(
            msg.contains(&format!("sweep 'isolation': 1 of {CELLS} cell(s) failed")),
            "{msg}"
        );
        assert!(msg.contains("cell 0003"), "{msg}");
        assert!(
            msg.contains(&format!("{:#018x}", sweep.cell_seed(PANICKING))),
            "{msg}"
        );
        assert!(msg.contains("after 2 attempt(s)"), "{msg}");
        assert!(msg.contains("deliberate panic in cell 3"), "{msg}");

        // Crash isolation does not perturb the healthy cells: a
        // detached rerun of each seed reproduces its result.
        assert_eq!(
            results.into_inner().unwrap(),
            expected,
            "{threads} thread(s) diverged from the detached reruns"
        );
    }
}
