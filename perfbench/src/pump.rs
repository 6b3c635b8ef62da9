//! `pump-pipeline`: the paper's §5 case study, end to end, on every op.
//!
//! Each op parses the mine pump from fresh XML, digests it, synthesizes
//! (a first-feasible DFS of 4,709 states at `--jobs 1`), replays and
//! validates the schedule, and renders the report, the schedule table,
//! the POSIX C unit and the Gantt chart. The search is the largest part
//! of an op; this is the one workload where translate, derive, validate,
//! replay, render and codegen also show. The input is the case study itself, so
//! it does not vary with the seed.

use crate::pipeline::{self, Expected, Input};
use crate::{timed_setups, Args, RunReport};

/// Ops per second the run length is sized for (one 2-core x86-64 box).
const NOMINAL_OPS_PER_S: f64 = 90.0;
/// Ops per timing segment: enough for a p90 with ten samples beyond it.
const OPS_PER_SEGMENT: usize = 100;
/// Untimed ops run at set-up, so allocator and caches settle first.
const WARM_UP_OPS: usize = 20;

fn setup() -> Vec<Input> {
    let xml = ezrt_dsl::to_xml(&ezrt_spec::corpus::mine_pump());
    for _ in 0..WARM_UP_OPS {
        std::hint::black_box(pipeline::run_plain(&xml));
    }
    let reference = Some(pipeline::reference_outcome(&xml));
    vec![Input {
        xml,
        expected: Expected::Feasible,
        reference,
    }]
}

pub fn run(args: &Args) -> RunReport {
    let (setup_s, inputs) = timed_setups(3, setup);
    // The input list is one spec, so every op is a whole pass.
    let segments = args.op_count(NOMINAL_OPS_PER_S) / OPS_PER_SEGMENT;
    let plan = vec![vec![0; OPS_PER_SEGMENT]; segments];
    pipeline::run_workload(args, setup_s, &inputs, &plan, RunReport::default())
}
