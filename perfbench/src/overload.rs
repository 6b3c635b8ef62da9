//! `overload-proof`: exhaustive infeasibility proofs.
//!
//! Every input is an 8-task non-preemptive spec with precedence and
//! exclusion edges whose exact per-processor utilization exceeds 1, so
//! "Infeasible" is known to be right without trusting the tool
//! ([`oracle::overloaded`]). The search closes its whole reduced state
//! space on every op, so search time and dead-set memory are nearly all
//! of the work; parse, render and the server do almost nothing here.
//! Utilization-1 proofs stay out until an independent oracle can answer
//! them.

use crate::pipeline::{self, Expected, Input};
use crate::rng::SplitMix;
use crate::{oracle, timed_setups, Args, RunReport};
use ezrt_spec::generate::{synthetic_spec, WorkloadConfig};

/// Proofs per second of run length (one 2-core x86-64 box runs ~60–90;
/// a proof takes ~2–70 ms).
const NOMINAL_OPS_PER_S: f64 = 70.0;
/// Timing segments. The run is one pass over the input list, split into
/// this many consecutive chunks: seed-to-seed spread shrinks with the
/// number of distinct proofs, and medians over chunks ignore bursts of
/// outside load.
const SEGMENTS: usize = 10;
/// Untimed proofs run at set-up, from a fixed stream.
const WARM_UP_OPS: usize = 16;
const WARM_UP_STREAM: u64 = 0x5eed;
/// Precedence and exclusion probabilities of the drawn inputs.
const RELATIONS: (f64, f64) = (0.5, 0.3);
/// A fixed heavy proof every input list starts with, as `(utilization
/// target, generator seed, relation probabilities)`: 73,509 states, drawn
/// from a class with fewer relations (more interleavings) than the
/// drawn inputs, whose heaviest in 6,000 draws has 31,574. Peak memory
/// is a worst-case figure, so every run measures it on this same worst
/// case, not on the heaviest of its own draws: the maximum of a heavy
/// tail moves by a third from seed to seed.
const ANCHOR: (f64, u64, (f64, f64)) = (1.2729488769960657, 17910030555076904791, (0.3, 0.2));

/// The input for one generated spec, if the utilization check proves it
/// infeasible. Rounding computation times can land on U = 1 exactly,
/// where the true answer is not known; only proven overloads qualify.
fn overloaded_input(
    total_utilization: f64,
    generator_seed: u64,
    (precedence, exclusion): (f64, f64),
) -> Option<Input> {
    let config = WorkloadConfig {
        tasks: 8,
        total_utilization,
        periods: vec![40],
        preemptive_fraction: 0.0,
        precedence_probability: precedence,
        exclusion_probability: exclusion,
        constrained_deadlines: false,
    };
    let spec = synthetic_spec(&config, generator_seed);
    oracle::overloaded(&spec).then(|| Input {
        xml: ezrt_dsl::to_xml(&spec),
        expected: Expected::Infeasible,
        reference: None,
    })
}

/// `count` overloaded specs drawn from `stream`, and how many candidates
/// the utilization check turned away.
pub fn inputs(stream: u64, count: usize) -> (Vec<Input>, usize) {
    let mut rng = SplitMix::new(stream);
    let mut inputs = Vec::with_capacity(count + 1);
    let mut rejected = 0;
    while inputs.len() < count {
        let total_utilization = 1.1 + 0.2 * rng.unit();
        match overloaded_input(total_utilization, rng.next_u64(), RELATIONS) {
            Some(input) => inputs.push(input),
            None => rejected += 1,
        }
    }
    (inputs, rejected)
}

pub fn run(args: &Args) -> RunReport {
    let count = args.op_count(NOMINAL_OPS_PER_S);
    let (setup_s, (inputs, rejected)) = timed_setups(3, || {
        let (warm_up, _) = inputs(WARM_UP_STREAM, WARM_UP_OPS);
        for input in &warm_up {
            std::hint::black_box(pipeline::run_plain(&input.xml));
        }
        let (mut inputs, rejected) = inputs(args.seed, count);
        // First, so the heaviest proof meets a fresh heap in every run.
        let anchor =
            overloaded_input(ANCHOR.0, ANCHOR.1, ANCHOR.2).expect("the anchor is overloaded");
        inputs.insert(0, anchor);
        (inputs, rejected)
    });
    let mut report = RunReport::default();
    report.notes.push(format!(
        "inputs={} (one fixed anchor) rejected_at_or_below_u1={rejected}",
        inputs.len()
    ));
    // The drawn inputs split evenly over the segments; the anchor
    // (index 0) leads the first.
    let drawn: Vec<usize> = (1..inputs.len()).collect();
    let mut plan: Vec<Vec<usize>> = drawn
        .chunks(count.div_ceil(SEGMENTS))
        .map(<[usize]>::to_vec)
        .collect();
    plan[0].insert(0, 0);
    pipeline::run_workload(args, setup_s, &inputs, &plan, report)
}
