//! The benchmark's own known-answer check for infeasibility proofs.
//!
//! On one processor, every instance of task `i` must receive `Cᵢ` units
//! of processor time inside its own period window, and all windows of a
//! hyperperiod `H` lie inside `[0, H)`. So if some processor's demand
//! `Σ Cᵢ·H/Tᵢ` exceeds `H`, no schedule exists, whatever the relations
//! between tasks. The arithmetic is exact (integers only) and reads just
//! the task timings: it shares no code with `compose` or `scheduler`, so
//! it can judge their "Infeasible" verdicts.

use ezrt_spec::EzSpec;
use std::collections::BTreeMap;

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Per-processor `(demand, H)` over the processor's own hyperperiod
/// `H = lcm(Tᵢ)`, keyed by processor name.
pub fn processor_demand(spec: &EzSpec) -> BTreeMap<String, (u128, u128)> {
    let mut periods: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
    for (_, task) in spec.tasks() {
        let timing = task.timing();
        let processor = spec.processor(task.processor()).name().to_owned();
        periods
            .entry(processor)
            .or_default()
            .push((timing.computation, timing.period));
    }
    periods
        .into_iter()
        .map(|(processor, tasks)| {
            let h = tasks
                .iter()
                .fold(1u64, |h, &(_, period)| h / gcd(h, period) * period);
            let demand = tasks
                .iter()
                .map(|&(c, period)| u128::from(c) * u128::from(h / period))
                .sum();
            (processor, (demand, u128::from(h)))
        })
        .collect()
}

/// Whether some processor is overloaded (`Σ Cᵢ·H/Tᵢ > H`), which
/// proves the specification infeasible.
pub fn overloaded(spec: &EzSpec) -> bool {
    processor_demand(spec)
        .values()
        .any(|&(demand, h)| demand > h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezrt_spec::SpecBuilder;

    #[test]
    fn demand_is_exact_over_the_hyperperiod() {
        // 3/4 + 2/6 = 13/12 > 1 over H = 12: demand 9 + 4 = 13.
        let spec = SpecBuilder::new("over")
            .task("a", |t| t.computation(3).deadline(4).period(4))
            .task("b", |t| t.computation(2).deadline(6).period(6))
            .build()
            .unwrap();
        let demand = processor_demand(&spec);
        assert_eq!(demand.values().copied().collect::<Vec<_>>(), [(13, 12)]);
        assert!(overloaded(&spec));
    }

    #[test]
    fn full_utilization_is_not_an_overload() {
        let spec = SpecBuilder::new("full")
            .task("a", |t| t.computation(2).deadline(4).period(4))
            .task("b", |t| t.computation(4).deadline(8).period(8))
            .build()
            .unwrap();
        assert!(!overloaded(&spec));
        assert!(!overloaded(&ezrt_spec::corpus::mine_pump()));
    }
}
