//! The benchmark's own tests of its inputs and counters: at `--jobs 1`
//! the machine-independent counters repeat exactly across runs, every
//! overload input has a known answer, and the self-tests catch a wrong
//! expected answer.

use crate::edit_serve;
use crate::overload;
use crate::pipeline::{self, Expected, Input};
use crate::trace::Tracer;

/// The counters that must repeat exactly: states visited, dead-set bytes
/// (hence bytes per state), POR skips, net size and C-unit bytes.
fn counters(input: &Input) -> [usize; 7] {
    let mut tracer = Tracer::default();
    let observed = pipeline::run_traced(&input.xml, input.reference.as_ref(), &mut tracer);
    let stats = &observed.stats;
    [
        stats.states_visited,
        stats.dead_set_bytes,
        stats.por_stubborn_skips,
        stats.por_sleep_skips,
        observed.places,
        observed.transitions,
        observed.codegen_bytes,
    ]
}

fn pump_input() -> Input {
    let xml = ezrt_dsl::to_xml(&ezrt_spec::corpus::mine_pump());
    let reference = Some(pipeline::reference_outcome(&xml));
    Input {
        xml,
        expected: Expected::Feasible,
        reference,
    }
}

#[test]
fn pump_counters_repeat_exactly() {
    let input = pump_input();
    let first = counters(&input);
    assert_eq!(first, counters(&input));
    assert_eq!(first[0], 4709, "the paper's case study visits 4,709 states");
    let plain = pipeline::run_plain(&input.xml);
    let again = pipeline::run_plain(&input.xml);
    assert_eq!(plain.codegen_bytes, again.codegen_bytes);
    assert_eq!(plain.artifacts, again.artifacts);
}

#[test]
fn overload_inputs_and_counters_repeat_exactly() {
    let (inputs, _) = overload::inputs(42, 6);
    let (again, _) = overload::inputs(42, 6);
    for (input, twin) in inputs.iter().zip(&again) {
        assert_eq!(input.xml, twin.xml, "inputs are a function of the seed");
        let spec = ezrt_dsl::from_xml(&input.xml).unwrap();
        assert!(crate::oracle::overloaded(&spec), "known answer: infeasible");
        assert_eq!(counters(input), counters(twin));
    }
    assert_ne!(inputs[0].xml, overload::inputs(43, 1).0[0].xml);
}

#[test]
fn self_tests_count_a_wrong_answer() {
    assert!(pipeline::self_test(&pump_input()));
    let (inputs, _) = overload::inputs(7, 1);
    assert!(pipeline::self_test(&inputs[0]));
    let session = edit_serve::session(7, 1);
    assert!(edit_serve::self_test(&session));
}

#[test]
fn a_wrong_expected_answer_is_a_failure() {
    let input = pump_input();
    let observed = pipeline::run_plain(&input.xml);
    assert!(pipeline::check(Expected::Feasible, &observed, None).is_ok());
    assert!(pipeline::check(Expected::Infeasible, &observed, None).is_err());
    let tampered = ["x".to_owned()];
    assert!(pipeline::check(Expected::Feasible, &observed, Some(&tampered)).is_err());
}

#[test]
fn edit_sessions_repeat_exactly() {
    let first = edit_serve::session(5, 4);
    let again = edit_serve::session(5, 4);
    let xmls = |session: &edit_serve::Session| -> Vec<String> {
        session.edits.iter().map(|edit| edit.xml.clone()).collect()
    };
    assert_eq!(xmls(&first), xmls(&again));
    assert_eq!(first.edits.len(), 20);
    // Two runs on fresh servers pick the same ancestors, so the write
    // reports carry the same search counters.
    assert_eq!(write_counters(&first), write_counters(&first));
}

/// The search counters of every write of one pass, in order.
fn write_counters(session: &edit_serve::Session) -> Vec<Vec<String>> {
    let (results, _, _) = edit_serve::serve(&session.bases, &session.edits, 5);
    results
        .into_iter()
        .map(|cycle| {
            let cycle = cycle.expect("cycle completes");
            let body = cycle.write.text().to_owned();
            [
                "states_visited",
                "backtracks",
                "peak_dead_set_bytes",
                "por_stubborn_skips",
                "por_sleep_skips",
                "incr_seed_hits",
                "incr_replayed",
            ]
            .iter()
            .map(|key| edit_serve::json_field(&body, key).unwrap_or("").to_owned())
            .collect()
        })
        .collect()
}
