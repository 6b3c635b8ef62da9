//! The in-process op shared by `pump-pipeline` and `overload-proof`:
//! XML → parse → digest → synthesis → rendered artifacts, plus the check
//! of every op against an answer the program did not produce.

use crate::stats::{Samples, Segments};
use crate::trace::{self, Tracer};
use crate::{Args, RunReport};
use ezrt_artifacts::report;
use ezrt_artifacts::{
    compute_outcome, project_digest, render, structure_digest, task_subdigests, ArtifactKind,
    SynthesisOutcome,
};
use ezrt_codegen::{CodeGenerator, ScheduleTable, Target};
use ezrt_core::Project;
use ezrt_scheduler::{synthesize, SearchStats, SynthesizeError, Timeline};
use std::time::Instant;

/// The artifacts a feasible op renders: the `schedule --json` report,
/// the Fig. 8 table, the generated POSIX C unit and the Gantt chart.
pub const FEASIBLE_KINDS: [ArtifactKind; 4] = [
    ArtifactKind::ReportJson,
    ArtifactKind::Table,
    ArtifactKind::Codegen(Target::PosixSim),
    ArtifactKind::Gantt,
];

/// The answer an op must reach, known without running the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    /// A feasible schedule exists (the paper's mine pump).
    Feasible,
    /// Some processor is overloaded (`oracle::overloaded`).
    Infeasible,
}

/// What one op produced, reduced to what the checks and counters need.
#[derive(Debug, Clone)]
pub struct Observed {
    pub feasible: bool,
    /// Infeasible *and* the search closed the whole space (not a budget
    /// abort, which is no verdict at all).
    pub proved_infeasible: bool,
    pub violations: Option<usize>,
    pub replay_ok: Option<bool>,
    pub stats: SearchStats,
    pub places: usize,
    pub transitions: usize,
    /// The schedule-derived outputs later ops on the same input must
    /// repeat byte for byte: table, C unit and Gantt chart on plain ops,
    /// the generated header and source on traced ops; empty when
    /// infeasible.
    pub artifacts: Vec<String>,
    /// Bytes of every artifact rendered, the report included.
    pub rendered_bytes: usize,
    pub codegen_bytes: usize,
}

fn violations_field(outcome: &SynthesisOutcome) -> Option<usize> {
    outcome
        .fields
        .iter()
        .find(|(key, _)| *key == "violations")
        .and_then(|(_, value)| value.parse().ok())
}

/// Parses a benchmark input.
fn parse(xml: &str) -> Project {
    Project::new(ezrt_dsl::from_xml(xml).expect("benchmark inputs are valid specs"))
}

/// The untraced op: the path `ezrt schedule --json`, `ezrt table` and
/// `ezrt codegen` take, one public call per stage.
pub fn run_plain(xml: &str) -> Observed {
    let project = parse(xml);
    let digest = project_digest(&project);
    let outcome = compute_outcome(&project, digest);
    let kinds: &[ArtifactKind] = if outcome.feasible {
        &FEASIBLE_KINDS
    } else {
        &FEASIBLE_KINDS[..1]
    };
    let mut rendered_bytes = 0;
    let mut codegen_bytes = 0;
    let mut artifacts = Vec::new();
    for &kind in kinds {
        let text = render(&outcome, kind)
            .expect("kind matches the verdict")
            .text;
        rendered_bytes += text.len();
        if let ArtifactKind::Codegen(_) = kind {
            codegen_bytes = text.len();
        }
        if kind != ArtifactKind::ReportJson {
            artifacts.push(text);
        }
    }
    Observed {
        feasible: outcome.feasible,
        proved_infeasible: is_proof(outcome.error.as_deref()),
        violations: violations_field(&outcome),
        replay_ok: outcome.replay_ok,
        stats: outcome.stats.clone(),
        // The net size is a traced-run counter: counting it here would
        // add a translation to the timed op.
        places: 0,
        transitions: 0,
        artifacts,
        rendered_bytes,
        codegen_bytes,
    }
}

/// Whether an outcome's error text is an infeasibility proof. The
/// outcome keeps only the text of `SynthesizeError`; its budget aborts
/// read "state limit exceeded" / "time limit exceeded" instead.
fn is_proof(error: Option<&str>) -> bool {
    error.is_some_and(|error| error.starts_with("no feasible schedule"))
}

/// The traced op: the same stages as [`run_plain`], split into one
/// public call per layer so each gets its own span. `reference` is the
/// outcome of this input computed at set-up: `ezrt_artifacts::render`
/// takes an outcome, which only `compute_outcome` (all stages in one
/// call) can build, and rendering is a pure function of it, so the
/// report, table and Gantt spans render the reference. The generated C
/// comes from this op's own table and is what the byte check compares.
pub fn run_traced(
    xml: &str,
    reference: Option<&SynthesisOutcome>,
    tracer: &mut Tracer,
) -> Observed {
    tracer.op(|tracer| {
        let spec = tracer.span("dsl.parse", || {
            ezrt_dsl::from_xml(xml).expect("benchmark inputs are valid specs")
        });
        let project = Project::new(spec);
        let digest = tracer.span("artifacts.digest", || project_digest(&project));
        let tasknet = tracer.span("compose.translate", || {
            ezrt_compose::translate(project.spec())
        });
        let result = tracer.span("scheduler.search", || {
            synthesize(&tasknet, project.config())
        });
        let places = tasknet.net().place_count();
        let transitions = tasknet.net().transition_count();
        match result {
            Ok(synthesis) => {
                let replay_ok = tracer.span("sim.replay", || {
                    ezrt_sim::replay(&tasknet, &synthesis.schedule).is_ok()
                });
                let (timeline, table) = tracer.span("scheduler.derive", || {
                    let timeline = Timeline::from_schedule(&tasknet, &synthesis.schedule);
                    let table = ScheduleTable::from_timeline(project.spec(), &timeline);
                    (timeline, table)
                });
                let violations = tracer.span("scheduler.validate", || {
                    ezrt_scheduler::validate::check(project.spec(), &timeline).len()
                });
                tracer.span("artifacts.fields", || {
                    (structure_digest(&project), task_subdigests(&project))
                });
                let mut rendered_bytes = 0;
                for (name, kind) in [
                    ("artifacts.render.report", ArtifactKind::ReportJson),
                    ("artifacts.render.table", ArtifactKind::Table),
                    ("artifacts.render.gantt", ArtifactKind::Gantt),
                ] {
                    if let Some(reference) = reference {
                        let artifact = tracer.span(name, || render(reference, kind));
                        rendered_bytes += artifact.map_or(0, |artifact| artifact.text.len());
                    }
                }
                let code = tracer.span("codegen.emit", || {
                    CodeGenerator::new(Target::PosixSim).generate(project.spec(), &table)
                });
                let codegen_bytes = code.header.len() + code.source.len();
                let artifacts = vec![code.header, code.source];
                Observed {
                    feasible: true,
                    proved_infeasible: false,
                    violations: Some(violations),
                    replay_ok: Some(replay_ok),
                    stats: synthesis.stats,
                    places,
                    transitions,
                    artifacts,
                    rendered_bytes: rendered_bytes + codegen_bytes,
                    codegen_bytes,
                }
            }
            Err(error) => {
                let text = tracer.span("artifacts.render.report", || {
                    report::render_pretty(&report::failure_fields(&digest, &error))
                });
                Observed {
                    feasible: false,
                    proved_infeasible: matches!(error, SynthesizeError::Infeasible { .. }),
                    violations: None,
                    replay_ok: None,
                    stats: error.stats().clone(),
                    places,
                    transitions,
                    artifacts: Vec::new(),
                    rendered_bytes: text.len(),
                    codegen_bytes: 0,
                }
            }
        }
    })
}

/// The reference outcome [`run_traced`] renders from.
pub fn reference_outcome(xml: &str) -> SynthesisOutcome {
    let project = parse(xml);
    let digest = project_digest(&project);
    compute_outcome(&project, digest)
}

/// Checks one op. `reference` holds the schedule-derived artifacts an
/// earlier op rendered for the same input; they must match byte for
/// byte.
pub fn check(
    expected: Expected,
    observed: &Observed,
    reference: Option<&[String]>,
) -> Result<(), String> {
    match expected {
        Expected::Infeasible => {
            if !observed.proved_infeasible {
                return Err(format!(
                    "expected an infeasibility proof, got feasible={}",
                    observed.feasible
                ));
            }
        }
        Expected::Feasible => {
            if !observed.feasible {
                return Err("expected a feasible schedule, got none".to_owned());
            }
            if observed.violations != Some(0) {
                return Err(format!("validator violations: {:?}", observed.violations));
            }
            if observed.replay_ok != Some(true) {
                return Err("the net-replay oracle rejected the schedule".to_owned());
            }
        }
    }
    if let Some(reference) = reference {
        if reference != observed.artifacts.as_slice() {
            return Err("artifact bytes differ from an earlier op on the same input".to_owned());
        }
    }
    Ok(())
}

/// One input of an in-process workload.
pub struct Input {
    pub xml: String,
    pub expected: Expected,
    /// The set-up outcome the traced op renders from (feasible inputs).
    pub reference: Option<SynthesisOutcome>,
}

/// Search and output counters summed over the ops of one measurement.
#[derive(Debug, Default)]
struct Counters {
    ops: usize,
    states: usize,
    minimum_states: u64,
    backtracks: usize,
    dead_set_bytes: usize,
    dead_set_max: usize,
    stubborn: usize,
    sleep: usize,
    places: usize,
    transitions: usize,
    rendered_bytes: usize,
    codegen_bytes: usize,
    search_secs: f64,
}

impl Counters {
    fn add(&mut self, observed: &Observed) {
        let stats = &observed.stats;
        self.ops += 1;
        self.states += stats.states_visited;
        self.minimum_states += stats.minimum_states();
        self.backtracks += stats.backtracks;
        self.dead_set_bytes += stats.dead_set_bytes;
        self.dead_set_max = self.dead_set_max.max(stats.dead_set_bytes);
        self.stubborn += stats.por_stubborn_skips;
        self.sleep += stats.por_sleep_skips;
        self.places += observed.places;
        self.transitions += observed.transitions;
        self.rendered_bytes += observed.rendered_bytes;
        self.codegen_bytes += observed.codegen_bytes;
        self.search_secs += stats.elapsed.as_secs_f64();
    }

    fn per_op(&self, total: usize) -> f64 {
        total as f64 / self.ops.max(1) as f64
    }
}

/// One measurement: per-segment latencies (ms) and wall times, the
/// counters, and, per input, the outputs the first op on it produced.
struct Measurement {
    timed: Segments,
    counters: Counters,
    references: Vec<Option<Vec<String>>>,
}

impl Measurement {
    fn new(inputs: usize) -> Measurement {
        Measurement {
            timed: Segments::default(),
            counters: Counters::default(),
            references: vec![None; inputs],
        }
    }

    /// Runs one timing segment (a list of input indices), checking every
    /// op; traced when a tracer is given.
    fn segment(
        &mut self,
        inputs: &[Input],
        segment: &[usize],
        report: &mut RunReport,
        mut tracer: Option<&mut Tracer>,
    ) {
        let mut latencies = Samples::default();
        let started = Instant::now();
        for &index in segment {
            let input = &inputs[index];
            let op_started = Instant::now();
            let observed = match tracer.as_deref_mut() {
                Some(tracer) => run_traced(&input.xml, input.reference.as_ref(), tracer),
                None => run_plain(&input.xml),
            };
            latencies.push(op_started.elapsed().as_secs_f64() * 1e3);
            let reference = &mut self.references[index];
            report.record(check(input.expected, &observed, reference.as_deref()));
            if reference.is_none() && observed.feasible {
                *reference = Some(observed.artifacts.clone());
            }
            self.counters.add(&observed);
        }
        self.timed.push(latencies, started.elapsed().as_secs_f64());
    }
}

/// The harness self-test: checking a real op against a deliberately
/// wrong expected answer, or against different reference bytes, must
/// count as a failure.
pub fn self_test(input: &Input) -> bool {
    let observed = run_plain(&input.xml);
    let wrong = match input.expected {
        Expected::Feasible => Expected::Infeasible,
        Expected::Infeasible => Expected::Feasible,
    };
    let right = check(input.expected, &observed, None).is_ok();
    let wrong_verdict = check(wrong, &observed, None).is_err();
    let wrong_bytes = !observed.feasible
        || check(input.expected, &observed, Some(&["tampered".to_owned()])).is_err();
    right && wrong_verdict && wrong_bytes
}

/// Runs one in-process workload: the untraced measurement always, and
/// with `--trace 1` a traced measurement of the same work for the
/// per-layer metrics. `plan` lists each timing segment's input indices.
/// Traced segments alternate with untraced ones, so both see the same
/// spells of outside load and their ratio is the tracing overhead.
pub fn run_workload(
    args: &Args,
    setup_s: f64,
    inputs: &[Input],
    plan: &[Vec<usize>],
    mut report: RunReport,
) -> RunReport {
    report.selftest_ok = self_test(&inputs[0]);
    let mut plain = Measurement::new(inputs.len());
    // Traced ops keep different outputs for the byte check (see
    // `Observed::artifacts`), so they get their own references.
    let mut traced = Measurement::new(inputs.len());
    let mut tracer = Tracer::default();
    for segment in plan {
        plain.segment(inputs, segment, &mut report, None);
        if args.trace {
            traced.segment(inputs, segment, &mut report, Some(&mut tracer));
        }
    }
    report.set("setup_s", setup_s);
    report.set("ops_per_s", plain.timed.ops_per_s());
    report.set("latency_ms_p50", plain.timed.latency(0.5));
    report.set("latency_ms_p90", plain.timed.latency(0.9));
    report.notes.push(plain.timed.describe("latency"));
    if args.trace {
        layer_metrics(&mut report, &tracer, &traced.counters);
        let (op_us, covered_us) = tracer.coverage_micros();
        report.set(
            "trace.overhead_ratio",
            plain.timed.ops_per_s() / traced.timed.ops_per_s(),
        );
        report.set("trace.coverage_ratio", covered_us / op_us);
        report.set("trace.op_ms", tracer.micros(trace::OP).median() / 1e3);
        report.set("trace.samples", traced.timed.ops() as f64);
        let c = &plain.counters;
        report.set("codegen_bytes", c.per_op(c.codegen_bytes));
        report.notes.push(traced.timed.describe("traced latency"));
    }
    report
}

fn layer_metrics(report: &mut RunReport, tracer: &Tracer, counters: &Counters) {
    let median_us = |name: &str| tracer.micros(name).median();
    for (metric, span) in [
        ("dsl.parse_us", "dsl.parse"),
        ("artifacts.digest_us", "artifacts.digest"),
        ("artifacts.fields_us", "artifacts.fields"),
        ("artifacts.render_us.report", "artifacts.render.report"),
        ("artifacts.render_us.table", "artifacts.render.table"),
        ("artifacts.render_us.gantt", "artifacts.render.gantt"),
        ("compose.translate_us", "compose.translate"),
        ("scheduler.derive_us", "scheduler.derive"),
        ("scheduler.validate_us", "scheduler.validate"),
        ("sim.replay_us", "sim.replay"),
        ("codegen.emit_us", "codegen.emit"),
    ] {
        report.set(metric, median_us(span));
    }
    report.set("scheduler.search_ms", median_us("scheduler.search") / 1e3);
    let c = counters;
    report.set("artifacts.render_bytes", c.per_op(c.rendered_bytes));
    report.set("compose.places", c.per_op(c.places));
    report.set("compose.transitions", c.per_op(c.transitions));
    report.set("scheduler.states_visited", c.per_op(c.states));
    report.set("scheduler.states_per_s", c.states as f64 / c.search_secs);
    report.set("scheduler.backtracks", c.per_op(c.backtracks));
    report.set(
        "scheduler.useful_ratio",
        c.minimum_states as f64 / c.states.max(1) as f64,
    );
    report.set(
        "scheduler.bytes_per_state",
        c.dead_set_bytes as f64 / c.states.max(1) as f64,
    );
    report.set("scheduler.dead_set_mb", c.dead_set_max as f64 / 1e6);
    report.set("scheduler.por_stubborn_skips", c.per_op(c.stubborn));
    report.set("scheduler.por_sleep_skips", c.per_op(c.sleep));
    report.set("codegen.bytes", c.per_op(c.codegen_bytes));
}
