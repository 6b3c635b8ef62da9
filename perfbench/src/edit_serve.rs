//! `edit-serve`: a model-editing session against the HTTP service.
//!
//! An in-process `Server::start` on loopback (memory cache, one worker
//! per core the run may use, at most two) is driven closed-loop by one
//! keep-alive client connection, because an editor waits for each reply.
//! The load is seeded chains of `random_mutation` edits to the mine pump
//! and to two family specs, in a fixed interleaving ([`ROUND`]). A second
//! client would only add scheduling noise on a 2-core box: with one,
//! every run of a seed sends the same request sequence. Every edit cycle
//! is one op:
//!
//! * **write** — `POST /v1/schedule` of a spec the server has not seen
//!   (warm-started from its nearest ancestor), then the first
//!   `GET /v1/artifact/<digest>/table` (a render);
//! * **reads** — the same GET again (a rendered-byte hit), the GET with
//!   `If-None-Match` (a 304), and a re-POST of the same XML (a memory
//!   hit).
//!
//! Reads exercise the http, digest, cache and render code while the
//! search does little; putting writes beside them shows a read-path gain
//! that costs edits. The edit list is served several times over, each
//! pass on a fresh server primed with the bases, so every pass sees the
//! same misses and hits, and the warm starts pick the same ancestors.

use crate::http::{Client, Response};
use crate::rng::SplitMix;
use crate::stats::{Passes, Samples};
use crate::{timed_setups, Args, RunReport};
use ezrt_artifacts::{compute_outcome, project_digest};
use ezrt_core::Project;
use ezrt_scheduler::SchedulerConfig;
use ezrt_server::{Server, ServerConfig};
use ezrt_spec::generate::{family_spec, random_mutation, Family};
use ezrt_spec::EzSpec;
use std::collections::HashSet;
use std::time::Instant;

/// Distinct edits per `--seconds` of run length. The set-up checks every
/// candidate edit with a cold synthesis (~10 ms per pump edit, three
/// set-ups per run), so the edit list is kept short and served
/// [`PASSES`] times instead.
const EDITS_PER_S: f64 = 25.0;
/// Timed passes over the edit list. Each edit's latency is the median of
/// its passes: one x86-64 core serves ~250–300 cycles a second, so the
/// passes fill most of the run.
const PASSES: usize = 8;
/// Timed chunks of the edit list. A chunk's wall time is the median of
/// its passes.
const CHUNKS: usize = 10;
/// States the set-up's cold check may spend on one candidate edit. An
/// edit that needs more (or is infeasible) is left out of the chain, so
/// no op waits on an exhaustive proof of an overloaded mine pump.
const CANDIDATE_STATE_BUDGET: usize = 10_000;
/// Edits per chain before the editor starts over from the base spec.
/// Long chains drift (added relations and tightened deadlines pile up
/// and the search grows with them), which would make a run's cost a
/// random walk of its seed; short chains keep every edit near its base.
const CHAIN_LENGTH: usize = 4;
/// One round of the edit sequence, as indices into the bases (mine
/// pump, precedence chain, exclusion clique). Pump cycles are a fifth of
/// all cycles and the slowest by far, so the cycle median sits inside the
/// family cycles and the p90 in the middle of the pump cycles, away from
/// the boundary between the two.
const ROUND: [usize; 5] = [0, 1, 2, 1, 2];
/// Instance seeds of the two family base specs.
const FAMILY_SEEDS: [u64; 2] = [1, 2];

/// One accepted edit: its XML, known (by the set-up's cold synthesis) to
/// have a feasible schedule.
#[derive(Debug, Clone)]
pub struct Edit {
    pub xml: String,
}

/// Builds `count` distinct edits from `base`, as successive chains of
/// [`CHAIN_LENGTH`] edits that each start over from `base`. Each
/// candidate `random_mutation` must apply and parse back from its XML,
/// keep the base's hyperperiod (an editor tweaking timings and relations,
/// not the period grid; it also keeps every edit's net and cached outcome
/// near the base's size), give a digest not seen before, and synthesize
/// feasibly from cold within [`CANDIDATE_STATE_BUDGET`] with a clean
/// validator and net replay. Returns the chain and the number of
/// candidates turned away.
fn chain(
    base: &EzSpec,
    count: usize,
    rng: &mut SplitMix,
    seen: &mut HashSet<String>,
) -> (Vec<Edit>, usize) {
    let budget = SchedulerConfig {
        max_states: CANDIDATE_STATE_BUDGET,
        ..SchedulerConfig::default()
    };
    let mut spec = base.clone();
    let mut edits = Vec::with_capacity(count);
    let mut rejected = 0;
    while edits.len() < count && rejected < 50 * count {
        let mutation = random_mutation(&spec, rng.next_u64());
        // The server sees the spec through its XML, so the checks run on
        // the spec as parsed back from it.
        let Some((next, xml)) = mutation.apply(&spec).ok().and_then(|next| {
            let xml = ezrt_dsl::to_xml(&next);
            ezrt_dsl::from_xml(&xml).ok().map(|parsed| (parsed, xml))
        }) else {
            rejected += 1;
            continue;
        };
        let digest = project_digest(&Project::new(next.clone())).to_hex();
        if next.hyperperiod() != base.hyperperiod() || seen.contains(&digest) {
            rejected += 1;
            continue;
        }
        let project = Project::new(next.clone()).with_config(budget.clone());
        let outcome = compute_outcome(&project, project_digest(&project));
        let clean = outcome.feasible
            && outcome.replay_ok == Some(true)
            && outcome
                .fields
                .iter()
                .any(|(key, value)| *key == "violations" && value == "0");
        if !clean {
            rejected += 1;
            continue;
        }
        seen.insert(digest);
        edits.push(Edit { xml });
        spec = if edits.len() % CHAIN_LENGTH == 0 {
            base.clone()
        } else {
            next
        };
    }
    (edits, rejected)
}

/// The session's inputs: the base specs (primed before timing) and the
/// edit sequence.
pub struct Session {
    pub bases: Vec<String>,
    pub edits: Vec<Edit>,
    pub rejected: usize,
}

/// `rounds` rounds of [`ROUND`]: one pump edit, then two edits of each
/// family, alternating.
pub fn session(seed: u64, rounds: usize) -> Session {
    let mut rng = SplitMix::new(seed);
    // The base specs are fixed, like the case study itself; the seed
    // drives the edits. Seeded bases would move the family cycles' cost
    // (which sets the median) with the instance drawn.
    let pump = ezrt_spec::corpus::mine_pump();
    let chain_family = family_spec(
        &Family::PrecedenceChain {
            length: 5,
            period: 40,
            utilization: 0.5,
        },
        FAMILY_SEEDS[0],
    );
    let clique_family = family_spec(
        &Family::ExclusionClique {
            tasks: 4,
            period: 50,
            utilization: 0.5,
        },
        FAMILY_SEEDS[1],
    );
    let bases = [pump, chain_family, clique_family];
    let mut seen = HashSet::new();
    for base in &bases {
        let parsed = ezrt_dsl::from_xml(&ezrt_dsl::to_xml(base)).expect("bases round-trip");
        seen.insert(project_digest(&Project::new(parsed)).to_hex());
    }
    let mut rejected = 0;
    let mut chains: Vec<std::vec::IntoIter<Edit>> = bases
        .iter()
        .enumerate()
        .map(|(base_index, base)| {
            let count = rounds * ROUND.iter().filter(|&&b| b == base_index).count();
            let (edits, turned_away) = chain(base, count, &mut rng, &mut seen);
            rejected += turned_away;
            edits.into_iter()
        })
        .collect();
    // Each chain stays in order, so every edit's nearest ancestor is the
    // same in every run.
    let mut edits = Vec::with_capacity(ROUND.len() * rounds);
    for _ in 0..rounds {
        for &base_index in &ROUND {
            edits.extend(chains[base_index].next());
        }
    }
    Session {
        bases: bases.iter().map(ezrt_dsl::to_xml).collect(),
        edits,
        rejected,
    }
}

/// What one edit cycle returned, kept for the checks.
#[derive(Debug, Clone)]
pub struct Cycle {
    pub write: Response,
    pub render: Response,
    pub hit: Response,
    pub not_modified: Response,
    pub repost: Response,
    /// Client-side latencies in ms: write (POST + render GET), then the
    /// three reads.
    pub write_ms: f64,
    pub post_ms: f64,
    pub render_ms: f64,
    pub read_ms: [f64; 3],
}

pub fn json_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let rest = body.split(&format!("\"{key}\": ")).nth(1)?;
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn json_number(body: &str, key: &str) -> f64 {
    json_field(body, key)
        .and_then(|value| value.parse().ok())
        .unwrap_or(0.0)
}

fn expect_status(response: &Response, status: u16, what: &str) -> Result<(), String> {
    if response.status == status {
        Ok(())
    } else {
        Err(format!(
            "{what}: expected status {status}, got {}",
            response.status
        ))
    }
}

/// Checks one cycle against `feasible`, the verdict known from the
/// set-up's cold synthesis. Reads of one digest must repeat the first
/// read's bytes and ETag.
pub fn check_cycle(cycle: &Cycle, feasible: bool) -> Result<(), String> {
    expect_status(&cycle.write, 200, "write POST")?;
    let body = cycle.write.text();
    if json_field(body, "feasible") != Some(if feasible { "true" } else { "false" }) {
        return Err(format!(
            "write POST: expected feasible={feasible}, got {:?}",
            json_field(body, "feasible")
        ));
    }
    if feasible && json_field(body, "violations") != Some("0") {
        return Err("write POST: validator violations on a feasible result".to_owned());
    }
    if cycle.write.header("X-Ezrt-Cache") != Some("miss") {
        return Err("write POST: an unseen spec was not a cache miss".to_owned());
    }
    // Without a schedule there is no table: every artifact read is a 409.
    let (artifact, conditional) = if feasible { (200, 304) } else { (409, 409) };
    expect_status(&cycle.render, artifact, "render GET")?;
    expect_status(&cycle.hit, artifact, "rendered-hit GET")?;
    expect_status(&cycle.not_modified, conditional, "conditional GET")?;
    if feasible {
        if cycle.hit.header("X-Ezrt-Rendered") != Some("hit") {
            return Err("rendered-hit GET was not served from the byte tier".to_owned());
        }
        let etag = cycle.render.header("ETag");
        if etag.is_none()
            || cycle.hit.header("ETag") != etag
            || cycle.not_modified.header("ETag") != etag
        {
            return Err("ETag differs between reads of one digest".to_owned());
        }
        if cycle.hit.body != cycle.render.body {
            return Err("table bytes differ between reads of one digest".to_owned());
        }
    }
    expect_status(&cycle.repost, 200, "re-POST")?;
    if cycle.repost.header("X-Ezrt-Cache") != Some("hit") {
        return Err("re-POST was not a memory hit".to_owned());
    }
    let replayed = cycle
        .repost
        .text()
        .replace("\"cache\": \"hit\"", "\"cache\": \"miss\"");
    if replayed != body {
        return Err("re-POST report differs from the write's".to_owned());
    }
    Ok(())
}

/// Runs one edit cycle; transport errors fail the cycle.
fn cycle(client: &mut Client, xml: &str) -> Result<Cycle, String> {
    let io = |error: std::io::Error| format!("transport error: {error}");
    let started = Instant::now();
    let write = client
        .request("POST", "/v1/schedule", &[], xml.as_bytes())
        .map_err(io)?;
    let post_ms = started.elapsed().as_secs_f64() * 1e3;
    let digest = write
        .header("X-Ezrt-Digest")
        .ok_or("write POST carried no digest")?
        .to_owned();
    let path = format!("/v1/artifact/{digest}/table");
    let render_started = Instant::now();
    let render = client.request("GET", &path, &[], b"").map_err(io)?;
    let render_ms = render_started.elapsed().as_secs_f64() * 1e3;
    let write_ms = started.elapsed().as_secs_f64() * 1e3;

    let mut read_ms = [0.0; 3];
    let t = Instant::now();
    let hit = client.request("GET", &path, &[], b"").map_err(io)?;
    read_ms[0] = t.elapsed().as_secs_f64() * 1e3;
    let etag = render.header("ETag").unwrap_or("\"none\"").to_owned();
    let t = Instant::now();
    let not_modified = client
        .request("GET", &path, &[("If-None-Match", &etag)], b"")
        .map_err(io)?;
    read_ms[1] = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let repost = client
        .request("POST", "/v1/schedule", &[], xml.as_bytes())
        .map_err(io)?;
    read_ms[2] = t.elapsed().as_secs_f64() * 1e3;
    Ok(Cycle {
        write,
        render,
        hit,
        not_modified,
        repost,
        write_ms,
        post_ms,
        render_ms,
        read_ms,
    })
}

/// The `/v1/stats` counters the run reports as deltas.
const STATS: [&str; 9] = [
    "cache_hits",
    "cache_misses",
    "cache_joined",
    "not_modified",
    "http_errors",
    "shed_connections",
    "incr_seed_hits",
    "incr_replayed",
    "incr_states_saved",
];

fn stats(client: &mut Client) -> [f64; STATS.len()] {
    let response = client
        .request("GET", "/v1/stats", &[], b"")
        .expect("the loopback server answers GET /v1/stats");
    STATS.map(|key| json_number(response.text(), key))
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: crate::nproc().min(2),
        cache_capacity: 1 << 16,
        ..ServerConfig::default()
    }
}

/// One pass: a fresh server primed with `bases`, then one cycle per
/// edit, timed in chunks of `per_chunk` edits. Returns the cycles (or
/// the error that ended one), each chunk's wall time and the
/// `/v1/stats` deltas over the pass.
pub fn serve(
    bases: &[String],
    edits: &[Edit],
    per_chunk: usize,
) -> (Vec<Result<Cycle, String>>, Vec<f64>, [f64; STATS.len()]) {
    let server = Server::start("127.0.0.1:0", server_config()).expect("loopback server starts");
    let mut client = Client::new(server.addr());
    for xml in bases {
        let primed = client.request("POST", "/v1/schedule", &[], xml.as_bytes());
        assert!(
            primed.is_ok_and(|response| response.status == 200),
            "priming a base spec failed"
        );
    }
    let before = stats(&mut client);
    let mut cycles = Vec::with_capacity(edits.len());
    let mut walls = Vec::new();
    for chunk in edits.chunks(per_chunk) {
        let started = Instant::now();
        cycles.extend(chunk.iter().map(|edit| cycle(&mut client, &edit.xml)));
        walls.push(started.elapsed().as_secs_f64());
    }
    let after = stats(&mut client);
    drop(client);
    server.stop();
    let mut delta = [0.0; STATS.len()];
    for (slot, (a, b)) in delta.iter_mut().zip(after.iter().zip(before)) {
        *slot = a - b;
    }
    (cycles, walls, delta)
}

/// Samples and counters gathered over the passes of one measurement.
#[derive(Default)]
struct Measurement {
    cycles: Passes,
    writes: Samples,
    reads: Samples,
    tiers: [Samples; 4],
    handler_ms: Samples,
    wait_ms: Samples,
    parse_us: Samples,
    digest_us: Samples,
    render_us: Samples,
    search_ms: Samples,
    server_ms: f64,
    client_ms: f64,
    states: f64,
    /// Summed `wall_time_ms` of the write reports (the search alone).
    search_wall_ms: f64,
    minimum_states: f64,
    backtracks: f64,
    dead_set_bytes: f64,
    dead_set_max: f64,
    stubborn: f64,
    sleep: f64,
    stats: [f64; STATS.len()],
    edits: usize,
}

fn measure(session: &Session, report: &mut RunReport) -> Measurement {
    let mut m = Measurement::default();
    // Whole rounds per chunk, so every chunk has the same mix.
    let per_chunk = session.edits.len().div_ceil(ROUND.len() * CHUNKS) * ROUND.len();
    for _ in 0..PASSES {
        let (results, walls, delta) = serve(&session.bases, &session.edits, per_chunk);
        for (total, value) in m.stats.iter_mut().zip(delta) {
            *total += value;
        }
        for (op, result) in results.into_iter().enumerate() {
            m.edits += 1;
            let cycle = match result {
                Ok(cycle) => cycle,
                Err(error) => {
                    report.record(Err(error));
                    continue;
                }
            };
            report.record(check_cycle(&cycle, true));
            m.cycles
                .op(op, cycle.write_ms + cycle.read_ms.iter().sum::<f64>());
            m.add(&cycle);
        }
        for (chunk, wall) in walls.into_iter().enumerate() {
            m.cycles.chunk(chunk, wall);
        }
    }
    m
}

impl Measurement {
    fn add(&mut self, cycle: &Cycle) {
        self.writes.push(cycle.write_ms);
        for (tier, ms) in self.tiers.iter_mut().zip(cycle.read_ms) {
            tier.push(ms * 1e3);
            self.reads.push(ms);
        }
        self.tiers[3].push(cycle.render_ms * 1e3);
        let handler = cycle.write.server_phase_ms("total").unwrap_or(0.0);
        self.handler_ms.push(handler);
        self.wait_ms.push(cycle.post_ms - handler);
        let phase = |response: &Response, name| response.server_phase_ms(name).unwrap_or(0.0);
        self.parse_us.push(phase(&cycle.write, "parse") * 1e3);
        self.search_ms.push(phase(&cycle.write, "search"));
        self.digest_us.push(phase(&cycle.repost, "digest") * 1e3);
        self.render_us.push(phase(&cycle.render, "render") * 1e3);
        let responses = [
            (&cycle.write, cycle.post_ms),
            (&cycle.render, cycle.render_ms),
            (&cycle.hit, cycle.read_ms[0]),
            (&cycle.not_modified, cycle.read_ms[1]),
            (&cycle.repost, cycle.read_ms[2]),
        ];
        for (response, client_ms) in responses {
            self.server_ms += response.server_phase_ms("total").unwrap_or(0.0);
            self.client_ms += client_ms;
        }
        let body = cycle.write.text();
        self.states += json_number(body, "states_visited");
        self.search_wall_ms += json_number(body, "wall_time_ms");
        self.minimum_states += json_number(body, "minimum_states");
        self.backtracks += json_number(body, "backtracks");
        let dead = json_number(body, "peak_dead_set_bytes");
        self.dead_set_bytes += dead;
        self.dead_set_max = self.dead_set_max.max(dead);
        self.stubborn += json_number(body, "por_stubborn_skips");
        self.sleep += json_number(body, "por_sleep_skips");
    }
}

pub fn run(args: &Args) -> RunReport {
    let rounds = args.op_count(EDITS_PER_S) / ROUND.len();
    let (setup_s, session) = timed_setups(3, || {
        let session = session(args.seed, rounds);
        assert_eq!(
            session.edits.len(),
            rounds * ROUND.len(),
            "set-up found too few candidate edits with a clean cold synthesis"
        );
        // Warm-up: one untimed round on a throwaway server.
        std::hint::black_box(serve(
            &session.bases,
            &session.edits[..ROUND.len()],
            ROUND.len(),
        ));
        session
    });
    let mut report = RunReport::default();
    report.notes.push(format!(
        "edits={} rejected_candidates={} chunks={CHUNKS} passes={PASSES} clients=1 workers={}",
        session.edits.len(),
        session.rejected,
        server_config().workers
    ));
    let m = measure(&session, &mut report);
    report.selftest_ok = self_test(&session);
    report.set("setup_s", setup_s);
    report.set("ops_per_s", m.cycles.ops_per_s());
    report.set("latency_ms_p50", m.cycles.latency(0.5));
    report.set("latency_ms_p90", m.cycles.latency(0.9));
    report.notes.push(m.cycles.describe("cycle latency"));
    report.notes.push(m.writes.describe("edit latency", "ms"));
    report.notes.push(m.reads.describe("read latency", "ms"));
    if args.trace {
        // This workload's instruments are the client's own request
        // timers and, after each pass, the parsing of `Server-Timing`
        // headers, report bodies and `/v1/stats`: the timed loop is the
        // same with and without `--trace`, so the per-layer figures come
        // from the one measurement and the tracing overhead is nil by
        // construction.
        layer_metrics(&mut report, &m);
    }
    report
}

fn layer_metrics(report: &mut RunReport, m: &Measurement) {
    let edits = m.edits.max(1) as f64;
    let states = m.states.max(1.0);
    let stat = |key: &str| m.stats[STATS.iter().position(|k| *k == key).expect("known stat")];
    for (name, value) in [
        ("edit_latency_ms_p50", m.writes.median()),
        ("edit_latency_ms_p90", m.writes.quantile(0.9)),
        ("read_latency_ms_p50", m.reads.median()),
        ("read_latency_ms_p90", m.reads.quantile(0.9)),
        ("server.rendered_hit_us", m.tiers[0].median()),
        ("server.not_modified_us", m.tiers[1].median()),
        ("server.memory_hit_us", m.tiers[2].median()),
        ("server.render_miss_us", m.tiers[3].median()),
        ("server.handler_ms", m.handler_ms.median()),
        ("server.wait_ms", m.wait_ms.median()),
        ("dsl.parse_us", m.parse_us.mean()),
        ("artifacts.digest_us", m.digest_us.mean()),
        ("artifacts.render_us.table", m.render_us.mean()),
        ("scheduler.seeded_search_ms", m.search_ms.median()),
        ("scheduler.states_visited", m.states / edits),
        (
            "scheduler.states_per_s",
            m.states / (m.search_wall_ms / 1e3),
        ),
        ("scheduler.backtracks", m.backtracks / edits),
        ("scheduler.useful_ratio", m.minimum_states / states),
        ("scheduler.bytes_per_state", m.dead_set_bytes / states),
        ("scheduler.dead_set_mb", m.dead_set_max / 1e6),
        ("scheduler.por_stubborn_skips", m.stubborn / edits),
        ("scheduler.por_sleep_skips", m.sleep / edits),
        ("scheduler.incr_replayed", stat("incr_replayed") / edits),
        (
            "scheduler.incr_states_saved",
            stat("incr_states_saved") / edits,
        ),
        ("scheduler.warm_start_ratio", stat("incr_seed_hits") / edits),
        (
            "server.cache_hit_ratio",
            stat("cache_hits") / (stat("cache_hits") + stat("cache_misses")).max(1.0),
        ),
        ("server.cache_joined", stat("cache_joined")),
        ("server.not_modified", stat("not_modified")),
        ("server.http_errors", stat("http_errors")),
        ("server.shed_connections", stat("shed_connections")),
        ("trace.overhead_ratio", 1.0),
        ("trace.coverage_ratio", m.server_ms / m.client_ms),
        ("trace.op_ms", m.cycles.all.median()),
        ("trace.samples", m.cycles.ops() as f64),
    ] {
        report.set(name, value);
    }
    report.notes.push(m.tiers[0].describe("rendered hit", "us"));
    report.notes.push(m.tiers[1].describe("not modified", "us"));
    report.notes.push(m.tiers[2].describe("memory hit", "us"));
}

/// The harness self-test: a real cycle checked against a deliberately
/// wrong verdict, or a repeated read whose bytes changed, must fail.
pub fn self_test(session: &Session) -> bool {
    let (results, _, _) = serve(&session.bases, &session.edits[..1], 1);
    let Some(Ok(cycle)) = results.first() else {
        return false;
    };
    let mut tampered = cycle.clone();
    tampered.hit.body.push(b' ');
    check_cycle(cycle, true).is_ok()
        && check_cycle(cycle, false).is_err()
        && check_cycle(&tampered, true).is_err()
}
