//! `confine-cli` — generate, inspect, schedule and verify confine-coverage
//! scenarios from the command line.
//!
//! ```text
//! confine-cli generate --nodes 400 --degree 22 --seed 7 --out net.cf
//! confine-cli trace    --nodes 296 --seed 5 --out trace.cf
//! confine-cli info     --in net.cf
//! confine-cli schedule --in net.cf --tau 5 --out sched.txt
//! confine-cli verify   --in net.cf --active sched.txt --tau 5 --gamma 1.0
//! ```
//!
//! Scenarios use the plain-text v1 format of `confine_deploy::format`;
//! schedules are one node id per line.

use std::fmt::Write as _;
use std::process::ExitCode;

use confine_core::config::{blanket_ratio_threshold, MIN_TAU};
use confine_core::prelude::{Dcc, DccBuilder, EngineConfig, RepairTraffic};
use confine_core::verify::{boundary_partition_tau, verify_criterion, CriterionOutcome};
use confine_deploy::coverage::verify_coverage;
use confine_deploy::format::{read_scenario, write_scenario};
use confine_deploy::outer::extract_outer_walk;
use confine_deploy::scenario::random_udg_scenario;
use confine_deploy::trace::{greenorbs_scenario, TraceConfig};
use confine_deploy::Scenario;
use confine_graph::{cut, traverse, GraphView, Masked, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

mod opts;

use opts::Opts;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = Opts::parse(args);
    if let Some(known) = known_options(&command) {
        if let Err(message) = opts.reject_unknown(known) {
            eprintln!("error: {command}: {message} (see `confine-cli help`)");
            return ExitCode::FAILURE;
        }
    }
    let result = match command.as_str() {
        "generate" => cmd_generate(&opts),
        "trace" => cmd_trace(&opts),
        "info" => cmd_info(&opts),
        "schedule" => cmd_schedule(&opts),
        "prune" => cmd_prune(&opts),
        "verify" => cmd_verify(&opts),
        "fault-sweep" => cmd_fault_sweep(&opts),
        "chaos" => cmd_chaos(&opts),
        "churn" => cmd_churn(&opts),
        "model" => cmd_model(&opts),
        "serve" => cmd_serve(&opts),
        "client" => cmd_client(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "confine-cli <command> [--key value ...]

commands:
  generate  --nodes N --degree D --seed S [--rc R] --out FILE
            random UDG scenario with a certified boundary ring
  trace     --nodes N --seed S [--rounds K] --out FILE
            synthetic GreenOrbs-style trace topology
  info      --in FILE
            structural summary of a scenario
  schedule  --in FILE --tau T [--seed S] [--out FILE]
            run the DCC scheduler; prints/saves the awake node ids
  prune     --in FILE --tau T [--seed S] [--out FILE]
            run the edge-deletion pass; prints/saves the thinned scenario
  verify    --in FILE --tau T [--active FILE] [--gamma G]
            exact criterion check (+ geometric check when --gamma given)
  fault-sweep --in FILE --tau T [--seed S] [--loss \"0,0.1,0.2,0.3\"]
              [--crashes C]
            distributed runs under loss × mid-run crashes, then a
            post-schedule crash + repair on reliable links; prints cost,
            QoC and the repair traffic split per cell
  chaos     [--seeds N] [--base-seed S] [--one T:F:S] [--shrink]
            [--plan \"crash 3; crash 7; recover 3\"]
            [--nodes N] [--tau T] [--degree D] [--events E]
            [--rejoin re-verify|trust-snapshot] [--churn]
            deterministic chaos campaigns: seeded crash / recover /
            partition scripts against schedule + repair, with invariant
            oracles; --one replays a single triple, --plan replays it
            under an explicit fault script instead of the derived one,
            --shrink ddmin-reduces failures to a minimal fault script,
            --churn adds move/degrade events to the generated scripts;
            exits nonzero on any enforced-oracle violation
  model     [--policy re-verify|trust-snapshot|both] [--max-n N]
            [--topology path|cycle|both] [--radius K] [--por] [--lower]
            [--base-seed S] [--tries K] [--tau T]
            exhaustive small-N model checking of the discovery/election/
            repair protocol: BFS-enumerates every reachable interleaving
            (symmetry-reduced; --por switches to the sleep-set filter),
            checks coverage + fixpoint oracles at quiescent states and
            classifies declared election stalls; prints a minimal action
            trace per violation and, with --lower, searches for a concrete
            failing chaos repro for its crash/recover skeleton and replays
            it; exits nonzero on any safety violation
  serve     [--addr HOST:PORT] [--journal FILE] [--deadline MS]
            [--max-queue N] [--faults SPEC] [--print-addr]
            run the coverage daemon: warm per-epoch engine state behind a
            flat-combining queue with deadlines, load shedding and an epoch
            journal; restarting on the same --journal recovers the exact
            pre-crash state; SPEC is e.g.
            \"seed=7,drop=5,dup=3,delay=10:40,stall=2:250,crash-after=6\"
  client    --request \"load-epoch 1 120 12000 42 4\" [--addr HOST:PORT]
            [--deadline MS] [--retries N] [--backoff MS] [--seed S]
            one request through the retrying client (jittered backoff);
            prints the response line; requests: load-epoch E N D S T,
            crash N, recover N, what-if N, replay SCRIPT, status
  churn     [--seeds N] [--base-seed S] [--one T:F:S] [--rounds K]
            [--model waypoint|drift] [--speed V] [--pause P]
            [--drift-bound B] [--duty-period D] [--duty-down W]
            [--degrade-every E] [--degrade-pct F] [--quasi]
            [--nodes N] [--tau T] [--degree D]
            streaming churn campaigns: per-round mobility, duty-cycling
            and radio degradation feed topology deltas into the repair
            loop; prints coverage-hole exposure, repair traffic and
            false-suspicion rate per seed; exits nonzero on any
            enforced-oracle violation

engine option (schedule, fault-sweep, chaos, churn, model):
  --threads N   VPT evaluation threads (0 = all cores, the default;
                chaos, churn and model default to 1 — replay is identical
                either way)";

/// The options each command reads, space-separated; any other `--key` is
/// refused before the command runs, so a misspelt or retired flag cannot
/// silently fall back to the default. `None` for `help` and unknown
/// commands.
fn known_options(command: &str) -> Option<&'static str> {
    Some(match command {
        "generate" => "nodes degree seed rc out",
        "trace" => "nodes seed rounds out",
        "info" => "in",
        "schedule" => "in tau seed out threads",
        "prune" => "in tau seed out",
        "verify" => "in tau active gamma",
        "fault-sweep" => "in tau seed loss crashes threads",
        "chaos" => "seeds base-seed one shrink plan nodes tau degree events rejoin churn threads",
        "churn" => {
            "seeds base-seed one rounds model speed pause drift-bound duty-period \
             duty-down degrade-every degrade-pct quasi nodes tau degree threads"
        }
        "model" => "policy max-n topology radius por lower base-seed tries tau threads",
        "serve" => "addr journal deadline max-queue faults print-addr",
        "client" => "request addr deadline retries backoff seed",
        _ => return None,
    })
}

/// Parses the CLI's uniform engine option, `--threads N`, into an
/// [`EngineConfig`].
fn engine_config(opts: &Opts, default_threads: usize) -> Result<EngineConfig, String> {
    Ok(EngineConfig {
        threads: opts.usize("threads", default_threads)?,
    })
}

/// Seeds a [`Dcc`] builder from the CLI's uniform engine option,
/// `--threads N` (0 = auto).
fn dcc_builder(tau: usize, opts: &Opts) -> Result<DccBuilder, String> {
    Ok(Dcc::builder(tau).engine_config(engine_config(opts, 0)?))
}

fn load(opts: &Opts) -> Result<Scenario, String> {
    let path = opts.require("in")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    read_scenario(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn save(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {path}: {e}"))
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let nodes = opts.usize("nodes", 400)?;
    let degree = opts.positive_f64("degree", 22.0)?;
    let seed = opts.u64("seed", 1)?;
    let rc = opts.positive_f64("rc", 1.0)?;
    let out = opts.require("out")?;
    let mut rng = StdRng::seed_from_u64(seed);
    let scenario = random_udg_scenario(nodes, rc, degree, &mut rng);
    save(&out, &write_scenario(&scenario))?;
    println!(
        "wrote {out}: {} nodes ({} boundary), {} links",
        scenario.graph.node_count(),
        scenario.boundary_count(),
        scenario.graph.edge_count()
    );
    Ok(())
}

fn cmd_trace(opts: &Opts) -> Result<(), String> {
    let seed = opts.u64("seed", 5)?;
    let config = TraceConfig {
        nodes: opts.usize("nodes", 296)?,
        rounds: opts.usize("rounds", 48)?,
        ..TraceConfig::default()
    };
    let out = opts.require("out")?;
    let mut rng = StdRng::seed_from_u64(seed);
    let (scenario, _trace, threshold) = greenorbs_scenario(&config, 0.8, &mut rng);
    save(&out, &write_scenario(&scenario))?;
    println!(
        "wrote {out}: {} nodes ({} boundary), {} links, RSSI threshold {threshold:.1} dBm",
        scenario.graph.node_count(),
        scenario.boundary_count(),
        scenario.graph.edge_count()
    );
    Ok(())
}

fn cmd_info(opts: &Opts) -> Result<(), String> {
    let s = load(opts)?;
    println!("nodes            : {}", s.graph.node_count());
    println!("links            : {}", s.graph.edge_count());
    println!("average degree   : {:.2}", s.graph.average_degree());
    println!("boundary nodes   : {}", s.boundary_count());
    println!("rc               : {}", s.rc);
    println!(
        "region           : {:?} × {:?}",
        s.region.width(),
        s.region.height()
    );
    println!(
        "target           : {:?} × {:?}",
        s.target.width(),
        s.target.height()
    );
    println!("connected        : {}", traverse::is_connected(&s.graph));
    let cs = cut::cut_structure(&s.graph);
    println!("articulation pts : {}", cs.articulation_points.len());
    println!("bridges          : {}", cs.bridges.len());
    let bounds = confine_cycles::horton::irreducible_cycle_bounds(&s.graph);
    match bounds {
        Some(b) => println!("irreducible cycles: min {} / max {}", b.min, b.max),
        None => println!("irreducible cycles: none (forest)"),
    }
    if let Some(walk) = extract_outer_walk(&s) {
        let all: Vec<NodeId> = s.graph.nodes().collect();
        match boundary_partition_tau(&s, &walk, &all) {
            Some(t) => println!("initial partition τ: {t}"),
            None => println!("initial partition τ: boundary outside cycle space"),
        }
    } else {
        println!("initial partition τ: no certified boundary walk");
    }
    Ok(())
}

fn cmd_schedule(opts: &Opts) -> Result<(), String> {
    let s = load(opts)?;
    let tau = opts.usize("tau", 0)?;
    if tau < MIN_TAU {
        return Err(format!("--tau must be ≥ {MIN_TAU}"));
    }
    let seed = opts.u64("seed", 1)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut runner = dcc_builder(tau, opts)?
        .centralized()
        .map_err(|e| format!("scheduler: {e}"))?;
    let set = runner
        .run(&s.graph, &s.boundary, &mut rng)
        .map_err(|e| format!("scheduling: {e}"))?;
    let stats = runner.engine_stats();
    println!(
        "τ = {tau}: {} awake / {} asleep in {} rounds",
        set.active_count(),
        set.deleted.len(),
        set.rounds
    );
    println!(
        "engine: {} VPT evaluations, {} round hits",
        stats.evaluations, stats.round_hits
    );
    if let Some(out) = opts.get("out") {
        let mut text = String::new();
        for v in &set.active {
            let _ = writeln!(text, "{}", v.index());
        }
        save(&out, &text)?;
        println!("awake set written to {out}");
    }
    Ok(())
}

fn cmd_prune(opts: &Opts) -> Result<(), String> {
    let s = load(opts)?;
    let tau = opts.usize("tau", 0)?;
    if tau < MIN_TAU {
        return Err(format!("--tau must be ≥ {MIN_TAU}"));
    }
    let seed = opts.u64("seed", 1)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let pruned = confine_core::edges::prune_edges(&s.graph, &s.boundary, tau, &mut rng)
        .map_err(|e| format!("pruning: {e}"))?;
    println!(
        "τ = {tau}: {} links pruned ({} → {})",
        pruned.removed.len(),
        s.graph.edge_count(),
        pruned.graph.edge_count()
    );
    if let Some(out) = opts.get("out") {
        let thinned = Scenario {
            graph: pruned.graph,
            ..s
        };
        save(&out, &write_scenario(&thinned))?;
        println!("thinned scenario written to {out}");
    }
    Ok(())
}

fn cmd_fault_sweep(opts: &Opts) -> Result<(), String> {
    use confine_netsim::faults::FaultPlan;
    use confine_netsim::{LinkModel, SimError};

    let s = load(opts)?;
    let tau = opts.usize("tau", 0)?;
    if tau < MIN_TAU {
        return Err(format!("--tau must be ≥ {MIN_TAU}"));
    }
    let seed = opts.u64("seed", 1)?;
    let max_crashes = opts.usize("crashes", 3)?;
    let losses: Vec<f64> = match opts.get("loss") {
        Some(list) => list
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .ok()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or_else(|| {
                        format!("--loss: bad probability {t:?} (each must lie in [0, 1])")
                    })
            })
            .collect::<Result<_, _>>()?,
        None => vec![0.0, 0.1, 0.2, 0.3],
    };
    let nodes: Vec<NodeId> = s.graph.nodes().collect();

    println!(
        "{:>5} {:>7} {:>9} {:>8} {:>8} {:>8} {:>10} {:>12} {:>11}  repair split",
        "loss",
        "crashes",
        "result",
        "msgs",
        "dropped",
        "crashed",
        "QoC",
        "repair_rnds",
        "repair_msgs"
    );
    for &p in &losses {
        for c in 0..=max_crashes {
            let cell_seed = seed
                .wrapping_mul(1_000_003)
                .wrapping_add((p * 1000.0) as u64 * 31 + c as u64);
            let mut rng = StdRng::seed_from_u64(cell_seed);
            let plan = FaultPlan::random_crashes(&nodes, c, 40, cell_seed ^ 0x5eed);
            let link = if p > 0.0 {
                LinkModel::Lossy {
                    p,
                    seed: cell_seed ^ 0x10_55,
                }
            } else {
                LinkModel::Reliable
            };
            let mut dcc = dcc_builder(tau, opts)?
                .link_model(link)
                .fault_plan(plan)
                .distributed()
                .map_err(|e| format!("scheduler: {e}"))?;
            match dcc.run(&s.graph, &s.boundary, &mut rng) {
                Ok((set, stats)) => {
                    let qoc = match verify_criterion(&s, &set.active, tau) {
                        CriterionOutcome::Satisfied => "ok",
                        CriterionOutcome::Violated => "VIOLATED",
                        CriterionOutcome::NoCertifiedBoundary => "n/a",
                    };
                    // Post-schedule crash of one interior active node + repair.
                    // Repair phases run on reliable links (the repair runner
                    // refuses a lossy link model), so the loss column applies
                    // to the schedule only.
                    let victim = set.active.iter().copied().find(|v| !s.boundary[v.index()]);
                    let (rr, rm, split) = match victim {
                        Some(v) => {
                            let outcome = dcc_builder(tau, opts)?
                                .comm_range(s.rc)
                                .repair()
                                .map_err(|e| format!("repair: {e}"))?
                                .repair(&s.graph, &s.boundary, &set.active, v, &mut rng)
                                .map_err(|e| format!("repair: {e}"))?;
                            (
                                outcome.degradation.repair_rounds,
                                outcome.stats.repair_messages,
                                outcome.stats.repair.to_string(),
                            )
                        }
                        None => (0, 0, "-".to_string()),
                    };
                    println!(
                        "{:>5.2} {:>7} {:>9} {:>8} {:>8} {:>8} {:>10} {:>12} {:>11}  {}",
                        p,
                        c,
                        "ok",
                        stats.total_messages(),
                        stats.dropped,
                        stats.crashed,
                        qoc,
                        rr,
                        rm,
                        split
                    );
                }
                Err(SimError::ElectionStalled { retries }) => {
                    println!(
                        "{:>5.2} {:>7} {:>9} {:>8} {:>8} {:>8} {:>10} {:>12} {:>11}",
                        p,
                        c,
                        format!("stall({retries})"),
                        "-",
                        "-",
                        "-",
                        "-",
                        "-",
                        "-"
                    );
                }
                Err(e) => return Err(format!("loss {p} crashes {c}: {e}")),
            }
        }
    }
    Ok(())
}

fn cmd_chaos(opts: &Opts) -> Result<(), String> {
    use confine_core::prelude::{ChaosOptions, ChaosRunner, RejoinPolicy};
    use confine_netsim::chaos::SeedTriple;

    let tau = opts.usize("tau", 4)?;
    if tau < MIN_TAU {
        return Err(format!("--tau must be ≥ {MIN_TAU}"));
    }
    let rejoin = match opts.get("rejoin").as_deref() {
        None | Some("re-verify") => RejoinPolicy::ReVerify,
        Some("trust-snapshot") => RejoinPolicy::TrustSnapshot,
        Some(other) => {
            return Err(format!(
                "--rejoin expects re-verify or trust-snapshot, got {other:?}"
            ))
        }
    };
    let runner = ChaosRunner::new(ChaosOptions {
        tau,
        nodes: opts.usize("nodes", 120)?,
        degree: opts.positive_f64("degree", 12.0)?,
        events: opts.usize("events", 6)?,
        rejoin,
        churn: opts.flag("churn"),
        engine: engine_config(opts, 1)?,
    });
    let shrink = opts.flag("shrink");

    // Replay a single triple — under its derived random plan, or under an
    // explicit `--plan "crash 3; crash 7; recover 3"` script (the form the
    // model checker's lowered repro commands take).
    if let Some(spec) = opts.get("one") {
        let triple = SeedTriple::parse(&spec)
            .ok_or_else(|| format!("--one expects topology:faults:schedule, got {spec:?}"))?;
        let report = match opts.get("plan") {
            Some(script) => {
                let plan = confine_netsim::chaos::ChaosPlan::parse_script(&script)?;
                runner.run_plan(triple, &plan)
            }
            None => runner.run(triple),
        }
        .map_err(|e| format!("chaos run: {e}"))?;
        println!("{}", report.trace.render());
        println!("repair split: {}", report.stats.repair);
        if !report.failed() {
            println!(
                "triple {triple}: clean ({} fault events, {} final actives, digest {:016x})",
                report.plan.len(),
                report.active.len(),
                report.trace.digest()
            );
            return Ok(());
        }
        if shrink && opts.get("plan").is_none() {
            if let Some(cex) = runner.shrink(triple).map_err(|e| format!("shrink: {e}"))? {
                println!("--- minimized counterexample ---");
                println!("{}", cex.repro);
            }
        }
        return Err(format!(
            "triple {triple}: {} enforced oracle violation(s)",
            report.trace.violations().len()
        ));
    }

    // Seed-sweep campaign.
    let seeds = opts.usize("seeds", 25)?;
    let base = opts.u64("base-seed", 0x0D57_C0DE)?;
    let mut failures: Vec<SeedTriple> = Vec::new();
    let mut false_suspicions = 0usize;
    let mut repair = RepairTraffic::default();
    for i in 0..seeds as u64 {
        let triple = SeedTriple::derived(base, i);
        let report = runner
            .run(triple)
            .map_err(|e| format!("seed {i} ({triple}): {e}"))?;
        false_suspicions += report.stats.false_suspicions;
        repair.merge(&report.stats.repair);
        println!(
            "[{i:>3}] {:>4}  events {:>2}  active {:>3}  msgs {:>7}  false-susp {:>2}  {triple}",
            if report.failed() { "FAIL" } else { "ok" },
            report.plan.len(),
            report.active.len(),
            report.stats.total_messages(),
            report.stats.false_suspicions
        );
        if report.failed() {
            failures.push(triple);
            if shrink {
                if let Some(cex) = runner.shrink(triple).map_err(|e| format!("shrink: {e}"))? {
                    println!("--- minimized counterexample ---");
                    println!("{}", cex.repro);
                }
            }
        }
    }
    println!("repair split: {}", repair);
    if failures.is_empty() {
        println!("{seeds} seeds: all clean, {false_suspicions} false suspicion(s)");
        Ok(())
    } else {
        Err(format!(
            "{} of {seeds} seeds violated enforced oracles: {}",
            failures.len(),
            failures
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ))
    }
}

fn cmd_churn(opts: &Opts) -> Result<(), String> {
    use confine_core::prelude::{ChurnModel, ChurnOptions, ChurnRunner};
    use confine_netsim::chaos::SeedTriple;

    let tau = opts.usize("tau", 4)?;
    if tau < MIN_TAU {
        return Err(format!("--tau must be ≥ {MIN_TAU}"));
    }
    let model = match opts.get("model").as_deref() {
        None | Some("waypoint") => ChurnModel::RandomWaypoint,
        Some("drift") => ChurnModel::BoundedDrift,
        Some(other) => return Err(format!("--model expects waypoint or drift, got {other:?}")),
    };
    let degrade_pct = opts.usize("degrade-pct", 70)?;
    if degrade_pct > 100 {
        return Err("--degrade-pct is a percentage ≤ 100".into());
    }
    let runner = ChurnRunner::new(ChurnOptions {
        tau,
        nodes: opts.usize("nodes", 120)?,
        degree: opts.positive_f64("degree", 12.0)?,
        rounds: opts.usize("rounds", 20)?,
        model,
        speed: opts.non_negative_f64("speed", 0.05)?,
        pause: opts.usize("pause", 2)?,
        drift_bound: opts.non_negative_f64("drift-bound", 0.5)?,
        duty_period: opts.usize("duty-period", 8)?,
        duty_down: opts.usize("duty-down", 2)?,
        degrade_every: opts.usize("degrade-every", 5)?,
        degrade_pct: degrade_pct as u8,
        quasi: opts.flag("quasi"),
        engine: engine_config(opts, 1)?,
    });

    // Replay a single triple with its full trace.
    if let Some(spec) = opts.get("one") {
        let triple = SeedTriple::parse(&spec)
            .ok_or_else(|| format!("--one expects topology:faults:schedule, got {spec:?}"))?;
        let report = runner.run(triple).map_err(|e| format!("churn run: {e}"))?;
        println!("{}", report.trace.render());
        let m = &report.metrics;
        println!(
            "hole exposure {:.4}  covered mean {:.2}% min {:.2}%  repair msgs {}  \
             false susp {} ({:.2}/round)  moved {} slept {} woken {} degraded {}",
            m.hole_exposure,
            m.mean_covered * 100.0,
            m.min_covered * 100.0,
            m.repair_messages,
            m.false_suspicions,
            m.suspicion_rate,
            m.moves,
            m.sleeps,
            m.wakes,
            m.degrades
        );
        println!("repair split: {}", report.stats.repair);
        if report.failed() {
            return Err(format!(
                "triple {triple}: {} enforced oracle violation(s)",
                report.trace.violations().len()
            ));
        }
        println!(
            "triple {triple}: clean ({} rounds, {} final actives, digest {:016x})",
            m.rounds,
            report.active.len(),
            report.trace.digest()
        );
        return Ok(());
    }

    // Seed-sweep campaign.
    let seeds = opts.usize("seeds", 10)?;
    let base = opts.u64("base-seed", 0xC4_02_4E)?;
    let mut failures: Vec<SeedTriple> = Vec::new();
    let mut exposure = 0.0;
    let mut false_suspicions = 0usize;
    let mut repair = RepairTraffic::default();
    for i in 0..seeds as u64 {
        let triple = SeedTriple::derived(base, i);
        let report = runner
            .run(triple)
            .map_err(|e| format!("seed {i} ({triple}): {e}"))?;
        let m = &report.metrics;
        exposure += m.hole_exposure;
        false_suspicions += m.false_suspicions;
        repair.merge(&report.stats.repair);
        println!(
            "[{i:>3}] {:>4}  exposure {:>7.4}  covered {:>6.2}%  repair msgs {:>6}  \
             false-susp {:>3}  {triple}",
            if report.failed() { "FAIL" } else { "ok" },
            m.hole_exposure,
            m.mean_covered * 100.0,
            m.repair_messages,
            m.false_suspicions
        );
        if report.failed() {
            failures.push(triple);
        }
    }
    println!("repair split: {}", repair);
    if failures.is_empty() {
        println!(
            "{seeds} seeds: all clean, total hole exposure {exposure:.4}, \
             {false_suspicions} false suspicion(s)"
        );
        Ok(())
    } else {
        Err(format!(
            "{} of {seeds} seeds violated enforced oracles: {}",
            failures.len(),
            failures
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ))
    }
}

fn cmd_model(opts: &Opts) -> Result<(), String> {
    use confine_core::prelude::{ChaosOptions, ChaosRunner, RejoinPolicy};
    use confine_model::{explore, Instance, Options, Policy, Topology, Violation};

    let max_n = opts.usize("max-n", 4)?;
    let radius = opts.usize("radius", 1)?;
    let policies: Vec<Policy> = match opts.get("policy").as_deref() {
        None | Some("both") => vec![Policy::ReVerify, Policy::TrustSnapshot],
        Some("re-verify") => vec![Policy::ReVerify],
        Some("trust-snapshot") => vec![Policy::TrustSnapshot],
        Some(other) => {
            return Err(format!(
                "--policy expects re-verify, trust-snapshot or both, got {other:?}"
            ))
        }
    };
    let topologies: Vec<Topology> = match opts.get("topology").as_deref() {
        None | Some("both") => vec![Topology::Path, Topology::Cycle],
        Some("path") => vec![Topology::Path],
        Some("cycle") => vec![Topology::Cycle],
        Some(other) => {
            return Err(format!(
                "--topology expects path, cycle or both, got {other:?}"
            ))
        }
    };
    let options = if opts.flag("por") {
        Options {
            symmetry: false,
            por: true,
            ..Options::default()
        }
    } else {
        Options::default()
    };

    let mut total_violations = 0usize;
    let mut worst: Option<(Policy, Violation)> = None;
    println!("policy          topo   n  states      transitions  filtered  stalls  viol  ms");
    for &policy in &policies {
        for &topo in &topologies {
            for n in 2..=max_n {
                let Some(inst) = Instance::new(topo, n, radius, policy) else {
                    continue;
                };
                let start = std::time::Instant::now();
                let report = explore(&inst, options);
                let ms = start.elapsed().as_millis();
                println!(
                    "{:<15} {:<6} {:>2}  {:>10}  {:>11}  {:>8}  {:>6}  {:>4}  {ms}",
                    format!("{policy:?}"),
                    format!("{topo:?}"),
                    n,
                    report.states,
                    report.transitions,
                    report.filtered,
                    report.stall_states,
                    report.violations.len(),
                );
                total_violations += report.violations.len();
                for v in report.violations {
                    let better = worst
                        .as_ref()
                        .is_none_or(|(_, w)| v.trace.len() < w.trace.len());
                    if better {
                        worst = Some((policy, v));
                    }
                }
                if let Some(stall) = report.stall_example {
                    if policy == Policy::ReVerify && topo == Topology::Path && n == max_n {
                        println!("  declared-stall example: {}", stall.render());
                    }
                }
            }
        }
    }

    let Some((policy, cex)) = worst else {
        println!("no safety violations: every reachable quiescent state is covered and fixpoint");
        return Ok(());
    };
    println!(
        "minimal counterexample ({} actions): {}",
        cex.trace.len(),
        cex.render()
    );
    let script = cex.env_script();
    if opts.flag("lower") {
        let rejoin = match policy {
            Policy::ReVerify => RejoinPolicy::ReVerify,
            Policy::TrustSnapshot => RejoinPolicy::TrustSnapshot,
        };
        let runner = ChaosRunner::new(ChaosOptions {
            tau: opts.usize("tau", 4)?,
            rejoin,
            engine: engine_config(opts, 1)?,
            ..ChaosOptions::default()
        });
        let base = opts.u64("base-seed", 0xC0FFEE)?;
        let tries = opts.u64("tries", 6)?;
        match runner
            .concretize(&script, base, tries)
            .map_err(|e| format!("lowering: {e}"))?
        {
            Some(lowering) => {
                println!("lowered repro: {}", lowering.command);
                let replay = runner
                    .run_plan(lowering.triple, &lowering.plan)
                    .map_err(|e| format!("replay: {e}"))?;
                println!("replay: {}", if replay.failed() { "RED" } else { "GREEN" });
            }
            None => println!("lowering: no failing assignment within the search budget"),
        }
    }
    Err(format!(
        "{total_violations} safety violation(s) across the sweep"
    ))
}

fn cmd_serve(opts: &Opts) -> Result<(), String> {
    use confine_netsim::server_faults::ServerFaultPlan;
    use confine_server::{serve, CoreConfig, ServerConfig};

    let addr = opts.get("addr").unwrap_or_else(|| "127.0.0.1:7761".into());
    let journal = opts
        .get("journal")
        .unwrap_or_else(|| "confine.journal".into());
    let mut core = CoreConfig::new(journal);
    core.default_deadline_ms = opts.u64("deadline", core.default_deadline_ms)?;
    core.max_queue = opts.usize("max-queue", core.max_queue)?;
    if let Some(spec) = opts.get("faults") {
        core.faults = ServerFaultPlan::parse(&spec).map_err(|e| format!("--faults: {e}"))?;
    }
    let handle = serve(ServerConfig { addr, core }).map_err(|e| format!("serve: {e}"))?;
    if opts.flag("print-addr") {
        // Machine-readable first line so scripts can bind to port 0.
        println!("{}", handle.addr());
    } else {
        println!(
            "confine-server listening on {} (journal: {})",
            handle.addr(),
            opts.get("journal")
                .unwrap_or_else(|| "confine.journal".into())
        );
    }
    // Serve until killed; the journal makes the kill safe.
    loop {
        std::thread::park();
    }
}

fn cmd_client(opts: &Opts) -> Result<(), String> {
    use confine_server::protocol::Request;
    use confine_server::{Client, ClientConfig, Response};

    let addr = opts.get("addr").unwrap_or_else(|| "127.0.0.1:7761".into());
    let request =
        Request::decode(&opts.require("request")?).map_err(|e| format!("--request: {e}"))?;
    let config = ClientConfig {
        deadline_ms: opts.u64("deadline", 5_000)?,
        retries: opts.usize("retries", 4)? as u32,
        backoff_base_ms: opts.u64("backoff", 20)?,
        seed: opts.u64("seed", 1)?,
    };
    let mut client = Client::new(addr, config);
    let response = client.call(request).map_err(|e| e.to_string())?;
    println!("{}", response.encode());
    match response {
        Response::Error(e) => Err(e.to_string()),
        _ => Ok(()),
    }
}

fn cmd_verify(opts: &Opts) -> Result<(), String> {
    let s = load(opts)?;
    let tau = opts.usize("tau", 0)?;
    if tau < MIN_TAU {
        return Err(format!("--tau must be ≥ {MIN_TAU}"));
    }
    let active: Vec<NodeId> = match opts.get("active") {
        Some(path) => {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
            let mut ids = Vec::new();
            for (i, line) in text.lines().enumerate() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let id: usize = line
                    .parse()
                    .map_err(|_| format!("{path} line {}: bad node id {line:?}", i + 1))?;
                if id >= s.graph.node_count() {
                    return Err(format!("{path} line {}: node {id} out of range", i + 1));
                }
                ids.push(NodeId::from(id));
            }
            ids
        }
        None => s.graph.nodes().collect(),
    };

    // Structural sanity first.
    let masked = Masked::from_active(&s.graph, &active);
    println!("active nodes     : {}", masked.active_count());
    println!("active connected : {}", traverse::is_connected(&masked));

    // The exact cycle-partition criterion.
    let outcome = verify_criterion(&s, &active, tau);
    println!("criterion (τ={tau}) : {outcome:?}");
    if let Some(walk) = extract_outer_walk(&s) {
        if let Some(min_tau) = boundary_partition_tau(&s, &walk, &active) {
            println!("minimal feasible τ: {min_tau}");
        }
    }

    // Optional geometric ground-truth check.
    if let Some(gamma) = opts.get("gamma") {
        let gamma: f64 = gamma
            .parse()
            .map_err(|_| "--gamma expects a number".to_string())?;
        if gamma <= 0.0 {
            return Err("--gamma must be positive".into());
        }
        let rs = s.rc / gamma;
        let resolution = (s.target.width().min(s.target.height()) / 120.0).max(1e-6);
        let report = verify_coverage(&s.positions, &active, rs, s.target, resolution);
        println!(
            "geometric        : {:.2}% covered, {} holes, max hole diameter {:.3}",
            report.covered_fraction * 100.0,
            report.holes.len(),
            report.max_hole_diameter()
        );
        let blanket_possible = gamma <= blanket_ratio_threshold(tau) + 1e-12;
        println!(
            "proposition 1    : γ = {gamma} with τ = {tau} guarantees {}",
            if blanket_possible {
                "blanket coverage".to_string()
            } else {
                format!("holes ≤ {:.2}", (tau as f64 - 2.0) * s.rc)
            }
        );
    }

    if outcome == CriterionOutcome::Violated {
        return Err("criterion violated".into());
    }
    Ok(())
}
