//! End-to-end tests of the `confine-cli` binary (spawned as a subprocess).

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_confine-cli"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("confine-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn generate_info_schedule_verify_pipeline() {
    let net = tmp("net.cf");
    let sched = tmp("sched.txt");

    let out = cli()
        .args([
            "generate", "--nodes", "250", "--degree", "20", "--seed", "9",
        ])
        .args(["--out", net.to_str().unwrap()])
        .output()
        .expect("spawn generate");
    assert!(
        out.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("250 nodes"), "unexpected output: {text}");

    let out = cli()
        .args(["info", "--in", net.to_str().unwrap()])
        .output()
        .expect("spawn info");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("connected        : true"), "{text}");
    assert!(text.contains("initial partition τ:"), "{text}");

    let out = cli()
        .args([
            "schedule",
            "--in",
            net.to_str().unwrap(),
            "--tau",
            "5",
            "--seed",
            "4",
        ])
        .args(["--out", sched.to_str().unwrap()])
        .output()
        .expect("spawn schedule");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let ids = std::fs::read_to_string(&sched).expect("schedule written");
    assert!(ids.lines().count() > 10, "implausibly small coverage set");

    let out = cli()
        .args(["verify", "--in", net.to_str().unwrap(), "--tau", "5"])
        .args(["--active", sched.to_str().unwrap(), "--gamma", "1.0"])
        .output()
        .expect("spawn verify");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "verify failed:\n{text}");
    assert!(text.contains("Satisfied"), "{text}");

    let _ = std::fs::remove_file(net);
    let _ = std::fs::remove_file(sched);
}

#[test]
fn verify_rejects_broken_schedule() {
    let net = tmp("net2.cf");
    let out = cli()
        .args([
            "generate", "--nodes", "200", "--degree", "20", "--seed", "3",
        ])
        .args(["--out", net.to_str().unwrap()])
        .output()
        .expect("spawn generate");
    assert!(out.status.success());

    // A schedule consisting of one node is clearly invalid.
    let sched = tmp("sched2.txt");
    std::fs::write(&sched, "0\n").unwrap();
    let out = cli()
        .args(["verify", "--in", net.to_str().unwrap(), "--tau", "4"])
        .args(["--active", sched.to_str().unwrap()])
        .output()
        .expect("spawn verify");
    assert!(
        !out.status.success(),
        "single-node schedule must fail verification"
    );

    let _ = std::fs::remove_file(net);
    let _ = std::fs::remove_file(sched);
}

#[test]
fn prune_roundtrips_through_the_format() {
    let net = tmp("net3.cf");
    let thin = tmp("thin.cf");
    let out = cli()
        .args([
            "generate", "--nodes", "200", "--degree", "22", "--seed", "6",
        ])
        .args(["--out", net.to_str().unwrap()])
        .output()
        .expect("spawn generate");
    assert!(out.status.success());

    let out = cli()
        .args([
            "prune",
            "--in",
            net.to_str().unwrap(),
            "--tau",
            "4",
            "--seed",
            "2",
        ])
        .args(["--out", thin.to_str().unwrap()])
        .output()
        .expect("spawn prune");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("links pruned"), "{text}");

    // The thinned scenario parses and has fewer links.
    let out = cli()
        .args(["info", "--in", thin.to_str().unwrap()])
        .output()
        .expect("info");
    assert!(out.status.success());
    let info = String::from_utf8_lossy(&out.stdout);
    assert!(info.contains("connected        : true"), "{info}");

    let _ = std::fs::remove_file(net);
    let _ = std::fs::remove_file(thin);
}

#[test]
fn helpful_errors() {
    let unwritten = tmp("unwritten.cf");
    let unwritten = unwritten.to_str().unwrap();
    // Each refusal exits 1 through the error path, not a panic, and names
    // what is wrong.
    for (args, named) in [
        (&["schedule", "--tau", "4"][..], "--in"),
        (&["frobnicate"][..], "unknown command"),
        (
            &["generate", "--degree", "0", "--out", unwritten][..],
            "--degree",
        ),
        (
            &["generate", "--degree", "-3", "--out", unwritten][..],
            "--degree",
        ),
        (
            &["generate", "--degree", "nan", "--out", unwritten][..],
            "--degree",
        ),
        (
            &["generate", "--nodes", "50", "--rc", "0", "--out", unwritten][..],
            "--rc",
        ),
        (&["chaos", "--degree", "0"][..], "--degree"),
        (&["churn", "--degree", "0"][..], "--degree"),
        (&["churn", "--speed", "-1"][..], "--speed"),
        (
            &["churn", "--model", "drift", "--drift-bound", "-1"][..],
            "--drift-bound",
        ),
    ] {
        let out = cli().args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    }
    assert!(
        !std::path::Path::new(unwritten).exists(),
        "a refused generate writes nothing"
    );

    let out = cli().arg("help").output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("commands:"));
}

#[test]
fn unknown_flags_are_refused_by_name() {
    let net = tmp("net-flags.cf");
    let out = cli()
        .args([
            "generate", "--nodes", "120", "--degree", "14", "--seed", "7",
        ])
        .args(["--out", net.to_str().unwrap()])
        .output()
        .expect("spawn generate");
    assert!(out.status.success());
    let schedule = [
        "schedule",
        "--in",
        net.to_str().unwrap(),
        "--tau",
        "4",
        "--seed",
        "7",
    ];

    // The same command without the stray flag runs.
    let out = cli().args(schedule).output().expect("spawn schedule");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let sweep = [
        "fault-sweep",
        "--in",
        net.to_str().unwrap(),
        "--tau",
        "4",
        "--crashes",
        "0",
    ];

    // Retired flags, a misspelt one and loss probabilities outside [0, 1]
    // each fail, naming the flag.
    for (command, extra, named) in [
        (
            &schedule[..],
            &["--regions", "4", "--region-threads", "2"][..],
            "unknown option --region-threads",
        ),
        (
            &schedule[..],
            &["--thread", "3"][..],
            "unknown option --thread",
        ),
        (
            &schedule[..],
            &["--no-cache"][..],
            "unknown option --no-cache",
        ),
        (&sweep[..], &["--loss", "1.5"][..], "--loss"),
        (&sweep[..], &["--loss", "0,-0.2"][..], "--loss"),
        (&sweep[..], &["--loss", "nan"][..], "--loss"),
    ] {
        let out = cli()
            .args(command)
            .args(extra)
            .output()
            .expect("spawn command");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?} was accepted");
        assert!(stderr.contains(named), "{stderr}");
        assert!(out.stdout.is_empty(), "nothing runs before the refusal");
    }

    // Every command that once took `--no-cache` refuses it by name.
    for command in ["schedule", "fault-sweep", "chaos", "churn", "model"] {
        let out = cli()
            .args([command, "--no-cache"])
            .output()
            .expect("spawn command");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{command} accepted --no-cache");
        assert!(
            stderr.contains(&format!("{command}: unknown option --no-cache")),
            "{stderr}"
        );
    }

    let _ = std::fs::remove_file(net);
}

#[test]
fn engine_flags_change_execution_but_not_the_schedule() {
    let net = tmp("net4.cf");
    let fast = tmp("sched-fast.txt");
    let slow = tmp("sched-slow.txt");
    let out = cli()
        .args([
            "generate", "--nodes", "150", "--degree", "18", "--seed", "12",
        ])
        .args(["--out", net.to_str().unwrap()])
        .output()
        .expect("spawn generate");
    assert!(out.status.success());

    let engine_line = |text: &str| {
        text.lines()
            .find(|l| l.starts_with("engine:"))
            .map(str::to_owned)
    };

    // Default: all cores.
    let out = cli()
        .args(["schedule", "--in", net.to_str().unwrap()])
        .args(["--tau", "4", "--seed", "2", "--out", fast.to_str().unwrap()])
        .output()
        .expect("spawn schedule");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    let parallel = engine_line(&text).unwrap_or_else(|| panic!("engine stats missing: {text}"));
    assert!(parallel.contains("round hits"), "{parallel}");

    // One thread: identical coverage set and the same verdict traffic.
    let out = cli()
        .args(["schedule", "--in", net.to_str().unwrap()])
        .args(["--tau", "4", "--seed", "2", "--threads", "1"])
        .args(["--out", slow.to_str().unwrap()])
        .output()
        .expect("spawn schedule");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert_eq!(engine_line(&text), Some(parallel));

    let a = std::fs::read_to_string(&fast).unwrap();
    let b = std::fs::read_to_string(&slow).unwrap();
    assert_eq!(a, b, "engine options must not change the coverage set");

    let _ = std::fs::remove_file(net);
    let _ = std::fs::remove_file(fast);
    let _ = std::fs::remove_file(slow);
}
