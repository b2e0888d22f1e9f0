//! End-to-end tests of the `msj` command-line binary.

use std::io::Write;
use std::process::Command;

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("msj-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

fn msj() -> Command {
    Command::new(env!("CARGO_BIN_EXE_msj"))
}

#[test]
fn triangle_listing_via_cli() {
    let edges = write_temp("edges.tsv", "1 2\n2 3\n1 3\n3 4\n2 4\n");
    let out = msj()
        .args([
            "--rel",
            &format!("R={}", edges.display()),
            "--rel",
            &format!("S={}", edges.display()),
            "--rel",
            &format!("T={}", edges.display()),
            "R(a,b), S(b,c), T(a,c)",
            "--stats",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("# a\tb\tc"));
    assert!(stdout.contains("1\t2\t3"));
    assert!(stdout.contains("2\t3\t4"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("findgap calls"));
}

#[test]
fn limit_streams_and_truncates_output() {
    let r = write_temp("r.tsv", "1\n2\n3\n4\n");
    let out = msj()
        .args([
            "--rel",
            &format!("R={}", r.display()),
            "R(x)",
            "--limit",
            "2",
            "--stats",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("1\n2\n"),
        "first two tuples shown: {stdout}"
    );
    assert!(
        !stdout.contains("\n3\n"),
        "remainder not materialized: {stdout}"
    );
    assert!(stdout.contains("truncated at 2"), "{stdout}");
    // The streaming executor reports only the probe work actually done.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("# outputs: 2"), "{stderr}");
}

#[test]
fn explain_prints_plan_without_executing() {
    let edges = write_temp("edges2.tsv", "1 2\n2 3\n");
    let out = msj()
        .args([
            "--rel",
            &format!("R={}", edges.display()),
            "--rel",
            &format!("S={}", edges.display()),
            "R(x,y), S(y,z)",
            "--explain",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("R(x, y) ⋈ S(y, z)"), "{stdout}");
    assert!(stdout.contains("probe mode"), "{stdout}");
    assert!(stdout.contains("runtime bound"), "{stdout}");
    assert!(!stdout.contains("1\t2"), "no tuples printed: {stdout}");
}

#[test]
fn algo_registry_entries_agree_on_sorted_output() {
    let edges = write_temp("edges3.tsv", "1 2\n2 3\n1 3\n3 4\n2 4\n");
    let run = |algo: &str| -> String {
        let out = msj()
            .args([
                "--rel",
                &format!("R={}", edges.display()),
                "--rel",
                &format!("S={}", edges.display()),
                "--rel",
                &format!("T={}", edges.display()),
                "R(a,b), S(b,c), T(a,c)",
                "--algo",
                algo,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{algo}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    // The triangle query is β-cyclic, so Yannakakis sits this one out; all
    // other registry entries must print byte-identical sorted output.
    let expect = run("minesweeper");
    assert!(expect.contains("1\t2\t3"), "{expect}");
    for algo in [
        "leapfrog",
        "generic",
        "hash",
        "sort-merge",
        "nested-loop",
        "naive",
    ] {
        assert_eq!(run(algo), expect, "{algo} differs");
    }
}

#[test]
fn parallel_engine_matches_serial_output_and_reports_shards() {
    let edges = write_temp("edges4.tsv", "1 2\n2 3\n1 3\n3 4\n2 4\n4 5\n3 5\n1 5\n");
    let run = |extra: &[&str]| {
        let mut args = vec![
            "--rel".to_string(),
            format!("R={}", edges.display()),
            "--rel".to_string(),
            format!("S={}", edges.display()),
            "--rel".to_string(),
            format!("T={}", edges.display()),
            "R(a,b), S(b,c), T(a,c)".to_string(),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        let out = msj().args(&args).output().unwrap();
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    };
    let serial = run(&["--algo", "minesweeper"]);
    let par = run(&["--algo", "minesweeper-par", "--threads", "4"]);
    assert_eq!(
        serial.stdout, par.stdout,
        "parallel output must be byte-identical to serial"
    );
    let threads_only = run(&["--threads", "3"]);
    assert_eq!(serial.stdout, threads_only.stdout, "--threads alone too");
    // `--stats` adds the per-shard breakdown on stderr.
    let stats = run(&["--threads", "3", "--stats"]);
    let stderr = String::from_utf8_lossy(&stats.stderr);
    assert!(stderr.contains("# parallel: 3 worker(s)"), "{stderr}");
    assert!(stderr.contains("shard 0"), "{stderr}");
    // `--explain` mentions the parallel strategy and the reassembly.
    let explain = run(&["--algo", "minesweeper-par", "--explain"]);
    let stdout = String::from_utf8_lossy(&explain.stdout);
    assert!(stdout.contains("equi-depth shard"), "{stdout}");
    assert!(stdout.contains("concatenated in spec order"), "{stdout}");
    assert!(stdout.contains("probe mode"), "{stdout}");
}

/// Acceptance (ISSUE 5), CLI level: on a path query whose plan re-indexes,
/// `--threads N --limit k` prints stdout byte-identical to the serial
/// `--limit k` stream — the exact serial prefix, truncation marker
/// included.
#[test]
fn parallel_limit_output_is_byte_identical_to_serial_limit() {
    let edges = write_temp(
        "edges_limit.tsv",
        "1 2\n2 3\n1 3\n3 4\n2 4\n4 5\n3 5\n1 5\n",
    );
    let run = |extra: &[&str]| {
        let mut args = vec![
            "--rel".to_string(),
            format!("R={}", edges.display()),
            "--rel".to_string(),
            format!("S={}", edges.display()),
            "R(a,b), S(b,c)".to_string(),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        let out = msj().args(&args).output().unwrap();
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    for k in ["1", "3", "7"] {
        let serial = run(&["--limit", k]);
        let par = run(&["--threads", "4", "--limit", k]);
        assert_eq!(
            String::from_utf8_lossy(&serial),
            String::from_utf8_lossy(&par),
            "k={k}: parallel --limit must print the serial prefix"
        );
    }
}

#[test]
fn explain_json_is_structured() {
    let edges = write_temp("edges5.tsv", "1 2\n2 3\n");
    let out = msj()
        .args([
            "--rel",
            &format!("R={}", edges.display()),
            "--rel",
            &format!("S={}", edges.display()),
            "R(x,y), S(y,z)",
            "--explain-json",
            "--threads",
            "4",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(stdout.contains("\"algorithm\":\"minesweeper\""), "{stdout}");
    assert!(
        stdout.contains("\"attr_names\":[\"x\",\"y\",\"z\"]"),
        "{stdout}"
    );
    assert!(stdout.contains("\"runtime_bound\""), "{stdout}");
    assert!(stdout.contains("\"cache\":{\"hit\":false"), "{stdout}");
    assert!(stdout.contains("\"shards\":{\"threads\":4"), "{stdout}");
}

#[test]
fn string_columns_round_trip_through_the_cli() {
    let flights = write_temp("flights.tsv", "jfk lhr\nlhr nrt\nsfo jfk\n");
    let out = msj()
        .args([
            "--rel",
            &format!("F={}", flights.display()),
            "F(a, b), F(b, c)",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("# a\tb\tc"), "{stdout}");
    assert!(
        stdout.contains("jfk\tlhr\tnrt"),
        "decoded strings: {stdout}"
    );
    assert!(stdout.contains("sfo\tjfk\tlhr"), "{stdout}");
    // A string literal constrains the position and is hidden from output.
    let lit = msj()
        .args([
            "--rel",
            &format!("F={}", flights.display()),
            "F(a, \"lhr\")",
        ])
        .output()
        .unwrap();
    assert!(lit.status.success());
    let stdout = String::from_utf8_lossy(&lit.stdout);
    assert_eq!(stdout, "# a\njfk\n", "{stdout}");
}

#[test]
fn parallel_limit_streams_and_announces_truncation() {
    let r = write_temp(
        "r4.tsv",
        (1..=64)
            .map(|i| format!("{i}\n"))
            .collect::<String>()
            .as_str(),
    );
    let out = msj()
        .args([
            "--rel",
            &format!("R={}", r.display()),
            "R(x)",
            "--threads",
            "4",
            "--limit",
            "3",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1\n2\n3\n"), "first three tuples: {stdout}");
    assert!(!stdout.contains("\n4\n"), "capped: {stdout}");
    assert!(stdout.contains("truncated at 3"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("streams the first 3 tuples"),
        "streaming announced: {stderr}"
    );
    assert!(
        stderr.contains("cancels the remaining shard work"),
        "{stderr}"
    );
}

#[test]
fn unknown_algo_is_reported_with_choices() {
    let r = write_temp("r3.tsv", "1\n");
    let out = msj()
        .args([
            "--rel",
            &format!("R={}", r.display()),
            "R(x)",
            "--algo",
            "quantum",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown algorithm"), "{stderr}");
    assert!(stderr.contains("minesweeper"), "lists choices: {stderr}");
}

#[test]
fn bad_query_is_reported() {
    let r = write_temp("r2.tsv", "1\n");
    let out = msj()
        .args(["--rel", &format!("R={}", r.display()), "Q(x)"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown relation"));
}

#[test]
fn missing_file_is_reported() {
    let out = msj()
        .args(["--rel", "R=/definitely/not/here.tsv", "R(x)"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn usage_on_no_args() {
    let out = msj().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
