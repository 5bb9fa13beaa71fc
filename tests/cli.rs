//! The `landscape` figure commands, run as a user runs them: each
//! exits 0 and prints its artifact. Every run gets its own scratch
//! working directory, because the CLI writes
//! `results/bench_stages.json` under the directory it runs in.

use std::process::Command;

/// Runs `landscape <command> --scale 0.01 --seed 7 --threads 1` and
/// returns its stdout.
fn landscape(command: &str) -> String {
    let dir = std::env::temp_dir().join(format!("landscape-cli-{}-{command}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_landscape"))
        .args([command, "--scale", "0.01", "--seed", "7", "--threads", "1"])
        .current_dir(&dir)
        .output()
        .expect("spawn landscape");
    let wrote_timings = dir.join("results/bench_stages.json").is_file();
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    assert!(
        out.status.success(),
        "landscape {command} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(wrote_timings, "landscape {command} wrote no stage timings");
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

#[test]
fn figure_commands_print_their_artifacts() {
    for (command, header) in [
        ("fig1", "Fig. 1 — Open ports distribution\n"),
        ("table1", "Table I — HTTP and HTTPS access\n"),
        ("fig2", "Sec. IV funnel:\n"),
        (
            "table2",
            "Table II — Ranking of most popular hidden services\n",
        ),
        ("fig3", "Fig. 3 — Clients of "),
        ("certs", "Sec. III — HTTPS certificates\n"),
        ("sec5", "Sec. V — Popularity measurement\n"),
    ] {
        let stdout = landscape(command);
        assert!(
            stdout.starts_with(header),
            "landscape {command} printed:\n{stdout}"
        );
        let has_line = |prefix: &str| stdout.lines().any(|l| l.starts_with(prefix));
        match command {
            "fig2" => {
                assert!(has_line("Fig. 2 — Topics distribution"), "{stdout}");
                assert!(
                    has_line("classifier accuracy vs ground truth: language "),
                    "{stdout}"
                );
            }
            "table2" => assert!(has_line("Goldnet forensics: "), "{stdout}"),
            _ => {}
        }
    }
}
