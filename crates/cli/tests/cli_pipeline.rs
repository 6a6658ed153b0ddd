//! End-to-end test of the `typilus` binary: generate a corpus, train,
//! predict, evaluate and audit through the real CLI surface.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_typilus"))
}

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("typilus_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp workdir");
    dir
}

#[test]
fn full_cli_pipeline() {
    let dir = workdir();
    let corpus = dir.join("corpus");
    let model = dir.join("model.typilus");

    // gen-corpus
    let out = bin()
        .args([
            "gen-corpus",
            "--out",
            corpus.to_str().unwrap(),
            "--files",
            "15",
            "--seed",
            "3",
        ])
        .output()
        .expect("gen-corpus runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // train (tiny settings for test speed)
    let out = bin()
        .args([
            "train",
            "--corpus",
            corpus.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--epochs",
            "2",
            "--dim",
            "8",
            "--gnn-steps",
            "2",
        ])
        .output()
        .expect("train runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model.exists(), "model artefact written");

    // predict on a fresh file, with the checker filter
    let sample = dir.join("sample.py");
    std::fs::write(
        &sample,
        "def f(count):\n    total = count + 1\n    return total\n",
    )
    .expect("write sample");
    let out = bin()
        .args([
            "predict",
            "--model",
            model.to_str().unwrap(),
            "--top",
            "2",
            "--check",
            sample.to_str().unwrap(),
        ])
        .output()
        .expect("predict runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("count"),
        "predictions mention the parameter: {stdout}"
    );

    // eval
    let out = bin()
        .args([
            "eval",
            "--model",
            model.to_str().unwrap(),
            "--corpus",
            corpus.to_str().unwrap(),
        ])
        .output()
        .expect("eval runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("exact match"), "{stdout}");

    // audit
    let out = bin()
        .args([
            "audit",
            "--model",
            model.to_str().unwrap(),
            "--corpus",
            corpus.to_str().unwrap(),
        ])
        .output()
        .expect("audit runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = bin().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn missing_required_option_fails() {
    let out = bin()
        .args(["train", "--corpus", "/nonexistent"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--model"), "{stderr}");
}

#[test]
fn index_modes_are_exact_or_sharded() {
    // Not under `workdir()`: `full_cli_pipeline` deletes that
    // directory while this test may still be running.
    let dir = std::env::temp_dir().join(format!("typilus_cli_index_{}", std::process::id()));
    let corpus = dir.join("corpus");
    let out = bin()
        .args(["gen-corpus", "--out", corpus.to_str().unwrap()])
        .args(["--files", "20", "--seed", "5"])
        .output()
        .expect("gen-corpus runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let train = |index: &str, model: &PathBuf| {
        bin()
            .args(["train", "--corpus", corpus.to_str().unwrap()])
            .args(["--model", model.to_str().unwrap()])
            .args(["--epochs", "1", "--dim", "8", "--gnn-steps", "1"])
            .args(["--index", index, "--shards", "1"])
            .output()
            .expect("train runs")
    };

    // The in-memory forest mode is gone: `forest` is an unknown mode.
    let forest_model = dir.join("forest.typilus");
    let out = train("forest", &forest_model);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown mode \"forest\""), "{stderr}");
    assert!(!forest_model.exists());

    // `--shards 1` is taken as given and still writes a sidecar.
    let model = dir.join("sharded.typilus");
    let out = train("sharded", &model);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let sidecar = dir.join("sharded.typilus.space");
    assert!(sidecar.exists(), "sharded training writes the sidecar");
    let out = bin()
        .args(["index", "--model", model.to_str().unwrap(), "--info"])
        .output()
        .expect("index --info runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let info = String::from_utf8_lossy(&out.stdout);
    assert!(info.contains(" 1 shards"), "{info}");
    std::fs::remove_dir_all(&dir).ok();
}
