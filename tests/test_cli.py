"""The command-line interface, end to end on a tiny CSV."""

import json

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "log.csv"
    exit_code = main(
        ["generate-data", "--config", "tiny", "--seed", "3",
         "--out", str(path)]
    )
    assert exit_code == 0
    return path


@pytest.fixture(scope="module")
def checkpoint(csv_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "model.npz"
    exit_code = main(
        [
            "train", "--data", str(csv_path), "--model", "VSAN",
            "--max-length", "10", "--dim", "16", "--epochs", "2",
            "--heldout", "6", "--quiet", "--out", str(out),
        ]
    )
    assert exit_code == 0
    assert out.exists()
    return out


def test_generate_data_writes_csv(csv_path):
    header = csv_path.read_text().splitlines()[0]
    assert header == "user,item,rating,timestamp"


def test_train_prints_results(checkpoint, capsys):
    # fixture already trained; just confirm the checkpoint loads
    assert checkpoint.stat().st_size > 0


def test_train_reports_compiled_programs(csv_path, tmp_path, capsys):
    out = tmp_path / "model.npz"
    base = [
        "train", "--data", str(csv_path), "--model", "VSAN",
        "--max-length", "10", "--dim", "16", "--epochs", "2",
        "--heldout", "6", "--out", str(out),
    ]
    assert main(base) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("compiled:")]
    assert len(lines) == 1, lines
    # e.g. "compiled: 5 programs, 5 traces, hit ratio 0.500,
    #       slab 16.0 MB (3.2 MB placed)"
    words = lines[0].replace(",", "").split()
    programs, traces = int(words[1]), int(words[3])
    hit_ratio, slab_mb = float(words[7]), float(words[9])
    placed_mb = float(words[11].lstrip("("))
    assert words[12:] == ["MB", "placed)"], words
    assert programs >= 1 and traces >= programs
    assert 0.0 < hit_ratio < 1.0
    assert slab_mb > 0.0
    assert 0.0 < placed_mb <= slab_mb

    assert main(base + ["--quiet"]) == 0
    assert "compiled:" not in capsys.readouterr().out


def test_evaluate_outputs_json(csv_path, checkpoint, capsys):
    exit_code = main(
        [
            "evaluate", "--data", str(csv_path),
            "--checkpoint", str(checkpoint), "--heldout", "6",
            "--cutoffs", "5", "10",
        ]
    )
    assert exit_code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "ndcg@5" in payload and "recall@10" in payload
    assert all(0.0 <= value <= 100.0 for value in payload.values())


def test_recommend_known_user(csv_path, checkpoint, capsys):
    # pick a user id that survives preprocessing
    from repro.data import prepare_corpus, read_interactions_csv

    corpus = prepare_corpus(read_interactions_csv(csv_path))
    user = corpus.user_ids[0]
    exit_code = main(
        [
            "recommend", "--data", str(csv_path),
            "--checkpoint", str(checkpoint), "--heldout", "6",
            "--user", str(user), "--top", "5",
        ]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert f"user {user}" in out
    assert "top-5" in out


def test_recommend_never_lists_the_history(csv_path, checkpoint, capsys):
    # A list longer than the catalogue: only the unseen items fill it.
    from repro.data import prepare_corpus, read_interactions_csv

    corpus = prepare_corpus(read_interactions_csv(csv_path))
    user = corpus.user_ids[0]
    seen = {corpus.index_to_item[int(item)] for item in corpus.sequences[0]}
    exit_code = main(
        [
            "recommend", "--data", str(csv_path),
            "--checkpoint", str(checkpoint), "--heldout", "6",
            "--user", str(user), "--top", "100000",
        ]
    )
    assert exit_code == 0
    listed = json.loads(capsys.readouterr().out.split(": ")[-1])
    assert len(listed) == corpus.num_items - len(seen)
    assert not seen & set(listed)


def test_recommend_unknown_user_fails(csv_path, checkpoint, capsys):
    exit_code = main(
        [
            "recommend", "--data", str(csv_path),
            "--checkpoint", str(checkpoint), "--heldout", "6",
            "--user", "999999",
        ]
    )
    assert exit_code == 1
    assert "not in the corpus" in capsys.readouterr().err


def test_sasrec_train_path(csv_path, tmp_path):
    out = tmp_path / "sasrec.npz"
    argv = [
        "train", "--data", str(csv_path), "--model", "SASRec",
        "--max-length", "10", "--dim", "16", "--epochs", "1",
        "--heldout", "6", "--quiet", "--out", str(out),
    ]
    assert main(argv) == 0
    # Training has no eager opt-out: argparse rejects the flag.
    with pytest.raises(SystemExit) as rejected:
        main(argv + ["--no-compile"])
    assert rejected.value.code == 2


def test_train_checkpoint_and_resume(csv_path, tmp_path):
    """--checkpoint-dir writes resumable full-state checkpoints and
    --resume continues to the same final weights as a straight run."""
    checkpoint_dir = tmp_path / "ckpts"
    base = [
        "train", "--data", str(csv_path), "--model", "VSAN",
        "--max-length", "10", "--dim", "16", "--heldout", "6",
        "--quiet",
    ]

    straight_out = tmp_path / "straight.npz"
    assert main(base + ["--epochs", "4", "--out", str(straight_out)]) == 0

    half_out = tmp_path / "half.npz"
    assert main(
        base + [
            "--epochs", "2", "--out", str(half_out),
            "--checkpoint-dir", str(checkpoint_dir), "--keep-last", "3",
        ]
    ) == 0
    from repro.train import latest_checkpoint

    assert latest_checkpoint(checkpoint_dir) is not None

    resumed_out = tmp_path / "resumed.npz"
    assert main(
        base + [
            "--epochs", "4", "--out", str(resumed_out),
            "--resume", str(checkpoint_dir),
        ]
    ) == 0

    with np.load(straight_out) as straight, np.load(resumed_out) as resumed:
        for key in straight.files:
            if key.startswith("__"):
                continue
            np.testing.assert_array_equal(
                straight[key], resumed[key], err_msg=key
            )


def test_weak_protocol_evaluate(csv_path, checkpoint, capsys):
    exit_code = main(
        [
            "evaluate", "--data", str(csv_path),
            "--checkpoint", str(checkpoint), "--protocol", "weak",
            "--cutoffs", "10",
        ]
    )
    assert exit_code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "ndcg@10" in payload


def test_serve_smoke_command():
    # The serving drills live in tests/integration/test_serve_drills.py;
    # argparse rejects the retired subcommand.
    with pytest.raises(SystemExit) as rejected:
        main(["serve-smoke", "--requests", "30"])
    assert rejected.value.code == 2
