"""Harness, reporting, IDX loading, and CLI tests.

Metric arithmetic is pinned with hand-built outcome lists, the IDX loader
against byte-for-byte handcrafted files, and CSV layout against the exact
header and row count the format promises.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from attestfl import adversary, cli, crypto, datasets, harness, reporting
from attestfl.harness import (
    ConfigError,
    DataSpec,
    ExperimentConfig,
    build_simulation,
    parse_config,
    run_experiment,
)
from attestfl.reporting import (
    AuditRecord,
    CSV_HEADER,
    MessageOutcome,
    MetricsTable,
    RoundReport,
    compute_metrics,
    emit_csv,
    replay_audit_record,
)

FAST = """
clients = 3
rounds = 2
seed = 12
crypto.key_bits = 1024
data.per_client = 30
train.epochs = 1
"""


# ---- config parsing ---- #


def test_defaults():
    cfg = parse_config("")
    assert cfg.rounds == 5
    assert cfg.clients == 4
    assert cfg.security is True
    assert cfg.encrypt is False
    assert cfg.model.kind == "logistic-regression"
    assert cfg.data.source == "synthetic"
    assert cfg.train.learning_rate == 0.1
    assert cfg.crypto.key_bits == 2048
    assert cfg.attack.kind == "none"


def test_full_file_with_comments():
    cfg = parse_config(
        """
        # experiment
        rounds = 7          # inline comment
        clients = 5
        seed = 3
        security = off
        encrypt = on
        model.kind = mlp
        model.hidden = 8
        model.activation = relu
        data.separation = 4.5
        train.lr = 0.05
        train.batch = 16
        attack.kind = tamper
        attack.fraction = 0.5
        """
    )
    assert cfg.rounds == 7 and cfg.clients == 5
    assert cfg.security is False and cfg.encrypt is True
    assert cfg.model.kind == "mlp" and cfg.model.hidden == 8 and cfg.model.activation == "relu"
    assert cfg.data.separation == 4.5
    assert cfg.train.learning_rate == 0.05 and cfg.train.batch_size == 16
    assert cfg.attack.kind == "tamper" and cfg.attack.fraction == 0.5


def test_attack_seed_inherits_main_seed():
    assert parse_config("seed = 77").attack.seed == 77
    assert parse_config("seed = 77\nattack.seed = 3").attack.seed == 3


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("bogus = 1", "line 1: unknown key"),
        ("rounds = 1\nrounds = 2", "line 2: duplicate"),
        ("just words", "line 1: expected key = value"),
        ("rounds =", "line 1: empty key or value"),
        ("rounds = many", "expected an integer"),
        ("security = yes", "expected on or off"),
        ("train.batch = 0", "batch"),
        ("model.kind = transformer", "unknown model kind"),
        ("attack.kind = ddos", "unknown attack kind"),
        ("crypto.key_bits = 512", "1024 or 2048"),
        ("data.source = idx", "idx_images"),
    ],
)
def test_config_errors_carry_context(text, fragment):
    with pytest.raises((ConfigError, ValueError)) as err:
        parse_config(text)
    assert fragment in str(err.value)


def test_overrides_win_over_file():
    cfg = parse_config("rounds = 3\nseed = 1", overrides={"rounds": "9"})
    assert cfg.rounds == 9


def test_batch_full_keyword():
    assert parse_config("train.batch = full").train.batch_size == "full"


# ---- metric arithmetic ---- #


def _outcome(reason, honest=True, accepted=None, attributable=True):
    accepted = (reason == "ok") if accepted is None else accepted
    return MessageOutcome(
        client_id="x", reason=reason, honest=honest, accepted=accepted, attributable=attributable
    )


def test_compute_metrics_hand_case():
    outcomes = [
        _outcome("ok"),
        _outcome("ok"),
        _outcome("cfa-halt"),  # integrity passed, attestation rejected
        _outcome("digest-mismatch"),
        _outcome("unknown-identity", honest=False, attributable=False),
        _outcome("ok", honest=False, attributable=False),  # accepted but unattributable
    ]
    verification, authentication, incidents = compute_metrics(outcomes, [])
    # honest: 4, of which ok+ok+cfa-halt passed integrity -> 75%
    assert verification == 75.0
    # accepted: 3, attributable 2 -> 66.66..%
    assert authentication == pytest.approx(200.0 / 3.0)
    assert incidents == 0


def test_compute_metrics_empty_denominators():
    verification, authentication, incidents = compute_metrics([], [])
    assert verification is None and authentication is None and incidents == 0
    only_dishonest = [_outcome("unknown-identity", honest=False, attributable=False)]
    verification, authentication, _ = compute_metrics(only_dishonest, [])
    assert verification is None and authentication is None


def test_audit_replay_detects_bogus_records():
    pair = crypto.keygen_signature(key_bits=1024, seed=600)
    digest = crypto.sha256(b"payload")
    good = AuditRecord(
        round=0, client_id="a", digest=digest,
        signature=crypto.sign(digest, pair.private), public_key=pair.public.to_bytes(),
    )
    assert replay_audit_record(good)
    assert not replay_audit_record(
        AuditRecord(round=0, client_id="a", digest=digest, signature=b"\x00" * 64, public_key=pair.public.to_bytes())
    )
    assert not replay_audit_record(
        AuditRecord(round=0, client_id="a", digest=digest, signature=good.signature, public_key=None)
    )
    assert not replay_audit_record(
        AuditRecord(round=0, client_id="a", digest=digest, signature=good.signature, public_key=b"junk")
    )
    _, _, incidents = compute_metrics([], [good, good, AuditRecord(0, "a", digest, b"", None)])
    assert incidents == 1


# ---- CSV emission ---- #


def make_report(round_no, verification=100.0, authentication=100.0, accuracy=0.9):
    return RoundReport(
        round=round_no,
        outcomes=[],
        verification_rate=verification,
        authentication_rate=authentication,
        non_repudiation_incidents=0,
        accuracy=accuracy,
        duration_s=0.025,
        accepted_count=3,
        model_updated=True,
    )


def test_csv_layout_five_rounds(tmp_path):
    table = MetricsTable(reports=[make_report(i + 1) for i in range(5)], client_count=4)
    path = tmp_path / "out.csv"
    emit_csv(table, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 7  # header + 5 rounds + summary
    assert lines[0] == CSV_HEADER
    assert lines[1] == "1,4,100.0,100.0,0,0.9,25"
    assert lines[6].startswith("summary,4,100.0,100.0,0,0.9,")


def test_csv_uses_na_for_missing_rates(tmp_path):
    table = MetricsTable(
        reports=[make_report(1, verification=None, authentication=None)], client_count=0
    )
    path = tmp_path / "out.csv"
    emit_csv(table, str(path))
    lines = path.read_text().splitlines()
    assert lines[1].split(",")[2:4] == ["na", "na"]
    assert lines[2].split(",")[2:4] == ["na", "na"]


def test_csv_abort_marker(tmp_path):
    table = MetricsTable(reports=[make_report(1)], client_count=4, aborted="server trace failed")
    path = tmp_path / "out.csv"
    emit_csv(table, str(path))
    assert path.read_text().splitlines()[-1] == "# aborted: server trace failed"


def test_csv_rejects_empty_table(tmp_path):
    with pytest.raises(ValueError):
        emit_csv(MetricsTable(), str(tmp_path / "out.csv"))


# ---- IDX loading ---- #


def write_idx(tmp_path, count=6, rows=2, cols=2, labels=None, img_magic=0x803, lab_magic=0x801,
              img_trunc=0, lab_count=None):
    labels = list(range(count)) if labels is None else labels
    img = struct.pack(">IIII", img_magic, count, rows, cols)
    img += bytes((i * 7) % 256 for i in range(count * rows * cols))
    if img_trunc:
        img = img[:-img_trunc]
    lab = struct.pack(">II", lab_magic, count if lab_count is None else lab_count)
    lab += bytes(label % 256 for label in labels)
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    images_path.write_bytes(img)
    labels_path.write_bytes(lab)
    return str(images_path), str(labels_path)


def test_load_idx_round_trip(tmp_path):
    images, labels = write_idx(tmp_path, count=6, labels=[0, 1, 2, 0, 1, 2])
    data = datasets.load_idx(images, labels, subset=6, seed=0)
    assert data.features.shape == (6, 4)
    assert data.num_classes == 3
    # pixel value k*7 mod 256 scaled by 255
    assert data.features[0, 1] == pytest.approx(7 / 255.0)
    assert data.features.min() >= 0.0 and data.features.max() <= 1.0


def test_load_idx_subset_is_seeded(tmp_path):
    images, labels = write_idx(tmp_path, count=10, labels=[i % 2 for i in range(10)])
    a = datasets.load_idx(images, labels, subset=4, seed=5)
    b = datasets.load_idx(images, labels, subset=4, seed=5)
    c = datasets.load_idx(images, labels, subset=4, seed=6)
    assert np.array_equal(a.features, b.features)
    assert a.size == 4
    assert not np.array_equal(a.features, c.features)


@pytest.mark.parametrize(
    "kwargs,fragment",
    [
        ({"img_magic": 0x802}, "bad images magic"),
        ({"lab_magic": 0x803}, "bad labels magic"),
        ({"img_trunc": 3}, "length mismatch"),
        ({"lab_count": 5}, "does not match"),
    ],
)
def test_load_idx_rejects_damage(tmp_path, kwargs, fragment):
    images, labels = write_idx(tmp_path, **kwargs)
    with pytest.raises(ValueError) as err:
        datasets.load_idx(images, labels, subset=2, seed=0)
    assert fragment in str(err.value)


def test_load_idx_subset_bounds(tmp_path):
    images, labels = write_idx(tmp_path, count=4, labels=[0, 1, 0, 1])
    with pytest.raises(ValueError):
        datasets.load_idx(images, labels, subset=5, seed=0)


# ---- simulation assembly ---- #


def test_build_simulation_data_poison_flips_at_provisioning():
    cfg = parse_config(FAST + "attack.kind = data-poison\nattack.fraction = 0.34")
    sim = build_simulation(cfg)
    compromised = adversary.choose_compromised(
        [c.client_id for c in sim.clients], cfg.attack.fraction, cfg.attack.seed
    )
    assert len(compromised) == 1
    clean = datasets.generate_synthetic(
        num_clients=3, per_client=30, num_features=2, num_classes=2,
        separation=6.0, seed=crypto.derive_seed(cfg.seed, "data"),
    )
    for i, client in enumerate(sim.clients):
        flipped = not np.array_equal(client.data.labels, clean[i].labels)
        assert flipped == (client.client_id in compromised)
        assert client.compromise is None  # execution stays honest


def test_build_simulation_model_poison_sets_compromise():
    cfg = parse_config(FAST + "attack.kind = model-poison\nattack.fraction = 0.34")
    sim = build_simulation(cfg)
    assert sum(1 for c in sim.clients if c.compromise is not None) == 1
    assert sim.plan is None


def test_build_simulation_sybil_plan():
    cfg = parse_config(FAST + "attack.kind = sybil\nattack.fraction = 1.0")
    sim = build_simulation(cfg)
    assert sim.plan is not None
    assert len(sim.plan.sybils) == 3
    registered = set(sim.server.registry)
    assert registered == {"client-0", "client-1", "client-2"}


def test_build_simulation_holdout_is_fifth_of_pool():
    cfg = parse_config(FAST)
    sim = build_simulation(cfg)
    assert sim.holdout.size == (3 * 30) // 5


# ---- experiment runs ---- #


def test_run_experiment_is_deterministic_except_duration():
    cfg = parse_config(FAST)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert len(a.reports) == len(b.reports) == 2
    for ra, rb in zip(a.reports, b.reports):
        assert ra.accuracy == rb.accuracy
        assert ra.verification_rate == rb.verification_rate
        assert ra.authentication_rate == rb.authentication_rate
        assert ra.non_repudiation_incidents == rb.non_repudiation_incidents


def test_run_experiment_security_toggle_matches_in_honest_runs():
    on = run_experiment(parse_config(FAST + "security = on"))
    off = run_experiment(parse_config(FAST + "security = off"))
    for ra, rb in zip(on.reports, off.reports):
        assert ra.accuracy == rb.accuracy


def test_run_experiment_writes_csv(tmp_path):
    path = tmp_path / "table.csv"
    table = run_experiment(parse_config(FAST), out_path=str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(table.reports) + 1


def test_run_experiment_idx_source(tmp_path):
    images, labels = write_idx(tmp_path, count=40, rows=2, cols=2, labels=[i % 2 for i in range(40)])
    cfg = parse_config(
        FAST
        + f"data.source = idx\ndata.idx_images = {images}\ndata.idx_labels = {labels}\ndata.subset = 40"
    )
    table = run_experiment(cfg)
    assert len(table.reports) == 2
    sim = build_simulation(cfg)
    assert sim.holdout.size == 8  # last fifth of the pool
    assert sum(c.data.size for c in sim.clients) == 32


# ---- CLI ---- #


def test_cli_runs_and_prints_table(tmp_path, capsys):
    out = tmp_path / "run.csv"
    conf = tmp_path / "fast.conf"
    conf.write_text(FAST)
    code = cli.main(
        ["--config", str(conf), "--rounds", "2", "--seed", "12", "--out", str(out), "--attack", "none"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "round" in captured.out and "summary" in captured.out
    assert out.exists()


def test_cli_rejects_bad_config_value(capsys):
    code = cli.main(["--attack", "ddos"])
    captured = capsys.readouterr()
    assert code == 1
    assert "config error" in captured.err


def test_cli_rejects_missing_config_file(capsys):
    code = cli.main(["--config", "/does/not/exist"])
    captured = capsys.readouterr()
    assert code == 1
    assert "cannot read config" in captured.err


def test_cli_usage_error_exits_one():
    with pytest.raises(SystemExit) as err:
        cli.build_parser().parse_args(["--security", "sideways"])
    assert err.value.code == 1


def test_cli_config_file_plus_overrides(tmp_path, capsys):
    path = tmp_path / "exp.conf"
    path.write_text(FAST + "attack.kind = sybil\nattack.fraction = 1.0\n")
    code = cli.main(["--config", str(path), "--rounds", "1"])
    captured = capsys.readouterr()
    assert code == 0
    # one round only, despite the file saying two
    assert captured.out.count("\n") == 3  # header + round + summary
