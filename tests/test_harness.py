"""Harness, reporting, IDX loading, and CLI tests.

Metric arithmetic is pinned with hand-built outcome lists, the IDX loader
against byte-for-byte handcrafted files, and CSV layout against the exact
header and row count the format promises.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

from attestfl import adversary, cli, crypto, datasets, harness, protocol, reporting
from attestfl.harness import (
    ConfigError,
    DataSpec,
    ExperimentConfig,
    build_simulation,
    parse_config,
    run_experiment,
    run_rounds,
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


def test_hash_starts_a_comment_only_after_whitespace():
    cfg = parse_config(
        "# leading comment\n"
        "rounds = 7   # note\n"
        "data.source = idx\n"
        "data.idx_images = /tmp/i#1.idx\n"
        "data.idx_labels = /tmp/l#2.idx\t# tab before the comment\n"
    )
    assert cfg.rounds == 7
    assert cfg.data.idx_images == "/tmp/i#1.idx"
    assert cfg.data.idx_labels == "/tmp/l#2.idx"


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
        ("model.activation = sigmoid", "unknown activation"),
        ("model.hidden = 0", "model.hidden must be positive"),
        ("attack.kind = ddos", "unknown attack kind"),
        ("crypto.key_bits = 512", "1024 or 2048"),
        ("data.source = idx", "idx_images"),
        ("data.idx_images = /tmp/i.idx", "data.idx_images need data.source = idx"),
        ("data.idx_labels = /tmp/l.idx", "data.idx_labels need data.source = idx"),
        ("data.source = synthetic\ndata.subset = 5", "data.subset need data.source = idx"),
        ("data.separation = nan", "data.separation must be finite"),
        ("data.separation = inf", "data.separation must be finite"),
        (f"seed = {2**127}\nattack.seed = 0", "seed must lie in [0, 2**127)"),
        (f"attack.seed = {2**127}", "seed must lie in [0, 2**127)"),
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


def _outcome(reason, honest=True, attributable=True, audit=None):
    return MessageOutcome(client_id="x", reason=reason, honest=honest, attributable=attributable, audit=audit)


def _signed_record():
    pair = crypto.keygen_signature(key_bits=1024, seed=600)
    digest = crypto.sha256(b"payload")
    return AuditRecord(
        round=0, client_id="a", digest=digest,
        signature=crypto.sign(digest, pair.private), public_key=pair.public.to_bytes(),
    )


def test_compute_metrics_hand_case():
    record = _signed_record()
    outcomes = [
        _outcome("ok", audit=record),
        _outcome("ok", audit=record),
        _outcome("cfa-halt"),  # integrity passed, attestation rejected
        _outcome("digest-mismatch"),
        _outcome("unknown-identity", honest=False, attributable=False),
        _outcome("ok", honest=False, attributable=False, audit=record),  # accepted but unattributable
    ]
    verification, authentication, incidents = compute_metrics(outcomes)
    # honest: 4, of which ok+ok+cfa-halt passed integrity -> 75%
    assert verification == 75.0
    # accepted: 3, attributable 2 -> 66.66..%
    assert authentication == pytest.approx(200.0 / 3.0)
    assert incidents == 0


def test_compute_metrics_empty_denominators():
    verification, authentication, incidents = compute_metrics([])
    assert verification is None and authentication is None and incidents == 0
    only_dishonest = [_outcome("unknown-identity", honest=False, attributable=False)]
    verification, authentication, _ = compute_metrics(only_dishonest)
    assert verification is None and authentication is None


def test_audit_replay_detects_bogus_records():
    from dataclasses import replace as dc_replace

    good = _signed_record()
    assert replay_audit_record(good)
    assert not replay_audit_record(dc_replace(good, signature=b"\x00" * 64))
    assert not replay_audit_record(dc_replace(good, public_key=None))
    assert not replay_audit_record(dc_replace(good, public_key=b"junk"))
    bogus = AuditRecord(0, "a", good.digest, b"", None)
    _, _, incidents = compute_metrics([_outcome("ok", audit=r) for r in (good, good, bogus)])
    assert incidents == 1
    # an accepted outcome that carries no record cannot be replayed either
    _, _, incidents = compute_metrics([_outcome("ok", audit=good), _outcome("ok")])
    assert incidents == 1


# ---- CSV emission ---- #


def make_report(round_no, verification=100.0, authentication=100.0, accuracy=0.9):
    return RoundReport(
        round=round_no,
        outcomes=[],
        accepted_count=0,
        verification_rate=verification,
        authentication_rate=authentication,
        non_repudiation_incidents=0,
        accuracy=accuracy,
        duration_s=0.025,
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
    a = run_experiment(build_simulation(cfg))
    b = run_experiment(build_simulation(cfg))
    assert len(a.reports) == len(b.reports) == 2
    for ra, rb in zip(a.reports, b.reports):
        assert ra.accuracy == rb.accuracy
        assert ra.verification_rate == rb.verification_rate
        assert ra.authentication_rate == rb.authentication_rate
        assert ra.non_repudiation_incidents == rb.non_repudiation_incidents


def test_run_rounds_yields_each_configured_round_with_its_outcomes():
    reports = list(run_rounds(build_simulation(parse_config(FAST))))
    assert [r.round for r in reports] == [1, 2]
    for report in reports:
        assert [o.client_id for o in report.outcomes] == ["client-0", "client-1", "client-2"]
        assert all(o.accepted and replay_audit_record(o.audit) for o in report.outcomes)
        assert report.accepted_count == 3


def test_run_experiment_keeps_the_streamed_figures_without_outcomes():
    cfg = parse_config(FAST, {"attack.kind": "tamper", "rounds": "3"})
    streamed = list(run_rounds(build_simulation(cfg)))
    kept = run_experiment(build_simulation(cfg)).reports

    def figures(r):
        return (r.round, r.accepted_count, r.verification_rate, r.authentication_rate,
                r.non_repudiation_incidents, r.accuracy)

    assert [figures(r) for r in kept] == [figures(r) for r in streamed]
    assert [r.accepted_count for r in streamed] == [sum(o.accepted for o in r.outcomes) for r in streamed]
    assert any(r.accepted_count < len(r.outcomes) for r in streamed)
    assert all(r.outcomes == [] for r in kept)


def test_run_experiment_security_toggle_matches_in_honest_runs():
    on = run_experiment(build_simulation(parse_config(FAST + "security = on")))
    off = run_experiment(build_simulation(parse_config(FAST + "security = off")))
    for ra, rb in zip(on.reports, off.reports):
        assert ra.accuracy == rb.accuracy


def test_run_experiment_writes_csv(tmp_path):
    path = tmp_path / "table.csv"
    table = run_experiment(build_simulation(parse_config(FAST)))
    emit_csv(table, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(table.reports) + 1


def test_run_experiment_keeps_the_rounds_before_an_abort(tmp_path):
    from dataclasses import replace as dc_replace

    class Overflow:
        # a lone 1e308 update is applied in round 1; sent again in round 2,
        # when no client can train from the model, it overflows
        huge = None

        def transform(self, deliveries, round_no, params):
            if self.huge is None:
                values = np.zeros(params.size)
                values[0] = 1e308
                self.huge = dc_replace(deliveries[0].payload, update=dc_replace(params, values=values))
            resent = dc_replace(self.huge, round=round_no)
            return [protocol.Delivery(payload=resent, source="client-0", honest=False)]

    def overflowing():
        sim = build_simulation(parse_config(FAST, {"security": "off", "rounds": "3"}))
        sim.plan = Overflow()
        return sim

    stream = run_rounds(overflowing())
    assert next(stream).round == 1
    with pytest.raises(protocol.ProtocolError, match="global parameters left the finite range"):
        next(stream)

    table = run_experiment(overflowing())
    assert [r.round for r in table.reports] == [1]
    assert table.aborted == "global parameters left the finite range"
    path = tmp_path / "aborted.csv"
    emit_csv(table, str(path))
    assert path.read_text().splitlines()[-1] == "# aborted: global parameters left the finite range"


def test_run_experiment_idx_source(tmp_path):
    images, labels = write_idx(tmp_path, count=40, rows=2, cols=2, labels=[i % 2 for i in range(40)])
    cfg = parse_config(
        FAST
        + f"data.source = idx\ndata.idx_images = {images}\ndata.idx_labels = {labels}\ndata.subset = 40"
    )
    sim = build_simulation(cfg)
    assert len(run_experiment(sim).reports) == 2
    assert sim.holdout.size == 8  # last fifth of the pool
    assert sum(c.data.size for c in sim.clients) == 32


def test_idx_source_deals_rows_round_robin_below_the_cut(tmp_path):
    # 37 rows cut at 29, so the three shards hold 10, 10 and 9 rows
    images, labels = write_idx(tmp_path, count=40, rows=2, cols=2, labels=[i % 3 for i in range(40)])
    cfg = parse_config(
        FAST
        + f"data.source = idx\ndata.idx_images = {images}\ndata.idx_labels = {labels}\ndata.subset = 37"
    )
    sim = build_simulation(cfg)
    pool = datasets.load_idx(images, labels, subset=37, seed=crypto.derive_seed(cfg.seed, "data"))
    cut = (37 * 4) // 5
    assert len({row.tobytes() for row in pool.features}) == 37  # every row is distinguishable
    for i, client in enumerate(sim.clients):
        rows = list(range(i, cut, cfg.clients))
        assert np.array_equal(client.data.features, pool.features[rows])
        assert np.array_equal(client.data.labels, pool.labels[rows])
        assert client.data.num_classes == 3
    assert [c.data.size for c in sim.clients] == [10, 10, 9]
    assert np.array_equal(sim.holdout.features, pool.features[cut:])
    assert np.array_equal(sim.holdout.labels, pool.labels[cut:])


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
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 + 1  # header, one row per round, summary


# the printed table has no timing column, so its bytes are pinned whole: the
# tamper run's summary is a mean of unequal rounds, the sybil run's a total
@pytest.mark.parametrize(
    "attack, digest",
    [
        (["--attack", "tamper"], "0c6b232e87792bd4fc4975f2f5ea7497e362e3aacea4049d45b675b92b3f7ffa"),
        (
            ["--attack", "sybil", "--security", "off"],
            "7c4949c827e64a244dc0140c8b03860282ed816a87174d098d0c377a9767e4f2",
        ),
    ],
)
def test_cli_stdout_bytes_are_pinned(tmp_path, capsys, attack, digest):
    conf = tmp_path / "pin.conf"
    conf.write_text("crypto.key_bits = 1024\ndata.per_client = 30\ntrain.epochs = 1\ndata.separation = 1.0\n")
    code = cli.main(["--config", str(conf), "--rounds", "3", "--clients", "3", "--seed", "3", *attack])
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cli_unwritable_out_prints_table_then_exits_one(tmp_path, capsys):
    conf = tmp_path / "fast.conf"
    conf.write_text(FAST)
    code = cli.main(["--config", str(conf), "--out", str(tmp_path / "missing" / "run.csv")])
    captured = capsys.readouterr()
    assert code == 1
    assert "summary" in captured.out
    assert captured.err.startswith("attestfl: cannot write CSV: ")


def test_cli_overflowing_poison_drops_the_client_each_round(tmp_path):
    # strength 1e308 overflows the rewrite; the run must neither crash nor
    # warn (RuntimeWarnings are errors under pytest)
    conf = tmp_path / "keys.conf"
    conf.write_text("crypto.key_bits = 1024\n")
    args = ["--attack", "model-poison", "--attack-strength", "1e308", "--rounds", "2", "--clients", "3", "--seed", "1"]
    assert cli.main(["--config", str(conf), *args]) == 0

    config = parse_config(conf.read_text(), cli._overrides(cli.build_parser().parse_args(args)))
    sim = build_simulation(config)
    (poisoned,) = [c for c in sim.clients if c.compromise is not None]
    for report in run_rounds(sim):
        assert poisoned.client_id not in [o.client_id for o in report.outcomes]
        assert len(report.outcomes) == 2
        # the partial trace ends in the re-entered training phase
        assert [e.checkpoint.label.value for e in poisoned.last_log] == [
            "ROUND_START", "TRAIN_BEGIN", "TRAIN_END", "TRAIN_BEGIN"
        ]


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


def test_cli_rejects_config_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "binary.conf"
    path.write_bytes(b"\xff\xfe")
    code = cli.main(["--config", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("attestfl: cannot read config: ")


@pytest.mark.parametrize(
    "case, fragment",
    [
        ("missing", "No such file"),
        ("corrupt", "bad images magic"),
        ("too-small", "too small"),
        ("no-pixels", "no pixels"),
    ],
)
def test_cli_bad_data_files_are_config_errors(tmp_path, capsys, case, fragment):
    images, labels = write_idx(
        tmp_path,
        count=6,
        rows=0 if case == "no-pixels" else 2,
        cols=5 if case == "no-pixels" else 2,
        img_magic=0x802 if case == "corrupt" else 0x803,
    )
    if case == "missing":
        images = str(tmp_path / "absent.idx")
    subset = "3" if case == "too-small" else "6"
    args = ["--dataset", "idx", "--idx-images", images, "--idx-labels", labels, "--subset", subset]
    code = cli.main([*args, "--clients", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("attestfl: config error: ") and fragment in captured.err


def test_cli_idx_flags_under_synthetic_source_are_a_config_error(capsys):
    code = cli.main(["--idx-images", "/does/not/exist", "--subset", "5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("attestfl: config error: ")
    assert "data.idx_images, data.subset need data.source = idx" in captured.err


def test_cli_data_poison_with_one_class_is_a_config_error(tmp_path, capsys):
    conf = tmp_path / "one-class.conf"
    conf.write_text("data.classes = 1\ncrypto.key_bits = 1024\nrounds = 1\nclients = 2\n")
    code = cli.main(["--config", str(conf), "--attack", "data-poison", "--attack-fraction", "0.5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("attestfl: config error: ") and "two classes" in captured.err


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
