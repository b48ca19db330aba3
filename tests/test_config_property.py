"""Property tests for config building and --set parsing: any JSON value at
any known key builds a config or raises ConfigError, and through the CLI
it exits 0 or 2."""

import itertools
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from streamhash import cli, experiment
from streamhash.errors import ConfigError

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

TRAIN_KEYS = ["learning_rate", "mu", "sigma", "scale_p", "scale_n", "batch_size",
              "inner_iters", "grad_mode", "p_variant", "q_variant", "epsilon", "seed"]
KNOWN = (
    [(None, key) for key in ["dataset", "split", "train", "bits", "init_scale", "epochs",
                             "eval", "output_dir", "seed", "sweep", "unseen"]]
    + [("dataset", key) for key in ["kind", "images", "labels", "normalize", "path",
                                    "num_classes", "dim", "per_class", "spread", "seed"]]
    + [("split", key) for key in ["test_per_class", "train_size", "seed"]]
    + [("train", key) for key in TRAIN_KEYS]
    + [("eval", key) for key in ["cutoff", "r_max", "every_n_stages"]]
    + [("unseen", key) for key in ["seen_fraction", "test_per_class", "bits"]]
    + [("sweep", key) for key in TRAIN_KEYS]
)

# json reads and writes nan and the infinities too, so they are values here
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=8), inner, max_size=3), max_leaves=6)
# sweep grids and scale_p/scale_n pairs want plausible values more often
VALUES = JSON | st.lists(SCALARS, min_size=1, max_size=3) | st.sampled_from(
    [None, 0, 1, 2, -1, 0.5, 1.0, 1e-12, [1.0], [None, 2.0], "exact", "paper", "raw", "plain"])


def base_config(dataset):
    return {
        "dataset": dataset,
        "split": {"test_per_class": 10, "train_size": 120, "seed": 0},
        "bits": 12,
        "train": {"learning_rate": 0.1, "sigma": 0.35, "scale_p": None, "scale_n": 1.0,
                  "batch_size": 20, "inner_iters": 3},
        "eval": {"cutoff": 50, "r_max": 20, "every_n_stages": 3},
        "output_dir": "out",
        "seed": 0,
        "sweep": {"scale_p": [1.0, None], "sigma": [0.35]},
        "unseen": {"seen_fraction": 0.75, "test_per_class": 10, "bits": 16},
    }


SYNTH = {"kind": "synth", "num_classes": 3, "dim": 8, "per_class": 60, "spread": 0.3, "seed": 7}


@SETTINGS
@given(where=st.sampled_from(KNOWN), value=VALUES, scaled=st.booleans())
def test_any_value_builds_a_config_or_is_a_config_error(where, value, scaled):
    raw = base_config(dict(SYNTH))
    if scaled:
        raw["train"]["scale_p"] = 1.0
    section, key = where
    (raw if section is None else raw[section])[key] = value
    try:
        cfg = experiment.config_from_dict(raw)
    except ConfigError:
        return
    keys = sorted(cfg.sweep)
    # every cell was built with cfg, so none raises here
    cells = [experiment.apply_cell(cfg, dict(zip(keys, values)))
             for values in itertools.product(*(cfg.sweep[k] for k in keys))]
    for built in [cfg, *cells]:
        built.digest()
        # the flat view round-trips: it holds every train setting as written
        assert experiment.train_config(experiment._train_view(built.train)) == built.train


@SETTINGS
@given(command=st.sampled_from(["train", "eval", "sweep", "unseen", "split"]),
       where=st.sampled_from(KNOWN), value=VALUES)
def test_cli_exits_0_or_2(tmp_path, monkeypatch, command, where, value):
    # the dataset file is missing, so a config that builds ends at exit 2
    # without training, a sweep's too: its cells are built with the config,
    # and a file that cannot be read ends the sweep
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(base_config({"kind": "dense", "path": "missing.txt"})))
    section, key = where
    dotted = key if section is None else f"{section}.{key}"
    argv = [command, "--config", str(config), "--output-dir", str(tmp_path / "out"),
            "--set", f"{dotted}={json.dumps(value)}"]
    if command == "eval":
        argv += ["--checkpoint", "missing-checkpoint.txt"]
    assert cli.main(argv) in (0, 2)
