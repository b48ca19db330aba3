"""Output manifest of the CLI on configs/blobs.json, for byte-identity checks.

Runs `train` seven times (as shipped, null scale_p, plain Q with a null
scale_p, raw P, paper gradient, two epochs, and a 784-dimensional 10 x 300
blob set at 64 bits in batches of 400, whose products OpenBLAS threads),
once more at a learning rate of 1e300, whose stream aborts after its
first stage (exit 5) and leaves that stage's outputs, and once more on
raw P over 1902 instances (train_abort_raw), whose final 2-instance batch
has no similar pair, so it aborts after 38 stages (exit 3) and leaves
their outputs. Then `eval`, `sweep`, `sweep` over a null and a set
scale_p (a None cell value in sweep.csv), `unseen` and `split` run
through streamhash.cli.main, each into
its own directory under OUT_DIR, and `synth` of a 10-class,
64-dimensional blob set into OUT_DIR/synth/blobs.txt. Then `train` runs
twice on that dense file: train_dense loads it through its binary sidecar, train_dense_text
parses a plain copy with no sidecar, and the script stops unless the two
output directories are byte-identical. Writes OUT_DIR/manifest.txt: a
first line naming the numpy version, its BLAS and OPENBLAS_CORETYPE, then
one sha256 per output file (the sidecars of synth and split included),
hashed whole, and one per command's stdout. A command that exits with
another code than the one it expects (0, or 5 and 3 for the aborted trains)
stops the script. Two trees whose outputs must not change give identical
manifests. The bytes depend on the BLAS kernel as well as on the tree:
the kernel OpenBLAS picks for the CPU (pinned by OPENBLAS_CORETYPE) and,
for the d=784 run, the thread count. So compare runs at one kernel and
one count:

    PYTHONPATH=src python tools/parity.py OUT_DIR

tools/parity.manifest is the manifest of the committed tree at one pinned
kernel; a change that keeps every output leaves it as it is:

    OPENBLAS_CORETYPE=Haswell OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/parity.py OUT_DIR
    diff tools/parity.manifest OUT_DIR/manifest.txt
"""

import contextlib
import hashlib
import io
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from streamhash import cli

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "blobs.json"
TRAIN_RUNS = {
    "train": [],
    "train_scale_p_null": ["train.scale_p=null"],
    # the plain Q divides no distance, so these bytes equal train's, whose
    # scale_p and scale_n are 1, only if scale_p is ignored
    "train_q_plain": ['train.q_variant="plain"', "train.scale_p=null"],
    "train_p_raw": ['train.p_variant="raw"'],
    "train_grad_paper": ['train.grad_mode="paper"'],
    "train_epochs_2": ["epochs=2"],
    # d=784, where OpenBLAS threads its products: bytes per BLAS thread count
    "train_d784": ['dataset={"kind": "synth", "num_classes": 10, "dim": 784, "per_class": 300, '
                   '"spread": 3.0, "seed": 1}', "bits=64", "split.train_size=2000",
                   "train.batch_size=400", "eval.every_n_stages=5"],
}
SYNTH = ["synth", "--num-classes", "10", "--dim", "64", "--per-class", "200", "--spread", "3.0",
         "--seed", "1", "--out", "synth/blobs.txt"]
# train on the synth file, named by the same relative path (the config
# digest covers it) from the directory that holds it
DENSE = ['--set=dataset={"kind": "dense", "path": "blobs.txt"}', "--set=split.train_size=500"]


def run(name: str, command: str, *args: str, exit_code: int = 0) -> str:
    """stdout of one command on CONFIG writing into the directory `name`."""
    return run_argv(name, [command, "--config", str(CONFIG), "--output-dir", name, *args],
                    exit_code)


def run_argv(name: str, argv: list[str], exit_code: int = 0) -> str:
    """stdout of the command argv, whose outputs go into the directory `name`;
    any exit code but exit_code stops the script."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    if code != exit_code:
        sys.exit(f"{name}: streamhash {argv[0]} exited {code}, not {exit_code}")
    return stdout.getvalue()


def main(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)  # relative output directories keep OUT_DIR out of stdout
    stdouts = {name: run(name, "train", *(f"--set={s}" for s in sets))
               for name, sets in TRAIN_RUNS.items()}
    # 1e300 saturates every code in stage 1, so stage 2 applies no step and
    # the stream aborts (exit 5), leaving the outputs of its one stage
    stdouts["train_abort"] = run("train_abort", "train", "--set=train.learning_rate=1e300",
                                 exit_code=5)
    # raw P's final batch, 2 instances of 2 classes, has no similar pair:
    # the stream aborts after 38 stages (exit 3), leaving their outputs
    stdouts["train_abort_raw"] = run("train_abort_raw", "train", '--set=train.p_variant="raw"',
                                     "--set=split.train_size=1902", exit_code=3)
    stdouts["eval"] = run("eval", "eval", "--checkpoint", "train/checkpoint.txt")
    for command in ("sweep", "unseen", "split"):
        stdouts[command] = run(command, command)
    stdouts["sweep_scale_p_null"] = run("sweep_scale_p_null", "sweep",
                                        '--set=sweep={"scale_p": [null, 1.0]}')
    Path("synth").mkdir(exist_ok=True)
    stdouts["synth"] = run_argv("synth", SYNTH)
    Path("text").mkdir(exist_ok=True)
    shutil.copyfile("synth/blobs.txt", "text/blobs.txt")  # the copy has no sidecar
    for name, data_dir in (("train_dense", "synth"), ("train_dense_text", "text")):
        os.chdir(data_dir)
        stdouts[name] = run(f"../{name}", "train", *DENSE)
        os.chdir("..")
    shutil.rmtree("text")
    cached, parsed = (sorted(Path(name).iterdir()) for name in ("train_dense", "train_dense_text"))
    if [(p.name, p.read_bytes()) for p in cached] != [(p.name, p.read_bytes()) for p in parsed]:
        sys.exit("train_dense: outputs differ between the sidecar's load and the text's parse")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = [f"# numpy {np.__version__} | blas {blas['name']} {blas['version']} | "
             f"OPENBLAS_CORETYPE={os.environ.get('OPENBLAS_CORETYPE', '')}"]
    lines += [f"{hashlib.sha256(text.encode()).hexdigest()}  {name}/<stdout>"
              for name, text in stdouts.items()]
    lines += [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}"
              for path in sorted(Path().glob("*/*"))]
    Path("manifest.txt").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/parity.py OUT_DIR")
    main(Path(sys.argv[1]))
