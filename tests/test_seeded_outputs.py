"""Seeded commands print and write the same bytes as when they were pinned.

Each run is one ``cardproj`` command on a tiny synthetic task (120
examples, hidden layers of 8, 2 ascent steps, 2 epochs), run in process.
Its stdout, its metrics log and every member of its checkpoint are compared
by SHA-256 digest, cut to 16 hex digits, with the values recorded when they
were pinned, on numpy 2.4.6.  A change that alters no arithmetic keeps
every digest; one that moves a single bit of an output breaks the digest of
that run and part.  A different numpy, or BLAS, may round a product
differently and so change these digests with no change to the program: pin
them again there.

The checkpoint file itself is not hashed: its zip headers carry the time it
was written.  Paths are relative to the run's directory, so stdout names
no temporary directory.
"""

import contextlib
import hashlib
import io
import json
import zipfile

import pytest

from cardproj import cli

CONFIG = {
    "seed": 0,
    "data": {"synthetic_examples": 120},
    "model": {"feature_hidden": 8, "feature_dim": 8, "global_hidden": 8,
              "cardinality_hidden": 8},
    "inference": {"steps": 2},
    "optimizer": {"epochs": 2},
}

# name -> argv after the config; a train run writes <name>.npz and <name>.log
RUNS = {
    "train-pc": ["train"],
    "train-pc-topz": ["train", "--set", "inference.decode=topz"],
    "train-sc": ["train", "--set", "inference.variant=sc"],
    "train-exact": ["train", "--set", "inference.projection=exact"],
    "train-cross-entropy": ["train", "--set", "loss.single_step=cross_entropy"],
    "eval-test": ["eval", "--checkpoint", "train-pc.npz", "--split", "test"],
    "eval-topz-fixed-3": ["eval", "--checkpoint", "train-pc.npz", "--split", "test",
                          "--variant", "topz", "--z", "fixed:3"],
    "gradcheck-pc": ["gradcheck"],
    "gradcheck-sc": ["gradcheck", "--set", "inference.variant=sc"],
}

# the first 16 hex digits of each digest
PINNED = {
    "train-pc": {
        "exit": "0", "stdout": "5a1b49fc3004886f", "metrics": "8480a33ac90583cf",
        "feature.w1.npy": "8dba79b9e47a6d1a", "feature.b1.npy": "c7dbade747f5471d",
        "feature.w2.npy": "7b8c94d3af7645e7", "feature.b2.npy": "d1261099fbf9d4e2",
        "unary.w.npy": "56d5d30dc88e3a9d", "unary.b.npy": "794385c1ed0f7922",
        "global.w1.npy": "f51489b8ce54e633", "global.w2.npy": "8b9b86b245175264",
        "cardinality.w1.npy": "e12b83d5b60146c1", "cardinality.b1.npy": "0a727aae1188c0b9",
        "cardinality.w2.npy": "c45292f2943d4d34", "cardinality.b2.npy": "e0c834e9e2e8ed57",
        "__meta__.npy": "272bb4d124c1b49a",
    },
    "train-pc-topz": {
        "exit": "0", "stdout": "f7fed5b8e2bfe6ed", "metrics": "219dacff4aa6ddd0",
        "feature.w1.npy": "8dba79b9e47a6d1a", "feature.b1.npy": "c7dbade747f5471d",
        "feature.w2.npy": "7b8c94d3af7645e7", "feature.b2.npy": "d1261099fbf9d4e2",
        "unary.w.npy": "56d5d30dc88e3a9d", "unary.b.npy": "794385c1ed0f7922",
        "global.w1.npy": "f51489b8ce54e633", "global.w2.npy": "8b9b86b245175264",
        "cardinality.w1.npy": "e12b83d5b60146c1", "cardinality.b1.npy": "0a727aae1188c0b9",
        "cardinality.w2.npy": "c45292f2943d4d34", "cardinality.b2.npy": "e0c834e9e2e8ed57",
        "__meta__.npy": "272bb4d124c1b49a",
    },
    "train-sc": {
        "exit": "0", "stdout": "6000721dd4777eb5", "metrics": "505146eaaa873b8e",
        "feature.w1.npy": "bbe34c1c0d955648", "feature.b1.npy": "33a242a571023c2a",
        "feature.w2.npy": "887a88e458e82378", "feature.b2.npy": "472f4449ce7d02cc",
        "unary.w.npy": "7750816a52df4965", "unary.b.npy": "31b2d35e87565741",
        "global.w1.npy": "38126f1b14ce7bfe", "global.w2.npy": "6f6a1d3350973df2",
        "cardinality.w1.npy": "f77921a067ce4276", "cardinality.b1.npy": "d7c16dc9d3e8e538",
        "cardinality.w2.npy": "6237f277ad6700d5", "cardinality.b2.npy": "cadee506653a5e04",
        "sc.weights.npy": "5cff0dbf586a5d9b", "__meta__.npy": "1939be8349476a02",
    },
    "train-exact": {
        "exit": "0", "stdout": "e16b29a0edec14fc", "metrics": "9d704014ff200cb9",
        "feature.w1.npy": "f7c4fc43d72c0315", "feature.b1.npy": "fde2810de2cae76d",
        "feature.w2.npy": "b9d095649e750980", "feature.b2.npy": "e3472a3ced3539aa",
        "unary.w.npy": "f80502e5fc25ae1c", "unary.b.npy": "1f46181f457d6960",
        "global.w1.npy": "24237e7b7e29b626", "global.w2.npy": "531007b7eb48b2c7",
        "cardinality.w1.npy": "9ad44100cb80cca6", "cardinality.b1.npy": "74b9faf0565b46c0",
        "cardinality.w2.npy": "b6cde40164caa907", "cardinality.b2.npy": "0840988bf7a52448",
        "__meta__.npy": "272bb4d124c1b49a",
    },
    "train-cross-entropy": {
        "exit": "0", "stdout": "b64abe6f31f227a6", "metrics": "287e42c3b5496239",
        "feature.w1.npy": "9f60cf14adc9ceed", "feature.b1.npy": "f761d7f9e2328a63",
        "feature.w2.npy": "7aa0523d5a121ad3", "feature.b2.npy": "ec97bfa0810e73d3",
        "unary.w.npy": "8e0ef7645a589118", "unary.b.npy": "a19ed56cecf2a029",
        "global.w1.npy": "816d759f9f31e9d6", "global.w2.npy": "f8cbf5fed64133b3",
        "cardinality.w1.npy": "d6ab4aced02a8d96", "cardinality.b1.npy": "c8f470313d0c2731",
        "cardinality.w2.npy": "15393276dbd6c54b", "cardinality.b2.npy": "7da88db968a68adc",
        "__meta__.npy": "272bb4d124c1b49a",
    },
    "eval-test": {
        "exit": "0", "stdout": "38ad6ac740515fed",
    },
    "eval-topz-fixed-3": {
        "exit": "0", "stdout": "92441eb5d90fbabc",
    },
    "gradcheck-pc": {
        "exit": "0", "stdout": "1fb3c9e3c7521c48",
    },
    "gradcheck-sc": {
        "exit": "0", "stdout": "2a9e83c96b7ab153",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _run(name: str, argv: list) -> dict:
    """Digests of one command's outputs, by part."""
    command, *rest = argv
    args = [command] if command == "gradcheck" else [command, "--config", "config.json"]
    if command == "train":
        args += ["--checkpoint", f"{name}.npz", "--metrics", f"{name}.log"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(args + rest)
    digests = {"exit": str(code), "stdout": _sha(stdout.getvalue().encode())}
    if command == "train":
        with open(f"{name}.log", "rb") as log:
            digests["metrics"] = _sha(log.read())
        with zipfile.ZipFile(f"{name}.npz") as archive:
            for member in archive.namelist():
                digests[member] = _sha(archive.read(member))
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    root = tmp_path_factory.mktemp("seeded")
    (root / "config.json").write_text(json.dumps(CONFIG))
    with contextlib.chdir(root):
        return {name: _run(name, argv) for name, argv in RUNS.items()}


@pytest.mark.parametrize("name", RUNS)
def test_outputs_match_their_pinned_digests(digests, name):
    assert digests[name] == PINNED[name]
