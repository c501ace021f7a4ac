"""Golden bytes of fiber-sum towers: exit code, stdout and stderr of tower commands stay exactly as frozen.

Two towers: nine sums over the three-torus, with every meridian used
three times and the knots of one meridian not adjacent in the spec, and
three sums along ``t`` over the genus-2 surface times the circle.  Both
mix built-in knots with a twist knot declared inline.  Each command runs
through ``swfold.cli.main`` in a scratch directory, as in
``test_cli_golden.py``, whose digest rule this file shares.
"""

import json

import pytest

from swfold.cli import ENV_KNOT_TABLE

from test_cli_golden import outcome_digest

TWIST3 = {"name": "twist3", "fibered": False, "alexander": "3*t - 5 + 3*t^-1"}

TOWERS = {
    "t3-tower.json": {
        "base": "t3",
        "knots": [TWIST3],
        "sums": [
            {"knot": knot, "meridian": meridian}
            for knot, meridian in (
                ("3_1", "m1"), ("4_1", "m2"), ("5_2", "m1"), ("twist3", "m3"), ("3_1", "m2"),
                ("4_1", "m3"), ("twist3", "m1"), ("5_2", "m3"), ("4_1", "m2"),
            )
        ],
    },
    "s2-tower.json": {
        "base": {"surface_x_s1": 2},
        "knots": [TWIST3],
        "sums": [{"knot": knot, "meridian": "t"} for knot in ("5_2", "3_1", "twist3")],
    },
}
CHIS = {"t3-tower.json": "2*m1 - m2 + 3*m3", "s2-tower.json": "3*t"}
FLAGS = ((), ("--json",), ("--quiet",))

COMMAND_LINES = [
    argv
    for spec, chi in CHIS.items()
    for flags in FLAGS
    for argv in (
        ("sw3", spec, *flags),
        ("fold", spec, "--chi", chi, *flags),
        ("obstruct", spec, "--chi", chi, *flags),
        ("search", spec, "--box", "2", *flags),
    )
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("towers")
    for name, data in TOWERS.items():
        (root / name).write_text(json.dumps(data))
    return root


GOLDEN = {
    "sw3 t3-tower.json": "1dbfcdb935006751979f7220bfcc4f298655b8d649e6d2027d11b7bc04284936",
    "fold t3-tower.json --chi 2*m1 - m2 + 3*m3": "477c7d8e537f7d162b9ae9182f06e6e4bda7aaa6b9983eb060fa2b460f4018bf",
    "obstruct t3-tower.json --chi 2*m1 - m2 + 3*m3": "b37ca2bcc865f3f0f19ff8875bca2b37cc7505f866ecdbc72185d45ae8d21b34",
    "search t3-tower.json --box 2": "e897e4aeeae74c9f5de208c1a886d78a02bfac23f7bad01193536479df0064cb",
    "sw3 t3-tower.json --json": "87573d6b0a03c477b3a4c2d6d7b9f14f56cbe419662edb137c75c65c79080c09",
    "fold t3-tower.json --chi 2*m1 - m2 + 3*m3 --json": "e22b0309afb604401f0290a3ae285b89eb3694171507bc1175069184db24df87",
    "obstruct t3-tower.json --chi 2*m1 - m2 + 3*m3 --json": "8732d975de616dd7d9e6b4fd0a0c549a31ac47f60a888ad9c55d6f4e8cef00dc",
    "search t3-tower.json --box 2 --json": "1fbe74cbd8652cbf6d8d90bf1ce1730aa24f81c07134a0ccf1a4926b9f3dcc04",
    "sw3 t3-tower.json --quiet": "a6fb789886c5d88864ac2e19454dadca9942033656e78ffc7c9dbf36620dac3a",
    "fold t3-tower.json --chi 2*m1 - m2 + 3*m3 --quiet": "0333cc5e608f8264e7e94fb9129715b091ab628ccaf59bce8463da2f82ff7223",
    "obstruct t3-tower.json --chi 2*m1 - m2 + 3*m3 --quiet": "ee87c4da160e80e8178de1d8330a870442038c7409b32d9845a3238b96cd9a2d",
    "search t3-tower.json --box 2 --quiet": "7f0cace13e5fc5030671ba3de783509995bd7b945559c0b3d408460499f9f87e",
    "sw3 s2-tower.json": "bcb3017e836292d4c696af33e080ee3db6982f16895aa2f42ae2a4b07cd27058",
    "fold s2-tower.json --chi 3*t": "7361bbfb1dd9f1023ea44991fd447f3d2220d56f077b14958521c55534057fbe",
    "obstruct s2-tower.json --chi 3*t": "76d55666d99dd3f0c17b682b474a35151c59c3f886acba4d1b4dbcb19980c91e",
    "search s2-tower.json --box 2": "4ea06904956ec301b2678446cf19b143907eafbb6b84d524cba77b30e01ce551",
    "sw3 s2-tower.json --json": "22775ac4d9cc41cb856e3638a9791abb78f2b7f2f4dfec8cacdd05716c39e6c8",
    "fold s2-tower.json --chi 3*t --json": "46e8f84ac8421c7474301a1ef67e63a9c20cc799ad9e0144742a12f4dcddb57c",
    "obstruct s2-tower.json --chi 3*t --json": "d0d919be4b0bb92c87401a822436f6f2df385f8418f3bb6f57bbb6c069699015",
    "search s2-tower.json --box 2 --json": "eaf62f9dd48bfec2d1c602ef62ddbd6f6b63aa6fe83c17b5df9e0a52f8cdbaca",
    "sw3 s2-tower.json --quiet": "f369dc192d162e60a88d6e7383c2c013f9fc06fe2757c70d6f767bc8207ca0f9",
    "fold s2-tower.json --chi 3*t --quiet": "056b1e51e909fc7cbee6bda8cd72dd9ccf48ee9001e72f79dd18d220c7994a03",
    "obstruct s2-tower.json --chi 3*t --quiet": "ee87c4da160e80e8178de1d8330a870442038c7409b32d9845a3238b96cd9a2d",
    "search s2-tower.json --box 2 --quiet": "3819ec1012cd24aad693c136401467797d310c3d8ea793a236766b7e3176c90b",
}


def test_every_command_line_has_a_digest():
    assert sorted(GOLDEN) == sorted(" ".join(argv) for argv in COMMAND_LINES)


@pytest.mark.parametrize("argv", COMMAND_LINES, ids=" ".join)
def test_tower_bytes_unchanged(argv, workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    monkeypatch.delenv(ENV_KNOT_TABLE, raising=False)
    digest = outcome_digest(argv, capsys)
    assert digest == GOLDEN[" ".join(argv)], f"output bytes changed for: swfold {' '.join(argv)}"
