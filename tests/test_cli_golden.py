"""Byte-level golden corpus for the CLI.

Each invocation's exit code, stdout and stderr are hashed together; the
digests were captured before the canonical form, subdivision and curve code
was folded into one envelope, so any change in CLI bytes fails here.  To
inspect a failure, run the invocation by hand with `python -m troprat.cli`.
"""
import hashlib

import pytest

from troprat.cli import main
from conftest import (
    ALT_MIN_DEN_1,
    ALT_MIN_NUM_1,
    FOUR_LINES,
    UNIQUE_MIN_DEN,
    UNIQUE_MIN_NUM,
)


def _dense(degree: int) -> str:
    """A dense bivariate polynomial whose subdivision has many cells."""
    terms = []
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            c = (i * 5 + j * 3 + i * j) % 7 - (i * i + j * j + i * j) // 2
            terms.append(f"({c})*x^{i}*y^{j}")
    return " + ".join(terms)


DENSE8 = _dense(8)
SEGMENT = "x^3*y^3 + 2*x^2*y^2 + (-1)*x*y + 0"
# a curve with one bounded edge; over x + y + 0 its divisor is one segment
# and four rays
EDGE = "x*y + (-1)*y^2 + x + y + 0"

CASES = {
    "eval-member": (
        ["eval", "--poly", "x + y + 0", "--at", "1/2,1/2", "--member"],
        "741c9b53cf3464a2dbfcd945a8341be1f6f27961ab230982ab1c9112fe278aaa",
    ),
    "eval-bottom": (
        ["eval", "--poly", "-inf", "--at", "3"],
        "fe37dd1c8ea5b7038c4e1d20795c0a9b50c61fc20764c5a84c52e21cae315f87",
    ),
    "newt-uni": (
        ["newt", "--poly", "(-2)*x^2 + x + 0"],
        "96d03f92fa917cf6a849c2a5a1d1fe2b502882bb46bf8f2e488aa3f3231e75d2",
    ),
    "newt-2d": (
        ["newt", "--poly", UNIQUE_MIN_NUM],
        "00c7c0ad1b9cbaca9147824c4270e4aef197ed8a1b8db52670e9cd9e4127d593",
    ),
    "subdiv-uni": (
        ["subdiv", "--poly", "x^4 + 3*x^3 + (-2)*x + 1"],
        "3be1ff259654422db3c518d1ba9b8b81cf4bec978a2727adf76ce3b485f30460",
    ),
    "subdiv-2d": (
        ["subdiv", "--poly", UNIQUE_MIN_NUM],
        "b854b61cdc1515a5e4e61ebee2d572b85430919598cff2cfe08856221dec42b9",
    ),
    "subdiv-segment": (
        ["subdiv", "--poly", SEGMENT],
        "4077097980afc9325c89d91ef2ff686155fdaacb31301c757ad308c4cad9c635",
    ),
    "subdiv-svg-cell-segment": (
        ["subdiv", "--poly", "x^2*y^2 + 3*x*y + 0", "--svg"],
        "7062e8dc25dacde0bc75960007a2ac05f1e52d3d7d0cc1ff5a434dfe60bd4819",
    ),
    "subdiv-dense8": (
        ["subdiv", "--poly", DENSE8],
        "c102ca20bae550ea5b63973c04ebd159a928ba31b428dd4e642fbbd62f65eee4",
    ),
    "subdiv-svg-dense8": (
        ["subdiv", "--poly", DENSE8, "--svg"],
        "dc5affdfd154f0110ff98dcf7a8055f102ec858dc3d171cec71377e4058feb2c",
    ),
    "curve-dense8": (
        ["curve", "--poly", DENSE8],
        "1fc82448167ecbca3c38258b8cb5844b5a59fd1869711677af8726b2d218e181",
    ),
    "curve-segment": (
        ["curve", "--poly", SEGMENT],
        "58f0d93e765dbc1f7684ed01afb04e2a925c0c68969b090e480c71745b78c6ab",
    ),
    "curve-svg-segment": (
        ["curve", "--poly", SEGMENT, "--svg"],
        "a3f8f17912196356bd2a9484c04a31fc031dbe74753a333816bfe5133ecd29f5",
    ),
    "curve-svg-edge": (
        ["curve", "--poly", EDGE, "--svg"],
        "b29afa00ab2d2754304783a40ad6610ae206e33208d0d3e6b939b8848e1b9a35",
    ),
    "curve-svg-four-lines": (
        ["curve", "--poly", FOUR_LINES, "--svg"],
        "6f486241f99c99efee99c17f69b019e186d1c26e957e1ca8c6e4501a8c6f55bd",
    ),
    "vol-2d": (
        ["vol", "--num", UNIQUE_MIN_NUM, "--den", UNIQUE_MIN_DEN],
        "ef79c731a4f94a2d6939289ed064e82432db925cc2bbc0893b2910cbb501bbb6",
    ),
    "minrep": (
        ["minrep", "--num", "(-2)*x^2 + x + 0", "--den", "(-2)*x^2 + x + 1"],
        "d127336d0b3110e29da8276ea6919b16bd47b7f850fe2bfcb7b2ea3a63bf04c2",
    ),
    "comp": (
        ["comp", "--poly", FOUR_LINES, "--poly", "x + y + 0"],
        "90425378482d9af3d7a5a05bc3bf4ef5bd6c2169f10f87dd4f70aaf8714bb8b6",
    ),
    "divide": (
        ["divide", "--num", "x^2 + x + 0", "--den", "x + 0"],
        "98c90649c116c5821aacc1ba0126016e52ed8f9ce4c6432754b943a37cf58166",
    ),
    "factor-four-lines": (
        ["factor", "--poly", FOUR_LINES],
        "750938beda0aa38ef55d20f8d704a503582a0653b857ce512b9dd0a90176e92c",
    ),
    "factor-segment": (
        ["factor", "--poly", SEGMENT],
        "1db93185e2944359465dcc230c2ac96bddb5da2d6d727c72acc71258d7491e22",
    ),
    "divisor": (
        ["divisor", "--num", UNIQUE_MIN_NUM, "--den", UNIQUE_MIN_DEN],
        "5cc924ac1eec2765f237884fa21ecc3dd3f899467efe9adee0cc4e870eeb5b2c",
    ),
    "divisor-svg-segment": (
        ["divisor", "--num", SEGMENT, "--den", "x*y + 0", "--svg"],
        "afc9b67562eba54c58a26cf978e7cd15d8f0d402849318e6ed535c3a5c68de60",
    ),
    "divisor-edge": (
        ["divisor", "--num", EDGE, "--den", "x + y + 0"],
        "095b2c30ae7f0f5dc1c77a49495a25e8164115a1e639b4cb78a8c1e70d821b78",
    ),
    "divisor-svg-edge": (
        ["divisor", "--num", EDGE, "--den", "x + y + 0", "--svg"],
        "7d6dd27b517d9cc83142b8f27c634aeb40305aac8c7b9afadc92752ea62e5a15",
    ),
    "divisor-svg-empty": (
        # no pieces: the canvas frames the origin
        ["divisor", "--num", "x + y + 0", "--den", "x + y + 0", "--svg"],
        "ec6ba6d34a63533bf58b79ae134ebc8db29488b0e526dad0bc50664e4157ec38",
    ),
    "check-duality-uni": (
        ["check-duality", "--num", "x^3 + 2*x + 0", "--den", "x + 1", "--count", "60"],
        "c5a97afd929208f322130282cfa36fa4ebdd1b4ac5760e5f8e826e4f48bc61ae",
    ),
    "check-duality-2d": (
        ["check-duality", "--num", ALT_MIN_NUM_1, "--den", ALT_MIN_DEN_1, "--count", "60", "--seed", "3"],
        "78a388dffcd817b8b5d38db921b9f7b8931d706d35c9369ac748c34598021705",
    ),
    "render-subdiv": (
        ["render", "--kind", "subdiv", "--poly", DENSE8],
        "dc5affdfd154f0110ff98dcf7a8055f102ec858dc3d171cec71377e4058feb2c",
    ),
    "render-curve": (
        ["render", "--kind", "curve", "--poly", UNIQUE_MIN_NUM],
        "36b51a8f07602ed613805d8fcc7dd978c613d2971fc96ccd1b838e88c8383efa",
    ),
    "render-divisor": (
        ["render", "--kind", "divisor", "--num", UNIQUE_MIN_DEN, "--den", UNIQUE_MIN_NUM],
        "d4b215d2b95da6336af2ac06c4e5a9986e4778f8b03bbb11b6dbfa1697dfbc3a",
    ),
    "error-curve-monomial": (
        ["curve", "--poly", "3*x^2*y"],
        "1e827419b6acb9074dfab4bc8ce0b31bb5a03b603135e9c0e18ff152e59d043f",
    ),
    "error-parse": (
        ["eval", "--poly", "x + ", "--at", "3"],
        "da51df253ea78baf62dd2180558bf365e360b85c33b3c22afc84f75b58884007",
    ),
}


def _digest(capsys, argv) -> str:
    code = main(list(argv))
    out, err = capsys.readouterr()
    blob = f"{code}\0{out}\0{err}".encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(capsys, name):
    argv, expected = CASES[name]
    assert _digest(capsys, argv) == expected
