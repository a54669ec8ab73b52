"""Report bytes are a contract: small CLI reports keep recorded sha256 digests.

A change to a harness constant, a filter or the report format that moves
a single byte fails here; a refactor must leave every digest as it is.
Left out: `verify 4.5` (its filter is expected to
change) and `verify 3.4` (numpy histograms).
"""

import hashlib

import pytest

from gparith.cli import main

PSI = ("forall n in [1, 10]: exists n2 in [2*m, 3000]: "
       "g(n+m+n2) - g(n+n2) - g(m+n2) + g(n2) - g(n+m) + g(n) + g(m) - g(0) = 0")

REPORTS = {
    "verify-3.3": (["verify", "3.3", "--n-max", "6", "--m-max", "200"],
                   "4e5e29725dade7cbad03a60fc5f07cace4014ed44198d97fcbfebfd076f6b30a"),
    "verify-3.5-3.6": (["verify", "3.5/3.6", "--n-max", "3", "--nprime-max", "40",
                        "--pairs", "20"],
                       "f62869747c1c9f6dea4975fd429cfa149dee541e0346f95934577a35022bc75e"),
    "verify-3.7": (["verify", "3.7", "--m-max", "30", "--h-factor", "12"],
                   "cd12b3e651a02f4e9eab592e5e4f151810032d5c60c4e0a583c140ce9d115057"),
    "verify-4.4": (["verify", "4.4"],
                   "567e9b9d81588cbb4f8ce070fb8fb06cacf8818cd832b6e49978f57d5decfe31"),
    "verify-Q1": (["verify", "Q1", "--m-max", "300", "--h-factor", "100"],
                  "26cb26dbe637105c0700a7a93f1bc52c35cf62732d8f0787a9796d0dbb75fc42"),
    "formula-psi": (["formula", PSI, "--bind", "m=5"],
                    "7dfc49d3474b2bf9393a078f2ce9f01059beb9378f7a5dd575715ae778d72021"),
    "eval-g": (["eval", "nint(beta*n*nint(alpha*n))", "--n", "0..300"],
               "39e91b7aea43d8d4d313d666be4dde4cae93ae1da323434509ce5e20c4f39db3"),
}

Q_CSV = "8253478fe3b148c8c0d2a54b5e9741f37b862d48a67ab4782c5c959917d33f2c"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_digest(name, tmp_path, capsys):
    argv, digest = REPORTS[name]
    out = tmp_path / "report"
    assert main(["--seed", "1", "--out", str(out)] + argv) == 0
    capsys.readouterr()
    assert _sha256(out) == digest


def test_quadruple_csv_digest(tmp_path, capsys):
    csv = tmp_path / "q.csv"
    argv = ["--seed", "1", "quadruples", "build", "--m-max", "300",
            "--h-factor", "100", "--csv", str(csv)]
    assert main(argv) == 0
    capsys.readouterr()
    assert _sha256(csv) == Q_CSV
