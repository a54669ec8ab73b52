"""Report bytes are a contract: small CLI reports keep recorded sha256 digests.

A change to a harness constant, a filter or the report format that moves
a single byte fails here; a refactor must leave every digest as it is.
Left out: `bohr seqcheck` (its filter is expected to change).  `verify
4.5` is pinned although its filter is expected to change too: that change
will move its digest.  Every verify id has at least one pin.
"""

import hashlib

import pytest

from gparith.cli import VERIFY, main
from gparith.config import DEFAULT_CONFIG_TEXT

PSI = ("forall n in [1, 10]: exists n2 in [2*m, 3000]: "
       "g(n+m+n2) - g(n+n2) - g(m+n2) + g(n2) - g(n+m) + g(n) + g(m) - g(0) = 0")
EVAL_ALL = ("floor(alpha*n) - nint(-beta*n*(n + 1)) + frac(alpha*n*n) "
            "- norm(alpha*(n - 3)) + ind(norm(alpha*n*n) < rho)")
FORMULA_ALL = ("forall x in [-3, 12]: not (x*x - 2*(x + 1) != x*(x - 2) - 2) "
               "and (x > 20 => -g(x)*2 < 1 + g(x + 1)) or -(x - 1) + g(-x) >= g(0)")

VERIFY_36_PB = ["verify", "3.5/3.6", "--n-max", "4", "--nprime-max", "100",
                "--pairs", "60"]

REPORTS = {
    "verify-core": (["verify", "core", "--samples", "100"],
                    "590c1e51e3f3ea98e7a8f9c0526265a513efff6fc1ccd1d57f4dad93c91ef5e7"),
    "verify-2.1": (["verify", "2.1"],
                   "8073ccd3d0ce516b179b74d1afdcce060bd49983d68b610da0f846e479b1edfd"),
    "verify-2.2": (["verify", "2.2"],
                   "73a4c1df47ecff4811625248bdcfa5e3b785c655f889ac0acda4ad82a872d793"),
    "compile-check": (["compile", "x1*x1 + x2*x2 - x3*x3", "--check"],
                      "0651d48a344cf9a7997c9b19b94fa89c51cee76b160500cbe0cae679da0e0c6f"),
    "verify-3.1": (["verify", "3.1", "--samples", "100"],
                   "c029f9c4563644302aa2a6c89c08f1bc3244490a777d92f88a1879f0ffb841a9"),
    # the perfbench flags
    "verify-3.1-s400": (["verify", "3.1", "--samples", "400"],
                        "004fb431238e8d3ab5c860367bde15261a3363570103dbeede792cb628421d71"),
    "verify-3.2": (["verify", "3.2", "--pairs", "5"],
                   "0083ff53c85ac2ec5058d11be99ef0d5fcbeda99fb627e377d8b4b0f8b7549ac"),
    "verify-3.3": (["verify", "3.3", "--n-max", "6", "--m-max", "200"],
                   "4e5e29725dade7cbad03a60fc5f07cace4014ed44198d97fcbfebfd076f6b30a"),
    # the perfbench flags: most columns scan the full extend cap
    "verify-3.3-m500": (["verify", "3.3", "--m-max", "500"],
                        "3aec772e4e88ae3c29ee6584cb980fa73856ce5e82e9f75e4fc1fdcd82d1e811"),
    "verify-3.2-pairs25": (["verify", "3.2", "--pairs", "25"],
                           "42643abc1ab28916ec26e9e5345d4bcfbecf71e5055c4f656acb1d1c19de8f20"),
    "verify-3.4": (["verify", "3.4", "--orbit", "5000", "--samples", "20000"],
                   "ecb7ed59c85077626c06df1e8205497a892739d41c21135f0a2eef7f89739388"),
    # the perfbench flags
    "verify-3.4-orbit500k": (["verify", "3.4", "--orbit", "500000",
                              "--samples", "1000000"],
                             "19514b83d339c198304f0164b5c043ef0491670299c77dae5d18ad00a195e7dc"),
    "verify-3.5-3.6": (["verify", "3.5/3.6", "--n-max", "3", "--nprime-max", "40",
                        "--pairs", "20"],
                       "f62869747c1c9f6dea4975fd429cfa149dee541e0346f95934577a35022bc75e"),
    # the defaults: 30,000 pairs and 1,000 converse instances
    "verify-3.5-3.6-defaults": (["verify", "3.5/3.6"],
                                "9399f3a5179c390dd8d63d60feba0d59f544df84d248024a33e625b427cfa40e"),
    # the perfbench flags
    "verify-3.5-3.6-pb": (VERIFY_36_PB,
                          "1a7d50a9e88033ace2ff89433db07487d2e5400bbeb9741bee79bb97935ae76c"),
    # check change: the closed form g(tm) = beta t^2 m nint(alpha m) replaced
    # the quadratic fit, and the summary counts its failures
    "verify-3.7": (["verify", "3.7", "--m-max", "30", "--h-factor", "12"],
                   "290ec14e898d1bea6d24bd02bc4061833ad6b755ecfaf08697289a281e6fd102"),
    # the perfbench flags (the defaults)
    "verify-3.7-defaults": (["verify", "3.7"],
                            "9ad77f168a0bfb85d9710d247be0ac912669a8d6d61dd9ace769632957cd47ad"),
    "verify-3.8": (["verify", "3.8"],
                   "db4d181098a3ae3bde4a28fe87fa1e42c9c432dc119cf5e8e19e76bc234f88da"),
    "verify-4.1": (["verify", "4.1", "--m-max", "20000"],
                   "8f334273781c093013b3418a6bbfc261d3923b0f14f46bb1b2b533e468948f96"),
    # N = 10 reaches the premise: 16 moduli up to 10^6, so the check is
    # not vacuous
    "verify-4.1-n10": (["verify", "4.1", "--n-max", "10", "--m-max", "1000000"],
                       "dc0f423329fc47080738b689f1914ad53b78c3f2c666e90b3725d108d025517b"),
    "verify-4.2": (["verify", "4.2", "--m-max", "1000"],
                   "eb735f5b7bcb8d6253b80c0ef5d00abb20ee75010837a8aa6c7b586527754468"),
    "verify-4.3": (["verify", "4.3"],
                   "11eabebb813ff250fbd5fee791cc41cf293c19f8e6149104ec5137db4a6189cc"),
    "verify-4.4": (["verify", "4.4"],
                   "567e9b9d81588cbb4f8ce070fb8fb06cacf8818cd832b6e49978f57d5decfe31"),
    "verify-4.5": (["verify", "4.5"],
                   "a58cabcce2c4fc098e56e4d8e8a8366cdb6fed5c32638bdbdbb60525e1fa211b"),
    "verify-Q1": (["verify", "Q1", "--m-max", "300", "--h-factor", "100"],
                  "26cb26dbe637105c0700a7a93f1bc52c35cf62732d8f0787a9796d0dbb75fc42"),
    # the perfbench flags
    "verify-Q1-m1500": (["verify", "Q1", "--m-max", "1500", "--h-factor", "1000"],
                        "030a64df1a0d2b3461c61b9e3bb9411a188a388b72c1b16678143e859660ac29"),
    # the cap sets T for most moduli; no m has the products of Q2's F, so
    # Q2 fails and the command exits 1
    "verify-Q1-cap7": (["verify", "Q1", "--m-max", "3000", "--h-factor", "7"],
                       "a56f7abf9cba8d39275ef9a35f3c96af0c0367da177e533fdbf97a32e8fce2a9"),
    "formula-psi": (["formula", PSI, "--bind", "m=5"],
                    "7dfc49d3474b2bf9393a078f2ce9f01059beb9378f7a5dd575715ae778d72021"),
    "eval-g": (["eval", "nint(beta*n*nint(alpha*n))", "--n", "0..300"],
               "39e91b7aea43d8d4d313d666be4dde4cae93ae1da323434509ce5e20c4f39db3"),
    "search-small-norm": (["search", "small-norm", "--eps", "1/100000"],
                          "795cc88471c24c87c95ff24fab0ca31eb4857f4c99f0f33d0caaa05a8fc4c62c"),
    "search-progression-base": (["search", "progression-base", "--r", "6"],
                                "65f362a5910b85d5ea28f613cac4af79f8ffdce8b285eb307486fc859db54267"),
    "search-weyl": (["search", "weyl", "--target", "alpha*n;-1/1000;1/1000",
                     "--target", "alpha*n*n;0;1/10"],
                    "2b216f381eb1e61062c22ebee49dc4c2228833d3b1b6aeefef597f8f145a537e"),
    # every expression node, every formula connective, and a weyl target
    # with no lane (decided exactly)
    "eval-all-nodes": (["eval", EVAL_ALL, "--n=-50..200"],
                       "e63a43270f03047d072182488a326596caebc673b102fa939496baf20ac17518"),
    "formula-all-nodes": (["formula", FORMULA_ALL],
                          "574b16442a0eac320a91139ad4425944509c38f862a0bde13d8b1027a6b72706"),
    "search-weyl-exact": (["search", "weyl", "--target", "nint(alpha*n)*alpha;-1/50;1/50",
                           "--target", "alpha*n*n;0;1/5"],
                          "13f42b1a3db63707f9460926f42a689caad3c3ec6c49fce1cb2a125f589d4ab7"),
    # formulas whose innermost quantifier is a lane candidate: psi with a
    # hit for every n, a hit in the second scan block (x = 30,677), a
    # product that is true only in exact integers (int64 would wrap), and
    # the int8 values of gb
    "formula-psi-true": (["formula", PSI, "--bind", "m=4"],
                         "496dffe9b91f5a5aec39efd9dabd051e0fafe8c71e1a1b74602a45b8d6ec3670"),
    "formula-long-scan": (["formula", "exists x in [1, 40000]: g(x) - g(x - 1) > 100000"],
                          "d53a3069465911d28af739d1cd0d7eaf1ec4f228d191541838e24f5703e8115d"),
    "formula-overflow": (["formula", "exists x in [1, 3]: "
                          "x*4000000000*4000000000*4000000000 = 128000000000000000000000000000"],
                         "eccff57eb9a6f8b3eeec5e7eb5b75df2b3ec56c925069391102acf328e77af32"),
    "formula-gb": (["formula", "forall x in [-50, 50]: gb(x) = gb(-x)"],
                   "12c2643f62580c8c504d400ee817639e715c3a5482671be363f5ae3bdcb752a0"),
}

# Reports under a config whose beta is not 1: name -> (beta value, argv,
# digest).  `verify 3.1` at the perfbench flags: at beta = 1/3 the
# calibration reaches C = 8 and the opposite mode fails 65 times; at the
# cube root of 4, from a field of its own, C = 2 and the off-diagonal mode
# fails 90 times.  The formula scans g from 10^8 at beta = 1/3, where
# beta*n*nint(alpha*n) is past 2^51, beyond the float recovery range of the lane.
BETA_THIRD = 'rational "1/3"'
BETA_31 = ["verify", "3.1", "--samples", "400"]
BETA_REPORTS = {
    "verify-3.1-beta-third": (BETA_THIRD, BETA_31,
                              "fff416720e7146bd1d4b46be7580b9dcf757ed851c0b02db1c9f5e986db46fd0"),
    "verify-3.1-beta-cbrt4": ('algebraic { minpoly = [-4, 0, 0, 1], interval = ["3/2", "8/5"] }',
                              BETA_31,
                              "a03c818027fbcd71c555b140550006ffe234ef0694320df5a0ef08452c005eac"),
    "formula-far-beta-third": (BETA_THIRD,
                               ["formula", "forall x in [100000000, 100004000]: g(x) != 0"],
                               "a1aeb369a78fb001c4b83beacdf33511afd238aedcf083015f6139d76762fe2f"),
    # beta = -1 takes the negated-d branch of the partner ranges; g changes
    # sign, so the records, and the digest, are those of beta = 1
    "verify-3.5-3.6-beta-minus-one": ('rational "-1"', VERIFY_36_PB,
                                      "1a7d50a9e88033ace2ff89433db07487d2e5400bbeb9741bee79bb97935ae76c"),
}

Q_CSV = "8253478fe3b148c8c0d2a54b5e9741f37b862d48a67ab4782c5c959917d33f2c"
Q_BUILD = ["--seed", "1", "quadruples", "build", "--m-max", "300",
           "--h-factor", "100"]
# the q.csv of the perfbench flags
Q_CSV_M1500 = "5e75c67d752644637f5071c6f9a28e779d2a6f441988d59d492c2380b8c99b54"
Q_BUILD_M1500 = ["--seed", "1", "quadruples", "build", "--m-max", "1500",
                 "--h-factor", "1000"]
Q_FORMULA = ("exists m in [1, 60]: forall k in [1, 4]: Q(m, m*k, 2*m, 2*m*k) "
             "and not Q(m, m*k, 2*m, 2*m*k + 1)")

# Reports that read the q.csv above back: name -> (argv, digest).  The
# digest is of the --out file, or of stdout for `quadruples import`, which
# prints its JSON.
Q_REPORTS = {
    "verify-core": (["verify", "core", "--samples", "100"],
                    "590c1e51e3f3ea98e7a8f9c0526265a513efff6fc1ccd1d57f4dad93c91ef5e7"),
    "verify-Q1-from": (["--out", "report", "verify", "Q1", "--from", "q.csv"],
                       "450c6467a47abc4279c6cf3345cf729753fd68f30a5f6d7965347fafdbfb17d3"),
    "quadruples-import": (["quadruples", "import", "--csv", "q.csv"],
                          "349b7e985d4ac3df193208eba5fa4c6ab6ab280a67863231fcaf942e65a2642a"),
    "formula-Q": (["--out", "report", "formula", Q_FORMULA, "--q-csv", "q.csv"],
                  "daabfc95ada3e2d19b0ed28c9ed65c0d956a20e3adf1c436b124ab3fce230468"),
}

# reports whose command exits with a code other than 0
EXIT_CODE = {"verify-Q1-cap7": 1}

# verify ids with no pin, each naming the ROADMAP item that owes one (none)
LEFT_OUT: dict[str, str] = {}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_digest(name, tmp_path, capsys):
    argv, digest = REPORTS[name]
    out = tmp_path / "report"
    assert main(["--seed", "1", "--out", str(out)] + argv) == EXIT_CODE.get(name, 0)
    capsys.readouterr()
    assert _sha256(out) == digest


@pytest.mark.parametrize("name", sorted(BETA_REPORTS))
def test_beta_report_digest(name, tmp_path, capsys):
    beta, argv, digest = BETA_REPORTS[name]
    config = tmp_path / "config"
    text = DEFAULT_CONFIG_TEXT.replace('beta = rational "1"', f"beta = {beta}")
    assert text != DEFAULT_CONFIG_TEXT
    config.write_text(text)
    out = tmp_path / "report"
    assert main(["--config", str(config), "--seed", "1", "--out", str(out)] + argv) == 0
    capsys.readouterr()
    assert _sha256(out) == digest


def _built_csv_sha256(argv, tmp_path, capsys) -> str:
    csv = tmp_path / "q.csv"
    assert main(argv + ["--csv", str(csv)]) == 0
    capsys.readouterr()
    return _sha256(csv)


def test_quadruple_csv_digest(tmp_path, capsys):
    assert _built_csv_sha256(Q_BUILD, tmp_path, capsys) == Q_CSV


def test_quadruple_csv_digest_m1500(tmp_path, capsys):
    assert _built_csv_sha256(Q_BUILD_M1500, tmp_path, capsys) == Q_CSV_M1500


@pytest.mark.parametrize("name", sorted(Q_REPORTS))
def test_q_csv_report_digest(name, tmp_path, monkeypatch, capsys):
    # relative paths, so that `verify Q1 --from` reports the same source
    monkeypatch.chdir(tmp_path)
    assert main(Q_BUILD + ["--csv", "q.csv"]) == 0
    capsys.readouterr()
    argv, digest = Q_REPORTS[name]
    assert main(["--seed", "1"] + argv) == 0
    stdout = capsys.readouterr().out
    if "--out" in argv:
        assert _sha256(tmp_path / "report") == digest
    else:
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest


def _verify_id(argv):
    """The VERIFY entry that argv runs: an id, or the "<id> <flag>" arm."""
    if "verify" not in argv:
        return None
    lemma = argv[argv.index("verify") + 1]
    return next((f"{lemma} {a}" for a in argv if f"{lemma} {a}" in VERIFY), lemma)


def test_every_verify_id_is_pinned_or_owed():
    pinned = {_verify_id(argv) for argv, _ in [*REPORTS.values(), *Q_REPORTS.values()]}
    pinned.discard(None)
    assert pinned <= set(VERIFY)
    assert set(VERIFY) - pinned == set(LEFT_OUT)
    assert all(item.startswith("ROADMAP item ") for item in LEFT_OUT.values())
