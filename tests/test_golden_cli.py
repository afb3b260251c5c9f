"""Golden CLI output: sha256 of whole triangles, pinned from the Fraction-only
ring, so any change to the arithmetic kernels that moves a byte shows here."""

import hashlib
import json

import pytest

from hbinom.cli import main

POLY_SPEC = json.dumps({"a": "0", "b": "1", "s": ["0", "1"], "t": "-23/19"})

GOLDEN = [
    (("--preset", "cigler_qfib", "--max-n", "14"),
     "30775d146822ff74a3a9802ee69f444b24efbffa24e0493209e5b8c213ebd3e0"),
    # a = 2, b = x: many cells are rational functions with a non-constant denominator
    (("--preset", "cigler_qlucas", "--max-n", "10"),
     "ee222b11d870822584f4cb6635949e0d20e1170cadc5c2e3a93ac1a5dc63e4fc"),
    (("--preset", "lucas_numbers", "--max-n", "80"),
     "1ad8fb8ac41440074b2ffac43acf12bf47e385cb003c20d3582f45e79c8bb731"),
    (("--spec", POLY_SPEC, "--max-n", "12"),
     "d7ccdf37ceeda45ea98f46a0e873a28e0a6151a082be2bc92b0410eeb86e71ad"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN,
                         ids=["cigler_qfib", "cigler_qlucas", "lucas_numbers", "poly_t"])
def test_triangle_csv_golden(capsys, argv, digest):
    code = main(["triangle", *argv, "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- every subcommand: stdout digest, exit code and stderr ------------------
#
# Pinned before the family registry and the oracle table moved, so the
# refactor is held to the same bytes on every path, including the exit-2 ones.

FIB_ARGS = ("--preset", "fibonacci")
SPLIT_ARGS = ("--preset", "u", "--s", "3", "--t", "-2")
POLY_SEQ = json.dumps({"a": "0", "b": "1", "s": ["0", "1"], "t": "1"})
DEGENERATE = json.dumps({"a": "0", "b": "1", "s": "2", "t": "-1"})
FAMILIES = ("binet", "alternating", "corcino_a", "corcino_b", "gould",
            "gould_symmetric", "hu_sun", "vweighted")

SMALL_CONFIG = {
    "specs": [{"name": "fibonacci", "preset": "fibonacci"},
              {"name": "split", "preset": "u", "s": "3", "t": "-2"}],
    "families": ["binet", "alternating", "hu_sun", "corcino_a", "vweighted"],
    "max_n": 5,
    "oracles": ["md_formulas", "integrality", "series", "addition"],
    "format": "json",
}

ORACLE_ARGS = {
    "box": ("3", "2"),
    "zigzag": ("5", "2"),
    "inversion": ("5", "2"),
    "gauss": ("5", "2"),
    "subspaces": ("3", "1", "2"),
    "tilings": ("6", "2", "3"),
    "bracelets": ("6", "2", "3"),
    "md_fibonomial": ("7", "3"),
    "errata_fibonomial": ("7", "3"),
    "md_ubinomial": ("6", "3", "--s", "3", "--t", "-2"),
}

CASES = {
    "seq_fib_csv": ("seq", *FIB_ARGS, "--max-n", "12", "--format", "csv"),
    "seq_fib_json": ("seq", *FIB_ARGS, "--max-n", "12", "--format", "json"),
    "seq_poly_csv": ("seq", "--spec", POLY_SEQ, "--max-n", "8", "--format", "csv"),
    "seq_poly_json": ("seq", "--spec", POLY_SEQ, "--max-n", "8", "--format", "json"),
    "binom_lucas_numbers": ("binom", "--preset", "lucas_numbers", "-n", "4", "-k", "2"),
    "binom_v_json": ("binom", "--preset", "v", "--s", "1", "--t", "1",
                     "-n", "6", "-k", "3", "--format", "json"),
    **{f"verify_{fam}_split": ("verify", *SPLIT_ARGS, "--family", fam, "--max-n", "7")
       for fam in FAMILIES},
    **{f"verify_{fam}_fib": ("verify", *FIB_ARGS, "--family", fam, "--max-n", "7")
       for fam in FAMILIES},
    "verify_unknown_family": ("verify", *FIB_ARGS, "--family", "nonesuch"),
    "verify_degenerate_roots": ("verify", "--spec", DEGENERATE, "--family", "binet"),
    "verify_degenerate_corcino": ("verify", "--spec", DEGENERATE, "--family", "corcino_b"),
    **{f"oracle_{name}_text": ("oracle", "--which", name, "--args", *args)
       for name, args in ORACLE_ARGS.items()},
    **{f"oracle_{name}_json": ("oracle", "--which", name, "--args", *args,
                               "--format", "json")
       for name, args in ORACLE_ARGS.items()},
    "oracle_wrong_arity": ("oracle", "--which", "zigzag", "--args", "4"),
    "oracle_bad_field": ("oracle", "--which", "subspaces", "--args", "3", "1", "5"),
    "oracle_missing_weights": ("oracle", "--which", "md_ubinomial", "--args", "4", "2"),
    "oracle_bad_weight": ("oracle", "--which", "md_ubinomial", "--args", "4", "2",
                          "--s", "x", "--t", "1"),
    "oracle_errata_small_k": ("oracle", "--which", "errata_fibonomial", "--args", "5", "1"),
    "verify_hu_sun_split_report": ("verify", *SPLIT_ARGS, "--family", "hu_sun",
                                   "--max-n", "6", "--format", "json"),
    "suite_default_text": ("suite", "--format", "text", "--max-n", "6"),
}

# name -> (exit code, sha256 of stdout, stderr)
GOLDEN_RUNS = {
    "seq_fib_csv": (0, "79b4556f460f2cec7e905b1de24f6c4883f6931a8ee08c48bd77c2baa35fc1f4",
        ""),
    "seq_fib_json": (0, "d76b5e878fd44945e64a3de1e19acad4aba7c36db3bad62414e8e7064483cc76",
        ""),
    "seq_poly_csv": (0, "2779c28d399aba15a73711ee5c6f8b5fe244417d741a519daa4eda7c6d3a27b2",
        ""),
    "seq_poly_json": (0, "1b8853a4553d5255d5b4924fedae71b8022a23bcbcc123221175f2df4ad14b0d",
        ""),
    "binom_lucas_numbers": (0, "029aa9c103409fe039326907a8d29bbb2f430363f3e305dd8eab6d75d559111e",
        ""),
    "binom_v_json": (0, "4e0ea30108be335ddd64796fd12d1cc5664259cff8e1bea937569a49a97473a4",
        ""),
    "verify_binet_split": (0, "1eaeeb670f6a3f82c1209ae3466596d4db4610dd22be528b953ece30f2b4c396",
        ""),
    "verify_alternating_split": (0, "bfc707f81868ffac09976ae099415a961d14e4d118c84c941814cb0016352ac2",
        ""),
    "verify_corcino_a_split": (0, "215c67bdaa2b50ff786abb3591a59652aec41e6e67a915e485705550bbb693d2",
        ""),
    "verify_corcino_b_split": (0, "83ebcd308decc97b019c0a18a844384d99f90ebc219fbca80f3e46f3a1b2b7bd",
        ""),
    "verify_gould_split": (0, "d33ba78785dd3681f3d76c13ebed204d633b462d9a8bc973b0aab4ac4efb1743",
        ""),
    "verify_gould_symmetric_split": (0, "029383d6f04989acd1d424d6b650d3337e75719e04b2635a39082785e2a73970",
        ""),
    "verify_hu_sun_split": (0, "35a46b7b43a772935daccac622b689d919d432c8b6b108f47f4bc74ca3b81888",
        ""),
    "verify_vweighted_split": (0, "0c1336029cef7a76990a97a32b4d51ed9908a69ec6bbd673a126abfd08fb41ce",
        ""),
    "verify_binet_fib": (0, "1eaeeb670f6a3f82c1209ae3466596d4db4610dd22be528b953ece30f2b4c396",
        ""),
    "verify_alternating_fib": (0, "bfc707f81868ffac09976ae099415a961d14e4d118c84c941814cb0016352ac2",
        ""),
    "verify_corcino_a_fib": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: family corcino_a needs rational characteristic roots; discriminant 5 is not a perfect square\n"),
    "verify_corcino_b_fib": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: family corcino_b needs rational characteristic roots; discriminant 5 is not a perfect square\n"),
    "verify_gould_fib": (0, "d33ba78785dd3681f3d76c13ebed204d633b462d9a8bc973b0aab4ac4efb1743",
        ""),
    "verify_gould_symmetric_fib": (0, "029383d6f04989acd1d424d6b650d3337e75719e04b2635a39082785e2a73970",
        ""),
    "verify_hu_sun_fib": (0, "35a46b7b43a772935daccac622b689d919d432c8b6b108f47f4bc74ca3b81888",
        ""),
    "verify_vweighted_fib": (0, "0c1336029cef7a76990a97a32b4d51ed9908a69ec6bbd673a126abfd08fb41ce",
        ""),
    "verify_unknown_family": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: unknown family 'nonesuch'; choose from binet, alternating, corcino_a, corcino_b, gould, gould_symmetric, hu_sun, vweighted\n"),
    "verify_degenerate_roots": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: repeated characteristic root: s=2, t=-1\n"),
    "verify_degenerate_corcino": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: repeated characteristic root: s=2, t=-1\n"),
    "oracle_box_text": (0, "3e73680366cbc83fcacf23e7fb1a65be5997cdb1811548aeac1c9c674bfc1009",
        ""),
    "oracle_zigzag_text": (0, "3e73680366cbc83fcacf23e7fb1a65be5997cdb1811548aeac1c9c674bfc1009",
        ""),
    "oracle_inversion_text": (0, "3e73680366cbc83fcacf23e7fb1a65be5997cdb1811548aeac1c9c674bfc1009",
        ""),
    "oracle_gauss_text": (0, "01531847d6f9ad790ffef07889ac7803d50c161f49fe86d8a0ec674ea6aa1637",
        ""),
    "oracle_subspaces_text": (0, "10159baf262b43a92d95db59dae1f72c645127301661e0a3ce4e38b295a97c58",
        ""),
    "oracle_tilings_text": (0, "0a89b7b23893a92fab7b7389613e298c06681ccfcd9253bc6517c671892f2589",
        ""),
    "oracle_bracelets_text": (0, "fc96eeededcd856d2297f8dd9045fd5d6a31f83b9115379bd1408ff16de76535",
        ""),
    "oracle_md_fibonomial_text": (0, "a4a144adfc7753e93682285733402c2cc2afa2af9cd933aa06ea5f39d33fa6b8",
        ""),
    "oracle_errata_fibonomial_text": (0, "13e7a9decbce922176ed35763497a2dd518381561eea8919e344688f95c7cfdd",
        ""),
    "oracle_md_ubinomial_text": (0, "e9c8583cee2807bba1c85cb913a604a7438ef466c75c68bc422b42b789210d26",
        ""),
    "oracle_box_json": (0, "684223dd44cd2c9bfaca2c7415145e68a49513ef7dfa1ab89ca6cbf85d24b772",
        ""),
    "oracle_zigzag_json": (0, "684223dd44cd2c9bfaca2c7415145e68a49513ef7dfa1ab89ca6cbf85d24b772",
        ""),
    "oracle_inversion_json": (0, "684223dd44cd2c9bfaca2c7415145e68a49513ef7dfa1ab89ca6cbf85d24b772",
        ""),
    "oracle_gauss_json": (0, "b2b94c5c8398bae517255fdf6642a221777d13cdbc35ce45d600786cf95c43f5",
        ""),
    "oracle_subspaces_json": (0, "10159baf262b43a92d95db59dae1f72c645127301661e0a3ce4e38b295a97c58",
        ""),
    "oracle_tilings_json": (0, "0a89b7b23893a92fab7b7389613e298c06681ccfcd9253bc6517c671892f2589",
        ""),
    "oracle_bracelets_json": (0, "fc96eeededcd856d2297f8dd9045fd5d6a31f83b9115379bd1408ff16de76535",
        ""),
    "oracle_md_fibonomial_json": (0, "a4a144adfc7753e93682285733402c2cc2afa2af9cd933aa06ea5f39d33fa6b8",
        ""),
    "oracle_errata_fibonomial_json": (0, "13e7a9decbce922176ed35763497a2dd518381561eea8919e344688f95c7cfdd",
        ""),
    "oracle_md_ubinomial_json": (0, "31eac63b8f6d0c9c94afd6e4c0ae9a1c836d01ccf91ad4181c64f7ebdd9e47c2",
        ""),
    "oracle_wrong_arity": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: oracle zigzag takes 2 integer arguments\n"),
    "oracle_bad_field": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: only prime fields of size 2 and 3 are supported\n"),
    "oracle_missing_weights": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: md_ubinomial needs --s and --t\n"),
    "oracle_bad_weight": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: not a rational value: 'x'\n"),
    "oracle_errata_small_k": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: variant formula needs k >= 2\n"),
    "suite_default_text": (0, "99d8edb02d62a9dbd35ad4a2ff2513ff47dcbb7b302818e0389d4ff2d3fb6ca8",
        ""),
    "suite_small_config_report": (0, "7a49959369567492f0bc0ce4832297437c4f24b2f27ac3ea5b5a3002e46a3876",
        ""),
    "verify_hu_sun_split_report": (0, "77bd1120cbe79b6ee12df308e0e788c06020c2b06e592035b5d64c6aad89c37a",
        ""),
}


def _stdout_digest(name: str, out: str) -> str:
    # a JSON report carries the time it was made; everything else is hashed
    if name.endswith("_report"):
        doc = json.loads(out)
        doc.pop("generated_at")
        out = json.dumps(doc, indent=2, sort_keys=True)
    return hashlib.sha256(out.encode()).hexdigest()


def _run(capsys, tmp_path, name: str):
    if name == "suite_small_config_report":
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(SMALL_CONFIG))
        argv = ("suite", "--config", str(config_path))
    else:
        argv = CASES[name]
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, _stdout_digest(name, captured.out), captured.err


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_cli_golden(capsys, tmp_path, name):
    assert _run(capsys, tmp_path, name) == GOLDEN_RUNS[name]


def test_every_case_is_pinned():
    assert set(CASES) | {"suite_small_config_report"} == set(GOLDEN_RUNS)
