"""Tests for command-line parsing, report structure, and exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invrel import DEFAULT_POLICY, FAMILIES, ConfigError, DomainError, VerificationError, cli, families
from invrel.cli import (
    _build_parser,
    cmd_counterexample,
    cmd_eds,
    cmd_verify,
    load_config_file,
    main,
    parse_int_range,
    parse_params,
    parse_scalar,
    parse_window,
    serialize_scalar,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_scalars(self):
        assert parse_scalar("1/5") == Fraction(1, 5)
        assert parse_scalar("-3/7") == Fraction(-3, 7)
        assert parse_scalar("0.1") == 0.1
        assert parse_scalar("1e-8") == 1e-8
        assert parse_scalar("-3") == -3
        assert isinstance(parse_scalar("2"), int)

    def test_bad_scalar(self):
        with pytest.raises(ConfigError):
            parse_scalar("abc")
        with pytest.raises(ConfigError):
            parse_scalar("1/0")

    def test_params(self):
        assert parse_params("a=2,b=3/4,q=0.5") == {"a": 2, "b": Fraction(3, 4), "q": 0.5}
        assert parse_params("") == {}
        with pytest.raises(ConfigError):
            parse_params("a2")

    def test_params_item_without_equals_is_named(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--family=binomial", "--params=a")
        assert code == 2 and out == ""
        assert err == "error: bad params item 'a' (expected key=value)\n"

    def test_window(self):
        assert parse_window("0..6") == (0, 6)
        assert parse_window("-2..4") == (-2, 4)
        with pytest.raises(ConfigError):
            parse_window("4..0")
        with pytest.raises(ConfigError):
            parse_window("banana")

    @pytest.mark.parametrize("window", ["5", "0..2..4"])
    def test_window_needs_exactly_two_bounds(self, capsys, window):
        # one bound is no window, and a third is not dropped
        code, out, err = run_cli(capsys, "verify", "--family=binomial", f"--window={window}")
        assert code == 2 and out == ""
        assert err == f"error: bad window {window!r} (expected lo..hi)\n"

    def test_int_range(self):
        assert list(parse_int_range("1..3")) == [1, 2, 3]
        assert list(parse_int_range("5")) == [5]

    @pytest.mark.parametrize(
        "k, message",
        [
            ("3..1", "error: empty --k range '3..1'"),
            ("a..b", "error: bad --k range 'a..b'"),
            ("x", "error: bad --k range 'x' (expected k or lo..hi)"),
        ],
    )
    def test_bad_k_range_names_the_flag(self, capsys, k, message):
        code, out, err = run_cli(capsys, "counterexample", f"--k={k}")
        assert (code, out, err) == (2, "", message + "\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--tolerance=abc"),
            ("verify", "--truncation-max=x"),
            ("verify", "--truncation-tail=2"),
            ("eds", "--n=abc"),
        ],
    )
    def test_bad_numeric_flag_is_config_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_serialize(self):
        assert serialize_scalar(Fraction(0)) == "0"
        assert serialize_scalar(Fraction(77, 120)) == "77/120"
        assert serialize_scalar(3) == "3"
        assert serialize_scalar(0.25) == 0.25

    def test_serialize_non_finite_as_strings(self):
        nan, inf = float("nan"), float("inf")
        assert [serialize_scalar(v) for v in (nan, inf, -inf, complex(nan, 0))] == [
            "nan", "inf", "-inf", "nan",
        ]

    def test_overflowing_float_is_not_a_scalar(self):
        for text in ("1e999", "-1e999", "1.5e400"):
            with pytest.raises(ConfigError):
                parse_scalar(text)

    def test_config_error_is_not_a_domain_failure(self):
        assert not issubclass(ConfigError, VerificationError)

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--family=warnaar", "--params=x0=5", "--tolerance=inf"),
            ("verify", "--family=warnaar", "--tolerance=nan"),
            ("verify", "--family=schlosser", "--params=b=0", "--tolerance=-1"),
            ("verify", "--family=warnaar", "--params=x0=1e999"),
            ("eds", "--seeds=1e999,1,1"),
            ("eds", "--n=0"),
            ("eds", "--n=-3"),
            ("counterexample", "--k=0"),
            ("counterexample", "--k=-1..2"),
            ("counterexample", f"--k=0..{2**63}"),
            ("verify", "--family=binomial", "--checks=delta,delta"),
            ("verify", "--family=gasper", "--params=a=2,a=3"),
        ],
    )
    def test_bad_input_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("line", ["tolerence=1e-9", "all-presets=1"])
    def test_unknown_config_key_exits_2(self, capsys, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"family=gasper\nparams=q=0.2\n{line}\n")
        code, out, err = run_cli(capsys, "verify", f"--config={cfg}")
        assert code == 2 and out == ""
        assert err.startswith("error: unknown config keys") and line.split("=")[0] in err
        assert err.count("\n") == 1

    def test_repeated_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family=binomial\nwindow=0..3\nwindow=0..2\n")
        code, out, err = run_cli(capsys, "verify", f"--config={cfg}")
        assert code == 2 and out == ""
        assert err == "error: config key 'window' given twice\n"

    def test_undecodable_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "binary.cfg"
        cfg.write_bytes(b"\x80\x81\xff\n")
        code, out, err = run_cli(capsys, "verify", f"--config={cfg}")
        assert code == 2 and out == "" and err.startswith("error: cannot read config")

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "report.json"
        code, out, err = run_cli(capsys, "counterexample", "--k=1", f"--out={target}")
        assert code == 2 and out == "" and err.startswith("error: cannot write")


class TestCallsInARow:
    # The parser is built once per process; no call may leave state behind.

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_flag_does_not_leak_into_the_next_call(self, capsys):
        checks = ("verify", "--family=binomial", "--checks=delta")
        code, out, _ = run_cli(capsys, *checks, "--window=0..3")
        assert code == 0 and json.loads(out)["window"] == "0..3"
        code, out, _ = run_cli(capsys, *checks)
        assert code == 0 and json.loads(out)["window"] == "0..8"

    def test_bad_input_then_good_input(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--no-such-flag"])
        assert excinfo.value.code == 2 and "--no-such-flag" in capsys.readouterr().err
        code, _, err = run_cli(capsys, "counterexample", "--k=0")
        assert code == 2 and err.startswith("error: ")
        code, out, err = run_cli(capsys, "counterexample", "--k=2")
        assert code == 0 and err == ""
        assert [row["k"] for row in json.loads(out)["rows"]] == [2]


class TestVerifyCommand:
    def test_gasper_exact_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "gasper",
            "--params", "a=2,b=3,p=1/5,q=1/7",
            "--window", "0..6", "--checks", "tsi,delta",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "gasper"
        assert doc["mode"] == "exact"
        assert [c["name"] for c in doc["checks"]] == ["tsi", "delta"]
        assert all(c["pass"] and c["worst_residual"] == "0" for c in doc["checks"])

    def test_warnaar_numeric_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "warnaar",
            "--params", "q=0.1", "--window", "0..4", "--tolerance", "1e-8",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "tolerance"
        assert doc["passed"]
        for check in doc["checks"]:
            assert isinstance(check["worst_residual"], float)

    def test_no_family_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "verify")
        assert code == 2 and out == ""
        assert err == "error: --family is required (or use --all-presets)\n"

    def test_elliptic_sum_closed_form_below_zero(self, capsys):
        # the window crosses sigma's m < 0 branch in the closed form
        code, out, _ = run_cli(capsys, "verify", "--family=elliptic-sum", "--window=-3..1", "--checks=closed-form")
        doc = json.loads(out)
        assert code == 0 and doc["passed"] and [c["name"] for c in doc["checks"]] == ["closed-form"]

    def test_zero_w2_is_refused_by_the_entry_it_divides(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--family=eds", "--params=w2=0,w3=3,w4=5", "--window=1..2")
        assert code == 1 and err == ""
        doc = json.loads(out)
        assert [(c["name"], c["worst_residual"]) for c in doc["checks"]] == [
            ("antisym", "0"), ("tsi", "0"), ("qsi", "0"), ("cond3", "0")
        ]
        assert doc["error"] == "ZeroDiagonal: entry (2,2): alpha(2,2) = 0 in G(2,2)" and not doc["passed"]

    def test_float_param_in_exact_mode_is_an_error(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family=gasper", "--params=q=0.2", "--checks=tsi,delta")
        assert code == 1
        doc = json.loads(out)
        assert doc["error"].startswith("DomainError: gasper: exact mode needs exact params")
        assert "q given as float" in doc["error"] and "p/q" in doc["error"] and "--tolerance" in doc["error"]
        assert doc["checks"] == [] and not doc["passed"]

    def test_float_param_with_tolerance_runs_in_tolerance_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family=gasper", "--params=q=0.2", "--checks=tsi,delta", "--tolerance=1e-9"
        )
        doc = json.loads(out)
        assert "error" not in doc and doc["mode"] == "tolerance"
        assert [c["name"] for c in doc["checks"]] == ["tsi", "delta"]
        assert all(isinstance(c["worst_residual"], float) for c in doc["checks"])
        assert code == (0 if doc["passed"] else 1)

    def test_degenerate_params_fail_nonzero_exit(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "gasper", "--params", "a=0",
        )
        assert code == 1
        doc = json.loads(out)
        assert not doc["passed"]
        assert "DegenerateParams" in doc["error"]

    def test_repeated_b_names_the_family_once(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family=partial-theta", "--params=bstep=0", "--checks=tsi",
        )
        assert code == 1
        assert json.loads(out)["error"] == "DegenerateParams: partial-theta: b(0) == b(1)"

    def test_sweeps_run_where_only_entries_divide_by_zero(self, capsys):
        # b/a = p^3 makes beta(i,k) vanish where i+k = 3, but TSI and QSI divide by nothing
        code, out, _ = run_cli(capsys, "verify", "--family=gasper", "--params=b=2/125", "--checks=tsi,qsi")
        doc = json.loads(out)
        assert code == 0 and doc["passed"] and "error" not in doc
        assert [(c["name"], c["worst_residual"]) for c in doc["checks"]] == [("tsi", "0"), ("qsi", "0")]

    def test_zero_beta_is_refused_by_the_entry_it_divides(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family=gasper", "--params=b=2/125")
        doc = json.loads(out)
        assert code == 1 and not doc["passed"]
        assert [(c["name"], c["worst_residual"]) for c in doc["checks"]] == [
            ("antisym", "0"), ("tsi", "0"), ("qsi", "0"), ("cond3", "0")
        ]
        assert doc["error"] == "ZeroDivisor: entry (2,1): beta(2,1) = 0 in F(2,1)"

    def test_eds_sweeps_across_w0(self, capsys):
        # alpha(0,0) = W_0^2 = 0 divides only the entries, not the sweeps
        code, out, _ = run_cli(capsys, "verify", "--family=eds", "--window=-2..3", "--checks=tsi,cond3")
        doc = json.loads(out)
        assert code == 0 and doc["passed"]
        assert [(c["name"], c["worst_residual"]) for c in doc["checks"]] == [("tsi", "0"), ("cond3", "0")]

    def test_singular_closed_form_names_the_entry(self, capsys):
        # the kernel is admissible, but a denominator of the printed G
        # closed form vanishes at (1,0): a JSON ZeroDivisor naming the entry
        code, out, _ = run_cli(
            capsys, "verify", "--family=gasper", "--params=a=5,b=7,p=1/5,q=1/5",
            "--window=0..16", "--checks=delta,closed-form",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["error"] == "ZeroDivisor: closed-form G(1,0): reciprocal of zero"
        assert [c["name"] for c in doc["checks"]] == ["delta"] and not doc["passed"]

    def test_eds_closed_form_below_zero(self, capsys):
        # the pair is defined on -3..-1 and so is the printed G, whose products
        # no longer reach across W_0 = 0
        code, out, _ = run_cli(
            capsys, "verify", "--family=eds", "--window=-3..-1", "--checks=delta,closed-form",
        )
        doc = json.loads(out)
        assert code == 0 and doc["passed"]
        assert [(c["name"], c["worst_residual"]) for c in doc["checks"]] == [("delta", "0"), ("closed-form", "0")]

    def test_unknown_family_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--family", "nope")
        assert code == 2 and "unknown family" in err

    def test_unknown_param_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--family", "gasper", "--params", "zz=1"
        )
        assert code == 2 and "unknown params" in err

    def test_closed_form_unavailable(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--family", "warnaar", "--checks", "closed-form",
        )
        assert code == 2 and "refused: 'closed-form'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--family=warnaar", "--params=x0=5", "--checks=closed-form"),
            ("--family=partial-theta", "--params=bstep=0", "--checks=eds-property"),
            ("--family=partial-theta", "--params=bstep=0", "--checks=counterexample"),
            ("--family=warnaar", "--params=x0=5", "--checks=tsi,bogus"),
            ("--family=partial-theta", "--params=bstep=0", "--checks="),
        ],
    )
    def test_unavailable_check_refused_before_build(self, capsys, argv):
        # the params are degenerate: the refusal comes before the build fails
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        refused = argv[-1].removeprefix("--checks=").split(",")[-1]
        assert err.endswith(f"refused: {refused!r}\n")

    @pytest.mark.parametrize(
        "flag", ["--family=nope", "--params=q=0.2", "--window=0..3", "--tolerance=inf", "--checks=bogus"]
    )
    def test_all_presets_refuses_preset_flags(self, capsys, flag):
        code, out, err = run_cli(capsys, "verify", "--all-presets", flag)
        assert code == 2 and out == ""
        assert err.startswith("error: --all-presets") and err.count("\n") == 1

    def test_all_presets_refuses_preset_config_keys(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family=gasper\ntruncation-tail=1e-15\n")
        code, out, err = run_cli(capsys, "verify", "--all-presets", f"--config={cfg}")
        assert code == 2 and out == ""
        assert err.startswith("error: --all-presets") and "--family" in err and err.count("\n") == 1

    def test_empty_checks_is_bad_input(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--family=binomial", "--checks=")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_counterexample_check_redirects(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--family", "gasper", "--checks", "counterexample",
        )
        assert code == 2 and "refused: 'counterexample'" in err
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "the counterexample runs as its own subcommand" in help_text

    def test_run_config_object(self):
        doc = cmd_verify(family="gasper", checks=("antisym",))
        assert doc["passed"]
        with pytest.raises(ConfigError):
            cmd_verify(family="warnaar", tolerance=-1.0, checks=("antisym",))
        with pytest.raises(ConfigError):
            cmd_verify(family="gasper", checks=("bogus",))

    def test_nan_residuals_fail(self, capsys):
        # alpha overflows to inf and beta to nan: every residual is nan
        code, out, _ = run_cli(capsys, "verify", "--family=warnaar", "--params=q=0.1,b0=1e200")
        assert code == 1
        doc = json.loads(out)
        assert not doc["passed"] and len(doc["checks"]) == 5
        assert all(c["worst_residual"] == "nan" and not c["pass"] for c in doc["checks"])

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--family=gasper", "--params=p=1e200", "--tolerance=1e-9"),
            ("verify", "--family=elliptic-sum", "--params=q=1e300"),
            ("verify", "--family=warnaar", "--params=x0=" + "1" + "0" * 400, "--window=0..2"),
        ],
    )
    def test_float_overflow_is_reported(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        doc = json.loads(out)
        assert "Overflow" in doc["error"] or "overflows" in doc["error"]
        assert not doc["passed"]

    def test_antisym_reads_alpha_too(self, capsys):
        # antisym folds over the shared alpha and beta tables, so an alpha that
        # overflows on the window ends the run before antisym records a pass
        code, out, _ = run_cli(
            capsys, "verify", "--family=gasper", "--params=q=1e300", "--tolerance=1e-9", "--checks=antisym,tsi"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["error"] == "DomainError: 1e+300**2 overflows"
        assert doc["checks"] == [] and not doc["passed"]

    def test_float_param_is_refused_before_any_kernel_value_is_read(self, capsys):
        # in exact mode p = 1e200 is refused as a float before p**2 can overflow
        code, out, _ = run_cli(capsys, "verify", "--family=gasper", "--params=p=1e200")
        assert code == 1
        assert json.loads(out)["error"].startswith("DomainError: gasper: exact mode needs exact params")

    def test_no_checks_is_no_pass(self):
        doc = cmd_verify(family="binomial", window=(0, 2), checks=())
        assert doc["checks"] == [] and not doc["passed"]

    def test_all_presets(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--all-presets")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] and len(doc["families"]) == 7
        names = [d["family"] for d in doc["families"]]
        assert "eds" in names and "partial-theta" in names

    def test_all_presets_default_checks(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--all-presets")
        assert code == 0
        docs = {d["family"]: d for d in json.loads(out)["families"]}
        base = ["antisym", "tsi", "qsi", "cond3", "delta"]
        assert {family: [c["name"] for c in d["checks"]] for family, d in docs.items()} == {
            "binomial": base + ["closed-form"],
            "gasper": base + ["closed-form"],
            "schlosser": base + ["closed-form"],
            "warnaar": base,
            "elliptic-sum": base + ["closed-form"],
            "partial-theta": base,
            "eds": base + ["closed-form", "eds-property"],
        }
        # a float sweep whose residuals are all exactly zero reports the exact "0"
        antisym = docs["elliptic-sum"]["checks"][0]
        assert antisym["worst_residual"] == "0" and antisym["pass"]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify", "--family", "binomial", "--checks", "delta",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        doc = json.loads(target.read_text())
        assert doc["family"] == "binomial" and doc["passed"]

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# exact suite\n"
            "family=gasper\n"
            "params=a=2,b=3,p=1/5,q=1/7\n"
            "window=0..5\n"
            "checks=tsi\n"
        )
        code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "gasper" and doc["window"] == "0..5"
        # explicit flags win over the config file
        code, out, _ = run_cli(
            capsys, "verify", "--config", str(cfg), "--checks", "delta"
        )
        assert [c["name"] for c in json.loads(out)["checks"]] == ["delta"]

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("family gasper\n")
        with pytest.raises(ConfigError):
            load_config_file(str(cfg))
        cfg.write_text("window=0..3\nfamily=gasper\n window = 0..2\n")
        with pytest.raises(ConfigError, match="'window' given twice"):
            load_config_file(str(cfg))

    def test_exact_report_is_deterministic(self, capsys):
        argv = ("verify", "--family", "schlosser", "--checks", "antisym,tsi,delta")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)

        def strip_timing(text):
            doc = json.loads(text)
            for check in doc["checks"]:
                check.pop("elapsed_ms")
            return doc

        assert strip_timing(out1) == strip_timing(out2)

    def test_truncation_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "partial-theta",
            "--truncation-tail", "1e-15", "--truncation-max", "128",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["truncation"] == {"tail_bound": 1e-15, "max_terms": 128}


class TestRegistry:
    """A family's registry entry is the only list of its checks: what it
    builds and what ``verify`` runs follow that list."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_build_matches_the_offered_checks(self, family):
        preset = FAMILIES[family]
        _, closed, seq = preset.build(preset.params, preset.window, DEFAULT_POLICY)
        assert (closed is not None) == ("closed-form" in preset.checks)
        assert (seq is not None) == ("eds-property" in preset.checks)
        if closed is not None:
            forms = closed()
            assert len(forms) == 2 and all(map(callable, forms))

    @pytest.mark.parametrize("family", [f for f in sorted(FAMILIES) if "closed-form" in FAMILIES[f].checks])
    def test_only_the_closed_form_check_builds_a_closed_form(self, family, monkeypatch):
        calls = Counter()

        def counting(name, constructor):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return constructor(*args, **kwargs)
            return wrapper

        for stem in ("binomial", "gasper", "schlosser", "elliptic_sum", "eds"):
            name = f"{stem}_closed_entries"
            monkeypatch.setattr(families, name, counting(name, getattr(families, name)))
        assert cmd_verify(family, checks=("antisym", "tsi"))["passed"]
        assert calls == {}
        assert cmd_verify(family, checks=("delta", "closed-form"))["passed"]
        assert calls == {family.replace("-", "_") + "_closed_entries": 1}

    @pytest.mark.parametrize(
        "family,check", [(f, c) for f in sorted(FAMILIES) for c in FAMILIES[f].checks]
    )
    def test_each_offered_check_runs_alone(self, family, check):
        doc = cmd_verify(family, checks=(check,))
        assert "error" not in doc and [c["name"] for c in doc["checks"]] == [check]


class TestCounterexampleCommand:
    def test_known_rows(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample", "--k", "1..5")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"]
        by_k = {row["k"]: row for row in doc["rows"]}
        assert by_k[1]["gap3"] == "77/120"
        assert by_k[2]["gap3"] == "87/112"
        for row in doc["rows"]:
            assert row["gap2"] == "0"
            assert row["match"]
            assert row["gap4"] == row["expected_gap4"]

    def test_document_round_trips(self):
        doc = cmd_counterexample([1, 2])
        assert json.loads(json.dumps(doc)) == doc

    def test_range_past_ssize_t_is_refused_without_a_walk(self, capsys):
        code, out, err = run_cli(capsys, "counterexample", f"--k=0..{2**63}")
        assert (code, out, err) == (2, "", "error: k must be at least 1\n")

    def test_rows_of_a_huge_range_are_built_one_at_a_time(self, capsys, monkeypatch):
        # the range is never listed: a domain failure at its third k ends the report
        calls = Counter()
        real = cli.counterexample_discrepancies

        def third_fails(k):
            calls.update(["k"])
            if calls["k"] == 3:
                raise DomainError(f"k = {k}")
            return real(k)

        monkeypatch.setattr(cli, "counterexample_discrepancies", third_fails)
        code, out, _ = run_cli(capsys, "counterexample", f"--k=1..{2**64}")
        doc = json.loads(out)
        assert code == 1 and [row["k"] for row in doc["rows"]] == [1, 2]
        assert doc["error"] == "DomainError: k = 3" and not doc["passed"]

    def test_value_past_the_digit_limit_is_reported(self, capsys):
        # the gap-4 value of k = 10**400 has more digits than the interpreter
        # prints as an int string: a JSON error, not a traceback
        code, out, _ = run_cli(capsys, "counterexample", f"--k={10**400}")
        assert code == 1
        doc = json.loads(out)
        limit = sys.get_int_max_str_digits()
        assert doc["error"] == f"DomainError: exact value past the {limit}-digit int str limit"
        assert doc["rows"] == [] and not doc["passed"]
        # k = 10**300 stays under the limit
        code, out, _ = run_cli(capsys, "counterexample", f"--k={10**300}")
        assert code == 0 and "error" not in json.loads(out)

    def test_stdout_closed_after_the_first_line_ends_quietly(self):
        # 97 KB of report outgrow the pipe buffer, so the write meets the closed pipe
        proc = subprocess.Popen(
            [sys.executable, "-m", "invrel.cli", "counterexample", "--k=1..300"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (first, err, proc.wait(timeout=60)) == (b"{\n", b"", 1)


class TestEdsCommand:
    def test_default_run(self, capsys):
        code, out, _ = run_cli(capsys, "eds", "--seeds", "1,-1,1", "--n", "12")
        assert code == 0
        doc = json.loads(out)
        table = dict((n, w) for n, w in doc["table"])
        assert [table[n] for n in range(5, 10)] == ["2", "-1", "-3", "-5", "7"]
        assert {c["name"] for c in doc["checks"]} == {"recurrence", "eds-property", "delta"}
        assert doc["passed"] and doc["window"] == "1..6"

    def test_tiny_table(self, capsys):
        code, out, _ = run_cli(capsys, "eds", "--seeds", "1,-1,1", "--n", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["window"] == "1..2"
        assert doc["passed"]

    def test_window_reaching_the_table_end(self, capsys):
        # the delta check over 1..6 needs W_1..W_11, not W_12 for beta(6,6)
        code, out, _ = run_cli(capsys, "eds", "--n=11", "--window=1..6")
        doc = json.loads(out)
        assert code == 0 and doc["passed"] and [c["name"] for c in doc["checks"]][-1] == "delta"

    def test_one_term_table_is_reported(self, capsys):
        code, out, _ = run_cli(capsys, "eds", "--n=1")
        assert code == 1
        doc = json.loads(out)
        assert doc["error"].startswith("IndexOutOfTable: W(2)") and not doc["passed"]
        assert doc["checks"] == []

    def test_table_too_short_is_reported(self, capsys):
        code, out, _ = run_cli(capsys, "eds", "--n=2")
        assert code == 1
        doc = json.loads(out)
        assert doc["error"].startswith("IndexOutOfTable: W(3)") and not doc["passed"]

    def test_window_with_zero_diagonal_fails_the_delta_check(self, capsys):
        code, out, _ = run_cli(capsys, "eds", "--window=-2..2")
        assert code == 1
        doc = json.loads(out)
        assert [(c["name"], c["worst_residual"]) for c in doc["checks"]] == [
            ("recurrence", "0"), ("eds-property", "0")
        ]
        assert doc["error"] == "ZeroDiagonal: entry (0,0): alpha(0,0) = 0 in G(0,0)" and not doc["passed"]
        assert doc["window"] == "-2..2"

    def test_zero_w2_rejected(self, capsys):
        # W_2 = 0 is refused where it divides, like W_3 = 0: a JSON error, exit 1
        code, out, err = run_cli(capsys, "eds", "--seeds", "0,1,1", "--n", "8")
        assert code == 1 and err == ""
        doc = json.loads(out)
        assert doc["error"] == "ZeroDivisor: W(6) needs division by W(2) = 0" and not doc["passed"]

    def test_float_seeds_are_refused(self, capsys):
        # as verify refuses float params in exact mode, named before the table is generated
        code, out, err = run_cli(capsys, "eds", "--seeds=0.1,-1,0.5", "--n=6")
        assert code == 1 and err == ""
        doc = json.loads(out)
        assert doc["error"] == (
            "DomainError: eds: exact mode needs exact seeds, but W_2, W_4 given as float; write each as p/q"
        )
        assert doc["seeds"] == [0.1, "-1", 0.5]
        assert "table" not in doc and doc["checks"] == [] and not doc["passed"]

    def test_float_seed_is_refused_by_verify_in_tolerance_mode_too(self, capsys):
        # the divisibility sequence is generated only from exact seeds, whatever the mode
        code, out, _ = run_cli(capsys, "verify", "--family=eds", "--params=w3=0.5", "--tolerance=1e-9")
        assert code == 1
        doc = json.loads(out)
        assert doc["error"] == (
            "DomainError: eds: exact mode needs exact seeds, but W_3 given as float; write each as p/q"
        )
        assert doc["checks"] == [] and not doc["passed"]

    def test_int_and_fraction_seeds_are_shown_as_parsed(self, capsys):
        code, out, _ = run_cli(capsys, "eds", "--seeds=1/2,3,-10/14", "--n=10")
        doc = json.loads(out)
        assert code == 0 and doc["passed"] and doc["seeds"] == ["1/2", "3", "-5/7"]

    def test_generation_failure_reported(self, capsys):
        code, out, _ = run_cli(capsys, "eds", "--seeds", "1,1,1", "--n", "12")
        assert code == 1
        doc = json.loads(out)
        assert "ZeroDivisor" in doc["error"]

    def test_value_past_the_digit_limit_is_reported(self, capsys):
        # W_n of these seeds passes the interpreter's digit limit for int
        # strings near n = 240: a JSON error, not a traceback
        code, out, _ = run_cli(capsys, "eds", "--seeds=1,4,4", "--n=250")
        assert code == 1
        doc = json.loads(out)
        limit = sys.get_int_max_str_digits()
        assert doc["error"] == f"DomainError: exact value past the {limit}-digit int str limit"
        assert "table" not in doc and not doc["passed"]

    def test_document_shape(self):
        doc = cmd_eds((Fraction(1), Fraction(-1), Fraction(1)), 12)
        assert doc["seeds"] == ["1", "-1", "1"]
        assert json.loads(json.dumps(doc)) == doc


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


_SCALARS = ("0", "1", "-1", "2", "1/3", "0.1", "0.5", "1e200", "1e999", "nan", "x")
_CHECKS = sorted({c for f in FAMILIES.values() for c in f.checks}) + ["counterexample", "bogus"]
_WINDOWS = st.builds(lambda lo, w: f"{lo}..{lo + w}", st.integers(-2, 3), st.integers(0, 3))
_VERIFY = st.tuples(
    st.sampled_from(("binomial", "gasper", "schlosser", "warnaar", "elliptic-sum",
                     "partial-theta", "eds", "nope")).map(lambda f: f"--family={f}"),
    st.lists(
        st.tuples(
            st.sampled_from(("a", "b", "c", "p", "q", "x", "y", "t", "x0", "b0",
                             "a0", "w2", "w3", "zz")),
            st.sampled_from(_SCALARS),
        ),
        max_size=2,
    ).map(lambda kv: "--params=" + ",".join(f"{k}={v}" for k, v in kv)),
    _WINDOWS.map(lambda w: f"--window={w}"),
    st.lists(st.sampled_from(_CHECKS), min_size=1, max_size=3, unique=True)
    .map(lambda c: "--checks=" + ",".join(c)),
    st.lists(
        st.sampled_from(("--tolerance=1e-9", "--tolerance=inf", "--tolerance=nan",
                         "--tolerance=-1", "--tolerance=0", "--tolerance=abc",
                         "--truncation-tail=1e-15", "--truncation-tail=2",
                         "--truncation-max=8", "--truncation-max=7")),
        max_size=2,
    ),
).map(lambda t: ("verify", *t[:4], *t[4]))
_EDS = st.tuples(
    st.lists(st.sampled_from(_SCALARS), min_size=2, max_size=4).map(lambda s: "--seeds=" + ",".join(s)),
    st.integers(-1, 12).map(lambda n: f"--n={n}"),
    st.lists(_WINDOWS.map(lambda w: f"--window={w}"), max_size=1),
).map(lambda t: ("eds", t[0], t[1], *t[2]))
_COUNTEREXAMPLE = st.sampled_from(("-1", "0", "1", "3", "0..2", "2..3", f"0..{2**63}", "x")).map(
    lambda k: ("counterexample", f"--k={k}")
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_VERIFY, _EDS, _COUNTEREXAMPLE))
def test_any_argv_ends_in_a_report_or_a_one_line_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        return
    doc = _strict_json(out.getvalue())
    assert doc["passed"] == (code == 0)
    for check in doc.get("checks", ()):
        if check["worst_residual"] == "nan":
            assert not check["pass"]
