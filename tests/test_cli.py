"""End-to-end tests of the command-line interface.

Everything runs in-process through main(argv) so exit codes and output can
be asserted without spawning subprocesses, except the closed-stdout test,
which needs a real pipe."""
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import Polynomial, assoc, by_name, cli, format_poly, polyalg
from hyperpoly.cli import main
from hyperpoly.polyalg import (EqualCertificate, MemberCertificate,
                               parse_scalar_literal, replay_member)


DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_tropical_tie_gives_an_interval(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--hf", "T",
                               "--poly", "T+(-2)", "--at=-2")
        assert code == 0
        assert out.strip() == "[-inf,-2]"

    def test_strict_max_gives_a_singleton(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--hf", "T",
                               "--poly", "T+(-2)", "--at=0")
        assert code == 0
        assert out.strip() == "{0}"

    def test_structured_payload(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--hf", "T", "--poly",
                               "T+(-2)", "--at=-2", "--format", "structured")
        payload = json.loads(out)
        assert code == 0
        assert payload["command"] == "eval"
        assert payload["value"] == "[-inf,-2]"


class TestMemberAndBoxes:
    def test_member_no_exits_1(self, capsys):
        code, out, _ = run_cli(capsys, "member", "--hf", "W",
                               "--poly", "T^3-T^2",
                               "--expr", "(T+1)*((T+1)*(T+1))")
        assert code == 1
        assert out.startswith("NO:")
        assert "root-obstruction" in out

    def test_member_yes_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "member", "--hf", "K",
                               "--poly", "T^2+1", "--expr", "(T+1)*(T+1)")
        assert code == 0
        assert out.startswith("YES:")

    def test_member_structured_replays(self, capsys):
        code, out, _ = run_cli(capsys, "member", "--hf", "K",
                               "--poly", "T^2+1", "--expr", "(T+1)*(T+1)",
                               "--format", "structured")
        cert = MemberCertificate.from_dict(json.loads(out))
        assert code == 0
        assert cert.verdict == "yes"
        assert replay_member(cert)

    def test_prod_box_display(self, capsys):
        code, out, _ = run_cli(capsys, "prod", "--hf", "K",
                               "--p", "T+1", "--q", "T+1")
        assert code == 0
        assert out.strip() == "[T^0: {1}; T^1: {0,1}; T^2: {1}]"

    def test_sum_box_marks_the_zero_exclusion(self, capsys):
        code, out, _ = run_cli(capsys, "sum", "--hf", "K",
                               "--p", "T+1", "--q", "T+1")
        assert code == 0
        assert "(zero selection excluded)" in out

    @pytest.mark.parametrize("hf,p,q", [
        ("K", "T", "T"), ("GF(5)", "T+1", "4T"), ("P", "T", "ph(1)T"),
        ("W", "T+1", "T-1"), ("S", "T^2+1", "-1"), ("T", "0T+1", "0T+1"),
        ("V", "T+1", "T+2"), ("K", "T^2+T", "T^2+1"),
    ])
    def test_sum_prints_the_box_equal_reads(self, capsys, hf, p, q):
        # sum prints the canonical box, the one equal compares for (p)+(q)
        code, out, _ = run_cli(capsys, "sum", "--hf", hf, "--p", p, "--q", q)
        assert code == 0
        code, text, _ = run_cli(capsys, "equal", "--hf", hf,
                                "--expr1", f"({p})+({q})",
                                "--expr2", f"({p})+({q})")
        assert code == 0
        assert f"both sides resolve to the box {out.strip()}\n" in text


class TestEqual:
    ARGS = ("equal", "--hf", "K",
            "--expr1", "(T+1)*((T+1)*(T^2+1))",
            "--expr2", "(T^2+1)*((T+1)*(T+1))")

    def test_unequal_structured_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--format", "structured")
        assert code == 1
        cert = EqualCertificate.from_dict(json.loads(out))
        assert cert.verdict == "unequal"
        assert cert.witness == "T^4+T+1" and cert.witness_side == 1
        assert replay_member(cert.member_in)
        assert cert.member_out.verdict == "no"

    def test_structured_output_is_byte_stable(self, capsys):
        _, first, _ = run_cli(capsys, *self.ARGS, "--format", "structured")
        _, second, _ = run_cli(capsys, *self.ARGS, "--format", "structured")
        assert first == second

    def test_coupled_self_comparison_is_undecided(self, capsys):
        code, out, _ = run_cli(capsys, "equal", "--hf", "T",
                               "--expr1", "(T^2+1)*((T+1)*(T+1))",
                               "--expr2", "(T^2+1)*((T+1)*(T+1))")
        assert code == 3
        assert out.startswith("UNDECIDED:")


# coefficients whose polynomials also parse inside an expression: no
# negative tropical values, which print in parentheses
CLI_LITERALS = {
    "K": ["0", "1"], "S": ["-1", "0", "1"], "W": ["-1", "0", "1"],
    "GF(5)": ["0", "1", "2", "3", "4"],
    "T": ["-inf", "0", "1/2", "1", "2"],
    "V": ["0", "1/2", "1", "2"],
    "P": ["0", "ph(0)", "ph(1/2)", "ph(1)", "ph(3/2)"],
}
CLI_INTERVALS = {"T": ["[0,inf)", "[-1,1]"], "V": ["[1/2,2]", "(0,1]"]}
CLI_COMMANDS = ["eval", "prod", "sum", "member", "equal", "quotients", "mult",
                "mult-set", "assoc-check", "pointwise"]


@st.composite
def cli_calls(draw):
    """argv of one command over one carrier, on polynomials of degree at
    most 2 and expressions of three leaves."""
    name = draw(st.sampled_from(sorted(CLI_LITERALS)))
    hf = by_name(name)
    elems = [parse_scalar_literal(hf, t) for t in CLI_LITERALS[name]]
    nonzero = [x for x in elems if not hf.is_zero(x)]

    def poly():
        coeffs = [draw(st.sampled_from(elems))
                  for _ in range(draw(st.integers(0, 2)))]
        return format_poly(Polynomial.of(
            hf, coeffs + [draw(st.sampled_from(nonzero))]))

    def expr():
        # phases as e^{i x pi}: the expression grammar splits on parentheses
        leaves = [re.sub(r"ph\(([^)]*)\)", r"e^{i\1pi}", poly())
                  for _ in range(3)]
        shape = draw(st.sampled_from(["({})*(({})*({}))", "(({})*({}))*({})",
                                      "(({})*({}))+({})", "({})+(({})*({}))"]))
        return shape.format(*leaves)

    def point():
        return hf.format_element(draw(st.sampled_from(elems)))

    def points():
        return "{" + ",".join(draw(st.lists(st.sampled_from(
            [hf.format_element(x) for x in elems]), min_size=1, max_size=3,
            unique=True))) + "}"

    cmd = draw(st.sampled_from(CLI_COMMANDS))
    if cmd == "eval":
        args = [f"--poly={poly()}", f"--at={point()}"]
    elif cmd in ("prod", "sum"):
        args = [f"--p={poly()}", f"--q={poly()}"]
    elif cmd == "member":
        args = [f"--poly={poly()}", f"--expr={expr()}"]
    elif cmd == "equal":
        args = [f"--expr1={expr()}", f"--expr2={expr()}"]
    elif cmd in ("quotients", "mult"):
        args = [f"--poly={poly()}", f"--root={point()}"]
    elif cmd == "mult-set":
        region = draw(st.sampled_from([points()]
                                      + CLI_INTERVALS.get(name, [])))
        args = [f"--poly={poly()}", f"--region={region}"]
    else:
        args = [f"--p={poly()}", f"--q={poly()}", f"--r={poly()}"]
        if cmd == "pointwise":
            args.append(f"--points={points()}")
    return [cmd, "--hf", name, *args]


class TestExitCodeContract:
    @given(cli_calls())
    @settings(max_examples=200, deadline=None)
    def test_generated_calls_exit_with_a_contract_code(self, argv):
        for fmt in ("human", "structured"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv + ["--format", fmt])
            assert code in (0, 1, 2, 3), (argv, err.getvalue())
            assert "error: internal" not in err.getvalue()


class TestErrorPaths:
    def test_unparseable_polynomial_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--hf", "K",
                               "--poly", "T^^2", "--at=1")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("hf,poly,message", [
        ("K", "T^-1+1", "bad term 'T^' in 'T^-1+1'"),
        ("K", "T^x", "bad term 'T^x' in 'T^x'"),
        ("GF(x)", "T+1", "unknown hyperfield 'GF(x)'"),
    ])
    def test_an_integer_read_names_what_it_read(self, capsys, hf, poly,
                                                message):
        code, out, err = run_cli(capsys, "eval", "--hf", hf, "--poly", poly,
                                 "--at", "1")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("hf,poly,at,message", [
        ("K", "T+1", "x", "bad K literal 'x'"),
        ("T", "T+1", "x", "bad T literal 'x'"),
        ("T", "T+1", "1/0", "bad T literal '1/0'"),
        ("V", "T+1", "x", "bad V literal 'x'"),
        ("V", "T+1", "1/0", "bad V literal '1/0'"),
        ("P", "T+ph(0)", "ph(x)", "bad phase literal 'ph(x)'"),
        ("P", "T+ph(0)", "ph(1/0)", "bad phase literal 'ph(1/0)'"),
        ("P", "T+ph(0)", "e^{ix pi}", "bad phase literal 'e^{ix pi}'"),
    ])
    def test_a_scalar_literal_names_its_carrier(self, capsys, hf, poly, at,
                                                message):
        code, out, err = run_cli(capsys, "eval", "--hf", hf, "--poly", poly,
                                 "--at", at)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_a_cayley_size_that_is_no_integer_is_named(self, capsys,
                                                        tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("x\n1 g\ng 1\n1\n")
        code, out, err = run_cli(capsys, "eval", "--hf", f"W(G,e):{path}",
                                 "--poly", "T+1", "--at", "1")
        assert (code, out) == (2, "")
        assert err == f"error: {path}: the table size 'x' is not an integer\n"

    def test_interval_region_needs_an_ordered_carrier(self, capsys):
        code, _, err = run_cli(capsys, "mult-set", "--hf", "S",
                               "--poly", "T^2-1", "--region", "[0,1]")
        assert code == 2
        assert "interval regions are supported over T and V" in err

    @pytest.mark.parametrize("region", ["[1]", "[1,2,3]"])
    def test_interval_region_needs_two_bounds(self, capsys, region):
        code, out, err = run_cli(capsys, "mult-set", "--hf", "V",
                                 "--poly", "T^2+3T+1", "--region", region)
        assert code == 2
        assert out == ""
        assert err == "error: interval region needs two bounds lo,hi\n"

    @pytest.mark.parametrize("cmd,flags", [
        ("member", ("--poly", "T^6+1", "--expr")),
        ("equal", ("--expr2", "T+1", "--expr1")),
        ("equal", ("--expr1", "T+1", "--expr2")),
    ])
    def test_out_of_resolve_scope_exits_3(self, capsys, cmd, flags):
        code, out, _ = run_cli(
            capsys, cmd, "--hf", "V", *flags,
            "((T+1)*((T+1)*(T+1)))*((T+1)*((T+2)*(T+1)))",
            "--format", "structured")
        payload = json.loads(out)
        assert code == 3 and payload["verdict"] == "undecided"
        steps = payload["steps" if cmd == "member" else "detail"]
        assert steps == [{"kind": "scope", "index": None,
                          "text": "product of two undetermined polynomial "
                                  "sets is out of scope"}]
        if cmd == "member":
            assert payload["method"] == "unsupported"

    def test_scan_of_an_infinite_carrier_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "assoc-scan", "--hf", "T",
                               "--max-deg", "1")
        assert code == 3
        assert err.startswith("undecided:")

    @pytest.mark.parametrize("deg", ["0", "-1"])
    def test_scan_below_degree_one_exits_2(self, capsys, deg):
        code, out, err = run_cli(capsys, "assoc-scan", "--hf", "K",
                                 f"--max-deg={deg}")
        assert code == 2
        assert out == ""
        assert err == f"error: max_deg must be at least 1, got {deg}\n"

    def test_unexpected_exception_exits_4_without_traceback(self, capsys,
                                                            monkeypatch):
        def crash(hf, args):
            raise RuntimeError("handler blew up\non two lines")

        monkeypatch.setattr(cli, "_cmd_eval", crash)
        code, out, err = run_cli(capsys, "eval", "--hf", "K",
                                 "--poly", "T+1", "--at=1")
        assert code == 4
        assert out == ""
        assert err == ("error: internal RuntimeError: "
                       "handler blew up on two lines\n")

    def test_closed_stdout_keeps_the_verdict_without_traceback(self):
        # 145 kB of output: the writer blocks on the full pipe, so closing
        # the read end after one line makes its pending write fail
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "hyperpoly", "assoc-scan", "--hf", "S",
             "--max-deg", "2", "--monic-only", "--all"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline().startswith(b"scan over S")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) in (0, 1)
        assert "Traceback" not in err and "BrokenPipe" not in err, err

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestMultiplicities:
    def test_mult_over_signs(self, capsys):
        code, out, _ = run_cli(capsys, "mult", "--hf", "S",
                               "--poly", "T^3-T", "--root=1")
        assert code == 0
        assert out.strip() == "1"

    def test_mult_set_on_phase_points(self, capsys):
        code, out, _ = run_cli(capsys, "mult-set", "--hf", "P",
                               "--poly", "T^2+ph(4/3)T+ph(2/3)",
                               "--region", "{ph(1/3),ph(0)}")
        assert code == 0
        assert out.strip() == "2"

    @pytest.mark.parametrize("region,count", [
        ("(-inf,-1]", "0"), ("(-inf,0]", "1"), ("[-inf,0]", "2"),
        ("[-oo,0]", "2"),
    ])
    def test_an_open_lower_end_excludes_the_tropical_zero(self, capsys,
                                                          region, count):
        # T^2+0T has the roots -inf and 0
        code, out, _ = run_cli(capsys, "mult-set", "--hf", "T",
                               "--poly", "T^2+0T", "--region", region)
        assert code == 0
        assert out.strip() == count

    @pytest.mark.parametrize("region,message", [
        ("[-inf,3]", "bad V literal '-inf'"),
        ("[-1,3]", "-1 is not a nonnegative rational"),
    ], ids=["[-inf,3]", "[-1,3]"])
    def test_a_region_bound_is_a_scalar_of_the_carrier(self, capsys, region,
                                                       message):
        # -inf and -oo read as the zero of T only; V has no negative scalar
        code, out, err = run_cli(capsys, "mult-set", "--hf", "V",
                                 "--poly", "T^2+3T+1", "--region", region)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_an_open_interval_at_the_tropical_zero_is_empty(self, capsys):
        code, out, err = run_cli(capsys, "mult-set", "--hf", "T",
                                 "--poly", "T^2+0T", "--region", "(-inf,-inf]")
        assert code == 2
        assert out == ""
        assert err == "error: empty interval '(-inf,-inf]'\n"

    @pytest.mark.parametrize("hf", ["T", "V"])
    def test_a_constant_has_no_root_in_any_region(self, capsys, hf):
        # V decides regions only up to degree 2, but degree 0 has no root
        code, out, err = run_cli(capsys, "mult-set", "--hf", hf,
                                 "--poly", "2", "--region", "[0,1]")
        assert (code, out, err) == (0, "0\n", "")

    def test_quotients_listing(self, capsys):
        code, out, _ = run_cli(capsys, "quotients", "--hf", "S",
                               "--poly", "T^3-T", "--root=1")
        assert code == 0
        assert "T^2" in out

    def test_quotients_of_a_non_root_say_none(self, capsys):
        code, out, _ = run_cli(capsys, "quotients", "--hf", "K",
                               "--poly", "T^3+1", "--root=0")
        assert code == 0
        assert out.strip() == "no quotients"

    def test_quotients_of_a_non_root_structured(self, capsys):
        code, out, _ = run_cli(capsys, "quotients", "--hf", "S",
                               "--poly", "T^2+1", "--root=1",
                               "--format", "structured")
        payload = json.loads(out)
        assert code == 0
        assert payload["domains"] is None
        assert payload["empty"] is True
        assert payload["representatives"] == []


class TestTropicalCommands:
    def test_trop_roots(self, capsys):
        code, out, _ = run_cli(capsys, "trop-roots", "--hf", "T",
                               "--poly", "T^2+1T+(-5)")
        assert code == 0
        assert out.strip() == "{1, -6}"

    def test_trop_box_with_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "trop-box", "--hf", "T",
                               "--roots", "1,1", "--certify")
        assert code == 0
        assert "[T^0: {2}; T^1: [-inf,1]; T^2: {0}]" in out
        assert "iterated union equals the box: True" in out

    def test_trop_roots_rejects_other_carriers(self, capsys):
        code, _, err = run_cli(capsys, "trop-roots", "--hf", "K",
                               "--poly", "T^2+1")
        assert code == 2
        assert "tropical" in err

    def test_trop_box_rejects_other_carriers(self, capsys):
        code, out, err = run_cli(capsys, "trop-box", "--hf", "S",
                                 "--roots", "1,2")
        assert code == 2
        assert out == ""
        assert err == "error: trop-box runs over the tropical carrier\n"

    def test_reducible_over_the_triangle_carrier_is_undecided(self, capsys):
        code, out, _ = run_cli(capsys, "reducible", "--hf", "V",
                               "--poly", "T^2+3T+1")
        assert code == 3
        assert out.startswith("UNDECIDED:")


class TestStructureChecks:
    def test_axioms_pass_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "axioms", "--hf", "K")
        assert code == 0
        assert "pass  reversibility" in out

    def test_ddist_failure_exits_1(self, capsys):
        code, out, _ = run_cli(capsys, "ddist", "--hf", "W")
        assert code == 1
        assert "not doubly distributive" in out
        assert "a=-1, b=-1, c=-1, d=-1" in out

    @pytest.mark.parametrize("extra,head", [
        ([], "axioms for P (probe, 14 points)"),
        (["--points", "{ph(1/5)}"], "axioms for P (probe, 15 points)"),
    ])
    def test_points_add_a_probe_point_over_the_phases(self, capsys, extra,
                                                      head):
        code, out, _ = run_cli(capsys, "axioms", "--hf", "P", *extra)
        assert (code, out.splitlines()[0]) == (0, head)

    @pytest.mark.parametrize("name", ["T", "V"])
    def test_points_reach_the_default_probe(self, capsys, monkeypatch, name):
        # the T and V grids stay at 14 points, so the spy shows the point
        real, specs = cli.default_probe, []

        def spy(hf, extra=()):
            specs.append(real(hf, extra))
            return specs[-1]

        monkeypatch.setattr(cli, "default_probe", spy)
        code, _, _ = run_cli(capsys, "axioms", "--hf", name,
                             "--points", "{7/3}")
        (spec,), hf = specs, by_name(name)
        assert code == 0
        assert hf.parse_scalar("7/3") in spec.points
        assert len(spec.points) == 14

    def test_interval_points_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "axioms", "--hf", "T",
                                 "--points", "[0,1]")
        assert (code, out) == (2, "")
        assert err == "error: --points needs a finite point list {a,b,...}\n"

    @pytest.mark.parametrize("command", ["axioms", "ddist"])
    def test_points_over_a_finite_carrier_are_read(self, capsys, command):
        # a finite carrier is checked exhaustively, so a valid list
        # changes nothing, but a literal outside the carrier exits 2
        plain = run_cli(capsys, command, "--hf", "K")
        assert run_cli(capsys, command, "--hf", "K",
                       "--points", "{1,0}") == plain
        code, out, err = run_cli(capsys, command, "--hf", "K",
                                 "--points", "{7}")
        assert (code, out) == (2, "")
        assert err == "error: 7 is not in the carrier of K\n"

    def test_mode_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["axioms", "--hf", "T", "--mode", "probe"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode probe" in \
            capsys.readouterr().err

    def test_assoc_scan_counterexample_exits_1(self, capsys):
        code, out, _ = run_cli(capsys, "assoc-scan", "--hf", "S",
                               "--max-deg", "1")
        assert code == 1
        assert "1 counterexample(s)" in out
        assert "NOT ASSOCIATIVE: (T+1, T+1, T-1) over S" in out

    @pytest.mark.parametrize("hf,deg,golden", [
        ("K", 2, "assoc_scan_K_deg2.json"),
        ("S", 1, "assoc_scan_S_deg1.json"),
        ("W", 1, "assoc_scan_W_deg1.json"),
        ("GF(3)", 2, "assoc_scan_GF3_deg2.json"),
    ])
    def test_assoc_scan_all_matches_golden_output(self, capsys, hf, deg,
                                                  golden):
        # payloads recorded before the scan moved to integer codes
        code, out, _ = run_cli(capsys, "assoc-scan", "--hf", hf,
                               "--max-deg", str(deg), "--all",
                               "--format", "structured")
        assert code == (0 if hf == "GF(3)" else 1)
        assert out == (DATA / golden).read_text()

    def test_one_one_structured_certificate_replays(self, capsys):
        code, out, _ = run_cli(capsys, "one-one", "--hf", "K",
                               "--format", "structured")
        payload = json.loads(out)
        assert code == 0
        assert payload["applicable"] is True
        cert = EqualCertificate.from_dict(payload["certificate"])
        assert cert.verdict == "unequal"
        assert replay_member(cert.member_in)
        assert replay_member(cert.member_out)


SET_SHAPE_CORPUS = [
    # (golden file stem, exit code, argv): finite sets, interval unions and
    # arc unions, each through the commands that print or consume them
    ("eval_P_arcs_and_zero", 0,
     ["eval", "--hf", "P", "--poly", "T+ph(1)", "--at", "ph(0)"]),
    ("eval_P_open_arc", 0,
     ["eval", "--hf", "P", "--poly", "T^2+ph(1/2)T+ph(1)", "--at", "ph(1/4)"]),
    ("eval_T_tie", 0, ["eval", "--hf", "T", "--poly", "T+(-2)", "--at=-2"]),
    ("prod_V", 0, ["prod", "--hf", "V", "--p", "T+1", "--q", "T+2"]),
    ("prod_S", 0, ["prod", "--hf", "S", "--p", "T+1", "--q", "T-1"]),
    ("sum_P", 0,
     ["sum", "--hf", "P", "--p", "T+ph(1/2)", "--q", "T+ph(3/2)"]),
    ("sum_W", 0, ["sum", "--hf", "W", "--p", "T+1", "--q", "T-1"]),
    # sums whose raw cells are not canonical: a lone top cell holding 0,
    # and a cancelled top cell
    ("sum_K_lone_top", 0, ["sum", "--hf", "K", "--p", "T", "--q", "T"]),
    ("sum_GF5_cancelled_top", 0,
     ["sum", "--hf", "GF(5)", "--p", "T+1", "--q", "4T"]),
    ("sum_P_lone_top", 0, ["sum", "--hf", "P", "--p", "T", "--q", "ph(1)T"]),
    ("member_K_yes", 0,
     ["member", "--hf", "K", "--poly", "T^2+1", "--expr", "(T+1)*(T+1)"]),
    ("member_T_no", 1,
     ["member", "--hf", "T", "--poly", "T^2+2T+2", "--expr", "(T+1)*(T+1)"]),
    ("equal_K_unequal", 1,
     ["equal", "--hf", "K", "--expr1", "(T+1)*(T+1)", "--expr2", "(T^2+1)"]),
    ("equal_T_equal", 0,
     ["equal", "--hf", "T", "--expr1", "(T+1)*(T+2)",
      "--expr2", "(T+2)*(T+1)"]),
    ("equal_S_finite_sides", 1,
     ["equal", "--hf", "S", "--expr1", "((T+1)*(T-1))*((T+1)*(T-1))",
      "--expr2", "(T+1)*((T-1)*((T+1)*(T-1)))"]),
    ("equal_W_sum_of_products", 1,
     ["equal", "--hf", "W", "--expr1", "((T+1)*(T+1))+((T+1)*(T+1))",
      "--expr2", "(T+1)*((T+1)*(T+1))"]),
    ("quotients_P", 0,
     ["quotients", "--hf", "P", "--poly", "T^3+ph(1)", "--root", "ph(0)"]),
    ("quotients_GF5", 0,
     ["quotients", "--hf", "GF(5)", "--poly", "T^2+4", "--root", "1"]),
    ("mult_set_V_interval", 0,
     ["mult-set", "--hf", "V", "--poly", "T^2+T+1", "--region", "[1/2,2]"]),
    ("mult_set_K_finite", 0,
     ["mult-set", "--hf", "K", "--poly", "T^3+T+1", "--region", "{1}"]),
    ("axioms_W", 0, ["axioms", "--hf", "W"]),
    ("axioms_T_probe", 0, ["axioms", "--hf", "T"]),
    ("axioms_K", 0, ["axioms", "--hf", "K"]),
    ("axioms_S", 0, ["axioms", "--hf", "S"]),
    ("axioms_GF5", 0, ["axioms", "--hf", "GF(5)"]),
    ("axioms_V_probe", 0, ["axioms", "--hf", "V"]),
    ("axioms_P_probe", 0, ["axioms", "--hf", "P"]),
    ("ddist_S", 0, ["ddist", "--hf", "S"]),
    ("ddist_W", 1, ["ddist", "--hf", "W"]),
    ("ddist_T_probe", 0, ["ddist", "--hf", "T"]),
    # the counterexample text over the continuous carriers, and the
    # exhaustive code-table path of a 13-element field
    ("ddist_V_probe", 1, ["ddist", "--hf", "V"]),
    ("ddist_P_probe", 1, ["ddist", "--hf", "P"]),
    ("ddist_GF13", 0, ["ddist", "--hf", "GF(13)"]),
    ("trop_box_certified", 0,
     ["trop-box", "--hf", "T", "--roots", "1,1,2", "--certify"]),
    ("one_one_W", 0, ["one-one", "--hf", "W"]),
    # every value-shape pair and coupled-solver exit of polyalg
    ("equal_T_box_vs_coupled", 1,
     ["equal", "--hf", "T", "--expr1", "(T+1)*((T+1)*(T+1))",
      "--expr2", "(T^2+1)*(T+1)"]),
    ("equal_V_coupled_pair_undecided", 3,
     ["equal", "--hf", "V", "--expr1", "(T+1)*((T+1)*(T+1))",
      "--expr2", "((T+1)*(T+1))*(T+1)"]),
    ("equal_K_coupled_vs_box", 1,
     ["equal", "--hf", "K", "--expr1", "(T+1)*((T+1)*(T+1))",
      "--expr2", "(T^3+T^2+T+1)"]),
    ("member_S_chain", 0,
     ["member", "--hf", "S", "--poly", "T^3-T^2-T+1",
      "--expr", "(T-1)*((T+1)*(T-1))"]),
    ("member_V_single_unknown", 0,
     ["member", "--hf", "V", "--poly", "T^4+T^3+2T^2+T+1",
      "--expr", "(T^2+1)*((T+1)*(T+1))"]),
    ("member_V_unsupported", 3,
     ["member", "--hf", "V", "--poly", "T^4+T^3+2T^2+T+1",
      "--expr", "(T^2+1)*((T^2+T+1)+(T^2+T+1))"]),
    ("member_T_degree", 1,
     ["member", "--hf", "T", "--poly", "0T^3+1T^2+1T+1",
      "--expr", "(0T^2+0)*((0T+0)*(0T+0))"]),
    # enumerated equality, the scalar coupled product, and the tropical
    # multiplicity, root and hypersum paths
    ("equal_K_enumerated_equal", 0,
     ["equal", "--hf", "K", "--expr1", "(T+1)*((T+1)*(T+1))",
      "--expr2", "((T+1)*(T+1))*(T+1)"]),
    # the separating cell pins T^1 to 0, and every other first sample is 0
    # too, so the witness takes a nonzero coefficient elsewhere
    ("equal_K_pinned_zero_fallback", 1,
     ["equal", "--hf", "K", "--expr1", "(T+1)+(T+1)",
      "--expr2", "(T+1)+(1)"]),
    ("member_W_scaled_coupled", 0,
     ["member", "--hf", "W", "--poly=-T^3-1",
      "--expr", "(-1)*((T+1)*((T+1)*(T+1)))"]),
    ("mult_T_neg_inf", 0,
     ["mult", "--hf", "T", "--poly", "0T^3+1T^2", "--root=-inf"]),
    ("mult_set_T_interval", 0,
     ["mult-set", "--hf", "T", "--poly", "0T^2+1T+(-5)",
      "--region", "[0,inf)"]),
    ("trop_roots_T", 0,
     ["trop-roots", "--hf", "T", "--poly", "T^2+1T+(-5)"]),
    ("prod_T_tie", 0, ["prod", "--hf", "T", "--p", "0T+1", "--q", "0T+1"]),
    # finite quotients from the backward chain walk, sampled quotients, the
    # recursive multiplicity, and the assoc-check and pointwise commands
    ("quotients_W_three", 0,
     ["quotients", "--hf", "W", "--poly", "T^3+T^2+T+1", "--root=-1"]),
    ("quotients_K_filtered", 0,
     ["quotients", "--hf", "K", "--poly", "T^4+T^3+T+1", "--root", "1"]),
    ("quotients_V_sampled", 0,
     ["quotients", "--hf", "V", "--poly", "T^3+2T^2+2T+1", "--root", "1"]),
    ("mult_W_four", 0,
     ["mult", "--hf", "W", "--poly", "T^4+T^3+T+1", "--root", "1"]),
    ("assoc_check_S_unequal", 1,
     ["assoc-check", "--hf", "S", "--p", "T+1", "--q", "T+1", "--r=T-1"]),
    ("assoc_check_V_search", 1,
     ["assoc-check", "--hf", "V", "--p", "T+1", "--q", "T+2", "--r", "T+3"]),
    ("pointwise_T_ties", 0,
     ["pointwise", "--hf", "T", "--p", "0T+1", "--q", "0T+1",
      "--r", "0T+(-1)", "--points", "{-1,0,1}"]),
    # the Fourier-Motzkin factor search: every strict-maximum system of the
    # first is infeasible, and the second factors with a -inf coefficient
    ("reducible_T_infeasible", 1,
     ["reducible", "--hf", "T", "--poly", "0T^2+(-1)T+(-1)"]),
    ("reducible_T_neg_inf_factor", 0,
     ["reducible", "--hf", "T", "--poly", "0T^2+1T"]),
    # the inner factor's top cell holds only zero
    ("member_K_inner_degree", 1,
     ["member", "--hf", "K", "--poly", "T^2+1",
      "--expr", "(T+1)*((T^2+1)+(T^2))"]),
]


class TestCertificatesWrittenOnce:
    """Membership certificates are written only for the answers returned:
    the separator search compares decisions, not certificates."""

    @pytest.fixture
    def written(self, monkeypatch):
        calls = []
        real = polyalg._member_in_resolved

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(polyalg, "_member_in_resolved", spy)
        return calls

    def comparisons(self, capsys, *triple):
        code, out, _ = run_cli(capsys, "assoc-check", "--hf", "V",
                               *triple, "--format", "structured")
        return code, json.loads(out)["comparisons"]

    def test_undecided_search_writes_none(self, capsys, written):
        code, comps = self.comparisons(capsys, "--p=2T^2+2T+3", "--q=3T+2",
                                       "--r=1/2T^2+3T+1")
        assert code == 3
        assert [c["verdict"] for c in comps] == ["undecided"] * 3
        assert written == []

    def test_each_unequal_comparison_writes_two(self, capsys, written):
        code, comps = self.comparisons(capsys, "--p", "T+1", "--q", "T+2",
                                       "--r", "T+3")
        unequal = [c for c in comps if c["verdict"] == "unequal"]
        assert code == 1 and unequal
        assert len(written) == 2 * len(unequal)

    @pytest.fixture
    def rendered(self, monkeypatch):
        """How often chain_witness runs and a step record renders its text."""
        counts = {"chain_witness": 0, "text": 0}
        real_witness = polyalg.chain_witness
        real_text = polyalg.StepRecord.text.fget

        def witness(*args):
            counts["chain_witness"] += 1
            return real_witness(*args)

        def text(record):
            counts["text"] += 1
            return real_text(record)

        monkeypatch.setattr(polyalg, "chain_witness", witness)
        monkeypatch.setattr(polyalg.StepRecord, "text", property(text))
        return counts

    def test_undecided_search_builds_no_witness_and_no_text(self, capsys,
                                                            rendered):
        code, _ = self.comparisons(capsys, "--p=2T^2+2T+3", "--q=3T+2",
                                   "--r=1/2T^2+3T+1")
        assert code == 3
        assert rendered == {"chain_witness": 0, "text": 0}

    def test_only_written_decisions_render(self, capsys, rendered):
        code, comps = self.comparisons(capsys, "--p", "T+1", "--q", "T+2",
                                       "--r", "T+3")
        subs = [c[side] for c in comps if c["verdict"] == "unequal"
                for side in ("member_in", "member_out")]
        assert code == 1 and subs
        assert rendered["chain_witness"] == sum(
            s["method"] == "chain" and s["verdict"] == "yes" for s in subs)
        assert rendered["text"] == sum(len(s["steps"]) for s in subs)

    @pytest.mark.parametrize("triple", [("T+1", "T+2", "T^2+T+1"),
                                        ("T+1", "2T+1", "T+1/2"),
                                        ("T^2+1", "T^2+2T+3", "T^2+T+1")])
    def test_search_stops_at_its_first_separator(self, capsys, monkeypatch,
                                                 triple):
        """Each comparison decides every candidate tried on the side it was
        not drawn from, and its own side only after a no: here only the
        separator gets a no.  The last member sample drawn holds it."""
        decided, drawn, comparisons = [], [], []
        for cls in (polyalg.PolyBox, polyalg.CoupledValue):
            def decide(value, p, real=cls.decide):
                decided.append(p)
                return real(value, p)
            monkeypatch.setattr(cls, "decide", decide)
        real_sample = polyalg.PolyBox.sample_members

        def sample(box, *args):
            drawn.append(real_sample(box, *args))
            return drawn[-1]

        real_equal = assoc.equal_values

        def equal_values(*args):
            decided.clear()
            drawn.clear()
            cert = real_equal(*args)
            comparisons.append((cert, len(decided), drawn[-1:]))
            return cert

        monkeypatch.setattr(polyalg.PolyBox, "sample_members", sample)
        monkeypatch.setattr(assoc, "equal_values", equal_values)
        code, _ = self.comparisons(
            capsys, *(f"--{k}={v}" for k, v in zip("pqr", triple)))
        assert code == 1
        cert, decides, last = comparisons[-1]
        assert cert.verdict == "unequal" and cert.detail[0].kind == "search"
        tried = int(re.search(r"among (\d+) sampled",
                              cert.detail[0].text).group(1))
        assert decides == tried + 1
        assert cert.witness in [str(p) for p in last[0]]


class TestSetShapeGoldenCorpus:
    @pytest.mark.parametrize("stem,expected_code,argv", SET_SHAPE_CORPUS,
                             ids=[case[0] for case in SET_SHAPE_CORPUS])
    def test_structured_output_matches_golden_file(self, capsys, stem,
                                                   expected_code, argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "structured")
        assert code == expected_code
        assert out == (DATA / f"sets_{stem}.json").read_text()


class TestRepro:
    def test_single_criterion(self, capsys):
        code, out, _ = run_cli(capsys, "repro", "--criterion", "3")
        assert code == 0
        assert "PASS" in out
        assert "1/1 passed" in out

    def test_single_criterion_structured(self, capsys):
        code, out, _ = run_cli(capsys, "repro", "--criterion", "3",
                               "--format", "structured")
        payload = json.loads(out)
        assert code == 0
        assert payload["passed"] is True
        assert len(payload["results"]) == 1

    @pytest.mark.parametrize("number", ["0", "-1", "15"])
    def test_criterion_outside_the_range_exits_2(self, capsys, number):
        code, out, err = run_cli(capsys, "repro", f"--criterion={number}")
        assert code == 2
        assert out == ""
        assert err == f"error: criterion must be in 1..14, got {number}\n"
