import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eleech
from eleech.cli import main


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [[], ["codes"], ["lattice"], ["diagram"], ["isom"],
                                  ["reduce"], ["relations"]],
                         ids=["none", "codes", "lattice", "diagram", "isom", "reduce", "relations"])
def test_missing_subcommand_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: eleech")
    usage, error = err.rstrip().rsplit("\n", 1)
    assert "{" in usage  # the usage line lists the choices
    assert error.endswith("the following arguments are required: "
                          + ("subcommand" if argv else "command"))
    if argv == ["relations"]:  # and so from the shell
        src = str(Path(eleech.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-m", "eleech.cli", *argv], capture_output=True,
                             text=True, env=env, timeout=60)
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr.startswith("usage: eleech")
        assert run.stderr.rstrip().endswith("required: subcommand")


def test_codes_dump_c4(capsys):
    assert main(["codes", "dump", "--code", "c4"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 9
    assert all(len(line.split()) == 4 for line in out)


def test_lattice_shell_e8(tmp_path, capsys):
    out = tmp_path / "e8.txt"
    assert main(["lattice", "shell", "--lattice", "e8", "--norm", "-3",
                 "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if l.strip()]
    assert len(lines) == 240


def test_lattice_shell_bad_norm():
    assert main(["lattice", "shell", "--lattice", "e8", "--norm", "-5"]) == 2


def test_diagram_dump(capsys):
    assert main(["diagram", "dump"]) == 0
    out = capsys.readouterr().out
    assert "a [point]" in out
    assert "incidence:" in out


def test_diagram_check_passes(capsys):
    assert main(["diagram", "check"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("RESULT: PASS")


def test_isom_verify_writes_c(tmp_path, capsys):
    out = tmp_path / "c.txt"
    assert main(["isom", "verify", "--out", str(out)]) == 0
    assert "theta_power: 3\n" in capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "f0cc8f0106c30c1b5f72015bb04ba1ff552019c841910d9fa7168eca004d659f")


def test_isom_verify_rejects_bad_e1(tmp_path, capsys):
    from eleech.isomorphism import load_e1
    from eleech.textio import format_matrix
    from eleech.rings import OMEGA

    e1 = list(load_e1())
    e1[2] = tuple(OMEGA * x for x in e1[2])
    bad = tmp_path / "bad_e1.txt"
    bad.write_text(format_matrix(e1))
    assert main(["isom", "verify", "--e1", str(bad)]) == 1
    assert capsys.readouterr().out.strip().endswith("RESULT: FAIL")


def test_reduce_check_corrupted_certificate(tmp_path, diagram, generators, capsys):
    from eleech.reduction import HeightReducer, ReductionCertificate

    red = HeightReducer(diagram)
    cert = red.reduce(generators[2], (), max_perturb=0)
    bad = ReductionCertificate(cert.target, list(cert.steps), cert.terminal)
    k, eps = bad.steps[0][1], bad.steps[0][2]
    bad.steps[0] = ("node", (k + 1) % 26, eps)
    (tmp_path / "g03.cert").write_text(bad.serialize())
    assert main(["reduce", "check", str(tmp_path)]) == 1
    assert capsys.readouterr().out.strip().endswith("RESULT: FAIL")


def test_reduce_check_valid_certificate(tmp_path, diagram, generators, capsys):
    from eleech.reduction import HeightReducer

    red = HeightReducer(diagram)
    for j in (3, 4):
        cert = red.reduce(generators[j - 1], (), max_perturb=0)
        (tmp_path / f"g{j:02d}.cert").write_text(cert.serialize())
    assert main(["reduce", "check", str(tmp_path)]) == 0


def test_reduce_check_malformed_certificate_is_bad(tmp_path, capsys):
    (tmp_path / "g01.cert").write_text("target: 1,0\nterminal: node=1 unit=1\n")
    assert main(["reduce", "check", str(tmp_path)]) == 1
    assert capsys.readouterr().out == "checked: 1\nfailures: 1\nbad: g01.cert\nRESULT: FAIL\n"


def test_reduce_check_undecodable_certificate_is_bad(tmp_path, capsys):
    (tmp_path / "g01.cert").write_bytes(b"\xff\xfe\x00")
    assert main(["reduce", "check", str(tmp_path)]) == 1
    assert capsys.readouterr().out == "checked: 1\nfailures: 1\nbad: g01.cert\nRESULT: FAIL\n"


def test_reduce_check_ties_file_to_generator(tmp_path, diagram, generators, capsys):
    from eleech.reduction import HeightReducer

    text = HeightReducer(diagram).reduce(generators[2], (), max_perturb=0).serialize()
    for name in ("g03.cert", "g04.cert", "x03.cert"):
        (tmp_path / name).write_text(text)
    assert main(["reduce", "check", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert out == "checked: 3\nfailures: 2\nbad: g04.cert\nbad: x03.cert\nRESULT: FAIL\n"


def test_reduce_check_empty_dir_usage_error(tmp_path):
    assert main(["reduce", "check", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv", [
    ["reduce", "check", "{missing}"],
    ["isom", "verify", "--e1", "{missing}"],
    ["isom", "verify", "--e2", "{missing}"],
    ["isom", "search", "--shell", "{missing}"],
], ids=["reduce_check_dir", "isom_verify_e1", "isom_verify_e2", "isom_search_shell"])
def test_missing_input_is_io_error(argv, tmp_path, capsys):
    missing = str(tmp_path / "missing")
    assert main([a.format(missing=missing) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and missing in err and err.count("\n") == 1


@pytest.mark.parametrize("argv, text", [
    (["isom", "verify", "--e1", "{path}"], "x,y 1,0\n"),
    (["isom", "verify", "--e2", "{path}"], "1,0 2\n"),
    (["isom", "search", "--shell", "{path}"], "x,y\n"),
    (["isom", "verify", "--e1", "{path}"], "1,0 0,0\n"),
    (["isom", "search", "--shell", "{path}"], "3,0 3,0\n"),
], ids=["isom_verify_e1", "isom_verify_e2", "isom_search_shell", "isom_verify_e1_width",
        "isom_search_shell_width"])
def test_malformed_input_is_io_error(argv, text, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert main([a.format(path=path) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}:1: ") and err.count("\n") == 1


def test_undecodable_input_is_io_error(tmp_path, capsys):
    path = tmp_path / "e1.txt"
    path.write_bytes(b"\xff\xfe\x00")
    assert main(["isom", "verify", "--e1", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_undecodable_data_file_is_io_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "e1.txt"
    path.write_bytes(b"\xff\xfe\x00")
    monkeypatch.setenv("ELEECH_DATA_DIR", str(tmp_path))
    assert main(["isom", "verify"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("name, argv, edit", [
    ("e1.txt", ["isom", "verify"], lambda row: row + " x,y"),
    ("leech_zbasis.txt", ["reduce", "run", "--out", "{out}"], lambda row: row.rsplit(" ", 1)[0]),
    ("leech_zbasis.txt", ["reduce", "run", "--out", "{out}"], lambda row: "1,0" + row[3:]),
], ids=["e1_entry", "zbasis_width", "zbasis_not_leech"])
def test_malformed_data_file_is_io_error(name, argv, edit, tmp_path, monkeypatch, capsys):
    from eleech.textio import data_text

    lines = data_text(name).splitlines()
    lines[-1] = edit(lines[-1])
    (tmp_path / name).write_text("\n".join(lines) + "\n")
    monkeypatch.setenv("ELEECH_DATA_DIR", str(tmp_path))
    assert main([a.format(out=tmp_path / "out") for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {name}:{len(lines)}: ")


@pytest.mark.parametrize("row", [
    "3,0 3,0" + " 0,0" * 10,           # norm -6, but z sums to 2 mod theta
    "3,0 -3,0 3,0 -3,0" + " 0,0" * 8,  # a Leech vector of norm -12
], ids=["off_the_lattice", "wrong_norm"])
def test_shell_row_not_in_the_first_shell_is_io_error(row, tmp_path, capsys):
    path = tmp_path / "shell.txt"
    path.write_text("3,0 -3,0" + " 0,0" * 10 + "\n" + row + "\n")
    assert main(["isom", "search", "--shell", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}:2: ") and err.count("\n") == 1


def test_shell_without_simplex_fails(tmp_path, capsys):
    path = tmp_path / "shell.txt"
    path.write_text(" ".join(["3,0", "-3,0"] + ["0,0"] * 10) + "\n")
    assert main(["isom", "search", "--shell", str(path)]) == 1
    assert capsys.readouterr().out.endswith("RESULT: FAIL\n")


@pytest.mark.parametrize("edit", [
    lambda lines: [l for l in lines if not l.startswith("d3 ")],
    lambda lines: lines + ["d3 1 2 0"],
    lambda lines: lines + ["x9 1 2 0"],
    lambda lines: [("d3 0 3 0" if l.startswith("d3 ") else l) for l in lines],
    lambda lines: [("d3 1 2" if l.startswith("d3 ") else l) for l in lines],
    lambda lines: [("d3 1 2 x" if l.startswith("d3 ") else l) for l in lines],
    lambda lines: [("c1 0 0 1" if l.startswith("c1 ") else l) for l in lines],
], ids=["missing", "duplicate", "unknown", "zero", "short", "not_int", "shared_triple"])
def test_bad_labeling_is_an_error(edit, tmp_path, monkeypatch, capsys):
    from eleech import checks
    from eleech.textio import data_text

    lines = edit(data_text("plane_labeling.txt").splitlines())
    (tmp_path / "plane_labeling.txt").write_text("\n".join(lines) + "\n")
    monkeypatch.setenv("ELEECH_DATA_DIR", str(tmp_path))
    for sub in ("check", "dump"):
        assert main(["diagram", sub]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: plane_labeling.txt: ")
    monkeypatch.setattr(checks, "REGISTRY", {n: checks.REGISTRY[n] for n in ("codes", "diagram")})
    assert main(["verify-all"]) == 1
    out = capsys.readouterr().out
    assert "codes: ok\ndiagram: FAIL\nerror: diagram: InputError: plane_labeling.txt: " in out


#: sha256 of each of the 50 certificates, pinned when they were first written
PINNED_CERTIFICATES = Path(__file__).with_name("data") / "certificates.sha256"


def test_reduce_run_writes_all_certificates(tmp_path, capsys):
    out = tmp_path / "certs"
    assert main(["reduce", "run", "--out", str(out)]) == 0
    files = sorted(out.glob("*.cert"))
    assert len(files) == 50
    want = dict(line.split()[::-1] for line in PINNED_CERTIFICATES.read_text().splitlines()
                if not line.startswith("#"))
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}
    assert got == want
    assert main(["reduce", "check", str(out)]) == 0


def test_verify_all_passes(capsys):
    assert main(["verify-all"]) == 0
    *lines, elapsed, result = capsys.readouterr().out.splitlines()
    assert lines == [f"{key}: ok" for key in (
        "codes", "diagram", "automorphisms", "lattices_fast", "leech_shell_196560_two_methods",
        "isomorphism", "generation_50_certificates", "min_height_26_nodes", "relations")]
    assert elapsed.startswith("elapsed_seconds: ")
    assert result == "RESULT: PASS"


def test_verify_all_reports_a_raising_check(monkeypatch, capsys):
    from eleech import checks

    def boom(ctx):
        raise RuntimeError("witnesses do not cover")

    registry = {"codes": checks.REGISTRY["codes"], "rad_m666": ("relations", boom)}
    monkeypatch.setattr(checks, "REGISTRY", registry)
    assert main(["verify-all"]) == 1
    out = capsys.readouterr().out
    assert "codes: ok\nrelations: FAIL\nerror: rad_m666: RuntimeError: witnesses do not cover\n" in out
    assert out.strip().endswith("RESULT: FAIL")


def test_data_dir_override(tmp_path, monkeypatch):
    from eleech.textio import data_text

    (tmp_path / "plane_labeling.txt").write_text("# override marker\n")
    monkeypatch.setenv("ELEECH_DATA_DIR", str(tmp_path))
    assert data_text("plane_labeling.txt") == "# override marker\n"
    monkeypatch.delenv("ELEECH_DATA_DIR")
    assert "a " in data_text("plane_labeling.txt")


def test_diagram_check_deterministic(capsys):
    assert main(["diagram", "check"]) == 0
    first = capsys.readouterr().out
    assert main(["diagram", "check"]) == 0
    second = capsys.readouterr().out
    assert first == second
