import subprocess
import sys
from contextlib import contextmanager

import pytest

from hnfkit.cli import main
from hnfkit.intmat import (
    HermiteBasis,
    IntMat,
    format_matrix,
    invariant_checks,
    invariant_checks_enabled,
    lattice_contains,
    matmul,
    matsub,
    parse_matrix,
)
from hnfkit.oracle import naive_hnf
from hnfkit.relations import relations_basis_oracle

EX4_TEXT = "3 3\n1 2 3\n4 5 6\n7 8 1\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def split_blocks(text):
    return [parse_matrix(b) for b in text.strip("\n").split("\n\n")]


class TestHnfCommand:
    def test_golden(self, tmp_path, capsys):
        path = write(tmp_path, "m.mat", EX4_TEXT)
        code, out, _ = run_cli(["hnf", "--in", path], capsys)
        assert code == 0
        assert parse_matrix(out) == IntMat([[1, 2, 3], [0, 3, 6], [0, 0, 8]])

    def test_identity(self, tmp_path, capsys):
        path = write(tmp_path, "i.mat", format_matrix(IntMat.identity(3)))
        code, out, _ = run_cli(["hnf", "--in", path], capsys)
        assert code == 0
        assert parse_matrix(out) == IntMat.identity(3)

    def test_agrees_with_naive_hnf(self, tmp_path, capsys):
        path = write(tmp_path, "m.mat", EX4_TEXT)
        _, out, _ = run_cli(["hnf", "--in", path], capsys)
        assert out == format_matrix(naive_hnf(parse_matrix(EX4_TEXT)).mat)

    def test_debug_flag(self, tmp_path, capsys):
        path = write(tmp_path, "m.mat", EX4_TEXT)
        # the flag turns the checks on for the call and restores the caller's
        # setting afterwards, whichever it was
        for before in (True, False):
            with invariant_checks(before):
                code, out, _ = run_cli(["hnf", "--in", path, "--debug-invariants"],
                                       capsys)
                assert code == 0
                assert parse_matrix(out) == IntMat([[1, 2, 3], [0, 3, 6], [0, 0, 8]])
                assert invariant_checks_enabled() is before

    def test_out_file(self, tmp_path, capsys):
        path = write(tmp_path, "m.mat", EX4_TEXT)
        dest = str(tmp_path / "h.mat")
        code, out, _ = run_cli(["hnf", "--in", path, "--out", dest], capsys)
        assert code == 0 and out == ""
        assert parse_matrix(open(dest).read()) == IntMat([[1, 2, 3], [0, 3, 6], [0, 0, 8]])

    def test_seed_flag(self, tmp_path, capsys):
        # every path is deterministic, so the flag is an unknown argument
        path = write(tmp_path, "m.mat", EX4_TEXT)
        code, out, err = run_cli(["hnf", "--in", path, "--seed", "7"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("input error: ") and err.count("\n") == 1

    def test_oracle_flag(self, tmp_path, capsys):
        # the naive oracle is a library for the tests, not a CLI mode
        m = write(tmp_path, "m.mat", EX4_TEXT)
        d = write(tmp_path, "d.mat", "3 3\n2 0 0\n0 3 0\n0 0 5\n")
        b = write(tmp_path, "b.mat", "1 3\n1 2 3\n")
        for args in (["hnf", "--in", m], ["massager", "--in", m],
                     ["relbasis", "--mod", m, "--in", m], ["howell", "4", "--in", m],
                     ["remainder", "--mod", d, "--in", m],
                     ["product-hnf", "--in", m, "--in", m],
                     ["intersect", "--in", m, "--in", m],
                     ["crt", "--mod", d, "--in", m, "--rhs", b], ["verify", "--in", d]):
            assert run_cli(args, capsys)[0] == 0
            code, out, err = run_cli(args + ["--oracle"], capsys)
            assert code == 3 and out == ""
            assert err.startswith("input error: ") and err.count("\n") == 1
            assert "--oracle" in err


@contextmanager
def no_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no int/str digit limit")
class TestDigitLimit:
    """Entries beyond CPython's default 4300-digit int/str conversion limit."""

    def check_hnf(self, tmp_path, capsys, text):
        caller_limit = sys.get_int_max_str_digits()
        path = write(tmp_path, "big.mat", text)
        code, out, err = run_cli(["hnf", "--in", path], capsys)
        assert code == 0 and err == ""
        assert sys.get_int_max_str_digits() == caller_limit
        with no_digit_limit():
            assert out == format_matrix(naive_hnf(parse_matrix(text)).mat)

    def test_long_input_entry(self, tmp_path, capsys):
        self.check_hnf(tmp_path, capsys, "1 1\n-" + "3" * 4301 + "\n")

    def test_long_output_entry(self, tmp_path, capsys):
        # short enough to parse, but the determinant has 5000 digits
        text = f"2 2\n{'9' * 2500} 0\n1 {'7' * 2500}\n"
        self.check_hnf(tmp_path, capsys, text)

    def test_limit_restored_after_an_error(self, tmp_path, capsys):
        caller_limit = sys.get_int_max_str_digits()
        path = write(tmp_path, "bad.mat", "1 2\n" + "5" * 5000 + "\n")
        code, _, err = run_cli(["hnf", "--in", path], capsys)
        assert code == 3 and err.startswith("input error: ")
        assert sys.get_int_max_str_digits() == caller_limit


class TestExitCodes:
    def test_parse_error_is_3(self, tmp_path, capsys):
        path = write(tmp_path, "bad.mat", "1 2\n5\n")
        code, _, err = run_cli(["hnf", "--in", path], capsys)
        assert code == 3 and err
        # argument errors too: one input-error line, no argparse exit 2
        good = write(tmp_path, "m.mat", EX4_TEXT)
        for args in (["hnf", "--in", good, "--epsilon", "abc"],
                     ["hnf", "--in", good, "--epsilon", "0.5"],
                     ["howell", "x", "--in", good],
                     # N follows the matrix parser's integer rule
                     ["howell", "\u0663", "--in", good],
                     ["howell", " 7", "--in", good],
                     ["howell", "1_0", "--in", good],
                     ["relbasis", "--in", good]):
            code, out, err = run_cli(args, capsys)
            assert code == 3 and out == ""
            assert err.startswith("input error: ") and err.count("\n") == 1
        # a byte that is not ASCII is an input error, not a traceback
        undecodable = tmp_path / "bad-byte.mat"
        undecodable.write_bytes(b"1 1\n\xe9\n")
        code, out, err = run_cli(["hnf", "--in", str(undecodable)], capsys)
        assert code == 3 and out == ""
        assert err.startswith("input error: ") and err.count("\n") == 1

    def test_digits_outside_ascii_are_3(self, tmp_path, capsys):
        for tok in ("\u00b2", "\u0663", "\uff11"):
            path = tmp_path / "digit.mat"
            path.write_text(f"1 1\n{tok}\n", encoding="utf-8")
            code, out, err = run_cli(["hnf", "--in", str(path)], capsys)
            assert code == 3 and out == ""
            assert err.startswith("input error: ") and err.count("\n") == 1

    def test_missing_file_is_3(self, capsys):
        code, _, _ = run_cli(["hnf", "--in", "/nonexistent/x.mat"], capsys)
        assert code == 3

    def test_precondition_is_2(self, tmp_path, capsys):
        path = write(tmp_path, "sing.mat", "2 2\n1 2\n2 4\n")
        code, _, err = run_cli(["hnf", "--in", path], capsys)
        assert code == 2 and err
        full = write(tmp_path, "full.mat", "2 2\n2 1\n0 3\n")
        for cmd in ("product-hnf", "intersect"):
            for a, b in ((full, path), (path, full)):
                code, _, err = run_cli([cmd, "--in", a, "--in", b], capsys)
                assert code == 2 and err

    def test_internal_error_is_4(self, tmp_path, capsys, monkeypatch):
        import hnfkit.cli
        from hnfkit import InternalError

        def broken(*args, **kwargs):
            raise InternalError("invariant factor product does not match the determinant")

        monkeypatch.setattr(hnfkit.cli, "smith_massager", broken)
        path = write(tmp_path, "m.mat", EX4_TEXT)
        code, out, err = run_cli(["massager", "--in", path], capsys)
        assert code == 4 and out == ""
        assert err == ("internal error: invariant factor product does not match "
                       "the determinant\n")


class TestMassagerCommand:
    def test_blocks(self, tmp_path, capsys):
        path = write(tmp_path, "m.mat", EX4_TEXT)
        code, out, _ = run_cli(["massager", "--in", path], capsys)
        assert code == 0
        s, f = split_blocks(out)
        assert s == IntMat.diagonal([1, 1, 24])
        from hnfkit.massager import SmithMassager, verify_massager
        from hnfkit.intmat import SmithForm
        assert verify_massager(parse_matrix(EX4_TEXT),
                               SmithMassager(SmithForm([1, 1, 24]), f))


class TestRelbasisCommand:
    def test_golden(self, tmp_path, capsys):
        mod = write(tmp_path, "s.mat", "1 1\n24\n")
        f = write(tmp_path, "f.mat", "3 1\n19\n10\n3\n")
        code, out, _ = run_cli(["relbasis", "--mod", mod, "--in", f], capsys)
        assert code == 0
        assert parse_matrix(out) == IntMat([[1, 2, 3], [0, 3, 6], [0, 0, 8]])
        expect = relations_basis_oracle(IntMat([[24]]), IntMat([[19], [10], [3]]))
        assert parse_matrix(out) == expect.mat


class TestHowellCommand:
    def test_blocks(self, tmp_path, capsys):
        path = write(tmp_path, "a.mat", "1 2\n2 1\n")
        code, out, _ = run_cli(["howell", "4", "--in", path], capsys)
        assert code == 0
        h, u = split_blocks(out)
        assert h == IntMat([[2, 1], [0, 2]])
        assert u.rows == 2 and u.cols == 1


class TestRemainderCommand:
    def test_reduction(self, tmp_path, capsys):
        mod = write(tmp_path, "t.mat", "2 2\n2 1\n0 3\n")
        f = write(tmp_path, "f.mat", "1 2\n7 9\n")
        code, out, _ = run_cli(["remainder", "--mod", mod, "--in", f], capsys)
        assert code == 0
        fbar = parse_matrix(out)
        assert 0 <= fbar[0, 0] < 2 and 0 <= fbar[0, 1] < 3
        # F - Fbar lies in L(T)
        t = HermiteBasis(IntMat([[2, 1], [0, 3]]))
        diff = matsub(IntMat([[7, 9]]), fbar)
        assert lattice_contains(t, diff.row(0))


class TestProductAndIntersect:
    def test_product(self, tmp_path, capsys):
        a = write(tmp_path, "a.mat", "2 2\n2 1\n0 3\n")
        b = write(tmp_path, "b.mat", "2 2\n1 1\n0 2\n")
        code, out, _ = run_cli(["product-hnf", "--in", a, "--in", b], capsys)
        assert code == 0
        expect = naive_hnf(matmul(parse_matrix(open(a).read()),
                                  parse_matrix(open(b).read())))
        assert parse_matrix(out) == expect.mat

    def test_intersect(self, tmp_path, capsys):
        a = write(tmp_path, "a.mat", "2 2\n2 0\n0 2\n")
        b = write(tmp_path, "b.mat", "2 2\n3 0\n0 3\n")
        code, out, _ = run_cli(["intersect", "--in", a, "--in", b], capsys)
        assert code == 0
        assert parse_matrix(out) == IntMat.diagonal([6, 6])


class TestCrtCommand:
    def test_blocks(self, tmp_path, capsys):
        mod = write(tmp_path, "m.mat", "2 2\n3 0\n0 5\n")
        a = write(tmp_path, "a.mat", "2 2\n1 0\n0 1\n")
        b = write(tmp_path, "b.mat", "1 2\n2 3\n")
        code, out, _ = run_cli(["crt", "--mod", mod, "--in", a, "--rhs", b], capsys)
        assert code == 0
        h, xp, hbar = split_blocks(out)
        assert h == IntMat([[1]])
        assert xp[0, 0] % 3 == 2 and xp[0, 1] % 5 == 3
        assert hbar == IntMat.diagonal([3, 5])


class TestVerifyCommand:
    def test_valid_basis(self, tmp_path, capsys):
        path = write(tmp_path, "h.mat", "2 2\n2 1\n0 3\n")
        code, _, err = run_cli(["verify", "--in", path], capsys)
        assert code == 0 and "ok" in err

    def test_invalid_basis(self, tmp_path, capsys):
        path = write(tmp_path, "h.mat", "2 2\n2 5\n0 3\n")
        code, _, _ = run_cli(["verify", "--in", path], capsys)
        assert code == 2

    def test_membership_check(self, tmp_path, capsys):
        h = write(tmp_path, "h.mat", "3 3\n1 2 3\n0 3 6\n0 0 8\n")
        s = write(tmp_path, "s.mat", "1 1\n24\n")
        f = write(tmp_path, "f.mat", "3 1\n19\n10\n3\n")
        code, _, err = run_cli(["verify", "--in", h, "--in", s, "--in", f], capsys)
        assert code == 0
        bad = write(tmp_path, "hb.mat", "3 3\n1 2 3\n0 3 7\n0 0 8\n")
        code, _, _ = run_cli(["verify", "--in", bad, "--in", s, "--in", f], capsys)
        assert code == 2
        # Hermite and annihilates F, but spans a proper sublattice
        sub = write(tmp_path, "hs.mat", "3 3\n24 0 0\n0 24 0\n0 0 24\n")
        code, _, _ = run_cli(["verify", "--in", sub, "--in", s, "--in", f], capsys)
        assert code == 2

    def test_mis_shaped_f_named(self, tmp_path, capsys):
        h = write(tmp_path, "h.mat", "3 3\n1 2 3\n0 3 6\n0 0 8\n")
        s = write(tmp_path, "s.mat", "1 1\n24\n")
        # F with one row too many, then one column too many
        for text in ("4 1\n19\n10\n3\n1\n", "3 2\n19 0\n10 0\n3 0\n"):
            f = write(tmp_path, "f.mat", text)
            code, out, err = run_cli(["verify", "--in", h, "--in", s, "--in", f], capsys)
            assert code == 2 and out == ""
            assert err.endswith(", but H and S need it 3x1\n")


def test_consecutive_calls_share_no_state(tmp_path, capsys):
    # one parser serves every call; no --in list or flag may carry over
    m = write(tmp_path, "m.mat", EX4_TEXT)
    a = write(tmp_path, "a.mat", "2 2\n2 1\n0 3\n")
    b = write(tmp_path, "b.mat", "2 2\n1 1\n0 2\n")
    runs = [["product-hnf", "--in", a, "--in", b], ["hnf", "--in", m, "--debug-invariants"],
            ["product-hnf", "--in", b, "--in", a], ["hnf", "--in", m]]
    results = [run_cli(args, capsys) for args in runs]
    assert [code for code, _, _ in results] == [0, 0, 0, 0]
    assert parse_matrix(results[0][1]) == naive_hnf(matmul(IntMat([[2, 1], [0, 3]]),
                                                           IntMat([[1, 1], [0, 2]]))).mat
    assert parse_matrix(results[2][1]) == naive_hnf(matmul(IntMat([[1, 1], [0, 2]]),
                                                           IntMat([[2, 1], [0, 3]]))).mat
    assert results[1][1] == results[3][1] == format_matrix(naive_hnf(parse_matrix(EX4_TEXT)).mat)
    assert not invariant_checks_enabled()


def test_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "hnfkit.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "hnf" in proc.stdout
