"""Smoke tests of the repository tools: ``tools/fit_digest.py``, whose output
shows that a change leaves every benchmark fit bit for bit the same,
``tools/digest_cells.py``, which sums that output per cell,
``tools/code_lines.py``, which counts the package's code lines,
``tools/mttkrp_slabs.py``, which times the sliced mode-N MTTKRP pass, and
``tools/import_time.py``, which times a fresh ``import cpfast``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def digest_lines() -> list:
    """The output lines of ``fit_digest.py`` on the ``tiny`` workload, seed 0,
    run as a fresh interpreter from the root of the checkout."""
    out = subprocess.run(
        [sys.executable, str(TOOLS / "fit_digest.py"), "--workloads", "tiny",
         "--seeds", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    )
    return out.stdout.splitlines()


def test_fit_digest_exits_quietly_when_the_reader_closes_early():
    """Read as by ``| head -1``: the reader takes the first line and closes
    the pipe while the tool still has 59 fLM fits of ``swamp-small`` to
    print.  The tool exits with status 1 and writes nothing on stderr (no
    ``BrokenPipeError`` traceback).  Each line is flushed as it is printed,
    so the close comes long before the last fit's line."""
    proc = subprocess.Popen(
        [sys.executable, str(TOOLS / "fit_digest.py"), "--workloads",
         "swamp-small", "--seeds", "0", "--variants", "auto"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 1
    assert first.startswith("swamp-small 0 ")
    assert err == ""


def test_fit_digest_prints_one_stable_line_per_fit():
    """Two problems times three variants give six lines of the twelve
    documented fields, and a second run prints the same lines.  Both
    ``tiny`` shapes (6^3 R=2, 5x4x3 R=2) are noisy rank-2 tensors of order
    3 with I_1, I_2 >= R, so every start is the GEVD start of the ST-HOSVD
    core."""
    lines = digest_lines()
    assert len(lines) == 2 * 3
    rows = [line.split() for line in lines]
    for row in rows:
        assert len(row) == 12, row
        (workload, seed, _, _, iters, accepted, stop, relerr, digest, medsae,
         stop_test, start) = row
        assert (workload, seed, stop, start) == ("tiny", "0", "tol", "gevd")
        assert stop_test in ("gradient", "window", "core")
        assert 0 < int(accepted) <= int(iters)
        assert 0.0 < float.fromhex(relerr) < 1.0
        assert len(digest) == 16 and int(digest, 16) >= 0
        assert -300.0 <= float.fromhex(medsae) < 0.0
    assert [row[3] for row in rows] == ["auto", "als-ls", "als"] * 2
    assert len({row[2] for row in rows}) == 2
    assert digest_lines() == lines


def test_digest_cells_sums_each_cell_side_by_side(tmp_path):
    """On the ``tiny`` digest (two one-problem cells, three variants), one
    line per cell and variant holds one fit, its iterations, start, stop
    test and MedSAE; given the digest twice, every figure reads ``A->A``
    and every fit takes the same steps and is the same (``steps=1/1``,
    ``same=1/1``), a cell that the second digest lacks reads ``-`` there
    and ``steps=0/1 same=0/1``, a fit whose line differs only in its factor
    hash reads ``same=0/1`` with its figures and steps unchanged, one whose
    relative error, hash and MedSAE bits all differ still reads
    ``steps=1/1``, and one with another iteration count reads
    ``steps=0/1``."""
    lines = digest_lines()
    full, part = tmp_path / "full.txt", tmp_path / "part.txt"
    full.write_text("\n".join(lines) + "\n")
    part.write_text(lines[0] + "\n")

    def edited(name, changes):
        """The digest with line 0's fields at the keys of ``changes``
        replaced by their values."""
        fields = lines[0].split()
        for index, text in changes.items():
            fields[index] = text
        path = tmp_path / name
        path.write_text("\n".join([" ".join(fields)] + lines[1:]) + "\n")
        return path

    fields = lines[0].split()
    zero_hash = "0" * len(fields[8])
    moved = edited("moved.txt", {8: zero_hash})
    medsae = float.fromhex(fields[9])
    nudged = edited("nudged.txt", {
        7: (2 * float.fromhex(fields[7])).hex(), 8: zero_hash,
        9: (medsae + 1e-9 * abs(medsae)).hex(),
    })
    longer = edited("longer.txt", {4: str(int(fields[4]) + 1)})

    def cells(*paths):
        out = subprocess.run(
            [sys.executable, str(TOOLS / "digest_cells.py"), *map(str, paths)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
        )
        return [line.split() for line in out.stdout.splitlines()]

    one = cells(full)
    assert len(one) == len(lines) == 6
    for row, line in zip(one, lines):
        (workload, seed, label, variant, iters, _, _, _, _, medsae, stop_test,
         start) = line.split()
        assert row[:4] == [workload, seed, label.rsplit("-s", 1)[0], variant]
        assert row[4:] == [
            "fits=1", f"iters={iters}", f"start={start}:1",
            f"stop={stop_test}:1", f"medsae={float.fromhex(medsae):.2f}",
        ]
    both = cells(full, full)
    for row, alone in zip(both, one):
        assert row[4:] == [
            f"{field}->{field.split('=')[1]}" for field in alone[4:]
        ] + ["steps=1/1", "same=1/1"]
    missing = cells(full, part)
    assert missing[0] == both[0]
    for row in missing[1:]:
        assert all(field.endswith("->-") for field in row[4:-2])
        assert row[-2:] == ["steps=0/1", "same=0/1"]
    changed = cells(full, moved)
    assert changed[0] == both[0][:-1] + ["same=0/1"]
    assert changed[1:] == both[1:]
    bits = cells(full, nudged)
    assert bits[0][-2:] == ["steps=1/1", "same=0/1"]
    assert bits[1:] == both[1:]
    steps = cells(full, longer)
    assert steps[0][-2:] == ["steps=0/1", "same=0/1"]
    assert steps[1:] == both[1:]


def load_code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


# A comment-only line.
class Box:
    """Class docstring."""

    size = (
        1,
        2,
    )

    def area(self):
        """Method docstring,

        with a blank line inside."""
        text = """a string that is
        not a docstring"""
        return math.prod(self.size), text
'''


def test_code_lines_counts_only_code(tmp_path, capsys):
    """Of the fixture's lines, the import, ``class``, the four lines of the
    tuple, ``def``, both lines of the non-docstring string and the return
    count (10); docstrings, comments and blank lines do not."""
    tool = load_code_lines()
    assert tool.code_lines(FIXTURE) == 10
    assert tool.code_lines("") == 0
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "box.py").write_text(FIXTURE, encoding="utf-8")
    (package / "empty.py").write_text('"""Only a docstring."""\n', encoding="utf-8")
    assert tool.main(["code_lines.py", str(package)]) == 0
    assert capsys.readouterr().out.splitlines() == ["box 10", "empty 0", "total 10"]


def test_mttkrp_slabs_prints_header_and_one_row_per_item():
    """On a one-item grid, a real 50x60x40 tensor at R=6 (K = 3000 split
    into slabs of c = 2184), the tool prints its header and one row of nine
    fields whose times parse and whose sliced product agrees with the single
    one to 1e-12.  No timing is asserted."""
    out = subprocess.run(
        [sys.executable, str(TOOLS / "mttkrp_slabs.py"), "--grid", "real:50x60x40:6",
         "--repeat", "2"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    )
    header, *rows = [line.split() for line in out.stdout.splitlines()]
    assert header == ["kind", "dims", "R", "K", "c", "single_ms", "slab_ms",
                      "slab2_ms", "rel_diff"]
    assert len(rows) == 1
    kind, dims, rank, k, width, *times, diff = rows[0]
    assert (kind, dims, rank, k, width) == ("real", "50x60x40", "6", "3000", "2184")
    assert all(float(t) > 0 for t in times)
    assert float(diff) <= 1e-12


def test_import_time_prints_median_modules_and_top_entries():
    """With n=1 the tool prints the fresh-import line, one loaded-or-not line
    for each of scipy.linalg and scipy.optimize (both False: ``import
    cpfast`` loads neither), and five ``-X importtime`` entries, largest
    first, ``cpfast`` itself the largest.  No timing is asserted."""
    out = subprocess.run(
        [sys.executable, str(TOOLS / "import_time.py"), "-n", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    )
    rows = [line.split() for line in out.stdout.splitlines()]
    assert len(rows) == 3 + 5
    label, seconds, n = rows[0]
    assert (label, n) == ("fresh_import_s", "n=1") and float(seconds) > 0
    assert rows[1:3] == [["scipy.linalg", "False"], ["scipy.optimize", "False"]]
    top = rows[3:]
    assert all(row[0] == "importtime" and len(row) == 3 for row in top)
    cumulative = [int(row[1]) for row in top]
    assert cumulative == sorted(cumulative, reverse=True)
    assert top[0][2] == "cpfast"


def test_import_time_exits_quietly_when_the_reader_closes_early():
    """Read as by ``| head -1``: the reader takes the first line and closes
    the pipe while the tool still has lines to print.  The tool exits with
    status 1 and writes nothing on stderr (no ``BrokenPipeError``
    traceback).  ``-u`` writes each line at once, so the close comes before
    the lines that follow the ``-X importtime`` interpreter."""
    proc = subprocess.Popen(
        [sys.executable, "-u", str(TOOLS / "import_time.py"), "-n", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 1
    assert first.startswith("fresh_import_s ")
    assert err == ""
