import pytest

from labelalign.cli import EXIT_OK, EXIT_RUNTIME, main
from labelalign.plotting import METRICS_HEADER, PlotError, plot_metrics, read_metrics

from test_cli import TINY


@pytest.fixture(scope="module")
def tiny_metrics(tmp_path_factory):
    root = tmp_path_factory.mktemp("plot")
    config = root / "tiny.ini"
    config.write_text(TINY)
    assert main(["train", "--config", str(config), "--out", str(root / "run")]) == EXIT_OK
    return root / "run" / "metrics.csv"


def test_svg_is_byte_identical_across_calls(tmp_path, tiny_metrics):
    first, second = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["plot", "--metrics", str(tiny_metrics), "--out", str(first)]) == EXIT_OK
    plot_metrics(tiny_metrics, second)
    svg = first.read_bytes()
    assert svg == second.read_bytes()
    assert svg.startswith(b"<svg") and svg.count(b"<polyline") == 3


def test_read_metrics_parses_numbers_and_empty_cells(tiny_metrics):
    rows = read_metrics(tiny_metrics)
    assert [row["step"] for row in rows] == [1, 2, 3]
    assert [row["val_acc"] is None for row in rows] == [True, False, True]
    assert all(row["wall_ms"] is None for row in rows)


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,2.0,1.0", "line 3: expected 9 cells"),
        ("1,2.0,1.0,0.5,0.1,0.4,0.5,,,7", "line 3: expected 9 cells"),
        ("1,2.0,abc,0.5,0.1,0.4,0.5,,", "line 3: cls 'abc' is not a number"),
        ("1,2.0,1.0,0.5,0.1,0.4,0.5,nan,", "line 3: val_acc is nan, not a finite number"),
        ("1,inf,1.0,0.5,0.1,0.4,0.5,,", "line 3: total is inf, not a finite number"),
        ("1.5,2.0,1.0,0.5,0.1,0.4,0.5,,", "line 3: step '1.5' is not a number"),
    ],
    ids=["missing", "extra", "text", "nan", "inf", "fractional_step"],
)
def test_malformed_rows_exit_2_naming_the_line(tmp_path, capsys, row, message):
    path = tmp_path / "metrics.csv"
    path.write_text(f"{METRICS_HEADER}\n1,2.0,1.0,0.5,0.1,0.4,0.5,,\n{row}\n")
    with pytest.raises(PlotError, match=message):
        read_metrics(path)
    assert main(["plot", "--metrics", str(path), "--out", str(tmp_path / "c.svg")]) == EXIT_RUNTIME
    assert message in capsys.readouterr().err
    assert not (tmp_path / "c.svg").exists()
