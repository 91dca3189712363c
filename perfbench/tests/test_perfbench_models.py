import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import models  # noqa: E402
from transdirac import frame_geometry as fg  # noqa: E402
from transdirac import operator_calculus as oc  # noqa: E402


def test_heisenberg_model_shape():
    data = models.heisenberg_model(4)
    assert data["brackets"] == [[2, 3, 1, "1"], [4, 5, 1, "1"]]
    assert data["J"] == [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                         ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]
    assert data["line_bundle"]["B"][2][3] == "-2i"
    assert data["line_bundle"]["B"][3][2] == "2i"
    with pytest.raises(ValueError):
        models.heisenberg_model(5)


@pytest.mark.parametrize("q", [4, 6, 8])
def test_generated_models_validate(q, tmp_path):
    model = fg.load_model(models.write_heisenberg_model(q, tmp_path))
    assert (model.name, model.p, model.q) == (f"h{q}", 1, q)
    report = fg.validate(model)
    assert report.ok and not report.warnings


def test_h4_passes_all_nine_identities(tmp_path):
    model = fg.load_model(models.write_heisenberg_model(4, tmp_path))
    report = oc.verify_suite(model, k=1)
    assert report.all_passed and report.counted_passes() == 9
