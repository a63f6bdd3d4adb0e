import json
import runpy
from pathlib import Path

GOLDEN = runpy.run_path(str(Path(__file__).resolve().parent / "golden" / "records.py"))


def test_records_match_the_committed_corpus():
    # every graph, interval, method and iteration count of the corpus, bit
    # for bit: a refactor that moves a record fails here on that line
    committed = json.loads(GOLDEN["PATH"].read_text(encoding="utf-8"))
    assert len(committed) == 146
    assert GOLDEN["records"]() == committed
