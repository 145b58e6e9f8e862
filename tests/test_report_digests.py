"""Unit tests for the report byte-identity tool (benchmarks/report_digests.py)."""

import json
import re
from pathlib import Path

from benchmarks.report_digests import (
    compare,
    main,
    parse_listing,
    report_digest,
    workload_names,
)

ROOT = Path(__file__).resolve().parents[1]

LISTING = """\
wide-ta10 0 aaaa
wide-ta10 1 bbbb
chaos-ta10 0 cccc
"""


def test_workloads_are_benchmark_json_in_order():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert workload_names() == [w["name"] for w in spec["workloads"]]


def test_parse_listing_keys_by_workload_and_seed():
    digests = parse_listing(LISTING + "# a comment line\n\n")
    assert digests == {
        ("wide-ta10", "0"): "aaaa",
        ("wide-ta10", "1"): "bbbb",
        ("chaos-ta10", "0"): "cccc",
    }


def test_equal_listings_pass():
    table, same = compare(parse_listing(LISTING), parse_listing(LISTING))
    assert same
    assert "**NO**" not in table
    assert table.count("| yes |") == 3


def test_a_moved_digest_fails_and_is_marked():
    moved = LISTING.replace("bbbb", "dddd")
    table, same = compare(parse_listing(moved), parse_listing(LISTING))
    assert not same
    assert "| wide-ta10 | 1 | `dddd` | `bbbb` | **NO** |" in table


def test_a_digest_missing_on_one_side_fails():
    partial = "\n".join(LISTING.splitlines()[:2])
    assert not compare(parse_listing(partial), parse_listing(LISTING))[1]
    assert not compare(parse_listing(LISTING), parse_listing(partial))[1]
    assert not compare({}, {})[1]


def test_compare_exit_code(tmp_path, capsys):
    head, base = tmp_path / "head.txt", tmp_path / "base.txt"
    head.write_text(LISTING)
    base.write_text(LISTING)
    assert main(["--compare", str(head), str(base)]) == 0
    base.write_text(LISTING.replace("aaaa", "eeee"))
    assert main(["--compare", str(head), str(base)]) == 1
    assert "**NO**" in capsys.readouterr().out


def test_digest_is_a_stable_sha256():
    first = report_digest("wide-ta10", 0)
    assert re.fullmatch(r"[0-9a-f]{64}", first)
    assert report_digest("wide-ta10", 0) == first
